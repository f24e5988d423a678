//! The oracle filter: predict only for designated target loads.
//!
//! The paper's experimental setup (§IV-C) uses "an oracle VTAGE" that
//! "makes predictions only for the target load instruction to maximize
//! the attacker's advantage". [`Oracle`] wraps any predictor and
//! suppresses predictions for loads outside the target set; training is
//! unrestricted so the wrapped predictor's state still evolves normally.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use vpsim_rng::U64Hasher;

use crate::stats::PredictorStats;
use crate::{LoadContext, Predicted, ValuePredictor};

/// A predictor wrapper that only predicts for chosen load PCs.
#[derive(Debug)]
pub struct Oracle<P> {
    inner: P,
    /// Byte addresses of load instructions allowed to predict.
    targets: HashSet<u64, BuildHasherDefault<U64Hasher>>,
}

impl<P: ValuePredictor> Oracle<P> {
    /// Wrap `inner`, allowing predictions only at the given load PCs
    /// (byte addresses).
    #[must_use]
    pub fn new(inner: P, targets: impl IntoIterator<Item = u64>) -> Oracle<P> {
        Oracle {
            inner,
            targets: targets.into_iter().collect(),
        }
    }

    /// Add another target load PC.
    pub fn add_target(&mut self, pc: u64) {
        self.targets.insert(pc);
    }

    /// Unwrap, returning the inner predictor.
    #[must_use]
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: ValuePredictor> ValuePredictor for Oracle<P> {
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted> {
        if self.targets.contains(&ctx.pc) {
            self.inner.lookup(ctx)
        } else {
            None
        }
    }

    fn train(&mut self, ctx: &LoadContext, actual: u64, prediction: Option<u64>) {
        self.inner.train(ctx, actual, prediction);
    }

    fn stats(&self) -> PredictorStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lvp::{Lvp, LvpConfig};

    fn trained_oracle(target: u64) -> Oracle<Lvp> {
        let mut o = Oracle::new(Lvp::new(LvpConfig::default()), [target]);
        for pc in [0x40u64, 0x80] {
            let ctx = LoadContext {
                pc,
                addr: 0,
                pid: 0,
            };
            for _ in 0..4 {
                o.train(&ctx, 5, None);
            }
        }
        o
    }

    #[test]
    fn predicts_only_for_target() {
        let mut o = trained_oracle(0x40);
        let target = LoadContext {
            pc: 0x40,
            addr: 0,
            pid: 0,
        };
        let other = LoadContext {
            pc: 0x80,
            addr: 0,
            pid: 0,
        };
        assert!(o.lookup(&target).is_some());
        assert!(
            o.lookup(&other).is_none(),
            "non-target load must not predict"
        );
    }

    #[test]
    fn training_is_unrestricted() {
        let mut o = trained_oracle(0x40);
        // 0x80 was trained even though it can't predict: adding it as a
        // target later immediately enables prediction.
        o.add_target(0x80);
        let other = LoadContext {
            pc: 0x80,
            addr: 0,
            pid: 0,
        };
        assert!(o.lookup(&other).is_some());
    }

    #[test]
    fn into_inner_preserves_state() {
        let o = trained_oracle(0x40);
        let lvp = o.into_inner();
        let view = lvp
            .entry_view(&LoadContext {
                pc: 0x80,
                addr: 0,
                pid: 0,
            })
            .expect("inner entry exists");
        assert_eq!(view.value, 5);
    }
}
