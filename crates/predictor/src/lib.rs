//! # vpsim-predictor
//!
//! Value predictors for the value-predictor security simulator, modelled
//! on the Value Prediction System (VPS) of Figure 1 in *"New
//! Predictor-Based Attacks in Processors"* (Deng & Szefer, DAC 2021).
//!
//! A VPS entry tracks an **index** (program counter or data address), a
//! **confidence** counter, a **usefulness** counter used for replacement,
//! the predicted **value**, and the past **value history** (`VHist`).
//! A load that misses the L1 consults the predictor; once a value has been
//! confirmed a `confidence` number of times, the predictor supplies it
//! speculatively so dependent instructions can proceed while the miss is
//! outstanding.
//!
//! Implemented predictors:
//!
//! * [`Lvp`] — the classic last-value predictor (Lipasti, Wilkerson &
//!   Shen, ASPLOS 1996), the paper's baseline "(non-secure) LVP";
//! * [`Stride`] — a 2-delta stride predictor (an extension beyond the
//!   paper's evaluation, swept by `repro --ablations`);
//! * [`Fcm`] — a two-level finite context method predictor built on the
//!   `VHist` value history (extension; catches repeating sequences);
//! * [`Vtage`] — a simplified VTAGE (Perais & Seznec, HPCA 2014) with a
//!   tagless base component plus tagged, path-history-indexed components;
//! * [`Oracle`] — a filter that only predicts for designated target loads,
//!   reproducing the paper's "oracle VTAGE" that maximises the attacker's
//!   advantage;
//! * defenses — [`AlwaysPredict`] (A-type), [`RandomWindow`] (R-type) and
//!   the [`DefenseSpec`] describing a full A/D/R stack (D-type lives in
//!   the pipeline, which delays speculative cache fills).
//!
//! ```
//! use vpsim_predictor::{LoadContext, Lvp, LvpConfig, ValuePredictor};
//!
//! let mut vp = Lvp::new(LvpConfig::default());
//! let ctx = LoadContext { pc: 0x40, addr: 0x1000, pid: 0 };
//! // Train `confidence` (default 3) times...
//! for _ in 0..3 {
//!     assert!(vp.lookup(&ctx).is_none());
//!     vp.train(&ctx, 7, None);
//! }
//! // ...and the 4th access is predicted (paper §II footnote 3).
//! assert_eq!(vp.lookup(&ctx).unwrap().value, 7);
//! ```

#![forbid(unsafe_code)]

mod defense;
mod fcm;
mod index;
mod lvp;
mod oracle;
mod stats;
mod stride;
mod vtage;

pub use defense::{AlwaysMode, AlwaysPredict, DefenseSpec, RandomWindow};
pub use fcm::{Fcm, FcmConfig};
pub use index::{IndexConfig, IndexKind};
pub use lvp::{Lvp, LvpConfig, LvpEntryView};
pub use oracle::Oracle;
pub use stats::PredictorStats;
pub use stride::{Stride, StrideConfig};
pub use vtage::{Vtage, VtageConfig};

/// A table keyed by predictor indexes, hashed by the fixed
/// [`U64Hasher`](vpsim_rng::U64Hasher): the keys are the simulator's
/// own, and a lookup or training hashes one on every L1-miss load.
type Table<V> =
    std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<vpsim_rng::U64Hasher>>;

/// Everything a load-based VPS may use to index its state: the load's
/// program counter (byte address), the virtual data address it accesses,
/// and the process identifier of the running program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoadContext {
    /// Byte address of the load instruction (the "PC").
    pub pc: u64,
    /// Virtual address of the accessed data.
    pub addr: u64,
    /// Process identifier, mixed into the index only when the predictor is
    /// configured with [`IndexConfig::use_pid`].
    pub pid: u32,
}

/// A prediction produced by [`ValuePredictor::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicted {
    /// The speculative value forwarded to dependent instructions.
    pub value: u64,
    /// The entry's confidence at prediction time (≥ the threshold).
    pub confidence: u32,
}

/// A load-value predictor, consulted on L1-miss loads.
///
/// The pipeline asks a predictor for exactly two things (Figure 1):
///
/// 1. on an L1-miss load it calls [`lookup`](ValuePredictor::lookup); a
///    `Some` return lets dependents execute on the speculative value;
/// 2. when the real data arrives it calls [`train`](ValuePredictor::train)
///    with the actual value and the prediction that had been made (if
///    any), so the predictor can update confidence/usefulness/VHist and
///    its accuracy statistics.
///
/// The A and R defenses wrap these two calls. Predictor chaos (entry
/// decay, value bit-flips, dropped trainings) is not a predictor: the
/// pipeline applies it around the same two calls, so any stack sees
/// it. Implementations must be deterministic for a given seed.
pub trait ValuePredictor: std::fmt::Debug + Send {
    /// Consult the predictor for a missing load. Returns `None` when the
    /// indexed entry is absent or below the confidence threshold.
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted>;

    /// Train with the `actual` loaded value once the miss resolves.
    /// `prediction` is the value the pipeline forwarded for the preceding
    /// `lookup` (after any defense perturbation and predictor chaos),
    /// used for accuracy accounting.
    fn train(&mut self, ctx: &LoadContext, actual: u64, prediction: Option<u64>);

    /// Accuracy and occupancy statistics.
    fn stats(&self) -> PredictorStats;
}

/// A no-op predictor: never predicts. This is the paper's "no VP"
/// baseline configuration.
#[derive(Debug, Clone, Default)]
pub struct NoPredictor {
    stats: PredictorStats,
}

impl NoPredictor {
    /// A predictor that never predicts.
    #[must_use]
    pub fn new() -> NoPredictor {
        NoPredictor::default()
    }
}

impl ValuePredictor for NoPredictor {
    fn lookup(&mut self, _ctx: &LoadContext) -> Option<Predicted> {
        self.stats.lookups += 1;
        self.stats.no_predictions += 1;
        None
    }

    fn train(&mut self, _ctx: &LoadContext, _actual: u64, _prediction: Option<u64>) {
        self.stats.trainings += 1;
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_predictor_never_predicts() {
        let mut vp = NoPredictor::new();
        let ctx = LoadContext {
            pc: 0,
            addr: 0,
            pid: 0,
        };
        for _ in 0..10 {
            assert!(vp.lookup(&ctx).is_none());
            vp.train(&ctx, 1, None);
        }
        assert_eq!(vp.stats().lookups, 10);
        assert_eq!(vp.stats().no_predictions, 10);
        assert_eq!(vp.stats().predictions, 0);
    }
}
