//! Secure value-predictor defenses (paper §VI).
//!
//! * **A-type** ([`AlwaysPredict`]) — always predict, regardless of
//!   confidence, using either a fixed value or the entry's history value.
//!   Removes the *no prediction vs correct prediction* timing class that
//!   Spill Over (and partially Test+Hit / Train+Hit) exploit.
//! * **R-type** ([`RandomWindow`]) — predict a uniformly random value from
//!   a window of size `S` around the value the predictor would have
//!   produced; the correct value is predicted with probability `1/S`.
//!   Degrades every correct-vs-incorrect distinguisher; the paper finds
//!   `S = 3` suffices for Train+Test but Test+Hit needs `S = 9`.
//! * **D-type** — delay microarchitectural side effects of speculation
//!   until predictions verify. This defense lives in the *pipeline* (it
//!   changes when cache fills happen, not what is predicted); the
//!   [`DefenseSpec`] here carries the flag to the pipeline configuration.

use vpsim_rng::SmallRng;

use crate::index::IndexConfig;
use crate::stats::PredictorStats;
use crate::{LoadContext, Predicted, Table, ValuePredictor};

/// What an A-type defense predicts when the wrapped predictor declines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlwaysMode {
    /// Predict a fixed constant.
    Fixed(u64),
    /// Predict the most recent value observed at the entry's index (falls
    /// back to zero for never-seen indexes).
    History,
}

/// A-type defense: *always predict a value* (paper §VI-A).
///
/// Wraps another predictor; when the inner predictor produces no
/// prediction (below confidence or no entry), this wrapper predicts
/// anyway, removing the observable *no prediction* timing case.
#[derive(Debug)]
pub struct AlwaysPredict<P> {
    inner: P,
    mode: AlwaysMode,
    index: IndexConfig,
    /// Last observed value per index, for [`AlwaysMode::History`].
    last_seen: Table<u64>,
}

impl<P: ValuePredictor> AlwaysPredict<P> {
    /// Wrap `inner` with A-type always-predict behaviour. `index` must
    /// match the inner predictor's index configuration so the history
    /// fallback tracks the same entries.
    #[must_use]
    pub fn new(inner: P, mode: AlwaysMode, index: IndexConfig) -> AlwaysPredict<P> {
        AlwaysPredict {
            inner,
            mode,
            index,
            last_seen: Table::default(),
        }
    }
}

impl<P: ValuePredictor> ValuePredictor for AlwaysPredict<P> {
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted> {
        if let Some(p) = self.inner.lookup(ctx) {
            return Some(p);
        }
        let value = match self.mode {
            AlwaysMode::Fixed(v) => v,
            AlwaysMode::History => {
                let idx = self.index.index(ctx);
                self.last_seen.get(&idx).copied().unwrap_or(0)
            }
        };
        Some(Predicted {
            value,
            confidence: 0,
        })
    }

    fn train(&mut self, ctx: &LoadContext, actual: u64, prediction: Option<u64>) {
        if matches!(self.mode, AlwaysMode::History) {
            self.last_seen.insert(self.index.index(ctx), actual);
        }
        self.inner.train(ctx, actual, prediction);
    }

    fn stats(&self) -> PredictorStats {
        self.inner.stats()
    }
}

/// R-type defense: *randomly predict a value* out of a window of size `S`
/// around the value the predictor would have produced (paper §VI-A).
///
/// With window size `S`, the true value is forwarded with probability
/// `1/S`, so an attacker's correct-prediction signal is diluted by a
/// factor the defender can tune (at a performance cost: mispredictions
/// squash the pipeline).
#[derive(Debug)]
pub struct RandomWindow<P> {
    inner: P,
    window: u64,
    rng: SmallRng,
}

impl<P: ValuePredictor> RandomWindow<P> {
    /// Wrap `inner` with an R-type window of size `window` (must be ≥ 1;
    /// a window of 1 is a no-op). `seed` makes the perturbation
    /// deterministic per experiment.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(inner: P, window: u64, seed: u64) -> RandomWindow<P> {
        assert!(window >= 1, "window size must be at least 1");
        RandomWindow {
            inner,
            window,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<P: ValuePredictor> ValuePredictor for RandomWindow<P> {
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted> {
        let p = self.inner.lookup(ctx)?;
        if self.window == 1 {
            return Some(p);
        }
        // Choose uniformly from [v - floor((S-1)/2), v + ceil((S-1)/2)]:
        // a window of S values centred on the would-be prediction.
        let lo_off = (self.window - 1) / 2;
        let pick = self.rng.gen_range(0..self.window);
        let value = p.value.wrapping_sub(lo_off).wrapping_add(pick);
        Some(Predicted { value, ..p })
    }

    fn train(&mut self, ctx: &LoadContext, actual: u64, prediction: Option<u64>) {
        self.inner.train(ctx, actual, prediction);
    }

    fn stats(&self) -> PredictorStats {
        self.inner.stats()
    }
}

/// A full defense stack description: which of the A/D/R techniques are
/// enabled and with what parameters. Consumed by the pipeline/attack
/// layers to build a defended VPS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DefenseSpec {
    /// A-type: always predict (mode), or `None` to disable.
    pub a_type: Option<AlwaysMode>,
    /// R-type: window size `S ≥ 2`, or `None` to disable.
    pub r_type: Option<u64>,
    /// D-type: delay speculative cache side effects until verification.
    pub d_type: bool,
}

impl DefenseSpec {
    /// No defenses (the baseline "non-secure" predictor).
    #[must_use]
    pub fn none() -> DefenseSpec {
        DefenseSpec::default()
    }

    /// All three defenses combined — the configuration the paper states
    /// defends every attack considered (§VI-B).
    #[must_use]
    pub fn full(window: u64) -> DefenseSpec {
        DefenseSpec {
            a_type: Some(AlwaysMode::History),
            r_type: Some(window),
            d_type: true,
        }
    }

    /// Whether any defense is active.
    #[must_use]
    pub fn is_defended(&self) -> bool {
        self.a_type.is_some() || self.r_type.is_some() || self.d_type
    }

    /// A compact label for experiment reports, e.g. `"A+R(3)+D"`.
    #[must_use]
    pub fn label(&self) -> String {
        if !self.is_defended() {
            return "none".to_owned();
        }
        let mut parts = Vec::new();
        if self.a_type.is_some() {
            parts.push("A".to_owned());
        }
        if let Some(s) = self.r_type {
            parts.push(format!("R({s})"));
        }
        if self.d_type {
            parts.push("D".to_owned());
        }
        parts.join("+")
    }

    /// Wrap `inner` with the predictor-side defenses (A and R); the
    /// D-type flag must separately be wired to the pipeline.
    #[must_use]
    pub fn apply<P: ValuePredictor + 'static>(
        &self,
        inner: P,
        index: IndexConfig,
        seed: u64,
    ) -> Box<dyn ValuePredictor> {
        // Order matters: A-type first (fills in missing predictions), then
        // R-type perturbs *every* outgoing prediction — matching the
        // paper's "combined" defense where forced predictions are also
        // randomised.
        match (self.a_type, self.r_type) {
            (None, None) => Box::new(inner),
            (Some(mode), None) => Box::new(AlwaysPredict::new(inner, mode, index)),
            (None, Some(s)) => Box::new(RandomWindow::new(inner, s, seed)),
            (Some(mode), Some(s)) => Box::new(RandomWindow::new(
                AlwaysPredict::new(inner, mode, index),
                s,
                seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lvp::{Lvp, LvpConfig};
    use crate::NoPredictor;

    fn ctx(pc: u64) -> LoadContext {
        LoadContext {
            pc,
            addr: 0,
            pid: 0,
        }
    }

    #[test]
    fn always_predict_fills_no_prediction() {
        let mut vp = AlwaysPredict::new(
            NoPredictor::new(),
            AlwaysMode::Fixed(99),
            IndexConfig::default(),
        );
        let p = vp.lookup(&ctx(0x40)).expect("A-type always predicts");
        assert_eq!(p.value, 99);
    }

    #[test]
    fn always_predict_history_mode_tracks_last_value() {
        let mut vp = AlwaysPredict::new(
            NoPredictor::new(),
            AlwaysMode::History,
            IndexConfig::default(),
        );
        assert_eq!(vp.lookup(&ctx(0x40)).unwrap().value, 0, "unseen index → 0");
        vp.train(&ctx(0x40), 1234, None);
        assert_eq!(vp.lookup(&ctx(0x40)).unwrap().value, 1234);
        assert_eq!(vp.lookup(&ctx(0x80)).unwrap().value, 0, "per-index history");
    }

    #[test]
    fn always_predict_passes_through_inner_predictions() {
        let mut inner = Lvp::new(LvpConfig::default());
        for _ in 0..4 {
            inner.train(&ctx(0x40), 5, None);
        }
        let mut vp = AlwaysPredict::new(inner, AlwaysMode::Fixed(99), IndexConfig::default());
        assert_eq!(
            vp.lookup(&ctx(0x40)).unwrap().value,
            5,
            "inner wins when confident"
        );
    }

    #[test]
    fn random_window_one_is_identity() {
        let mut inner = Lvp::new(LvpConfig::default());
        for _ in 0..4 {
            inner.train(&ctx(0x40), 7, None);
        }
        let mut vp = RandomWindow::new(inner, 1, 0);
        for _ in 0..10 {
            assert_eq!(vp.lookup(&ctx(0x40)).unwrap().value, 7);
        }
    }

    #[test]
    fn random_window_values_stay_in_window() {
        let mut inner = Lvp::new(LvpConfig::default());
        for _ in 0..4 {
            inner.train(&ctx(0x40), 100, None);
        }
        let mut vp = RandomWindow::new(inner, 5, 1);
        for _ in 0..200 {
            let v = vp.lookup(&ctx(0x40)).unwrap().value;
            assert!((98..=102).contains(&v), "value {v} outside window");
        }
    }

    #[test]
    fn random_window_hits_true_value_about_one_in_s() {
        let mut inner = Lvp::new(LvpConfig::default());
        for _ in 0..4 {
            inner.train(&ctx(0x40), 100, None);
        }
        let s = 4u64;
        let mut vp = RandomWindow::new(inner, s, 2);
        let n = 4000;
        let correct = (0..n)
            .filter(|_| vp.lookup(&ctx(0x40)).unwrap().value == 100)
            .count();
        let rate = correct as f64 / n as f64;
        assert!(
            (rate - 1.0 / s as f64).abs() < 0.03,
            "rate {rate} should be ≈ 1/{s}"
        );
    }

    #[test]
    fn random_window_deterministic_per_seed() {
        let make = |seed| {
            let mut inner = Lvp::new(LvpConfig::default());
            for _ in 0..4 {
                inner.train(&ctx(0x40), 100, None);
            }
            RandomWindow::new(inner, 9, seed)
        };
        let mut a = make(7);
        let mut b = make(7);
        for _ in 0..50 {
            assert_eq!(
                a.lookup(&ctx(0x40)).unwrap().value,
                b.lookup(&ctx(0x40)).unwrap().value
            );
        }
    }

    #[test]
    fn spec_labels() {
        assert_eq!(DefenseSpec::none().label(), "none");
        assert_eq!(DefenseSpec::full(3).label(), "A+R(3)+D");
        assert_eq!(
            DefenseSpec {
                r_type: Some(9),
                ..DefenseSpec::none()
            }
            .label(),
            "R(9)"
        );
    }

    #[test]
    fn spec_apply_stacks_wrappers() {
        let spec = DefenseSpec::full(3);
        let mut vp = spec.apply(NoPredictor::new(), IndexConfig::default(), 0);
        // A-type forces a prediction even from NoPredictor; R-type then
        // perturbs it within ±1.
        let p = vp.lookup(&ctx(0x40)).expect("A-type guarantees prediction");
        assert!(p.value.wrapping_add(1) <= 2, "perturbed around 0");
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_rejected() {
        let _ = RandomWindow::new(NoPredictor::new(), 0, 0);
    }
}
