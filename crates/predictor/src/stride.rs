//! A 2-delta stride value predictor.
//!
//! An extension beyond the paper's LVP/VTAGE evaluation, swept by the
//! predictor-type ablation of `repro --ablations`: it predicts
//! `last_value + stride` once the same stride has been observed twice
//! (the classic "2-delta" filter) *and* the confidence threshold is
//! met. For constant values the stride is zero and the predictor
//! degenerates to an LVP, so every attack that works on an LVP also
//! works here — demonstrating the paper's point that the leak is a
//! property of the VPS concept, not one predictor design.

use std::collections::HashMap;

use crate::index::IndexConfig;
use crate::stats::PredictorStats;
use crate::{LoadContext, Predicted, ValuePredictor};

/// Configuration for [`Stride`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Index formation.
    pub index: IndexConfig,
    /// Number of consistent observations required before predicting.
    pub confidence_threshold: u32,
    /// Saturation cap for the confidence counter.
    pub max_confidence: u32,
    /// Maximum number of entries.
    pub capacity: usize,
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig {
            index: IndexConfig::default(),
            confidence_threshold: 3,
            max_confidence: 15,
            capacity: 256,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    last_value: u64,
    /// Committed stride (used for prediction).
    stride: i64,
    /// Most recently observed stride (promoted to `stride` when seen twice).
    last_stride: i64,
    confidence: u32,
    usefulness: u32,
    seq: u64,
}

/// The 2-delta stride predictor.
#[derive(Debug)]
pub struct Stride {
    config: StrideConfig,
    table: HashMap<u64, Entry>,
    stats: PredictorStats,
    next_seq: u64,
}

impl Stride {
    /// Build a stride predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `confidence_threshold` is zero or `capacity` is zero.
    #[must_use]
    pub fn new(config: StrideConfig) -> Stride {
        assert!(config.confidence_threshold >= 1, "threshold must be >= 1");
        assert!(config.capacity >= 1, "capacity must be >= 1");
        Stride {
            config,
            table: HashMap::new(),
            stats: PredictorStats::default(),
            next_seq: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }

    fn evict_if_full(&mut self) {
        if self.table.len() < self.config.capacity {
            return;
        }
        if let Some((&victim, _)) = self.table.iter().min_by_key(|(_, e)| (e.usefulness, e.seq)) {
            self.table.remove(&victim);
            self.stats.evictions += 1;
        }
    }
}

impl ValuePredictor for Stride {
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted> {
        self.stats.lookups += 1;
        let index = self.config.index.index(ctx);
        match self.table.get(&index) {
            Some(e) if e.confidence >= self.config.confidence_threshold => {
                self.stats.predictions += 1;
                Some(Predicted {
                    value: e.last_value.wrapping_add(e.stride as u64),
                    confidence: e.confidence,
                })
            }
            _ => {
                self.stats.no_predictions += 1;
                None
            }
        }
    }

    fn train(&mut self, ctx: &LoadContext, actual: u64, prediction: Option<u64>) {
        self.stats.trainings += 1;
        match prediction {
            Some(p) if p == actual => self.stats.correct += 1,
            Some(_) => self.stats.incorrect += 1,
            None => {}
        }
        let index = self.config.index.index(ctx);
        let cfg = self.config;
        if let Some(e) = self.table.get_mut(&index) {
            let observed = actual.wrapping_sub(e.last_value) as i64;
            if observed == e.stride {
                e.confidence = (e.confidence + 1).min(cfg.max_confidence);
                e.usefulness = (e.usefulness + 1).min(cfg.max_confidence);
            } else if observed == e.last_stride {
                // 2-delta promotion: the new stride repeated, adopt it but
                // restart confidence from one confirmation.
                e.stride = observed;
                e.confidence = 1;
            } else {
                e.confidence = 0;
            }
            e.last_stride = observed;
            e.last_value = actual;
        } else {
            self.evict_if_full();
            self.table.insert(
                index,
                Entry {
                    last_value: actual,
                    stride: 0,
                    last_stride: 0,
                    confidence: 1,
                    usefulness: 0,
                    seq: self.next_seq,
                },
            );
            self.next_seq += 1;
        }
    }

    fn reset(&mut self) {
        self.table.clear();
        self.stats = PredictorStats::default();
        self.next_seq = 0;
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "stride"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pc: u64) -> LoadContext {
        LoadContext {
            pc,
            addr: 0,
            pid: 0,
        }
    }

    #[test]
    fn constant_values_predict_like_lvp() {
        let mut vp = Stride::new(StrideConfig::default());
        let c = ctx(0x40);
        for _ in 0..3 {
            assert!(vp.lookup(&c).is_none());
            vp.train(&c, 42, None);
        }
        assert_eq!(vp.lookup(&c).unwrap().value, 42);
    }

    #[test]
    fn strided_sequence_predicts_next() {
        let mut vp = Stride::new(StrideConfig::default());
        let c = ctx(0x40);
        // 10, 18, 26, 34, ... stride 8.
        let mut v = 10u64;
        for _ in 0..8 {
            vp.train(&c, v, None);
            v += 8;
        }
        let p = vp.lookup(&c).expect("stride locked in");
        assert_eq!(p.value, v, "predicts last + stride");
    }

    #[test]
    fn stride_change_suppresses_prediction() {
        let mut vp = Stride::new(StrideConfig::default());
        let c = ctx(0x40);
        for v in [0u64, 8, 16, 24, 32] {
            vp.train(&c, v, None);
        }
        assert!(vp.lookup(&c).is_some());
        vp.train(&c, 1000, None); // broken stride
        assert!(vp.lookup(&c).is_none());
    }

    #[test]
    fn two_delta_requires_stride_repetition() {
        let mut vp = Stride::new(StrideConfig::default());
        let c = ctx(0x40);
        for v in [0u64, 8, 16, 24] {
            vp.train(&c, v, None);
        }
        // Switch to stride 4: first occurrence must not retrain stride.
        vp.train(&c, 28, None);
        assert!(vp.lookup(&c).is_none());
        // Second occurrence promotes the new stride; confidence rebuilds.
        vp.train(&c, 32, None);
        vp.train(&c, 36, None);
        vp.train(&c, 40, None);
        let p = vp.lookup(&c).expect("new stride locked");
        assert_eq!(p.value, 44);
    }

    #[test]
    fn negative_strides_work() {
        let mut vp = Stride::new(StrideConfig::default());
        let c = ctx(0x40);
        for v in [100u64, 92, 84, 76, 68, 60] {
            vp.train(&c, v, None);
        }
        assert_eq!(vp.lookup(&c).unwrap().value, 52);
    }

    #[test]
    fn capacity_eviction() {
        let mut vp = Stride::new(StrideConfig {
            capacity: 1,
            ..StrideConfig::default()
        });
        vp.train(&ctx(0x40), 1, None);
        vp.train(&ctx(0x44), 2, None);
        assert_eq!(vp.occupancy(), 1);
        assert_eq!(vp.stats().evictions, 1);
    }
}
