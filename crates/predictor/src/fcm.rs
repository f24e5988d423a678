//! A two-level finite context method (FCM) value predictor
//! (Sazeides & Smith style), exercising the `VHist` concept of Figure 1:
//! the first level maps a load's index to a hash of its recent *value
//! history*; the second level maps that history to the value that
//! followed it before.
//!
//! FCM captures repeating value *sequences* (e.g. 1, 2, 3, 1, 2, 3, …)
//! that last-value and stride predictors miss. For constant values it
//! degenerates to an LVP — so every attack in the paper applies to it
//! unchanged, reinforcing the §IV-D3 point that the leak is inherent to
//! value prediction, not to one predictor design.

use crate::index::IndexConfig;
use crate::stats::PredictorStats;
use crate::{LoadContext, Predicted, Table, ValuePredictor};

/// Configuration for [`Fcm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcmConfig {
    /// Index formation for the first-level (per-load) table.
    pub index: IndexConfig,
    /// History depth: how many recent values form the context.
    pub history_depth: usize,
    /// Number of confirmations required before predicting.
    pub confidence_threshold: u32,
    /// Saturation cap for confidence counters.
    pub max_confidence: u32,
    /// Capacity of the first-level table.
    pub l1_capacity: usize,
    /// Capacity of the second-level (context → value) table.
    pub l2_capacity: usize,
}

impl Default for FcmConfig {
    fn default() -> Self {
        FcmConfig {
            index: IndexConfig::default(),
            history_depth: 4,
            confidence_threshold: 3,
            max_confidence: 15,
            l1_capacity: 256,
            l2_capacity: 1024,
        }
    }
}

/// First-level entry: the load's recent value history.
#[derive(Debug, Clone)]
struct HistoryEntry {
    values: Vec<u64>,
    seq: u64,
}

/// Second-level entry: the value that followed a context.
#[derive(Debug, Clone, Copy)]
struct ContextEntry {
    value: u64,
    confidence: u32,
    seq: u64,
}

/// The two-level FCM predictor.
#[derive(Debug)]
pub struct Fcm {
    config: FcmConfig,
    level1: Table<HistoryEntry>,
    level2: Table<ContextEntry>,
    stats: PredictorStats,
    next_seq: u64,
}

impl Fcm {
    /// Build an FCM from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the history depth, threshold or capacities are zero.
    #[must_use]
    pub fn new(config: FcmConfig) -> Fcm {
        assert!(config.history_depth >= 1, "history depth must be >= 1");
        assert!(config.confidence_threshold >= 1, "threshold must be >= 1");
        assert!(
            config.l1_capacity >= 1 && config.l2_capacity >= 1,
            "capacities must be >= 1"
        );
        Fcm {
            config,
            level1: Table::default(),
            level2: Table::default(),
            stats: PredictorStats::default(),
            next_seq: 0,
        }
    }

    /// Hash a value history (order-sensitive) into a level-2 key, mixed
    /// with the load index so different loads' contexts do not collide.
    fn context_key(&self, index: u64, values: &[u64]) -> u64 {
        let mut h = index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for (i, v) in values.iter().enumerate() {
            h ^= v
                .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
                .rotate_left((11 * (i as u32 + 1)) & 63);
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        }
        h
    }

    fn evict_l1_if_full(&mut self) {
        if self.level1.len() < self.config.l1_capacity {
            return;
        }
        if let Some((&victim, _)) = self.level1.iter().min_by_key(|(_, e)| e.seq) {
            self.level1.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    fn evict_l2_if_full(&mut self) {
        if self.level2.len() < self.config.l2_capacity {
            return;
        }
        // Evict the least-confident, oldest context.
        if let Some((&victim, _)) = self
            .level2
            .iter()
            .min_by_key(|(_, e)| (e.confidence, e.seq))
        {
            self.level2.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Live entries across both levels (diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize) {
        (self.level1.len(), self.level2.len())
    }
}

impl ValuePredictor for Fcm {
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted> {
        self.stats.lookups += 1;
        let index = self.config.index.index(ctx);
        let prediction = self.level1.get(&index).and_then(|h| {
            let key = self.context_key(index, &h.values);
            self.level2.get(&key).copied()
        });
        match prediction {
            Some(e) if e.confidence >= self.config.confidence_threshold => {
                self.stats.predictions += 1;
                Some(Predicted {
                    value: e.value,
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
        let depth = self.config.history_depth;
        let max_conf = self.config.max_confidence;
        // Update the context → value mapping for the *previous* history.
        if let Some(h) = self.level1.get(&index) {
            let key = self.context_key(index, &h.values);
            match self.level2.get_mut(&key) {
                Some(e) => {
                    if e.value == actual {
                        e.confidence = (e.confidence + 1).min(max_conf);
                    } else {
                        e.value = actual;
                        e.confidence = 1;
                    }
                }
                None => {
                    self.evict_l2_if_full();
                    self.level2.insert(
                        key,
                        ContextEntry {
                            value: actual,
                            confidence: 1,
                            seq: self.next_seq,
                        },
                    );
                }
            }
        }
        // Shift the history.
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.level1.get_mut(&index) {
            Some(h) => {
                h.values.insert(0, actual);
                h.values.truncate(depth);
                h.seq = seq;
            }
            None => {
                self.evict_l1_if_full();
                self.level1.insert(
                    index,
                    HistoryEntry {
                        values: vec![actual],
                        seq,
                    },
                );
            }
        }
    }

    fn stats(&self) -> PredictorStats {
        self.stats
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

    fn drive(vp: &mut Fcm, pc: u64, v: u64) -> Option<u64> {
        let c = ctx(pc);
        let p = vp.lookup(&c).map(|p| p.value);
        vp.train(&c, v, p);
        p
    }

    #[test]
    fn constant_values_predict_like_lvp() {
        let mut vp = Fcm::new(FcmConfig::default());
        for _ in 0..8 {
            drive(&mut vp, 0x40, 42);
        }
        assert_eq!(vp.lookup(&ctx(0x40)).unwrap().value, 42);
    }

    #[test]
    fn repeating_sequence_predicted() {
        // The pattern 1,2,3,1,2,3,… is invisible to LVP/stride but FCM
        // learns context → next-value.
        let mut vp = Fcm::new(FcmConfig::default());
        let pattern = [1u64, 2, 3];
        let mut correct = 0;
        let mut total = 0;
        for round in 0..40 {
            let v = pattern[round % 3];
            let p = drive(&mut vp, 0x40, v);
            if round > 20 {
                total += 1;
                if p == Some(v) {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 10 >= total * 9,
            "FCM should lock onto the period-3 pattern: {correct}/{total}"
        );
    }

    #[test]
    fn differing_value_lowers_confidence() {
        let mut vp = Fcm::new(FcmConfig::default());
        for _ in 0..8 {
            drive(&mut vp, 0x40, 7);
        }
        assert!(vp.lookup(&ctx(0x40)).is_some());
        drive(&mut vp, 0x40, 9); // breaks the context chain
        assert!(
            vp.lookup(&ctx(0x40)).is_none(),
            "stale context must not predict above threshold"
        );
    }

    #[test]
    fn independent_loads() {
        let mut vp = Fcm::new(FcmConfig::default());
        for _ in 0..8 {
            drive(&mut vp, 0x40, 1);
        }
        assert!(vp.lookup(&ctx(0x40)).is_some());
        assert!(vp.lookup(&ctx(0x80)).is_none());
    }

    #[test]
    fn capacity_eviction_l1() {
        let mut vp = Fcm::new(FcmConfig {
            l1_capacity: 2,
            ..FcmConfig::default()
        });
        drive(&mut vp, 0x40, 1);
        drive(&mut vp, 0x44, 2);
        drive(&mut vp, 0x48, 3);
        assert_eq!(vp.occupancy().0, 2);
        assert!(vp.stats().evictions >= 1);
    }

    #[test]
    fn stats_invariants() {
        let mut vp = Fcm::new(FcmConfig::default());
        for i in 0..50u64 {
            drive(&mut vp, 0x40 + (i % 3) * 4, i % 5);
        }
        let s = vp.stats();
        assert_eq!(s.lookups, s.predictions + s.no_predictions);
        assert!(s.correct + s.incorrect <= s.predictions);
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_rejected() {
        let _ = Fcm::new(FcmConfig {
            history_depth: 0,
            ..FcmConfig::default()
        });
    }
}
