//! The last-value predictor (LVP), after Lipasti, Wilkerson & Shen
//! (ASPLOS 1996) — the paper's baseline "(non-secure) LVP".
//!
//! Each entry holds the Figure 1 fields: `index` (matched in full),
//! `confidence`, `usefulness`, `value` and `VHist`. The predictor
//! supplies a value only once the same value has been observed a
//! `confidence_threshold` number of times — so "the predictor will output
//! a first prediction on the confidence + 1 access" (paper §II,
//! footnote 3). A single access observing a *different* value resets the
//! confidence to zero (this is exactly what the Train + Test attack's
//! 1-access modify step exploits to force a *no prediction* outcome).

use crate::index::IndexConfig;
use crate::stats::PredictorStats;
use crate::{LoadContext, Predicted, Table, ValuePredictor};

/// Configuration for [`Lvp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LvpConfig {
    /// Index formation (PC vs data address, pid mixing, truncation).
    pub index: IndexConfig,
    /// Number of same-value observations required before predicting.
    pub confidence_threshold: u32,
    /// Saturation cap for the confidence counter.
    pub max_confidence: u32,
    /// Saturation cap for the usefulness counter.
    pub max_usefulness: u32,
    /// Maximum number of entries; the smallest-usefulness entry is
    /// evicted when full (paper §I-A).
    pub capacity: usize,
    /// Depth of the per-entry value history (`VHist`).
    pub vhist_depth: usize,
}

impl Default for LvpConfig {
    fn default() -> Self {
        LvpConfig {
            index: IndexConfig::default(),
            confidence_threshold: 3,
            max_confidence: 15,
            max_usefulness: 15,
            capacity: 256,
            vhist_depth: 4,
        }
    }
}

/// One VPS entry.
#[derive(Debug, Clone)]
struct Entry {
    confidence: u32,
    usefulness: u32,
    value: u64,
    vhist: Vec<u64>,
    /// Insertion order tiebreaker for usefulness-based eviction.
    seq: u64,
}

/// Read-only view of an entry, for diagnostics and the `repro --figure 3`
/// predictor-state traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LvpEntryView {
    /// The entry's full index.
    pub index: u64,
    /// Current confidence counter.
    pub confidence: u32,
    /// Current usefulness counter.
    pub usefulness: u32,
    /// The value that would be predicted.
    pub value: u64,
    /// Recent value history, most recent first.
    pub vhist: Vec<u64>,
}

/// The last-value predictor.
#[derive(Debug)]
pub struct Lvp {
    config: LvpConfig,
    table: Table<Entry>,
    stats: PredictorStats,
    next_seq: u64,
}

impl Lvp {
    /// Build an LVP from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `confidence_threshold` is zero or exceeds
    /// `max_confidence`, or if `capacity` is zero.
    #[must_use]
    pub fn new(config: LvpConfig) -> Lvp {
        assert!(config.confidence_threshold >= 1, "threshold must be >= 1");
        assert!(
            config.confidence_threshold <= config.max_confidence,
            "threshold must not exceed max confidence"
        );
        assert!(config.capacity >= 1, "capacity must be >= 1");
        Lvp {
            config,
            table: Table::default(),
            stats: PredictorStats::default(),
            next_seq: 0,
        }
    }

    /// The configuration this predictor was built with.
    #[must_use]
    pub fn config(&self) -> &LvpConfig {
        &self.config
    }

    /// Number of live entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }

    /// Inspect the entry a context maps to, if present.
    #[must_use]
    pub fn entry_view(&self, ctx: &LoadContext) -> Option<LvpEntryView> {
        let index = self.config.index.index(ctx);
        self.table.get(&index).map(|e| LvpEntryView {
            index,
            confidence: e.confidence,
            usefulness: e.usefulness,
            value: e.value,
            vhist: e.vhist.clone(),
        })
    }

    fn evict_if_full(&mut self) {
        if self.table.len() < self.config.capacity {
            return;
        }
        // Evict the entry with the smallest usefulness; break ties by
        // oldest insertion so eviction is deterministic.
        if let Some((&victim, _)) = self.table.iter().min_by_key(|(_, e)| (e.usefulness, e.seq)) {
            self.table.remove(&victim);
            self.stats.evictions += 1;
        }
    }
}

impl ValuePredictor for Lvp {
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted> {
        self.stats.lookups += 1;
        let index = self.config.index.index(ctx);
        match self.table.get(&index) {
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
        let cfg = self.config;
        if let Some(e) = self.table.get_mut(&index) {
            if e.value == actual {
                // Confirmed: confidence and usefulness increase (Fig. 1).
                e.confidence = (e.confidence + 1).min(cfg.max_confidence);
                e.usefulness = (e.usefulness + 1).min(cfg.max_usefulness);
            } else {
                // A differing access invalidates the trained state: the
                // entry retrains on the new value, which counts as its
                // first observation (so `confidence` further accesses set
                // a new valid state, as the Figure 3 modify step needs,
                // while a single access leaves the entry below threshold
                // — the paper's "resets the confidence ... leads to no
                // prediction in the last step").
                e.value = actual;
                e.confidence = 1;
            }
            // Drop the oldest value first, so the history never
            // outgrows the capacity it was allocated with.
            e.vhist.truncate(cfg.vhist_depth.saturating_sub(1));
            if cfg.vhist_depth > 0 {
                e.vhist.insert(0, actual);
            }
        } else {
            self.evict_if_full();
            self.table.insert(
                index,
                Entry {
                    // The allocating access counts as the first of the
                    // `confidence` required observations.
                    confidence: 1,
                    usefulness: 0,
                    value: actual,
                    vhist: {
                        // A new entry's history holds its first value
                        // even at depth 0, until the next training.
                        let mut vhist = Vec::with_capacity(cfg.vhist_depth.max(1));
                        vhist.push(actual);
                        vhist
                    },
                    seq: self.next_seq,
                },
            );
            self.next_seq += 1;
        }
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexConfig, IndexKind};

    fn ctx(pc: u64) -> LoadContext {
        LoadContext {
            pc,
            addr: 0x1000,
            pid: 0,
        }
    }

    fn lvp() -> Lvp {
        Lvp::new(LvpConfig::default())
    }

    #[test]
    fn first_prediction_on_confidence_plus_one_access() {
        let mut vp = lvp();
        let c = ctx(0x40);
        // Accesses 1..=3 (threshold 3): no prediction yet.
        for i in 1..=3 {
            assert!(vp.lookup(&c).is_none(), "access {i} must not predict");
            vp.train(&c, 42, None);
        }
        // Access 4 = confidence + 1: first prediction.
        let p = vp.lookup(&c).expect("4th access predicts");
        assert_eq!(p.value, 42);
        assert!(p.confidence >= 3);
    }

    #[test]
    fn single_differing_access_resets_confidence() {
        let mut vp = lvp();
        let c = ctx(0x40);
        for _ in 0..4 {
            vp.train(&c, 42, None);
        }
        assert!(vp.lookup(&c).is_some());
        // One access with a different value: confidence falls below the
        // threshold → *no prediction* (the Train+Test 1-access modify
        // step).
        vp.train(&c, 7, None);
        assert!(vp.lookup(&c).is_none());
        let view = vp.entry_view(&c).unwrap();
        assert_eq!(view.confidence, 1, "new value observed once");
        assert_eq!(view.value, 7);
    }

    #[test]
    fn retraining_after_reset_requires_full_confidence() {
        let mut vp = lvp();
        let c = ctx(0x40);
        for _ in 0..4 {
            vp.train(&c, 42, None);
        }
        // A full modify step: `confidence` accesses with the new value
        // set a new valid predictor state (Figure 3).
        vp.train(&c, 7, None); // first observation of 7 (confidence 1)
        for i in 0..2 {
            assert!(vp.lookup(&c).is_none(), "confirmation {i} too early");
            vp.train(&c, 7, None);
        }
        assert_eq!(
            vp.lookup(&c).unwrap().value,
            7,
            "after confidence accesses the new state is valid"
        );
    }

    #[test]
    fn distinct_indices_are_independent() {
        let mut vp = lvp();
        for _ in 0..4 {
            vp.train(&ctx(0x40), 1, None);
        }
        assert!(vp.lookup(&ctx(0x40)).is_some());
        assert!(vp.lookup(&ctx(0x44)).is_none());
    }

    #[test]
    fn data_address_indexing() {
        let cfg = LvpConfig {
            index: IndexConfig {
                kind: IndexKind::DataAddress,
                ..IndexConfig::default()
            },
            ..LvpConfig::default()
        };
        let mut vp = Lvp::new(cfg);
        let a = LoadContext {
            pc: 0x40,
            addr: 0x1000,
            pid: 0,
        };
        let b = LoadContext {
            pc: 0x80,
            addr: 0x1000,
            pid: 0,
        }; // same data addr
        for _ in 0..3 {
            vp.train(&a, 5, None);
        }
        assert_eq!(
            vp.lookup(&b)
                .expect("data-address predictors alias by addr")
                .value,
            5
        );
    }

    #[test]
    fn usefulness_based_eviction() {
        let cfg = LvpConfig {
            capacity: 2,
            ..LvpConfig::default()
        };
        let mut vp = Lvp::new(cfg);
        // Entry A trained 4 times (usefulness 3), entry B once (usefulness 0).
        for _ in 0..4 {
            vp.train(&ctx(0xa0), 1, None);
        }
        vp.train(&ctx(0xb0), 2, None);
        // Inserting C evicts B (smallest usefulness).
        vp.train(&ctx(0xc0), 3, None);
        assert_eq!(vp.occupancy(), 2);
        assert!(vp.entry_view(&ctx(0xa0)).is_some(), "useful entry kept");
        assert!(vp.entry_view(&ctx(0xb0)).is_none(), "useless entry evicted");
        assert_eq!(vp.stats().evictions, 1);
    }

    #[test]
    fn vhist_records_recent_values() {
        let mut vp = lvp();
        let c = ctx(0x40);
        for v in [1u64, 2, 3, 4, 5, 6] {
            vp.train(&c, v, None);
        }
        let view = vp.entry_view(&c).unwrap();
        assert_eq!(view.vhist, vec![6, 5, 4, 3]);
    }

    #[test]
    fn vhist_keeps_the_newest_values_at_every_depth() {
        for depth in 0..6 {
            let mut vp = Lvp::new(LvpConfig {
                vhist_depth: depth,
                ..LvpConfig::default()
            });
            let c = ctx(0x40);
            // The history as a new entry's `[first]`, then each value
            // pushed to the front and the history cut to `depth`.
            let mut model: Vec<u64> = Vec::new();
            for (i, v) in [7u64, 7, 8, 9, 9, 10, 11, 12].into_iter().enumerate() {
                vp.train(&c, v, None);
                if i == 0 {
                    model = vec![v];
                } else {
                    model.insert(0, v);
                    model.truncate(depth);
                }
                assert_eq!(vp.entry_view(&c).unwrap().vhist, model, "depth {depth}");
            }
        }
    }

    #[test]
    fn accuracy_stats_from_prediction_feedback() {
        let mut vp = lvp();
        let c = ctx(0x40);
        vp.train(&c, 9, None);
        vp.train(&c, 9, Some(9));
        vp.train(&c, 8, Some(9));
        let s = vp.stats();
        assert_eq!(s.correct, 1);
        assert_eq!(s.incorrect, 1);
        assert_eq!(s.trainings, 3);
    }

    #[test]
    fn confidence_saturates() {
        let cfg = LvpConfig {
            max_confidence: 5,
            ..LvpConfig::default()
        };
        let mut vp = Lvp::new(cfg);
        let c = ctx(0x40);
        for _ in 0..20 {
            vp.train(&c, 3, None);
        }
        assert_eq!(vp.entry_view(&c).unwrap().confidence, 5);
    }

    #[test]
    #[should_panic(expected = "threshold must be >= 1")]
    fn zero_threshold_rejected() {
        let _ = Lvp::new(LvpConfig {
            confidence_threshold: 0,
            ..LvpConfig::default()
        });
    }

    #[test]
    fn pid_mixing_isolates_processes() {
        let cfg = LvpConfig {
            index: IndexConfig {
                use_pid: true,
                ..IndexConfig::default()
            },
            ..LvpConfig::default()
        };
        let mut vp = Lvp::new(cfg);
        let p1 = LoadContext {
            pc: 0x40,
            addr: 0,
            pid: 1,
        };
        let p2 = LoadContext {
            pc: 0x40,
            addr: 0,
            pid: 2,
        };
        for _ in 0..4 {
            vp.train(&p1, 1, None);
        }
        assert!(vp.lookup(&p1).is_some());
        assert!(
            vp.lookup(&p2).is_none(),
            "pid-indexed entries must not alias"
        );
    }
}
