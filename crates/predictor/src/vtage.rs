//! A simplified VTAGE predictor (Perais & Seznec, HPCA 2014).
//!
//! VTAGE predicts values using a tagless **base component** (a last-value
//! table) plus several **tagged components** indexed by the load's PC
//! hashed with geometrically-increasing lengths of recent path history.
//! The longest-history component with a tag match provides the
//! prediction; allocation on a useless outcome moves predictions to
//! longer histories.
//!
//! The paper evaluates an "oracle VTAGE" alongside LVP and reports
//! (§IV-D3) that *both* leak — the attacks are properties of the VPS
//! concept. The [`Oracle`](crate::Oracle) wrapper supplies the
//! "only-the-target-load" filtering used there.

use std::collections::VecDeque;

use crate::index::IndexConfig;
use crate::stats::PredictorStats;
use crate::{LoadContext, Predicted, ValuePredictor};

/// Configuration for [`Vtage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VtageConfig {
    /// Index formation for the base component.
    pub index: IndexConfig,
    /// Confidence needed before predicting (applies to all components).
    pub confidence_threshold: u32,
    /// Saturation cap for confidence counters.
    pub max_confidence: u32,
    /// log2 of entries per tagged component.
    pub log2_entries: u32,
    /// Number of tagged components (history lengths double per component).
    pub num_components: usize,
    /// Shortest history length (in retired loads).
    pub min_history: usize,
}

impl Default for VtageConfig {
    fn default() -> Self {
        VtageConfig {
            index: IndexConfig::default(),
            confidence_threshold: 3,
            max_confidence: 15,
            log2_entries: 7,
            num_components: 3,
            min_history: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    valid: bool,
    tag: u64,
    value: u64,
    confidence: u32,
    usefulness: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct BaseEntry {
    valid: bool,
    tag: u64,
    value: u64,
    confidence: u32,
}

/// Which component produced a prediction (for internal update routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provider {
    Base,
    Tagged(usize),
}

/// The simplified VTAGE predictor.
#[derive(Debug)]
pub struct Vtage {
    config: VtageConfig,
    base: Vec<BaseEntry>,
    tagged: Vec<Vec<TaggedEntry>>,
    /// Recent path history: indexes of retired (trained) loads.
    history: VecDeque<u64>,
    last_provider: Option<(u64, Provider)>,
    stats: PredictorStats,
}

impl Vtage {
    /// Build a VTAGE from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no components, zero
    /// threshold, or zero-sized tables).
    #[must_use]
    pub fn new(config: VtageConfig) -> Vtage {
        assert!(config.confidence_threshold >= 1, "threshold must be >= 1");
        assert!(
            config.num_components >= 1,
            "need at least one tagged component"
        );
        assert!(
            config.log2_entries >= 1,
            "tables must have at least 2 entries"
        );
        let entries = 1usize << config.log2_entries;
        Vtage {
            base: vec![BaseEntry::default(); entries],
            tagged: vec![vec![TaggedEntry::default(); entries]; config.num_components],
            history: VecDeque::new(),
            last_provider: None,
            config,
            stats: PredictorStats::default(),
        }
    }

    fn history_len(&self, component: usize) -> usize {
        self.config.min_history << component
    }

    fn fold(&self, index: u64, component: usize) -> (usize, u64) {
        // Hash the load index with the most recent `history_len` history
        // entries; split into a table slot and a tag.
        let mut h = index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for (i, past) in self
            .history
            .iter()
            .take(self.history_len(component))
            .enumerate()
        {
            h ^= past
                .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
                .rotate_left((i as u32 * 13 + component as u32 * 7) & 63);
        }
        let mask = (1usize << self.config.log2_entries) - 1;
        ((h as usize) & mask, h >> self.config.log2_entries)
    }

    fn base_slot(&self, index: u64) -> (usize, u64) {
        // Hash the index into the slot so regularly-strided PCs or data
        // addresses spread across the table instead of systematically
        // colliding; the full index is the tag.
        let mask = (1usize << self.config.log2_entries) - 1;
        let h = index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (((h >> 24) as usize) & mask, index)
    }

    /// Number of valid entries across all components.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.base.iter().filter(|e| e.valid).count()
            + self
                .tagged
                .iter()
                .flat_map(|t| t.iter())
                .filter(|e| e.valid)
                .count()
    }
}

impl ValuePredictor for Vtage {
    fn lookup(&mut self, ctx: &LoadContext) -> Option<Predicted> {
        self.stats.lookups += 1;
        let index = self.config.index.index(ctx);
        // Longest-history tagged component with a tag match wins.
        for comp in (0..self.config.num_components).rev() {
            let (slot, tag) = self.fold(index, comp);
            let e = self.tagged[comp][slot];
            if e.valid && e.tag == tag {
                self.last_provider = Some((index, Provider::Tagged(comp)));
                if e.confidence >= self.config.confidence_threshold {
                    self.stats.predictions += 1;
                    return Some(Predicted {
                        value: e.value,
                        confidence: e.confidence,
                    });
                }
                self.stats.no_predictions += 1;
                return None;
            }
        }
        let (slot, tag) = self.base_slot(index);
        let e = self.base[slot];
        self.last_provider = Some((index, Provider::Base));
        if e.valid && e.tag == tag && e.confidence >= self.config.confidence_threshold {
            self.stats.predictions += 1;
            return Some(Predicted {
                value: e.value,
                confidence: e.confidence,
            });
        }
        self.stats.no_predictions += 1;
        None
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
        // Update the provider component (or allocate in the base).
        let provider = match self.last_provider.take() {
            Some((i, p)) if i == index => Some(p),
            _ => None,
        };
        let mispredicted = matches!(prediction, Some(p) if p != actual);
        match provider {
            Some(Provider::Tagged(comp)) => {
                let (slot, tag) = self.fold(index, comp);
                let e = &mut self.tagged[comp][slot];
                if e.valid && e.tag == tag {
                    if e.value == actual {
                        e.confidence = (e.confidence + 1).min(cfg.max_confidence);
                        e.usefulness = (e.usefulness + 1).min(cfg.max_confidence);
                    } else {
                        // As in the LVP, the differing access counts as
                        // the first observation of the new value.
                        e.value = actual;
                        e.confidence = 1;
                        e.usefulness = e.usefulness.saturating_sub(1);
                    }
                }
            }
            Some(Provider::Base) | None => {
                let (slot, tag) = self.base_slot(index);
                let e = &mut self.base[slot];
                if e.valid && e.tag == tag {
                    if e.value == actual {
                        e.confidence = (e.confidence + 1).min(cfg.max_confidence);
                    } else {
                        e.value = actual;
                        e.confidence = 1;
                    }
                } else {
                    if e.valid {
                        self.stats.evictions += 1;
                    }
                    *e = BaseEntry {
                        valid: true,
                        tag,
                        value: actual,
                        confidence: 1,
                    };
                }
            }
        }
        // On a misprediction, allocate into a (randomly deterministic:
        // lowest-usefulness) tagged component with longer history so the
        // pattern can be captured with more context.
        if mispredicted {
            let start = match provider {
                Some(Provider::Tagged(c)) => c + 1,
                _ => 0,
            };
            for comp in start..cfg.num_components {
                let (slot, tag) = self.fold(index, comp);
                let e = &mut self.tagged[comp][slot];
                if !e.valid || e.usefulness == 0 {
                    if e.valid {
                        self.stats.evictions += 1;
                    }
                    *e = TaggedEntry {
                        valid: true,
                        tag,
                        value: actual,
                        confidence: 1,
                        usefulness: 0,
                    };
                    break;
                }
                e.usefulness = e.usefulness.saturating_sub(1);
            }
        }
        // Advance path history with this load's index.
        self.history.push_front(index);
        let max_hist = cfg.min_history << (cfg.num_components - 1);
        while self.history.len() > max_hist {
            self.history.pop_back();
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
            addr: 0x1000,
            pid: 0,
        }
    }

    #[test]
    fn constant_value_predicted_after_training() {
        let mut vp = Vtage::new(VtageConfig::default());
        let c = ctx(0x40);
        for _ in 0..3 {
            assert!(vp.lookup(&c).is_none());
            vp.train(&c, 42, None);
        }
        assert_eq!(vp.lookup(&c).unwrap().value, 42);
    }

    #[test]
    fn differing_value_resets_confidence() {
        let mut vp = Vtage::new(VtageConfig::default());
        let c = ctx(0x40);
        for _ in 0..4 {
            vp.lookup(&c);
            vp.train(&c, 42, None);
        }
        assert!(vp.lookup(&c).is_some());
        vp.train(&c, 7, None);
        assert!(vp.lookup(&c).is_none(), "reset after value change");
    }

    #[test]
    fn independent_pcs() {
        let mut vp = Vtage::new(VtageConfig::default());
        for _ in 0..4 {
            vp.lookup(&ctx(0x400));
            vp.train(&ctx(0x400), 1, None);
        }
        assert!(vp.lookup(&ctx(0x400)).is_some());
        assert!(vp.lookup(&ctx(0x800)).is_none());
    }

    #[test]
    fn misprediction_allocates_tagged_entry() {
        let mut vp = Vtage::new(VtageConfig::default());
        let c = ctx(0x40);
        for _ in 0..4 {
            vp.lookup(&c);
            vp.train(&c, 42, None);
        }
        let before = vp.occupancy();
        let p = vp.lookup(&c).unwrap();
        vp.train(&c, 99, Some(p.value)); // mispredict
        assert!(vp.occupancy() > before, "tagged allocation on mispredict");
        assert_eq!(vp.stats().incorrect, 1);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Vtage::new(VtageConfig::default());
        let mut b = Vtage::new(VtageConfig::default());
        for i in 0..64u64 {
            let c = ctx(0x40 + (i % 5) * 4);
            let pa = a.lookup(&c).map(|p| p.value);
            let pb = b.lookup(&c).map(|p| p.value);
            assert_eq!(pa, pb);
            a.train(&c, i % 3, pa);
            b.train(&c, i % 3, pb);
        }
    }
}
