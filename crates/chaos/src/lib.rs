//! # vpsim-chaos
//!
//! The deterministic fault/noise-injection plane for the simulator.
//!
//! The paper's evaluation runs on a quiet machine; real predictor
//! attacks contend with co-tenants, context switches and DRAM traffic.
//! This crate models that activity as *injectors* threaded through the
//! memory hierarchy, the pipeline and the value predictor:
//!
//! | injector | domain | real-world analogue |
//! |---|---|---|
//! | extra DRAM/L2 latency jitter | mem | bank conflicts, refresh, bus contention |
//! | random line evictions | mem | prefetcher / co-tenant cache pressure |
//! | TLB shootdowns | mem | IPI-driven remote invalidations |
//! | spurious squashes | pipeline | context switches, interrupts |
//! | predictor entry decay | predictor | co-tenant VPS contention |
//! | predictor value bit-flips | predictor | aliasing/partial-tag corruption |
//! | dropped training updates | predictor | entry eviction between train and use |
//!
//! **Determinism invariants** (held by every engine here):
//!
//! 1. Each engine owns a private [`SmallRng`] stream seeded from
//!    `splitmix64(seed ^ domain_tag)`, so the mem, pipeline and
//!    predictor streams are mutually independent yet pure functions of
//!    the one machine seed — same seed ⇒ bit-identical chaos.
//! 2. A zero-probability / zero-magnitude injector consumes **no** RNG
//!    words, so a level-0 ([`ChaosConfig::off`]) machine is *bit-identical*
//!    to a machine with no chaos plane installed at all.
//! 3. Draws happen at architecturally meaningful points (demand access,
//!    instruction commit, predictor lookup/train) that occur identically
//!    under the event-driven scheduler's cycle skipping.

#![forbid(unsafe_code)]

use vpsim_rng::{splitmix64, SmallRng};

/// Domain-separation tags mixed into the master seed so the three
/// engine streams are independent.
const TAG_MEM: u64 = 0x6d65_6d5f_c4a0_5001;
const TAG_PIPE: u64 = 0x7069_7065_c4a0_5002;
const TAG_PRED: u64 = 0x7072_6564_c4a0_5003;

fn derive(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag;
    splitmix64(&mut s)
}

/// Memory-side injector intensities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemChaosConfig {
    /// Extra uniform jitter (cycles, `0..=n`) added to every DRAM access
    /// on top of the configured `dram_jitter`. `0` disables.
    pub extra_dram_jitter: u64,
    /// Extra uniform jitter (cycles, `0..=n`) added to every L2 hit.
    /// `0` disables.
    pub extra_l2_jitter: u64,
    /// Probability that a demand access is preceded by a random-line
    /// eviction in both cache levels (co-tenant / prefetcher pressure).
    pub evict_prob: f64,
    /// Probability that a demand access is preceded by a full TLB
    /// shootdown.
    pub tlb_shootdown_prob: f64,
}

impl MemChaosConfig {
    /// The all-off configuration.
    #[must_use]
    pub fn off() -> MemChaosConfig {
        MemChaosConfig {
            extra_dram_jitter: 0,
            extra_l2_jitter: 0,
            evict_prob: 0.0,
            tlb_shootdown_prob: 0.0,
        }
    }

    /// Whether every injector is disabled.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.extra_dram_jitter == 0
            && self.extra_l2_jitter == 0
            && self.evict_prob == 0.0
            && self.tlb_shootdown_prob == 0.0
    }
}

/// Pipeline-side injector intensities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeChaosConfig {
    /// Probability, per committed instruction, of a spurious squash of
    /// every in-flight younger instruction (context-switch model).
    pub squash_prob: f64,
    /// Extra front-end stall cycles added on a spurious squash, on top
    /// of the core's squash penalty (the descheduled window).
    pub switch_penalty: u64,
}

impl PipeChaosConfig {
    /// The all-off configuration.
    #[must_use]
    pub fn off() -> PipeChaosConfig {
        PipeChaosConfig {
            squash_prob: 0.0,
            switch_penalty: 0,
        }
    }

    /// Whether the injector is disabled.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.squash_prob == 0.0
    }
}

/// Predictor-side injector intensities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredChaosConfig {
    /// Probability that a lookup's prediction is suppressed (the entry
    /// decayed below confidence / was evicted by a co-tenant).
    pub decay_prob: f64,
    /// Probability that a surviving prediction has one random value bit
    /// flipped.
    pub flip_prob: f64,
    /// Probability that a training update is dropped (the entry was
    /// evicted between the miss and the update).
    pub drop_train_prob: f64,
}

impl PredChaosConfig {
    /// The all-off configuration.
    #[must_use]
    pub fn off() -> PredChaosConfig {
        PredChaosConfig {
            decay_prob: 0.0,
            flip_prob: 0.0,
            drop_train_prob: 0.0,
        }
    }

    /// Whether every injector is disabled.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.decay_prob == 0.0 && self.flip_prob == 0.0 && self.drop_train_prob == 0.0
    }
}

/// The full noise model: one sub-config per domain.
///
/// `Debug` output feeds the harness campaign fingerprint, so two
/// campaigns differing only in chaos intensity resume into different
/// manifests — exactly as required.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Memory-side injectors.
    pub mem: MemChaosConfig,
    /// Pipeline-side injectors.
    pub pipeline: PipeChaosConfig,
    /// Predictor-side injectors.
    pub predictor: PredChaosConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::off()
    }
}

impl ChaosConfig {
    /// No chaos: a machine with this config is bit-identical to one
    /// with no chaos plane at all.
    #[must_use]
    pub fn off() -> ChaosConfig {
        ChaosConfig {
            mem: MemChaosConfig::off(),
            pipeline: PipeChaosConfig::off(),
            predictor: PredChaosConfig::off(),
        }
    }

    /// Whether every injector in every domain is disabled.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.mem.is_off() && self.pipeline.is_off() && self.predictor.is_off()
    }

    /// The number of calibrated noise levels (`0..NUM_LEVELS`).
    pub const NUM_LEVELS: u8 = 5;

    /// A calibrated noise level. Level 0 is [`ChaosConfig::off`];
    /// levels 1–4 scale every injector geometrically, from "background
    /// hum" to "hostile co-tenant". Levels above 4 saturate at 4.
    #[must_use]
    pub fn level(level: u8) -> ChaosConfig {
        let l = level.min(Self::NUM_LEVELS - 1);
        if l == 0 {
            return ChaosConfig::off();
        }
        // Geometric scaling (×~2.5 per level) keeps the accuracy-vs-noise
        // curve strictly graded: each level is unambiguously noisier
        // than the one below, while the top level stays short of
        // channel-destroying (coin-flip) noise so receiver quality still
        // matters there.
        let scale = [0.0, 1.0, 2.5, 6.0, 15.0][l as usize];
        let p = |base: f64| (base * scale).min(0.9);
        let j = |base: f64| (base * scale) as u64;
        ChaosConfig {
            mem: MemChaosConfig {
                extra_dram_jitter: j(6.0),
                extra_l2_jitter: j(2.0),
                evict_prob: p(0.004),
                tlb_shootdown_prob: p(0.0008),
            },
            pipeline: PipeChaosConfig {
                squash_prob: p(0.0015),
                switch_penalty: j(24.0),
            },
            predictor: PredChaosConfig {
                decay_prob: p(0.006),
                flip_prob: p(0.0015),
                drop_train_prob: p(0.006),
            },
        }
    }
}

/// Counters of injected events, for the chaos event log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosEvents {
    /// Extra DRAM jitter cycles injected.
    pub dram_jitter_cycles: u64,
    /// Extra L2 jitter cycles injected.
    pub l2_jitter_cycles: u64,
    /// Random line evictions performed (per level pair).
    pub evictions: u64,
    /// TLB shootdowns performed.
    pub tlb_shootdowns: u64,
    /// Spurious squashes injected at commit.
    pub spurious_squashes: u64,
    /// Predictions suppressed by entry decay.
    pub predictions_decayed: u64,
    /// Prediction values bit-flipped.
    pub values_flipped: u64,
    /// Training updates dropped.
    pub trainings_dropped: u64,
}

impl ChaosEvents {
    /// Sum counters from another log into this one.
    pub fn merge(&mut self, other: &ChaosEvents) {
        self.dram_jitter_cycles += other.dram_jitter_cycles;
        self.l2_jitter_cycles += other.l2_jitter_cycles;
        self.evictions += other.evictions;
        self.tlb_shootdowns += other.tlb_shootdowns;
        self.spurious_squashes += other.spurious_squashes;
        self.predictions_decayed += other.predictions_decayed;
        self.values_flipped += other.values_flipped;
        self.trainings_dropped += other.trainings_dropped;
    }

    /// Total injected events (jitter counted per affected access, not
    /// per cycle).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.evictions
            + self.tlb_shootdowns
            + self.spurious_squashes
            + self.predictions_decayed
            + self.values_flipped
            + self.trainings_dropped
    }
}

/// The memory-domain engine: owns the mem chaos stream and counters.
#[derive(Debug, Clone)]
pub struct MemChaos {
    cfg: MemChaosConfig,
    rng: SmallRng,
    events: ChaosEvents,
}

impl MemChaos {
    /// Build the engine on its domain-separated stream.
    #[must_use]
    pub fn new(cfg: MemChaosConfig, seed: u64) -> MemChaos {
        MemChaos {
            cfg,
            rng: SmallRng::seed_from_u64(derive(seed, TAG_MEM)),
            events: ChaosEvents::default(),
        }
    }

    /// Injected-event counters so far.
    #[must_use]
    pub fn events(&self) -> &ChaosEvents {
        &self.events
    }

    /// Extra cycles to add to a DRAM access. Draws nothing when the
    /// injector is off (determinism invariant 2).
    pub fn dram_extra(&mut self) -> u64 {
        if self.cfg.extra_dram_jitter == 0 {
            return 0;
        }
        let extra = self.rng.gen_range(0..=self.cfg.extra_dram_jitter);
        self.events.dram_jitter_cycles += extra;
        extra
    }

    /// Extra cycles to add to an L2 hit. Draws nothing when off.
    pub fn l2_extra(&mut self) -> u64 {
        if self.cfg.extra_l2_jitter == 0 {
            return 0;
        }
        let extra = self.rng.gen_range(0..=self.cfg.extra_l2_jitter);
        self.events.l2_jitter_cycles += extra;
        extra
    }

    /// Whether a random-line eviction fires before this demand access.
    /// Draws nothing when off.
    pub fn evict_fires(&mut self) -> bool {
        if self.cfg.evict_prob == 0.0 {
            return false;
        }
        let fires = self.rng.gen_bool(self.cfg.evict_prob);
        if fires {
            self.events.evictions += 1;
        }
        fires
    }

    /// Pick the victim `(set, way)` for an eviction that fired.
    pub fn pick_victim(&mut self, sets: usize, ways: usize) -> (usize, usize) {
        (self.rng.gen_range(0..sets), self.rng.gen_range(0..ways))
    }

    /// Whether a TLB shootdown fires before this demand access. Draws
    /// nothing when off.
    pub fn tlb_shootdown_fires(&mut self) -> bool {
        if self.cfg.tlb_shootdown_prob == 0.0 {
            return false;
        }
        let fires = self.rng.gen_bool(self.cfg.tlb_shootdown_prob);
        if fires {
            self.events.tlb_shootdowns += 1;
        }
        fires
    }
}

/// The pipeline-domain engine: spurious squashes at commit.
#[derive(Debug, Clone)]
pub struct PipeChaos {
    cfg: PipeChaosConfig,
    rng: SmallRng,
    events: ChaosEvents,
}

impl PipeChaos {
    /// Build the engine on its domain-separated stream.
    #[must_use]
    pub fn new(cfg: PipeChaosConfig, seed: u64) -> PipeChaos {
        PipeChaos {
            cfg,
            rng: SmallRng::seed_from_u64(derive(seed, TAG_PIPE)),
            events: ChaosEvents::default(),
        }
    }

    /// Injected-event counters so far.
    #[must_use]
    pub fn events(&self) -> &ChaosEvents {
        &self.events
    }

    /// Extra front-end stall to apply on a spurious squash.
    #[must_use]
    pub fn switch_penalty(&self) -> u64 {
        self.cfg.switch_penalty
    }

    /// Whether a spurious squash fires after this commit. Draws nothing
    /// when off.
    pub fn squash_fires(&mut self) -> bool {
        if self.cfg.squash_prob == 0.0 {
            return false;
        }
        let fires = self.rng.gen_bool(self.cfg.squash_prob);
        if fires {
            self.events.spurious_squashes += 1;
        }
        fires
    }
}

/// The predictor-domain engine: decay, bit-flips and dropped trainings.
#[derive(Debug, Clone)]
pub struct PredChaos {
    cfg: PredChaosConfig,
    rng: SmallRng,
    events: ChaosEvents,
}

impl PredChaos {
    /// Build the engine on its domain-separated stream.
    #[must_use]
    pub fn new(cfg: PredChaosConfig, seed: u64) -> PredChaos {
        PredChaos {
            cfg,
            rng: SmallRng::seed_from_u64(derive(seed, TAG_PRED)),
            events: ChaosEvents::default(),
        }
    }

    /// Injected-event counters so far.
    #[must_use]
    pub fn events(&self) -> &ChaosEvents {
        &self.events
    }

    /// Whether this lookup's prediction decays away. Draws nothing when
    /// off.
    pub fn decay_fires(&mut self) -> bool {
        if self.cfg.decay_prob == 0.0 {
            return false;
        }
        let fires = self.rng.gen_bool(self.cfg.decay_prob);
        if fires {
            self.events.predictions_decayed += 1;
        }
        fires
    }

    /// Perturb a surviving predicted value, possibly flipping one random
    /// bit. Draws nothing when off.
    pub fn perturb_value(&mut self, value: u64) -> u64 {
        if self.cfg.flip_prob == 0.0 {
            return value;
        }
        if self.rng.gen_bool(self.cfg.flip_prob) {
            self.events.values_flipped += 1;
            value ^ (1u64 << self.rng.gen_range(0u64..64))
        } else {
            value
        }
    }

    /// Whether this training update is dropped. Draws nothing when off.
    pub fn drop_train_fires(&mut self) -> bool {
        if self.cfg.drop_train_prob == 0.0 {
            return false;
        }
        let fires = self.rng.gen_bool(self.cfg.drop_train_prob);
        if fires {
            self.events.trainings_dropped += 1;
        }
        fires
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_zero_is_off() {
        assert!(ChaosConfig::level(0).is_off());
        assert_eq!(ChaosConfig::level(0), ChaosConfig::off());
        assert_eq!(ChaosConfig::default(), ChaosConfig::off());
    }

    #[test]
    fn levels_scale_monotonically() {
        for l in 1..ChaosConfig::NUM_LEVELS {
            let lo = ChaosConfig::level(l - 1);
            let hi = ChaosConfig::level(l);
            assert!(hi.mem.evict_prob > lo.mem.evict_prob, "level {l}");
            assert!(hi.mem.extra_dram_jitter > lo.mem.extra_dram_jitter);
            assert!(hi.pipeline.squash_prob > lo.pipeline.squash_prob);
            assert!(hi.predictor.decay_prob > lo.predictor.decay_prob);
            assert!(!hi.is_off());
        }
    }

    #[test]
    fn levels_saturate_beyond_max() {
        assert_eq!(ChaosConfig::level(9), ChaosConfig::level(4));
        assert_eq!(ChaosConfig::level(255), ChaosConfig::level(4));
    }

    #[test]
    fn off_engines_draw_nothing() {
        // Engines with all-off configs must leave their RNG untouched,
        // so a level-0 plane cannot perturb any downstream stream.
        let mut m = MemChaos::new(MemChaosConfig::off(), 7);
        let pristine = m.rng.clone();
        for _ in 0..100 {
            assert_eq!(m.dram_extra(), 0);
            assert_eq!(m.l2_extra(), 0);
            assert!(!m.evict_fires());
            assert!(!m.tlb_shootdown_fires());
        }
        assert_eq!(m.rng, pristine, "off mem engine consumed RNG words");

        let mut p = PipeChaos::new(PipeChaosConfig::off(), 7);
        let pristine = p.rng.clone();
        for _ in 0..100 {
            assert!(!p.squash_fires());
        }
        assert_eq!(p.rng, pristine, "off pipe engine consumed RNG words");

        let mut v = PredChaos::new(PredChaosConfig::off(), 7);
        let pristine = v.rng.clone();
        for _ in 0..100 {
            assert!(!v.decay_fires());
            assert_eq!(v.perturb_value(0xdead), 0xdead);
            assert!(!v.drop_train_fires());
        }
        assert_eq!(v.rng, pristine, "off pred engine consumed RNG words");
        assert_eq!(*v.events(), ChaosEvents::default());
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = ChaosConfig::level(3);
        let mut a = MemChaos::new(cfg.mem, 42);
        let mut b = MemChaos::new(cfg.mem, 42);
        for _ in 0..200 {
            assert_eq!(a.dram_extra(), b.dram_extra());
            assert_eq!(a.evict_fires(), b.evict_fires());
        }
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn domain_streams_are_independent() {
        // The three engines on one seed must not share a stream: their
        // first draws differ (domain tags separate them).
        let seed = 1234;
        let a = derive(seed, TAG_MEM);
        let b = derive(seed, TAG_PIPE);
        let c = derive(seed, TAG_PRED);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn events_fire_at_high_intensity() {
        let cfg = MemChaosConfig {
            extra_dram_jitter: 50,
            extra_l2_jitter: 10,
            evict_prob: 0.5,
            tlb_shootdown_prob: 0.5,
        };
        let mut m = MemChaos::new(cfg, 1);
        for _ in 0..200 {
            m.dram_extra();
            if m.evict_fires() {
                let (s, w) = m.pick_victim(64, 8);
                assert!(s < 64 && w < 8);
            }
            m.tlb_shootdown_fires();
        }
        let e = m.events();
        assert!(e.dram_jitter_cycles > 0);
        assert!(e.evictions > 0);
        assert!(e.tlb_shootdowns > 0);

        let mut v = PredChaos::new(
            PredChaosConfig {
                decay_prob: 0.5,
                flip_prob: 0.9,
                drop_train_prob: 0.5,
            },
            1,
        );
        let mut flipped = 0;
        for _ in 0..100 {
            v.decay_fires();
            if v.perturb_value(0) != 0 {
                flipped += 1;
            }
            v.drop_train_fires();
        }
        assert!(flipped > 0, "bit flips must fire at p=0.9");
        assert!(v.events().predictions_decayed > 0);
        assert!(v.events().trainings_dropped > 0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = ChaosEvents {
            evictions: 2,
            spurious_squashes: 1,
            ..ChaosEvents::default()
        };
        let b = ChaosEvents {
            evictions: 3,
            values_flipped: 4,
            ..ChaosEvents::default()
        };
        a.merge(&b);
        assert_eq!(a.evictions, 5);
        assert_eq!(a.spurious_squashes, 1);
        assert_eq!(a.values_flipped, 4);
        assert_eq!(a.total(), 10);
    }
}
