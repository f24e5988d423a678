//! The two-level hierarchy façade used by the pipeline's load-store unit.

use vpsim_chaos::{ChaosEvents, MemChaos};
use vpsim_obs::{Level, TraceEvent, TraceSink};
use vpsim_rng::SmallRng;

use crate::backing::BackingStore;
use crate::cache::Cache;
use crate::config::MemoryConfig;
use crate::stats::MemoryStats;
use crate::tlb::Tlb;
use crate::{Addr, Cycles};

/// Which level ultimately served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the L2.
    L2,
    /// Served by DRAM.
    Dram,
}

/// Map a served-by level onto the trace-event vocabulary.
fn trace_level(level: HitLevel) -> Level {
    match level {
        HitLevel::L1 => Level::L1,
        HitLevel::L2 => Level::L2,
        HitLevel::Dram => Level::Mem,
    }
}

impl std::fmt::Display for HitLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HitLevel::L1 => write!(f, "L1"),
            HitLevel::L2 => write!(f, "L2"),
            HitLevel::Dram => write!(f, "DRAM"),
        }
    }
}

/// The value, cost and provenance of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The 8-byte word read (or written) by the access.
    pub value: u64,
    /// Total latency in cycles, including TLB and jitter.
    pub latency: Cycles,
    /// The level that served the access.
    pub level: HitLevel,
}

impl AccessOutcome {
    /// Whether this access missed the L1 — the condition under which a
    /// load-based value-prediction system is consulted (paper §II: train,
    /// modify and trigger all require a cache miss).
    #[must_use]
    pub fn is_l1_miss(&self) -> bool {
        self.level != HitLevel::L1
    }
}

/// The random-replacement seed of the L1 for hierarchy seed `seed`.
fn l1_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9)
}

/// The random-replacement seed of the L2 for hierarchy seed `seed`.
fn l2_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x85eb_ca6b)
}

/// Two-level write-back hierarchy + TLB + DRAM + backing store.
///
/// All state (cache contents, TLB, memory words) persists for the lifetime
/// of the value — sender and receiver programs run against the *same*
/// hierarchy, which is what makes persistent-channel attacks possible.
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: MemoryConfig,
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    backing: BackingStore,
    jitter_rng: SmallRng,
    stats: MemoryStats,
    /// The fault-injection engine, when a noise plane is installed.
    /// `None` (the default) is bit-identical to chaos level 0.
    chaos: Option<MemChaos>,
    /// Event tracing. The hierarchy has no notion of the simulated
    /// clock, so events are buffered unstamped and drained (and
    /// cycle-stamped) by the pipeline at the end of each scheduler
    /// tick. With tracing disabled (the default) nothing is buffered —
    /// every push site is guarded by one branch on this flag.
    trace_enabled: bool,
    trace_buf: Vec<TraceEvent>,
}

impl MemoryHierarchy {
    /// Build a hierarchy from `config`, with `seed` driving DRAM jitter
    /// (and random replacement, when configured).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: MemoryConfig, seed: u64) -> MemoryHierarchy {
        if let Err(e) = config.validate() {
            panic!("invalid memory configuration: {e}");
        }
        MemoryHierarchy {
            l1: Cache::new(config.l1, l1_seed(seed)),
            l2: Cache::new(config.l2, l2_seed(seed)),
            tlb: Tlb::new(
                config.tlb_entries,
                config.page_bytes,
                config.tlb_hit_latency,
                config.page_walk_latency,
            ),
            backing: BackingStore::new(),
            jitter_rng: SmallRng::seed_from_u64(seed),
            config,
            stats: MemoryStats::default(),
            chaos: None,
            trace_enabled: false,
            trace_buf: Vec::new(),
        }
    }

    /// Put the hierarchy back in the state [`MemoryHierarchy::new`]
    /// builds from its configuration and `seed`: empty caches, TLB and
    /// memory, zeroed statistics, the jitter and random-replacement
    /// streams reseeded from `seed`, no chaos engine and tracing off.
    /// Costs time proportional to what was touched since the last
    /// reset (plus one reseed per set of a randomly replaced cache).
    pub fn reset(&mut self, seed: u64) {
        self.l1.reset(l1_seed(seed));
        self.l2.reset(l2_seed(seed));
        self.tlb.flush();
        self.backing.reset();
        self.jitter_rng = SmallRng::seed_from_u64(seed);
        self.stats = MemoryStats::default();
        self.chaos = None;
        self.set_tracing(false);
    }

    /// Enable or disable event tracing. Disabling drops any buffered
    /// events. Tracing is purely observational: it never changes
    /// timing, state or statistics.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace_enabled = on;
        if !on {
            self.trace_buf = Vec::new();
        }
    }

    /// Drain buffered trace events into `sink`, stamping each with
    /// `cycle` (the simulated cycle of the scheduler tick that caused
    /// them). A no-op unless tracing is enabled and events are pending.
    pub fn drain_trace(&mut self, cycle: u64, sink: &mut dyn TraceSink) {
        for ev in self.trace_buf.drain(..) {
            sink.record(cycle, ev);
        }
    }

    /// Install (or remove) the memory-side fault-injection engine. With
    /// `None`, or an engine whose config is all-off, timing and state
    /// are bit-identical to a hierarchy that never had chaos installed.
    pub fn set_chaos(&mut self, chaos: Option<MemChaos>) {
        self.chaos = chaos;
    }

    /// Counters of injected chaos events (zero when no engine is
    /// installed).
    #[must_use]
    pub fn chaos_events(&self) -> ChaosEvents {
        self.chaos.as_ref().map(|c| *c.events()).unwrap_or_default()
    }

    /// Fire the per-demand-access disturbances: random-line evictions in
    /// both levels (co-tenant/prefetcher pressure) and TLB shootdowns.
    /// Latency-side injectors live in [`dram_latency`](Self::dram_latency)
    /// and the L2 hit path instead.
    fn chaos_disturb(&mut self) {
        let Some(ch) = &mut self.chaos else { return };
        if ch.evict_fires() {
            let (set, way) = ch.pick_victim(self.config.l1.sets, self.config.l1.ways);
            let e1 = self.l1.evict_way(set, way);
            let (set, way) = ch.pick_victim(self.config.l2.sets, self.config.l2.ways);
            let e2 = self.l2.evict_way(set, way);
            if self.trace_enabled {
                for (level, e) in [(Level::L1, e1), (Level::L2, e2)] {
                    if let Some(e) = e {
                        self.trace_buf.push(TraceEvent::CacheEvict {
                            level,
                            line_addr: e.line_addr,
                            dirty: e.dirty,
                        });
                    }
                }
            }
        }
        if ch.tlb_shootdown_fires() {
            self.tlb.flush();
            if self.trace_enabled {
                self.trace_buf.push(TraceEvent::TlbShootdown);
            }
        }
    }

    /// The configuration this hierarchy was built with.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Aggregate statistics (TLB/DRAM counters plus per-level cache stats).
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            l1: *self.l1.stats(),
            l2: *self.l2.stats(),
            ..self.stats
        }
    }

    /// Reset all statistics counters; cache/TLB/memory state is untouched.
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    fn dram_latency(&mut self) -> Cycles {
        self.stats.dram_accesses += 1;
        let jitter = if self.config.dram_jitter == 0 {
            0
        } else {
            self.jitter_rng.gen_range(0..=self.config.dram_jitter)
        };
        self.stats.jitter_cycles += jitter;
        let chaos_extra = self.chaos.as_mut().map_or(0, MemChaos::dram_extra);
        self.config.dram_latency + jitter + chaos_extra
    }

    fn tlb_cost(&mut self, addr: Addr) -> Cycles {
        let out = self.tlb.translate(addr);
        if out.hit {
            self.stats.tlb_hits += 1;
        } else {
            self.stats.tlb_misses += 1;
        }
        out.latency
    }

    fn access_inner(&mut self, addr: Addr, is_write: bool, fill: bool) -> (Cycles, HitLevel) {
        let mut latency = if fill {
            self.tlb_cost(addr)
        } else {
            // Invisible access: identical timing, no TLB fill either (a
            // speculative page walk must not leave a trace).
            let out = self.tlb.probe(addr);
            if out.hit {
                self.stats.tlb_hits += 1;
            } else {
                self.stats.tlb_misses += 1;
            }
            out.latency
        };
        // L1.
        if fill {
            let a1 = self.l1.access(addr, is_write);
            latency += self.config.l1.hit_latency;
            if self.trace_enabled {
                if let Some(e) = a1.eviction {
                    self.trace_buf.push(TraceEvent::CacheEvict {
                        level: Level::L1,
                        line_addr: e.line_addr,
                        dirty: e.dirty,
                    });
                }
            }
            if a1.hit {
                return (latency, HitLevel::L1);
            }
            // L2.
            let a2 = self.l2.access(addr, false);
            latency += self.config.l2.hit_latency;
            if self.trace_enabled {
                self.trace_buf.push(TraceEvent::CacheFill {
                    level: Level::L1,
                    line_addr: self.l1.line_addr(addr),
                });
                if let Some(e) = a2.eviction {
                    self.trace_buf.push(TraceEvent::CacheEvict {
                        level: Level::L2,
                        line_addr: e.line_addr,
                        dirty: e.dirty,
                    });
                }
            }
            if a2.hit {
                latency += self.chaos.as_mut().map_or(0, MemChaos::l2_extra);
                return (latency, HitLevel::L2);
            }
            if self.trace_enabled {
                self.trace_buf.push(TraceEvent::CacheFill {
                    level: Level::L2,
                    line_addr: self.l2.line_addr(addr),
                });
            }
            latency += self.dram_latency();
            (latency, HitLevel::Dram)
        } else {
            // Probe-only path (D-type defense): identical timing, no state
            // changes in the tag stores beyond the TLB.
            latency += self.config.l1.hit_latency;
            if self.l1.probe(addr) {
                return (latency, HitLevel::L1);
            }
            latency += self.config.l2.hit_latency;
            if self.l2.probe(addr) {
                return (latency, HitLevel::L2);
            }
            latency += self.dram_latency();
            (latency, HitLevel::Dram)
        }
    }

    /// Demand load: returns the word at `addr` plus its timing, filling
    /// caches normally (and firing the hardware prefetcher on misses).
    ///
    /// `addr` is truncated to 8-byte word granularity — speculative
    /// (transient) loads routinely compute arbitrary addresses, and real
    /// hardware services them rather than faulting.
    pub fn read(&mut self, addr: Addr) -> AccessOutcome {
        let addr = addr & !7;
        self.chaos_disturb();
        let value = self.backing.read(addr);
        let (latency, level) = self.access_inner(addr, false, true);
        if self.trace_enabled {
            self.trace_buf.push(TraceEvent::MemAccess {
                addr,
                write: false,
                level: trace_level(level),
                latency,
            });
        }
        if level != HitLevel::L1 && self.config.prefetch == crate::PrefetchKind::NextLine {
            // Fill the next sequential line off the demand path. The last
            // line of the address space has none: a transient load there
            // must not wrap around and prefetch line 0.
            if let Some(next) = self
                .l1
                .line_addr(addr)
                .checked_add(self.config.line_bytes())
            {
                self.fill_both(next);
                self.stats.prefetches += 1;
            }
        }
        AccessOutcome {
            value,
            latency,
            level,
        }
    }

    /// Load *without installing* the line into any cache (InvisiSpec-style
    /// invisible access, used by the D-type defense for loads issued under
    /// an unverified value prediction). Timing is identical to [`read`];
    /// only the microarchitectural side effect is suppressed.
    ///
    /// [`read`]: MemoryHierarchy::read
    pub fn read_no_fill(&mut self, addr: Addr) -> AccessOutcome {
        let addr = addr & !7;
        let value = self.backing.read(addr);
        let (latency, level) = self.access_inner(addr, false, false);
        if self.trace_enabled {
            self.trace_buf.push(TraceEvent::MemAccess {
                addr,
                write: false,
                level: trace_level(level),
                latency,
            });
        }
        AccessOutcome {
            value,
            latency,
            level,
        }
    }

    /// Demand store (write-allocate, write-back). `addr` is truncated to
    /// 8-byte word granularity like [`read`](MemoryHierarchy::read).
    pub fn write(&mut self, addr: Addr, value: u64) -> AccessOutcome {
        let addr = addr & !7;
        self.chaos_disturb();
        self.backing.write(addr, value);
        let (latency, level) = self.access_inner(addr, true, true);
        if self.trace_enabled {
            self.trace_buf.push(TraceEvent::MemAccess {
                addr,
                write: true,
                level: trace_level(level),
                latency,
            });
        }
        AccessOutcome {
            value,
            latency,
            level,
        }
    }

    /// Install the line containing `addr` into L1, L2 and the TLB without
    /// counting a demand access — releases a deferred (D-type) fill after
    /// the load that performed it became non-speculative (committed).
    pub fn install(&mut self, addr: Addr) {
        self.tlb.insert(addr);
        self.fill_both(addr);
    }

    /// Fill the line containing `addr` into L2, then L1, without
    /// counting a demand access, tracing each fill and any eviction it
    /// causes.
    fn fill_both(&mut self, addr: Addr) {
        let e2 = self.l2.fill(addr);
        let e1 = self.l1.fill(addr);
        if self.trace_enabled {
            for (level, line_addr, evict) in [
                (Level::L2, self.l2.line_addr(addr), e2),
                (Level::L1, self.l1.line_addr(addr), e1),
            ] {
                self.trace_buf
                    .push(TraceEvent::CacheFill { level, line_addr });
                if let Some(e) = evict {
                    self.trace_buf.push(TraceEvent::CacheEvict {
                        level,
                        line_addr: e.line_addr,
                        dirty: e.dirty,
                    });
                }
            }
        }
    }

    /// Evict the line containing `addr` from L1 and L2 (`clflush`), and
    /// report the cost.
    pub fn flush_line(&mut self, addr: Addr) -> Cycles {
        let mut cost = self.config.l1.hit_latency;
        let d1 = self.l1.invalidate(addr).is_some_and(|e| e.dirty);
        let d2 = self.l2.invalidate(addr).is_some_and(|e| e.dirty);
        if self.trace_enabled {
            self.trace_buf.push(TraceEvent::LineFlush {
                line_addr: self.l1.line_addr(addr),
                dirty: d1 || d2,
            });
        }
        if d1 || d2 {
            // Write-back of the dirty line to DRAM.
            cost += self.config.dram_latency / 4;
        }
        cost
    }

    /// Write a word directly to the backing store without touching the
    /// caches or timing — experiment setup only.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn store_value(&mut self, addr: Addr, value: u64) {
        self.backing.write(addr, value);
    }

    /// Read a word without touching caches or timing — experiment
    /// inspection only.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.backing.read(addr)
    }

    /// Whether the line containing `addr` is present in the L1.
    #[must_use]
    pub fn probe_l1(&self, addr: Addr) -> bool {
        self.l1.probe(addr)
    }

    /// Whether the line containing `addr` is present in the L2.
    #[must_use]
    pub fn probe_l2(&self, addr: Addr) -> bool {
        self.l2.probe(addr)
    }

    /// Invalidate all cache and TLB state (memory contents are kept) — a
    /// cold microarchitectural start between trials. Unlike
    /// [`reset`](Self::reset), statistics are kept and the jitter and
    /// random-replacement streams continue where they were.
    pub fn cold_caches(&mut self) {
        self.l1.invalidate_all();
        self.l2.invalidate_all();
        self.tlb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(MemoryConfig::deterministic(), 0)
    }

    #[test]
    fn latency_ordering_l1_l2_dram() {
        let mut m = mem();
        let dram = m.read(0x1000);
        assert_eq!(dram.level, HitLevel::Dram);
        let l1 = m.read(0x1000);
        assert_eq!(l1.level, HitLevel::L1);
        // Evict from L1 only by filling conflicting lines? Simpler: flush
        // then refill L2 via install, and check an L2 hit timing.
        m.flush_line(0x1000);
        m.install(0x1000);
        m.l1.invalidate(0x1000);
        let l2 = m.read(0x1000);
        assert_eq!(l2.level, HitLevel::L2);
        assert!(l1.latency < l2.latency);
        assert!(l2.latency < dram.latency);
    }

    #[test]
    fn flush_forces_miss() {
        let mut m = mem();
        m.read(0x2000);
        assert!(m.probe_l1(0x2000));
        m.flush_line(0x2000);
        assert!(!m.probe_l1(0x2000));
        assert!(!m.probe_l2(0x2000));
        assert!(m.read(0x2000).is_l1_miss());
    }

    #[test]
    fn values_flow_through_reads_and_writes() {
        let mut m = mem();
        m.write(0x3000, 123);
        assert_eq!(m.read(0x3000).value, 123);
        assert_eq!(m.peek(0x3000), 123);
        m.store_value(0x3008, 9);
        assert_eq!(m.read(0x3008).value, 9);
    }

    #[test]
    fn read_no_fill_leaves_caches_untouched() {
        let mut m = mem();
        let out = m.read_no_fill(0x4000);
        assert_eq!(out.level, HitLevel::Dram);
        assert!(!m.probe_l1(0x4000), "no-fill read must not install in L1");
        assert!(!m.probe_l2(0x4000), "no-fill read must not install in L2");
        // Timing must match a normal cold read.
        let normal = m.read(0x8000);
        assert_eq!(out.latency, normal.latency);
    }

    #[test]
    fn install_releases_deferred_fill() {
        let mut m = mem();
        m.read_no_fill(0x5000);
        m.install(0x5000);
        assert!(m.probe_l1(0x5000));
        assert_eq!(m.read(0x5000).level, HitLevel::L1);
    }

    #[test]
    fn jitter_accumulates_and_is_seeded() {
        let cfg = MemoryConfig {
            dram_jitter: 16,
            ..MemoryConfig::default()
        };
        let mut a = MemoryHierarchy::new(cfg, 5);
        let mut b = MemoryHierarchy::new(cfg, 5);
        let la: Vec<u64> = (0..16).map(|i| a.read(i * 4096).latency).collect();
        let lb: Vec<u64> = (0..16).map(|i| b.read(i * 4096).latency).collect();
        assert_eq!(la, lb, "same seed, same jitter");
        let mut c = MemoryHierarchy::new(cfg, 6);
        let lc: Vec<u64> = (0..16).map(|i| c.read(i * 4096).latency).collect();
        assert_ne!(la, lc, "different seed should differ somewhere");
    }

    #[test]
    fn tlb_miss_adds_walk_cost() {
        let mut m = mem();
        let first = m.read(0x10000); // TLB miss + DRAM
        m.flush_line(0x10000);
        let second = m.read(0x10000); // TLB hit + DRAM
        assert_eq!(first.latency - second.latency, m.config().page_walk_latency);
    }

    #[test]
    fn cold_caches_clears_microarch_state_only() {
        let mut m = mem();
        m.write(0x6000, 77);
        m.cold_caches();
        assert!(!m.probe_l1(0x6000));
        assert_eq!(m.peek(0x6000), 77, "memory contents survive");
    }

    #[test]
    fn next_line_prefetcher_fills_ahead() {
        let mut cfg = MemoryConfig::deterministic();
        cfg.prefetch = crate::PrefetchKind::NextLine;
        let mut m = MemoryHierarchy::new(cfg, 0);
        m.read(0x1000); // miss: prefetches 0x1040
        assert!(m.probe_l1(0x1040), "next line prefetched");
        assert_eq!(m.read(0x1040).level, HitLevel::L1);
        assert_eq!(m.stats().prefetches, 1, "L1 hit must not prefetch");
    }

    #[test]
    fn next_line_prefetcher_stops_at_the_top_of_the_address_space() {
        let mut cfg = MemoryConfig::deterministic();
        cfg.prefetch = crate::PrefetchKind::NextLine;
        let mut m = MemoryHierarchy::new(cfg, 0);
        assert_eq!(m.read(u64::MAX).level, HitLevel::Dram);
        assert!(m.probe_l1(u64::MAX), "the demand line itself is filled");
        assert!(!m.probe_l1(0), "no wrapped prefetch of line 0 into L1");
        assert!(!m.probe_l2(0), "no wrapped prefetch of line 0 into L2");
        assert_eq!(m.stats().prefetches, 0, "no next line, no prefetch");
    }

    #[test]
    fn no_prefetch_by_default() {
        let mut m = mem();
        m.read(0x1000);
        assert!(!m.probe_l1(0x1040));
        assert_eq!(m.stats().prefetches, 0);
    }

    #[test]
    fn invisible_reads_never_prefetch() {
        let mut cfg = MemoryConfig::deterministic();
        cfg.prefetch = crate::PrefetchKind::NextLine;
        let mut m = MemoryHierarchy::new(cfg, 0);
        m.read_no_fill(0x2000);
        assert!(!m.probe_l1(0x2040), "D-type accesses must not prefetch");
        assert_eq!(m.stats().prefetches, 0);
    }

    #[test]
    fn chaos_off_engine_is_bit_identical_to_none() {
        use vpsim_chaos::MemChaosConfig;
        let cfg = MemoryConfig::default();
        let mut plain = MemoryHierarchy::new(cfg, 11);
        let mut off = MemoryHierarchy::new(cfg, 11);
        off.set_chaos(Some(MemChaos::new(MemChaosConfig::off(), 11)));
        for i in 0..64u64 {
            assert_eq!(plain.read(i * 4096), off.read(i * 4096));
            assert_eq!(plain.write(i * 64, i), off.write(i * 64, i));
        }
        assert_eq!(off.chaos_events(), ChaosEvents::default());
        assert_eq!(plain.stats(), off.stats());
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        use vpsim_chaos::MemChaosConfig;
        let chaos_cfg = MemChaosConfig {
            extra_dram_jitter: 40,
            extra_l2_jitter: 6,
            evict_prob: 0.2,
            tlb_shootdown_prob: 0.05,
        };
        let run = |seed: u64| {
            let mut m = MemoryHierarchy::new(MemoryConfig::default(), 3);
            m.set_chaos(Some(MemChaos::new(chaos_cfg, seed)));
            let lat: Vec<u64> = (0..256u64)
                .map(|i| m.read((i % 32) * 4096).latency)
                .collect();
            (lat, m.chaos_events())
        };
        let (la, ea) = run(21);
        let (lb, eb) = run(21);
        assert_eq!(la, lb, "same chaos seed, same timings");
        assert_eq!(ea, eb, "same chaos seed, same event log");
        assert!(ea.total() > 0, "chaos must actually fire at these rates");
        let (lc, ec) = run(22);
        assert!(la != lc || ea != ec, "different chaos seed must differ");
    }

    #[test]
    fn tlb_shootdown_flushes_translations() {
        use vpsim_chaos::MemChaosConfig;
        let mut m = MemoryHierarchy::new(MemoryConfig::deterministic(), 0);
        m.set_chaos(Some(MemChaos::new(
            MemChaosConfig {
                tlb_shootdown_prob: 1.0,
                ..MemChaosConfig::off()
            },
            0,
        )));
        m.read(0x10000);
        m.read(0x10000);
        let s = m.stats();
        // Every access is preceded by a shootdown, so no TLB hit sticks.
        assert_eq!(s.tlb_hits, 0, "shootdowns must keep the TLB cold");
        assert_eq!(m.chaos_events().tlb_shootdowns, 2);
    }

    #[test]
    fn tracing_captures_events_and_never_changes_timing() {
        let mut plain = mem();
        let mut traced = mem();
        traced.set_tracing(true);
        let mut sink = vpsim_obs::RingRecorder::new(64);
        for addr in [0x1000u64, 0x1000, 0x2000] {
            assert_eq!(plain.read(addr), traced.read(addr));
        }
        traced.flush_line(0x1000);
        plain.flush_line(0x1000);
        traced.drain_trace(7, &mut sink);
        assert_eq!(plain.stats(), traced.stats());
        let kinds: Vec<&str> = sink.events().map(|(_, e)| e.kind()).collect();
        assert!(kinds.contains(&"mem_access"));
        assert!(kinds.contains(&"cache_fill"));
        assert!(kinds.contains(&"line_flush"));
        assert!(sink.events().all(|(cycle, _)| *cycle == 7));
    }

    #[test]
    fn tracing_disabled_buffers_nothing() {
        let mut m = mem();
        m.read(0x1000);
        m.write(0x2000, 1);
        m.flush_line(0x1000);
        let mut sink = vpsim_obs::RingRecorder::new(8);
        m.drain_trace(0, &mut sink);
        assert!(sink.is_empty());
        // Disabling drops anything pending.
        m.set_tracing(true);
        m.read(0x3000);
        m.set_tracing(false);
        m.drain_trace(0, &mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn stats_track_levels() {
        let mut m = mem();
        m.read(0x7000);
        m.read(0x7000);
        let s = m.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.dram_accesses, 1);
    }
}
