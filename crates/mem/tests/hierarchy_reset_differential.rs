//! Differential test of `MemoryHierarchy::reset`: a hierarchy that ran a
//! seeded operation stream and was then reset with `seed` must answer
//! the next stream exactly as `MemoryHierarchy::new(config, seed)` does.
//!
//! Streams mix demand reads and writes, invisible reads, deferred-fill
//! installs, line flushes, backing-store writes and silent probes over
//! a working set larger than the small configurations' caches and TLB,
//! so sets fill, evict and write back and translations are replaced.
//! Every `AccessOutcome` and flush cost is compared as it happens, and
//! `stats()` and `chaos_events()` after every operation; the TLB shows
//! in the latencies and its hit and miss counters. After each stream
//! both hierarchies' L1, L2 and memory contents are compared over the
//! whole working set, and the reused hierarchy's trace buffer must be
//! as empty as the new one's. Right after each reset, its whole state,
//! as `Debug` prints it, must equal a new hierarchy's.

use vpsim_chaos::{MemChaos, MemChaosConfig};
use vpsim_mem::{CacheGeometry, MemoryConfig, MemoryHierarchy, PrefetchKind, ReplacementKind};
use vpsim_obs::RingRecorder;
use vpsim_rng::SmallRng;

const ROUNDS: usize = 12;
const OPS: usize = 400;
/// Working set: `PAGES` TLB pages of `LINES` cache lines each.
const PAGES: u64 = 8;
const LINES: u64 = 16;

/// A chaos level at which every memory injector fires within a stream.
const CHAOS: MemChaosConfig = MemChaosConfig {
    extra_dram_jitter: 40,
    extra_l2_jitter: 6,
    evict_prob: 0.2,
    tlb_shootdown_prob: 0.05,
};

/// Caches and a TLB a stream overflows, with the given replacement.
fn small(l1: ReplacementKind, l2: ReplacementKind) -> MemoryConfig {
    let geometry = |sets, ways, hit_latency, replacement| CacheGeometry {
        sets,
        ways,
        line_bytes: 64,
        hit_latency,
        replacement,
    };
    MemoryConfig {
        l1: geometry(8, 2, 4, l1),
        l2: geometry(16, 4, 14, l2),
        tlb_entries: 4,
        ..MemoryConfig::default()
    }
}

fn addr(rng: &mut SmallRng) -> u64 {
    rng.gen_range(0..PAGES) * 4096 + rng.gen_range(0..LINES) * 64 + rng.gen_range(0..8u64) * 8
}

fn new_hierarchy(config: MemoryConfig, chaos: bool, seed: u64) -> MemoryHierarchy {
    let mut m = MemoryHierarchy::new(config, seed);
    if chaos {
        m.set_chaos(Some(MemChaos::new(CHAOS, seed)));
    }
    m
}

/// Replay one stream on both hierarchies, comparing as it goes.
fn replay(
    case: &str,
    rng: &mut SmallRng,
    reused: &mut MemoryHierarchy,
    fresh: &mut MemoryHierarchy,
) {
    for op in 0..OPS {
        let a = addr(rng);
        let case = format!("{case} op {op}");
        match rng.gen_range(0..100u32) {
            0..=34 => assert_eq!(reused.read(a), fresh.read(a), "{case}: read {a:#x}"),
            35..=49 => {
                let v = rng.next_u64();
                assert_eq!(
                    reused.write(a, v),
                    fresh.write(a, v),
                    "{case}: write {a:#x}"
                );
            }
            50..=59 => assert_eq!(
                reused.read_no_fill(a),
                fresh.read_no_fill(a),
                "{case}: read_no_fill {a:#x}"
            ),
            60..=69 => {
                reused.install(a);
                fresh.install(a);
            }
            70..=79 => assert_eq!(
                reused.flush_line(a),
                fresh.flush_line(a),
                "{case}: flush_line {a:#x}"
            ),
            80..=89 => {
                let v = rng.next_u64();
                reused.store_value(a, v);
                fresh.store_value(a, v);
            }
            _ => {
                assert_eq!(reused.probe_l1(a), fresh.probe_l1(a), "{case}: probe_l1");
                assert_eq!(reused.probe_l2(a), fresh.probe_l2(a), "{case}: probe_l2");
                assert_eq!(reused.peek(a), fresh.peek(a), "{case}: peek");
            }
        }
        assert_eq!(reused.stats(), fresh.stats(), "{case}: stats");
        assert_eq!(reused.chaos_events(), fresh.chaos_events(), "{case}: chaos");
    }
    for page in 0..PAGES {
        for word in 0..LINES * 8 {
            let a = page * 4096 + word * 8;
            assert_eq!(reused.probe_l1(a), fresh.probe_l1(a), "{case}: L1 {a:#x}");
            assert_eq!(reused.probe_l2(a), fresh.probe_l2(a), "{case}: L2 {a:#x}");
            assert_eq!(reused.peek(a), fresh.peek(a), "{case}: memory {a:#x}");
        }
    }
    let (mut reused_trace, mut fresh_trace) = (RingRecorder::new(8), RingRecorder::new(8));
    reused.drain_trace(0, &mut reused_trace);
    fresh.drain_trace(0, &mut fresh_trace);
    assert_eq!(
        reused_trace.seen(),
        fresh_trace.seen(),
        "{case}: trace events"
    );
}

#[test]
fn a_reset_hierarchy_answers_like_a_new_one() {
    let mut configs = vec![("default", MemoryConfig::default())];
    for (name, l1, l2) in [
        ("small lru", ReplacementKind::Lru, ReplacementKind::Lru),
        (
            "small random/plru",
            ReplacementKind::Random,
            ReplacementKind::TreePlru,
        ),
        (
            "small plru/random",
            ReplacementKind::TreePlru,
            ReplacementKind::Random,
        ),
    ] {
        configs.push((name, small(l1, l2)));
    }
    for (i, (name, base)) in configs.into_iter().enumerate() {
        for prefetch in [PrefetchKind::None, PrefetchKind::NextLine] {
            for chaos in [false, true] {
                let config = MemoryConfig { prefetch, ..base };
                let mut rng = SmallRng::seed_from_u64(0x4e5e_7000 ^ i as u64);
                let mut reused = new_hierarchy(config, chaos, rng.next_u64());
                let mut fired = 0;
                for round in 0..ROUNDS {
                    let seed = rng.next_u64();
                    let case = format!("{name} {prefetch:?} chaos {chaos} round {round}");
                    reused.reset(seed);
                    assert_eq!(
                        format!("{reused:?}"),
                        format!("{:?}", MemoryHierarchy::new(config, seed)),
                        "{case}: reset"
                    );
                    if chaos {
                        reused.set_chaos(Some(MemChaos::new(CHAOS, seed)));
                    }
                    let mut fresh = new_hierarchy(config, chaos, seed);
                    replay(&case, &mut rng, &mut reused, &mut fresh);
                    fired += reused.chaos_events().total();
                    // Leave tracing on: the next reset must switch it off.
                    reused.set_tracing(true);
                    reused.read(addr(&mut rng));
                }
                assert_eq!(
                    fired > 0,
                    chaos,
                    "{name} {prefetch:?}: chaos must fire iff armed"
                );
            }
        }
    }
}
