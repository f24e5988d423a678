//! Differential test of the flat cache tag store against a reference
//! cache: one `Vec` of lines and one boxed replacement policy per set,
//! the straightforward per-set layout `Cache` used to have.
//!
//! Both caches replay the same seeded operation sequences and every
//! return value, `valid_lines()` and `stats()` must agree after every
//! operation. No simulation configuration uses tree-PLRU or random
//! replacement, so the golden suites only cover LRU; this test guards
//! the other two policies. `Cache::reset(seed)` is checked against a
//! reference built new from `seed`, and its whole state, as `Debug`
//! prints it, against `Cache::new(geometry, seed)`.

use vpsim_mem::{Addr, Cache, CacheAccess, CacheGeometry, CacheStats, Eviction, ReplacementKind};
use vpsim_rng::SmallRng;

/// Per-set replacement state of the reference cache.
trait Policy: std::fmt::Debug {
    /// Record a use of `way` (hit or fill).
    fn touch(&mut self, way: usize);
    /// Choose the way to evict (only asked when every way is valid).
    fn victim(&mut self) -> usize;
    /// Back to the initial state.
    fn reset(&mut self);
}

/// True LRU over an explicit most-recent-first stack.
#[derive(Debug)]
struct Lru {
    stack: Vec<usize>,
    ways: usize,
}

impl Lru {
    fn new(ways: usize) -> Lru {
        Lru {
            stack: (0..ways).collect(),
            ways,
        }
    }
}

impl Policy for Lru {
    fn touch(&mut self, way: usize) {
        if let Some(pos) = self.stack.iter().position(|&w| w == way) {
            self.stack.remove(pos);
        }
        self.stack.insert(0, way);
    }

    fn victim(&mut self) -> usize {
        *self.stack.last().expect("LRU stack is never empty")
    }

    fn reset(&mut self) {
        self.stack = (0..self.ways).collect();
    }
}

/// Tree pseudo-LRU; `bits[i]` is internal node `i`, `true` pointing
/// right.
#[derive(Debug)]
struct TreePlru {
    bits: Vec<bool>,
    ways: usize,
}

impl TreePlru {
    fn new(ways: usize) -> TreePlru {
        assert!(ways.is_power_of_two());
        TreePlru {
            bits: vec![false; ways - 1],
            ways,
        }
    }
}

impl Policy for TreePlru {
    fn touch(&mut self, way: usize) {
        if self.ways == 1 {
            return;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                self.bits[node] = true;
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.bits[node] = false;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    fn victim(&mut self) -> usize {
        if self.ways == 1 {
            return 0;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    fn reset(&mut self) {
        self.bits.fill(false);
    }
}

/// Uniformly random victims from a seeded RNG; reset keeps the stream.
#[derive(Debug)]
struct RandomRepl {
    rng: SmallRng,
    ways: usize,
}

impl Policy for RandomRepl {
    fn touch(&mut self, _way: usize) {}

    fn victim(&mut self) -> usize {
        self.rng.gen_range(0..self.ways)
    }

    fn reset(&mut self) {}
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    line_addr: Addr,
}

/// The reference tag store: per-set lines and policies, a plain way
/// scan (no MRU hint).
struct RefCache {
    geometry: CacheGeometry,
    sets: Vec<Vec<Line>>,
    policies: Vec<Box<dyn Policy>>,
    stats: CacheStats,
}

impl RefCache {
    fn new(geometry: CacheGeometry, seed: u64) -> RefCache {
        let policies = (0..geometry.sets)
            .map(|i| -> Box<dyn Policy> {
                match geometry.replacement {
                    ReplacementKind::Lru => Box::new(Lru::new(geometry.ways)),
                    ReplacementKind::TreePlru => Box::new(TreePlru::new(geometry.ways)),
                    ReplacementKind::Random => Box::new(RandomRepl {
                        rng: SmallRng::seed_from_u64(seed ^ i as u64),
                        ways: geometry.ways,
                    }),
                }
            })
            .collect();
        RefCache {
            sets: vec![vec![Line::default(); geometry.ways]; geometry.sets],
            policies,
            geometry,
            stats: CacheStats::default(),
        }
    }

    fn locate(&self, addr: Addr) -> (Addr, usize) {
        let line = addr & !(self.geometry.line_bytes - 1);
        let set = ((line / self.geometry.line_bytes) as usize) & (self.geometry.sets - 1);
        (line, set)
    }

    fn find_way(&self, set: usize, line: Addr) -> Option<usize> {
        self.sets[set]
            .iter()
            .position(|l| l.valid && l.line_addr == line)
    }

    fn allocate(&mut self, set: usize, line: Addr, dirty: bool) -> Option<Eviction> {
        let (way, eviction) = match self.sets[set].iter().position(|l| !l.valid) {
            Some(way) => (way, None),
            None => {
                let way = self.policies[set].victim();
                let victim = self.sets[set][way];
                self.stats.evictions += 1;
                if victim.dirty {
                    self.stats.writebacks += 1;
                }
                (
                    way,
                    Some(Eviction {
                        line_addr: victim.line_addr,
                        dirty: victim.dirty,
                    }),
                )
            }
        };
        self.sets[set][way] = Line {
            valid: true,
            dirty,
            line_addr: line,
        };
        self.policies[set].touch(way);
        eviction
    }

    fn probe(&self, addr: Addr) -> bool {
        let (line, set) = self.locate(addr);
        self.find_way(set, line).is_some()
    }

    fn access(&mut self, addr: Addr, is_write: bool) -> CacheAccess {
        let (line, set) = self.locate(addr);
        if let Some(way) = self.find_way(set, line) {
            self.policies[set].touch(way);
            if is_write {
                self.sets[set][way].dirty = true;
            }
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                eviction: None,
            };
        }
        self.stats.misses += 1;
        CacheAccess {
            hit: false,
            eviction: self.allocate(set, line, is_write),
        }
    }

    fn fill(&mut self, addr: Addr) -> Option<Eviction> {
        let (line, set) = self.locate(addr);
        if let Some(way) = self.find_way(set, line) {
            self.policies[set].touch(way);
            return None;
        }
        self.allocate(set, line, false)
    }

    fn invalidate(&mut self, addr: Addr) -> Option<Eviction> {
        let (line, set) = self.locate(addr);
        let way = self.find_way(set, line)?;
        let victim = std::mem::take(&mut self.sets[set][way]);
        self.stats.invalidations += 1;
        Some(Eviction {
            line_addr: victim.line_addr,
            dirty: victim.dirty,
        })
    }

    fn evict_way(&mut self, set: usize, way: usize) -> Option<Eviction> {
        let line = *self.sets.get(set)?.get(way)?;
        if !line.valid {
            return None;
        }
        self.sets[set][way] = Line::default();
        self.stats.evictions += 1;
        if line.dirty {
            self.stats.writebacks += 1;
        }
        Some(Eviction {
            line_addr: line.line_addr,
            dirty: line.dirty,
        })
    }

    fn invalidate_all(&mut self) {
        for set in &mut self.sets {
            set.fill(Line::default());
        }
        for p in &mut self.policies {
            p.reset();
        }
    }

    fn valid_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid).count()
    }
}

const OPS: usize = 1500;

/// Replay one seeded operation sequence on both caches, comparing every
/// result and the occupancy and counters after each operation.
fn replay(geometry: CacheGeometry, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut flat = Cache::new(geometry, seed);
    let mut reference = RefCache::new(geometry, seed);
    // Three lines' worth of addresses per way: plenty of hits, and
    // every set runs full and evicts.
    let lines = (geometry.sets * geometry.ways * 3) as u64;
    for op in 0..OPS {
        let addr = rng.gen_range(0..lines) * geometry.line_bytes + rng.gen_range(0..8u64) * 8;
        let case = format!("{geometry:?} seed {seed:#x} op {op}");
        match rng.gen_range(0..100u32) {
            0..=34 => assert_eq!(
                flat.access(addr, false),
                reference.access(addr, false),
                "{case}: read {addr:#x}"
            ),
            35..=49 => assert_eq!(
                flat.access(addr, true),
                reference.access(addr, true),
                "{case}: write {addr:#x}"
            ),
            50..=64 => assert_eq!(
                flat.fill(addr),
                reference.fill(addr),
                "{case}: fill {addr:#x}"
            ),
            65..=74 => assert_eq!(
                flat.invalidate(addr),
                reference.invalidate(addr),
                "{case}: invalidate {addr:#x}"
            ),
            75..=84 => {
                // Up to two past the end on each axis: out-of-range
                // coordinates must be ignored by both.
                let set = rng.gen_range(0..geometry.sets + 2);
                let way = rng.gen_range(0..geometry.ways + 2);
                assert_eq!(
                    flat.evict_way(set, way),
                    reference.evict_way(set, way),
                    "{case}: evict_way({set}, {way})"
                );
            }
            85 => {
                flat.invalidate_all();
                reference.invalidate_all();
            }
            86 => {
                let seed = rng.next_u64();
                flat.reset(seed);
                reference = RefCache::new(geometry, seed);
                assert_eq!(
                    format!("{flat:?}"),
                    format!("{:?}", Cache::new(geometry, seed)),
                    "{case}: reset"
                );
            }
            _ => assert_eq!(
                flat.probe(addr),
                reference.probe(addr),
                "{case}: probe {addr:#x}"
            ),
        }
        assert_eq!(flat.valid_lines(), reference.valid_lines(), "{case}");
        assert_eq!(flat.stats(), &reference.stats, "{case}");
    }
}

#[test]
fn flat_tag_store_matches_per_set_reference() {
    for replacement in [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Random,
    ] {
        for ways in 1..=8usize {
            if replacement == ReplacementKind::TreePlru && !ways.is_power_of_two() {
                continue;
            }
            for sets in [1usize, 4, 64] {
                let geometry = CacheGeometry {
                    sets,
                    ways,
                    line_bytes: 64,
                    hit_latency: 4,
                    replacement,
                };
                let seed = 0x7a9_0000 ^ ((ways as u64) << 8) ^ sets as u64;
                replay(geometry, seed);
            }
        }
    }
}
