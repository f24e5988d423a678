//! Cache replacement state.
//!
//! One [`Replacement`] holds the state of *every* set of one cache in a
//! single flat array, set-major: set `s` owns the `s`-th chunk. A cache
//! level therefore costs one allocation for its replacement state, not
//! one (or two) per set.

use vpsim_rng::SmallRng;

use crate::config::ReplacementKind;

/// Per-set replacement state of one cache.
///
/// Way indices are `0..ways`. The cache calls [`touch`](Replacement::touch)
/// on every hit and fill, and [`victim`](Replacement::victim) when it
/// needs a way to evict (only when the set is full, so every way is
/// valid at that point).
#[derive(Debug)]
pub(crate) enum Replacement {
    /// True least-recently-used: each set's chunk of `ways` entries is
    /// its ways, most recent first; the victim is the last.
    Lru { ways: usize, order: Vec<u32> },
    /// Tree pseudo-LRU, the standard hardware approximation: each set's
    /// chunk of `ways - 1` direction bits covers the internal nodes of
    /// an implicit binary tree (`false` points left, `true` right).
    TreePlru { ways: usize, bits: Vec<bool> },
    /// Uniformly random victims: one RNG per set, seeded `seed ^ set`.
    Random { ways: usize, rngs: Vec<SmallRng> },
}

/// Put every set's recency order back to `0, 1, .., ways - 1`.
fn reset_order(order: &mut [u32], ways: usize) {
    for set in order.chunks_exact_mut(ways) {
        for (slot, way) in set.iter_mut().zip(0..) {
            *slot = way;
        }
    }
}

/// The random-victim stream of `set` for `seed`.
fn set_rng(seed: u64, set: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ set as u64)
}

impl Replacement {
    /// The initial state for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if tree-PLRU is asked for a way count that is not a power
    /// of two ([`CacheGeometry::validate`](crate::CacheGeometry::validate)
    /// rejects that geometry first).
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize, seed: u64) -> Replacement {
        match kind {
            ReplacementKind::Lru => {
                let mut order = vec![0; sets * ways];
                reset_order(&mut order, ways);
                Replacement::Lru { ways, order }
            }
            ReplacementKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU requires power-of-two ways"
                );
                let bits = vec![false; sets * (ways - 1)];
                Replacement::TreePlru { ways, bits }
            }
            ReplacementKind::Random => {
                let rngs = (0..sets).map(|set| set_rng(seed, set)).collect();
                Replacement::Random { ways, rngs }
            }
        }
    }

    /// Record a use of `way` in `set` (hit or fill).
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        match self {
            Replacement::Lru { ways, order } => {
                let order = &mut order[set * *ways..][..*ways];
                let pos = order
                    .iter()
                    .position(|&w| w as usize == way)
                    .expect("a set's recency order holds every way");
                order[..=pos].rotate_right(1);
            }
            Replacement::TreePlru { ways, bits } => {
                let bits = &mut bits[set * (*ways - 1)..][..*ways - 1];
                // Walk from the root to the leaf, flipping each node to
                // point *away* from the touched way.
                let (mut node, mut lo, mut hi) = (0, 0, *ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    bits[node] = way < mid;
                    if way < mid {
                        node = 2 * node + 1;
                        hi = mid;
                    } else {
                        node = 2 * node + 2;
                        lo = mid;
                    }
                }
            }
            Replacement::Random { .. } => {}
        }
    }

    /// Choose the way of `set` to evict.
    pub(crate) fn victim(&mut self, set: usize) -> usize {
        match self {
            Replacement::Lru { ways, order } => order[set * *ways + *ways - 1] as usize,
            Replacement::TreePlru { ways, bits } => {
                let bits = &bits[set * (*ways - 1)..][..*ways - 1];
                // Follow the direction bits from the root.
                let (mut node, mut lo, mut hi) = (0, 0, *ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if bits[node] {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
            Replacement::Random { ways, rngs } => rngs[set].gen_range(0..*ways),
        }
    }

    /// Reset `set` to its initial state (cold start). A random stream
    /// is not rewound: it continues where it was.
    pub(crate) fn reset_set(&mut self, set: usize) {
        match self {
            Replacement::Lru { ways, order } => {
                reset_order(&mut order[set * *ways..][..*ways], *ways);
            }
            Replacement::TreePlru { ways, bits } => {
                bits[set * (*ways - 1)..][..*ways - 1].fill(false);
            }
            Replacement::Random { .. } => {}
        }
    }

    /// Restart every random stream as [`Replacement::new`] seeds it
    /// from `seed`; a no-op for the other policies.
    pub(crate) fn reseed(&mut self, seed: u64) {
        if let Replacement::Random { rngs, .. } = self {
            for (set, rng) in rngs.iter_mut().enumerate() {
                *rng = set_rng(seed, set);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Replacement::new(ReplacementKind::Lru, 2, 4, 0);
        for w in [0, 1, 2, 3] {
            lru.touch(1, w);
        }
        assert_eq!(lru.victim(1), 0);
        lru.touch(1, 0);
        assert_eq!(lru.victim(1), 1);
        assert_eq!(lru.victim(0), 3, "sets keep separate orders");
    }

    #[test]
    fn lru_reset_restores_order() {
        let mut lru = Replacement::new(ReplacementKind::Lru, 3, 2, 0);
        for set in 0..3 {
            lru.touch(set, 1);
            lru.touch(set, 0);
        }
        for set in 0..3 {
            lru.reset_set(set);
            assert_eq!(lru.victim(set), 1);
        }
    }

    #[test]
    fn plru_never_victimises_most_recent() {
        let mut plru = Replacement::new(ReplacementKind::TreePlru, 4, 8, 0);
        for round in 0..64 {
            let (set, way) = (round % 4, round % 8);
            plru.touch(set, way);
            assert_ne!(plru.victim(set), way, "PLRU evicted the MRU way");
        }
    }

    #[test]
    fn plru_single_way() {
        let mut plru = Replacement::new(ReplacementKind::TreePlru, 2, 1, 0);
        plru.touch(1, 0);
        assert_eq!(plru.victim(1), 0);
    }

    #[test]
    fn plru_cycles_through_all_ways_when_touching_victims() {
        // Touching the current victim each time must visit every way —
        // a liveness property of tree PLRU.
        let mut plru = Replacement::new(ReplacementKind::TreePlru, 2, 4, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            let v = plru.victim(1);
            seen.insert(v);
            plru.touch(1, v);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = Replacement::new(ReplacementKind::TreePlru, 1, 3, 0);
    }

    #[test]
    fn random_victims_in_range_and_deterministic() {
        let mut a = Replacement::new(ReplacementKind::Random, 2, 8, 7);
        let mut b = Replacement::new(ReplacementKind::Random, 2, 8, 7);
        for i in 0..100 {
            let va = a.victim(i % 2);
            assert!(va < 8);
            assert_eq!(va, b.victim(i % 2), "same seed must give same sequence");
        }
    }

    #[test]
    fn random_different_seeds_differ() {
        let mut a = Replacement::new(ReplacementKind::Random, 1, 8, 1);
        let mut b = Replacement::new(ReplacementKind::Random, 1, 8, 2);
        let sa: Vec<usize> = (0..32).map(|_| a.victim(0)).collect();
        let sb: Vec<usize> = (0..32).map(|_| b.victim(0)).collect();
        assert_ne!(sa, sb);
        // Per-set streams are seeded `seed ^ set`: set 1 of seed 1 is
        // set 0 of seed 0.
        let mut c = Replacement::new(ReplacementKind::Random, 2, 8, 1);
        let mut d = Replacement::new(ReplacementKind::Random, 1, 8, 0);
        for _ in 0..32 {
            assert_eq!(c.victim(1), d.victim(0));
        }
    }
}
