//! A single set-associative cache level (tag store).
//!
//! Caches here model *timing*: data always lives in the
//! [`BackingStore`](crate::BackingStore), so the tag store tracks only
//! presence and dirtiness. This keeps the model simple while preserving
//! everything the attacks observe — hit/miss latency, evictions, and
//! flush behaviour.

use crate::config::CacheGeometry;
use crate::replacement::Replacement;
use crate::stats::CacheStats;
use crate::Addr;

/// One way of one set.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    /// Full line address (address with the offset bits cleared).
    line_addr: Addr,
}

impl Line {
    /// How this line leaves the cache.
    fn eviction(self) -> Eviction {
        Eviction {
            line_addr: self.line_addr,
            dirty: self.dirty,
        }
    }
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// A line that was evicted to make room, if any.
    pub eviction: Option<Eviction>,
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line's address.
    pub line_addr: Addr,
    /// Whether it was dirty (would be written back).
    pub dirty: bool,
}

/// A set-associative cache tag store.
///
/// All state lives in a few flat arrays (lines, replacement state, MRU
/// hints), so building or dropping a cache costs a handful of
/// allocations whatever its set count.
///
/// The cache also lists the sets it has installed a line in since it
/// was built or last emptied. Every other set is still in its initial
/// state: a hit, an [`invalidate`](Cache::invalidate) or an
/// [`evict_way`](Cache::evict_way) needs a valid line, and only
/// `install` makes one. [`reset`](Cache::reset) and
/// [`invalidate_all`](Cache::invalidate_all) therefore restore only the
/// listed sets, in time proportional to what was touched.
#[derive(Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    /// Every way of every set, set-major: set `s` is the `s`-th chunk of
    /// `ways` lines.
    lines: Vec<Line>,
    replacement: Replacement,
    /// Per-set most-recently-used way, checked before the way scan.
    /// Purely a lookup accelerator: a line lives in at most one way, so a
    /// validated hint hit returns exactly what the scan would have found.
    /// The hint may go stale (invalidation, eviction); it is re-validated
    /// on every use.
    mru_way: Vec<u32>,
    /// Whether each set is in `touched_sets`.
    touched: Vec<bool>,
    /// The sets `install` has put a line in since the cache was built
    /// or last emptied, each once.
    touched_sets: Vec<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache with the given geometry. `seed` feeds random
    /// replacement when configured.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheGeometry::validate`]).
    #[must_use]
    pub fn new(geometry: CacheGeometry, seed: u64) -> Cache {
        if let Err(e) = geometry.validate() {
            panic!("invalid cache geometry: {e}");
        }
        let CacheGeometry { sets, ways, .. } = geometry;
        Cache {
            lines: vec![Line::default(); sets * ways],
            replacement: Replacement::new(geometry.replacement, sets, ways, seed),
            mru_way: vec![0; sets],
            touched: vec![false; sets],
            touched_sets: Vec::new(),
            geometry,
            stats: CacheStats::default(),
        }
    }

    /// Index of `(set, way)` in `lines`.
    fn index(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    /// The ways of `set`.
    fn set_lines(&self, set: usize) -> &[Line] {
        &self.lines[self.index(set, 0)..][..self.geometry.ways]
    }

    /// The way holding `line` in `set`, if present. Checks the per-set
    /// MRU hint before falling back to the way scan; under the streaks of
    /// repeated same-line accesses the attack loops produce, the hint
    /// almost always short-circuits the scan.
    fn find_way(&self, set: usize, line: Addr) -> Option<usize> {
        let lines = self.set_lines(set);
        let hint = self.mru_way[set] as usize;
        let l = &lines[hint];
        if l.valid && l.line_addr == line {
            return Some(hint);
        }
        lines.iter().position(|l| l.valid && l.line_addr == line)
    }

    /// Record a use of `way` in `set`: replacement state and MRU hint.
    fn touch(&mut self, set: usize, way: usize) {
        self.replacement.touch(set, way);
        self.mru_way[set] = way as u32;
    }

    /// Push out the line at `lines[i]`, counted as an eviction (plus a
    /// writeback if dirty).
    fn evict(&mut self, i: usize) -> Eviction {
        let line = std::mem::take(&mut self.lines[i]);
        self.stats.evictions += 1;
        if line.dirty {
            self.stats.writebacks += 1;
        }
        line.eviction()
    }

    /// Install a missing `line` into `set`: into an invalid way if one
    /// exists, otherwise over the replacement policy's victim. Shared by
    /// the demand-miss path ([`access`](Cache::access)) and the fill path
    /// ([`fill`](Cache::fill)) so victim selection cannot drift between
    /// them.
    fn install(&mut self, set: usize, line: Addr, dirty: bool) -> Option<Eviction> {
        if !self.touched[set] {
            self.touched[set] = true;
            self.touched_sets.push(set as u32);
        }
        let (way, eviction) = match self.set_lines(set).iter().position(|l| !l.valid) {
            Some(way) => (way, None),
            None => {
                let way = self.replacement.victim(set);
                (way, Some(self.evict(self.index(set, way))))
            }
        };
        let i = self.index(set, way);
        self.lines[i] = Line {
            valid: true,
            dirty,
            line_addr: line,
        };
        self.touch(set, way);
        eviction
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Access statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clear the statistics counters (state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The line address containing `addr` (offset bits cleared).
    #[must_use]
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & !(self.geometry.line_bytes - 1)
    }

    fn set_index(&self, line_addr: Addr) -> usize {
        ((line_addr / self.geometry.line_bytes) as usize) & (self.geometry.sets - 1)
    }

    /// Probe for `addr` without changing any state (no LRU update, no
    /// fill, no stats) — a "silent" lookup used by flushes and tests.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let line = self.line_addr(addr);
        let set = self.set_index(line);
        // `probe` is &self, so it reads the MRU hint without refreshing it
        // — silence is part of the contract.
        self.find_way(set, line).is_some()
    }

    /// Perform an access: on a hit, update recency; on a miss, allocate
    /// the line (write-allocate), evicting a victim if the set is full.
    /// `is_write` marks the line dirty.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> CacheAccess {
        let line = self.line_addr(addr);
        let set = self.set_index(line);
        if let Some(way) = self.find_way(set, line) {
            self.touch(set, way);
            if is_write {
                let i = self.index(set, way);
                self.lines[i].dirty = true;
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
            eviction: self.install(set, line, is_write),
        }
    }

    /// Install a line without counting a demand access (used when an inner
    /// level fills from an outer one, or when a deferred speculative fill
    /// is finally released under the D-type defense).
    pub fn fill(&mut self, addr: Addr) -> Option<Eviction> {
        let line = self.line_addr(addr);
        let set = self.set_index(line);
        if let Some(way) = self.find_way(set, line) {
            self.touch(set, way);
            return None;
        }
        self.install(set, line, false)
    }

    /// Invalidate the line containing `addr`, returning whether it was
    /// present and whether it was dirty.
    pub fn invalidate(&mut self, addr: Addr) -> Option<Eviction> {
        let line = self.line_addr(addr);
        let set = self.set_index(line);
        let way = self.find_way(set, line)?;
        let i = self.index(set, way);
        self.stats.invalidations += 1;
        Some(std::mem::take(&mut self.lines[i]).eviction())
    }

    /// Forcibly evict whatever line occupies `(set, way)`, if any —
    /// the fault-injection plane's co-tenant/prefetcher pressure model.
    /// Counts as an eviction (plus a writeback when dirty), not an
    /// invalidation: the line was pushed out, not flushed.
    ///
    /// Out-of-range coordinates are ignored (`None`), so callers can
    /// draw victims without consulting the geometry first.
    pub fn evict_way(&mut self, set: usize, way: usize) -> Option<Eviction> {
        if set >= self.geometry.sets || way >= self.geometry.ways {
            return None;
        }
        let i = self.index(set, way);
        self.lines[i].valid.then(|| self.evict(i))
    }

    /// Invalidate everything (cold-start). Random replacement streams
    /// keep running; statistics are untouched.
    pub fn invalidate_all(&mut self) {
        let ways = self.geometry.ways;
        for set in self.touched_sets.drain(..) {
            let set = set as usize;
            self.lines[set * ways..][..ways].fill(Line::default());
            self.replacement.reset_set(set);
            self.mru_way[set] = 0;
            self.touched[set] = false;
        }
    }

    /// Put the cache back in the state [`Cache::new`] builds from its
    /// geometry and `seed`: every line invalid, replacement state and
    /// statistics as new, random replacement streams reseeded from
    /// `seed`. Costs time proportional to the sets touched since the
    /// last reset, plus one reseed per set under random replacement.
    pub fn reset(&mut self, seed: u64) {
        self.invalidate_all();
        self.replacement.reseed(seed);
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines (for occupancy assertions).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplacementKind;

    fn small() -> CacheGeometry {
        CacheGeometry {
            sets: 4,
            ways: 2,
            line_bytes: 64,
            hit_latency: 4,
            replacement: ReplacementKind::Lru,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(small(), 0);
        let a = c.access(0x1000, false);
        assert!(!a.hit);
        let b = c.access(0x1000, false);
        assert!(b.hit);
        // Same line, different word.
        let d = c.access(0x1008, false);
        assert!(d.hit);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_eviction_follows_lru() {
        let mut c = Cache::new(small(), 0);
        // Three lines mapping to set 0: stride = sets * line = 256.
        c.access(0x0000, false);
        c.access(0x0100, false);
        let third = c.access(0x0200, false);
        let ev = third.eviction.expect("full set must evict");
        assert_eq!(ev.line_addr, 0x0000, "LRU victim is the first line");
        assert!(!c.probe(0x0000));
        assert!(c.probe(0x0100));
        assert!(c.probe(0x0200));
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = Cache::new(small(), 0);
        c.access(0x0000, true);
        c.access(0x0100, false);
        let third = c.access(0x0200, false);
        assert!(third.eviction.unwrap().dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(small(), 0);
        c.access(0x1000, true);
        let ev = c.invalidate(0x1010).expect("same line");
        assert!(ev.dirty);
        assert!(!c.probe(0x1000));
        assert!(c.invalidate(0x1000).is_none());
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = Cache::new(small(), 0);
        c.access(0x0000, false);
        c.access(0x0100, false);
        // Probing the LRU line must not refresh it.
        assert!(c.probe(0x0000));
        let third = c.access(0x0200, false);
        assert_eq!(third.eviction.unwrap().line_addr, 0x0000);
    }

    #[test]
    fn fill_does_not_count_as_demand_access() {
        let mut c = Cache::new(small(), 0);
        c.fill(0x3000);
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        assert!(c.probe(0x3000));
    }

    #[test]
    fn evict_way_pushes_out_the_occupant() {
        let mut c = Cache::new(small(), 0);
        c.access(0x1000, true);
        // 0x1000 with 64-byte lines and 4 sets lands in set 0, way 0.
        let ev = c.evict_way(0, 0).expect("occupied way");
        assert_eq!(ev.line_addr, 0x1000);
        assert!(ev.dirty);
        assert!(!c.probe(0x1000));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 1);
        // Empty way and out-of-range coordinates are no-ops.
        assert!(c.evict_way(0, 0).is_none());
        assert!(c.evict_way(99, 0).is_none());
        assert!(c.evict_way(0, 99).is_none());
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = Cache::new(small(), 0);
        for i in 0..8 {
            c.access(i * 64, false);
        }
        assert!(c.valid_lines() > 0);
        c.invalidate_all();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = Cache::new(small(), 0);
        assert_eq!(c.line_addr(0x1038), 0x1000);
        assert_eq!(c.line_addr(0x1040), 0x1040);
    }

    #[test]
    fn plru_cache_works_end_to_end() {
        let g = CacheGeometry {
            replacement: ReplacementKind::TreePlru,
            ..small()
        };
        let mut c = Cache::new(g, 0);
        c.access(0x0000, false);
        assert!(c.access(0x0000, false).hit);
    }

    #[test]
    fn stale_mru_hint_never_lies() {
        let mut c = Cache::new(small(), 0);
        // Fill set 0 (stride 256), making 0x0100 the MRU way.
        c.access(0x0000, false);
        c.access(0x0100, false);
        // Invalidate the MRU line: the hint now points at an empty way.
        c.invalidate(0x0100);
        assert!(!c.probe(0x0100), "hint must not resurrect the line");
        assert!(c.probe(0x0000), "other ways still found via the scan");
        // Refill through the stale hint path; both lines resolve.
        assert!(!c.access(0x0100, false).hit);
        assert!(c.access(0x0000, false).hit);
        assert!(c.access(0x0100, false).hit);
    }

    #[test]
    fn random_cache_deterministic_across_same_seed() {
        let g = CacheGeometry {
            replacement: ReplacementKind::Random,
            ..small()
        };
        let mut c1 = Cache::new(g, 9);
        let mut c2 = Cache::new(g, 9);
        for i in 0..32u64 {
            let a = c1.access(i * 256, false);
            let b = c2.access(i * 256, false);
            assert_eq!(a, b);
        }
    }
}
