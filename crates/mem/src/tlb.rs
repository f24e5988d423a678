//! A small fully-associative TLB with LRU replacement.
//!
//! Address translation is identity (virtual == physical) in this simulator
//! — the paper's attacks use virtual addresses throughout (its threat
//! model, Section II, assumes virtual-address-indexed predictors) — so the
//! TLB contributes only *timing*: a miss adds a fixed page-walk cost.

use crate::{Addr, Cycles};

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbOutcome {
    /// Whether the translation was cached.
    pub hit: bool,
    /// Cycles this lookup cost (hit latency, plus the walk on a miss).
    pub latency: Cycles,
}

/// Fully-associative translation lookaside buffer.
#[derive(Debug)]
pub struct Tlb {
    /// Most-recent-first list of cached page numbers.
    entries: Vec<u64>,
    capacity: usize,
    page_bytes: u64,
    hit_latency: Cycles,
    walk_latency: Cycles,
}

impl Tlb {
    /// A TLB caching `capacity` translations of `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    #[must_use]
    pub fn new(capacity: usize, page_bytes: u64, hit_latency: Cycles, walk_latency: Cycles) -> Tlb {
        assert!(capacity >= 1, "TLB capacity must be at least 1");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_bytes,
            hit_latency,
            walk_latency,
        }
    }

    fn page(&self, addr: Addr) -> u64 {
        addr / self.page_bytes
    }

    /// Look up `addr` without changing TLB state: same timing as
    /// [`translate`](Tlb::translate), but a miss does not install the
    /// translation (used for invisible speculative accesses under the
    /// D-type defense — a speculatively walked page must not leave a TLB
    /// trace either).
    #[must_use]
    pub fn probe(&self, addr: Addr) -> TlbOutcome {
        let page = self.page(addr);
        if self.entries.contains(&page) {
            TlbOutcome {
                hit: true,
                latency: self.hit_latency,
            }
        } else {
            TlbOutcome {
                hit: false,
                latency: self.hit_latency + self.walk_latency,
            }
        }
    }

    /// Install a translation without timing (releasing a deferred
    /// speculative walk once the shadowed load commits).
    pub fn insert(&mut self, addr: Addr) {
        let page = self.page(addr);
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let p = self.entries.remove(pos);
            self.entries.insert(0, p);
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, page);
    }

    /// Translate `addr`, filling on a miss.
    pub fn translate(&mut self, addr: Addr) -> TlbOutcome {
        let page = self.page(addr);
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let p = self.entries.remove(pos);
            self.entries.insert(0, p);
            return TlbOutcome {
                hit: true,
                latency: self.hit_latency,
            };
        }
        if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, page);
        TlbOutcome {
            hit: false,
            latency: self.hit_latency + self.walk_latency,
        }
    }

    /// Drop every cached translation. The TLB is then in the state
    /// [`Tlb::new`] builds: it keeps no statistics and no random state.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Number of currently cached translations.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(4, 4096, 0, 30)
    }

    #[test]
    fn miss_then_hit_same_page() {
        let mut t = tlb();
        let first = t.translate(0x1000);
        assert!(!first.hit);
        assert_eq!(first.latency, 30);
        let second = t.translate(0x1ff8);
        assert!(second.hit, "same page must hit");
        assert_eq!(second.latency, 0);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut t = tlb();
        for p in 0..4u64 {
            t.translate(p * 4096);
        }
        assert_eq!(t.occupancy(), 4);
        // Refresh page 0, then insert a 5th page: page 1 is the LRU victim.
        t.translate(0);
        t.translate(4 * 4096);
        assert!(t.translate(0).hit);
        assert!(!t.translate(4096).hit, "page 1 must have been evicted");
    }

    #[test]
    fn flush_empties() {
        let mut t = tlb();
        t.translate(0x1000);
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(!t.translate(0x1000).hit);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0, 4096, 0, 30);
    }
}
