//! # vpsim-mem
//!
//! The memory-system substrate for the value-predictor security simulator:
//! a two-level set-associative write-back cache hierarchy, a TLB with a
//! fixed-cost page walk, a DRAM latency model with optional seeded timing
//! jitter, and a sparse backing store.
//!
//! This crate replaces the Ruby cache system the paper's gem5 evaluation
//! used. The attacks in the paper need three properties from the memory
//! system, all provided here:
//!
//! 1. **hit/miss timing separation** — [`MemoryHierarchy::read`] reports a
//!    latency that depends on which level served the access;
//! 2. **attacker-controlled miss injection** — [`MemoryHierarchy::flush_line`]
//!    evicts a line from every level (`clflush` analogue), so the next
//!    access is a demand miss that triggers the value predictor;
//! 3. **a persistent channel** — cache state survives across program runs
//!    on the same [`MemoryHierarchy`], enabling Flush+Reload-style
//!    encode/decode.
//!
//! ```
//! use vpsim_mem::{MemoryConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(MemoryConfig::default(), 42);
//! mem.store_value(0x1000, 7);
//! let cold = mem.read(0x1000);
//! let warm = mem.read(0x1000);
//! assert!(cold.latency > warm.latency);
//! assert_eq!(warm.value, 7);
//! ```

#![forbid(unsafe_code)]

mod backing;
mod cache;
mod config;
mod hierarchy;
mod replacement;
mod stats;
mod tlb;

pub use backing::BackingStore;
pub use cache::{Cache, CacheAccess, Eviction};
pub use config::{CacheGeometry, ConfigError, MemoryConfig, PrefetchKind, ReplacementKind};
pub use hierarchy::{AccessOutcome, HitLevel, MemoryHierarchy};
pub use stats::{CacheStats, MemoryStats};
pub use tlb::{Tlb, TlbOutcome};

/// A virtual (== physical, identity-mapped) byte address.
pub type Addr = u64;

/// Cycle count used throughout the simulator.
pub type Cycles = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_holds() {
        let mut mem = MemoryHierarchy::new(MemoryConfig::default(), 1);
        mem.store_value(0x2000, 99);
        let cold = mem.read(0x2000);
        let warm = mem.read(0x2000);
        assert!(cold.latency > warm.latency);
        assert_eq!(cold.value, 99);
        assert_eq!(warm.value, 99);
    }
}
