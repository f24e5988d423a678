//! Memory-system configuration.

use crate::Cycles;

/// Why a memory configuration is unusable. Returned by the `validate`
/// methods so front ends can reject bad user input cleanly instead of
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `sets` is not a power of two.
    SetsNotPowerOfTwo {
        /// The offending set count.
        sets: usize,
    },
    /// `ways` is zero.
    ZeroWays,
    /// Tree-PLRU with a way count that is not a power of two.
    PlruWaysNotPowerOfTwo {
        /// The offending way count.
        ways: usize,
    },
    /// `line_bytes` is not a power of two of at least 8.
    BadLineSize {
        /// The offending line size.
        line_bytes: u64,
    },
    /// L1 and L2 disagree on the line size.
    LineSizeMismatch {
        /// L1 line size.
        l1: u64,
        /// L2 line size.
        l2: u64,
    },
    /// `page_bytes` is not a power of two.
    PageNotPowerOfTwo {
        /// The offending page size.
        page_bytes: u64,
    },
    /// `tlb_entries` is zero.
    ZeroTlbEntries,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::SetsNotPowerOfTwo { sets } => {
                write!(f, "sets must be a power of two (got {sets})")
            }
            ConfigError::ZeroWays => write!(f, "associativity must be at least 1"),
            ConfigError::PlruWaysNotPowerOfTwo { ways } => {
                write!(
                    f,
                    "tree-PLRU needs a power-of-two associativity (got {ways})"
                )
            }
            ConfigError::BadLineSize { line_bytes } => write!(
                f,
                "line size must be a power of two of at least 8 bytes (got {line_bytes})"
            ),
            ConfigError::LineSizeMismatch { l1, l2 } => {
                write!(f, "L1 and L2 must share a line size (L1 = {l1}, L2 = {l2})")
            }
            ConfigError::PageNotPowerOfTwo { page_bytes } => {
                write!(f, "page size must be a power of two (got {page_bytes})")
            }
            ConfigError::ZeroTlbEntries => write!(f, "TLB must have at least one entry"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Hardware prefetcher configuration.
///
/// The paper contrasts value predictors with prefetchers (§I-B): a
/// prefetcher only produces *correct* or *incorrect* prefetches — there
/// is no attacker-observable "no prediction" timing case — which is why
/// the *no prediction vs correct prediction* channel is unique to value
/// predictors. The next-line prefetcher here lets experiments confirm
/// that enabling a prefetcher neither enables the VP attacks on its own
/// nor masks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetchKind {
    /// No prefetching.
    #[default]
    None,
    /// On a demand L1 miss, also fill the next sequential line.
    NextLine,
}

/// Which replacement policy a cache level uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Tree pseudo-LRU (the common hardware approximation).
    TreePlru,
    /// Uniformly random victim selection (seeded).
    Random,
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set). Must be at least 1.
    pub ways: usize,
    /// Line size in bytes. Must be a power of two and at least 8.
    pub line_bytes: u64,
    /// Latency of a hit at this level, in cycles.
    pub hit_latency: Cycles,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheGeometry {
    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Validate the geometry.
    ///
    /// # Errors
    ///
    /// Fails when `sets` or `line_bytes` is not a power of two, when
    /// `ways == 0`, when `line_bytes < 8`, or when tree-PLRU has a way
    /// count that is not a power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.sets.is_power_of_two() {
            return Err(ConfigError::SetsNotPowerOfTwo { sets: self.sets });
        }
        if self.ways < 1 {
            return Err(ConfigError::ZeroWays);
        }
        if self.replacement == ReplacementKind::TreePlru && !self.ways.is_power_of_two() {
            return Err(ConfigError::PlruWaysNotPowerOfTwo { ways: self.ways });
        }
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 8 {
            return Err(ConfigError::BadLineSize {
                line_bytes: self.line_bytes,
            });
        }
        Ok(())
    }
}

/// Full memory-system configuration.
///
/// The defaults model a small modern core: 32 KiB 8-way L1D (4-cycle hit),
/// 256 KiB 8-way L2 (14-cycle hit), 180-cycle DRAM, 64-entry
/// fully-associative-ish TLB with a 30-cycle page walk, and a ±12-cycle
/// uniform jitter on DRAM accesses so repeated runs produce timing
/// *distributions* (the paper compares distributions with a t-test over
/// 100 runs, not single samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// L1 data cache geometry.
    pub l1: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Latency of a DRAM access (beyond L2), in cycles.
    pub dram_latency: Cycles,
    /// Maximum extra cycles of uniform random jitter added to DRAM
    /// accesses; `0` disables jitter entirely.
    pub dram_jitter: Cycles,
    /// Page size in bytes for the TLB. Must be a power of two.
    pub page_bytes: u64,
    /// Number of TLB entries.
    pub tlb_entries: usize,
    /// TLB hit latency folded into every access (usually 0: pipelined).
    pub tlb_hit_latency: Cycles,
    /// Page-walk cost added on a TLB miss.
    pub page_walk_latency: Cycles,
    /// Hardware prefetcher.
    pub prefetch: PrefetchKind,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1: CacheGeometry {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                hit_latency: 4,
                replacement: ReplacementKind::Lru,
            },
            l2: CacheGeometry {
                sets: 512,
                ways: 8,
                line_bytes: 64,
                hit_latency: 14,
                replacement: ReplacementKind::Lru,
            },
            dram_latency: 180,
            dram_jitter: 12,
            page_bytes: 4096,
            tlb_entries: 64,
            tlb_hit_latency: 0,
            page_walk_latency: 30,
            prefetch: PrefetchKind::None,
        }
    }
}

impl MemoryConfig {
    /// A configuration with all randomness removed (no DRAM jitter), for
    /// deterministic unit tests.
    #[must_use]
    pub fn deterministic() -> MemoryConfig {
        MemoryConfig {
            dram_jitter: 0,
            ..MemoryConfig::default()
        }
    }

    /// Validate every component geometry.
    ///
    /// # Errors
    ///
    /// Fails if any cache geometry is invalid, the two levels disagree
    /// on line size, `page_bytes` is not a power of two, or the TLB has
    /// no entries.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1.validate()?;
        self.l2.validate()?;
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err(ConfigError::LineSizeMismatch {
                l1: self.l1.line_bytes,
                l2: self.l2.line_bytes,
            });
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(ConfigError::PageNotPowerOfTwo {
                page_bytes: self.page_bytes,
            });
        }
        if self.tlb_entries < 1 {
            return Err(ConfigError::ZeroTlbEntries);
        }
        Ok(())
    }

    /// The shared cache-line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.l1.line_bytes
    }

    /// Worst-case latency for one access (page walk + full miss + jitter):
    /// a bound used by the pipeline to size timeout windows.
    #[must_use]
    pub fn worst_case_latency(&self) -> Cycles {
        self.tlb_hit_latency
            + self.page_walk_latency
            + self.l1.hit_latency
            + self.l2.hit_latency
            + self.dram_latency
            + self.dram_jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        MemoryConfig::default().validate().unwrap();
    }

    #[test]
    fn capacity_math() {
        let g = CacheGeometry {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            hit_latency: 4,
            replacement: ReplacementKind::Lru,
        };
        assert_eq!(g.capacity_bytes(), 32 * 1024);
    }

    #[test]
    fn non_power_of_two_sets_rejected() {
        let g = CacheGeometry {
            sets: 48,
            ways: 8,
            line_bytes: 64,
            hit_latency: 4,
            replacement: ReplacementKind::Lru,
        };
        let err = g.validate().unwrap_err();
        assert_eq!(err, ConfigError::SetsNotPowerOfTwo { sets: 48 });
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn tree_plru_needs_power_of_two_ways() {
        let g = CacheGeometry {
            sets: 64,
            ways: 3,
            line_bytes: 64,
            hit_latency: 4,
            replacement: ReplacementKind::TreePlru,
        };
        let err = g.validate().unwrap_err();
        assert_eq!(err, ConfigError::PlruWaysNotPowerOfTwo { ways: 3 });
        assert!(err.to_string().contains("power-of-two"));
        CacheGeometry { ways: 4, ..g }.validate().unwrap();
        CacheGeometry {
            replacement: ReplacementKind::Lru,
            ..g
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn mismatched_line_sizes_rejected() {
        let mut c = MemoryConfig::default();
        c.l2.line_bytes = 128;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::LineSizeMismatch { l1: 64, l2: 128 });
        assert!(err.to_string().contains("share a line size"));
    }

    #[test]
    fn every_invalid_field_reports_a_typed_error() {
        let good = MemoryConfig::default();
        let cases: Vec<(MemoryConfig, ConfigError)> = vec![
            (
                MemoryConfig {
                    l1: CacheGeometry { ways: 0, ..good.l1 },
                    ..good
                },
                ConfigError::ZeroWays,
            ),
            (
                MemoryConfig {
                    l1: CacheGeometry {
                        line_bytes: 4,
                        ..good.l1
                    },
                    ..good
                },
                ConfigError::BadLineSize { line_bytes: 4 },
            ),
            (
                MemoryConfig {
                    page_bytes: 3000,
                    ..good
                },
                ConfigError::PageNotPowerOfTwo { page_bytes: 3000 },
            ),
            (
                MemoryConfig {
                    tlb_entries: 0,
                    ..good
                },
                ConfigError::ZeroTlbEntries,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate().unwrap_err(), want);
        }
    }

    #[test]
    fn deterministic_has_no_jitter() {
        assert_eq!(MemoryConfig::deterministic().dram_jitter, 0);
    }

    #[test]
    fn worst_case_latency_bounds_all_components() {
        let c = MemoryConfig::default();
        assert!(c.worst_case_latency() >= c.dram_latency + c.l2.hit_latency);
    }
}
