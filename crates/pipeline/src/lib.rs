//! # vpsim-pipeline
//!
//! A cycle-level out-of-order pipeline simulator with a **Value
//! Prediction System (VPS)**, reproducing the Figure 1 microarchitecture
//! of *"New Predictor-Based Attacks in Processors"* (Deng & Szefer,
//! DAC 2021): fetch → decode/rename → issue → execute → writeback →
//! commit, with a reorder buffer, store-to-load forwarding, serialising
//! `rdtsc`/`fence`, `clflush`-style flushes, and load value prediction on
//! L1 misses with squash-and-reissue on misprediction.
//!
//! The simulator substitutes for the modified gem5 O3CPU the paper used.
//! It models exactly the mechanisms the attacks depend on:
//!
//! * a load that **misses the L1** consults the VPS ("load-based VPS":
//!   train/modify/trigger all require a cache miss, paper §II);
//! * a **predicted** load forwards its speculative value to dependents at
//!   L1-hit latency while the miss completes in the background;
//! * when the actual data arrives the prediction is **verified** —
//!   correct predictions commit with no penalty; mispredictions **squash**
//!   the load's younger instructions and refetch them;
//! * under the **D-type defense** (`delay_side_effects`), loads issued in
//!   the shadow of an unverified prediction do not install cache lines
//!   until they commit (squashed loads never commit, so transient encode
//!   accesses leave no persistent trace).
//!
//! ```
//! use vpsim_isa::{ProgramBuilder, Reg};
//! use vpsim_mem::MemoryConfig;
//! use vpsim_pipeline::{CoreConfig, Machine};
//! use vpsim_predictor::{Lvp, LvpConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new(
//!     CoreConfig::default(),
//!     MemoryConfig::deterministic(),
//!     Box::new(Lvp::new(LvpConfig::default())),
//!     42,
//! );
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::R1, 0x1000)
//!     .load(Reg::R2, Reg::R1, 0)
//!     .halt();
//! let result = machine.run(0, &b.build()?)?;
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod cancel;
mod chaos;
mod config;
mod dyninst;
mod executor;
mod machine;
mod result;

pub use cancel::CancelToken;
pub use config::{ConfigError, CoreConfig};
pub use machine::{Machine, RunCtl};
pub use result::{CommitEvent, RunError, RunResult, RunStats, SchedStats};
