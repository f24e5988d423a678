//! # vpsim-bench
//!
//! Report generators that regenerate **every table and figure** of the
//! paper's evaluation section. Each `figure_*`/`table_*` function runs
//! the underlying experiment and renders the same rows/series the paper
//! reports; the `repro` binary prints them and `export` writes their
//! data as CSV. The `bench_pipeline` and `bench_chaos` binaries write
//! and check the committed `BENCH_*.json` artifacts ([`artifact`]).
//!
//! Absolute cycle counts differ from the paper's gem5 testbed — the
//! *shape* is what reproduces: which configurations leak (red p-values),
//! which don't, and where the defense thresholds fall.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod chaos_bench;
pub mod export;
pub mod pipeline_bench;
pub mod reports;
pub mod serve_cli;
pub mod trace_dump;
pub mod workloads;

pub use reports::*;
