//! `vpsim-harness` — a deterministic, parallel, fault-tolerant campaign
//! engine for the attack-evaluation experiments.
//!
//! A [`Campaign`] is a list of evaluation *cells* (attack category ×
//! channel × predictor ×
//! [`ExperimentConfig`](vpsec::experiment::ExperimentConfig)); each
//! cell expands into one independent *job* per paired trial via
//! `vpsec::experiment::CellPlan`. Because every job's seed is a pure
//! function of its coordinates, the engine can run jobs on any number
//! of worker threads in any order and still produce results
//! bitwise-identical to a sequential run — `jobs = 1` and `jobs = 8`
//! yield the same [`Evaluation`](vpsec::experiment::Evaluation)s, byte
//! for byte.
//!
//! On top of the job model the engine layers:
//!
//! * one job ledger behind two worker backends: a std-only thread pool
//!   ([`Exec::jobs`]) and a fleet of supervised worker subprocesses
//!   ([`WorkerBackend::Process`]). The ledger owns every job decision:
//!   a panicking job fails its cell, not the campaign; wall-budget
//!   overruns are retried and simulated-cycle overruns flagged; with
//!   [`Exec::job_deadline`] an overdue attempt's
//!   [`CancelToken`](vpsim_pipeline::CancelToken) aborts it
//!   mid-simulation and it retries with exponential backoff; and
//!   [`Exec::campaign_deadline`] or [`Exec::cancel`] bound the run;
//! * a pluggable sink I/O plane ([`SinkIo`]): the manifest writes
//!   through [`RealIo`] in production and a seeded [`FaultyIo`] in the
//!   torture suite, degrading gracefully (spill files, append-only
//!   fallback, surfaced `io_faults`/`torn_lines` counters) instead of
//!   aborting on short writes, `ENOSPC`, fsync failures, or torn
//!   renames;
//! * one counter store per run ([`CampaignMetrics`], handles in a
//!   `vpsim-obs` registry): every job, retry, failure, torn line, I/O
//!   fault and worker crash is counted once, there, and the outcome's
//!   [`CampaignStats`], the live progress line, the report bins'
//!   `--strict` check ([`CampaignMetrics::is_clean`]) and the daemon's
//!   `/metrics` are views of it; plus a JSONL result sink;
//! * a resumable manifest ([`Exec::resume`]): an interrupted campaign
//!   restarted with the same resume directory skips every job already
//!   recorded there;
//! * process isolation: `catch_unwind` cannot contain aborts, stack
//!   overflows or OOM kills — a process boundary can. Fleet workers (the
//!   binary re-execed with `--worker-loop`, served by [`worker_loop`])
//!   are heartbeat-checked and respawned with backoff; a lost job is
//!   re-dispatched with a bit-identical result, and one that crashes
//!   [`FleetConfig::poison_threshold`] workers is quarantined as a
//!   poisoned cell.
//!
//! ```no_run
//! use vpsec::attacks::AttackCategory;
//! use vpsec::experiment::{Channel, ExperimentConfig, PredictorKind};
//! use vpsim_harness::{Campaign, CellSpec, Exec};
//!
//! let cfg = ExperimentConfig { trials: 30, ..ExperimentConfig::default() };
//! let mut campaign = Campaign::new("table3");
//! campaign.push(CellSpec::new(
//!     "train_test/tw/lvp",
//!     AttackCategory::TrainTest,
//!     Channel::TimingWindow,
//!     PredictorKind::Lvp,
//!     cfg,
//! ));
//! let outcome = campaign.run(&Exec { jobs: 8, ..Exec::default() }).unwrap();
//! let e = outcome.expect_eval("train_test/tw/lvp");
//! println!("p = {}", e.ttest.p_value);
//! ```

#![forbid(unsafe_code)]

mod campaign;
mod exec;
mod fleet;
mod io;
mod ledger;
mod pool;
mod proto;
mod sink;
mod spec;
mod store;
mod worker;

pub use campaign::{
    Campaign, CampaignError, CampaignOutcome, CellError, CellOutcome, CellResult, CellSpec,
    HarnessError,
};
pub use exec::{Exec, JobObserver, WorkerBackend};
pub use fleet::FleetConfig;
pub use io::{FaultPlan, FaultyIo, RealIo, SinkIo};
pub use sink::JobRecord;
pub use spec::{CampaignSpec, CellCoord, Isolate, SpecError};
pub use store::{CampaignMetrics, CampaignStats};
pub use worker::worker_loop;
