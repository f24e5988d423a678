//! Execution policy for a campaign run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vpsim_pipeline::CancelToken;

use crate::fleet::FleetConfig;
use crate::io::SinkIo;
use crate::sink::JobRecord;
use crate::store::CampaignMetrics;

/// Which execution substrate runs a campaign's jobs.
///
/// Both backends produce bitwise-identical results — every job's seed
/// is a pure function of its `(cell, trial)` coordinates, so *where* it
/// runs never changes *what* it computes. They differ only in failure
/// containment:
///
/// * [`WorkerBackend::Thread`]: the in-process pool. Panics are caught
///   per job, but an abort, OOM kill, or stack overflow takes the whole
///   process (and, in the daemon, every other campaign) with it.
/// * [`WorkerBackend::Process`]: a supervised subprocess fleet
///   ([`FleetConfig`]). Any worker death is contained: the job is
///   re-dispatched, the worker respawned with backoff, and a job that
///   keeps killing workers is quarantined as a poisoned cell.
///
/// The process backend requires a campaign built from a
/// [`CampaignSpec`](crate::CampaignSpec) (workers rebuild their plans
/// from the spec's canonical JSON).
#[derive(Debug, Clone, Default)]
pub enum WorkerBackend {
    /// In-process worker threads (the default).
    #[default]
    Thread,
    /// A supervised fleet of worker subprocesses.
    Process(FleetConfig),
}

/// Observer of per-job completions, for live result streaming.
///
/// The campaign engine calls [`JobObserver::job_done`] once per job, in
/// an arbitrary thread and order: records replayed from a resume
/// manifest arrive first (in canonical cell/trial order, with `resumed
/// = true`), then live completions as workers finish them. The record
/// payload is deterministic — identical across schedules and restarts —
/// except for the `wall_nanos`/`attempts` telemetry fields.
pub trait JobObserver: Send + Sync + std::fmt::Debug {
    /// One job finished (or was replayed from the manifest).
    fn job_done(&self, rec: &JobRecord, resumed: bool);
}

/// How a [`Campaign`](crate::Campaign) executes: worker count, resume
/// directory, observability, and the supervision plane (hard deadlines,
/// external cancellation, sink I/O).
///
/// The execution policy never changes *what* a campaign computes — only
/// how fast, how observably, and how fault-tolerantly. Results are
/// bitwise-identical for every `jobs` value.
///
/// There is one overrun policy, the hard [`Exec::job_deadline`]: the
/// supervisor trips an overdue attempt's
/// [`CancelToken`](vpsim_pipeline::CancelToken) mid-simulation, so a
/// hung job is abandoned with bounded latency, and the job retries
/// once behind a backoff gate with a doubled deadline; a cancelled
/// final attempt fails the cell as timed out. A finished attempt is
/// always kept, however long it ran.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Worker threads, spawned per run while the calling thread
    /// supervises; `0` resolves to the machine's available parallelism,
    /// and a run never starts more than its pending jobs. The process
    /// backend sizes its fleet from [`FleetConfig::workers`] instead.
    pub jobs: usize,
    /// Directory for the resumable manifest. When set, every finished
    /// job is appended to `<dir>/<campaign-name>.jsonl` as it completes,
    /// and a rerun with the same directory skips the jobs already
    /// recorded there.
    pub resume: Option<PathBuf>,
    /// Print live progress/throughput lines to stderr.
    pub progress: bool,
    /// Hard per-job deadline. When set, the supervisor trips the running
    /// attempt's cancel token once it exceeds `deadline << attempt`
    /// (doubling per retry), aborting the simulation mid-run instead of
    /// waiting for it. `None` (the default) lets every attempt finish.
    pub job_deadline: Option<Duration>,
    /// The sink I/O plane the manifest writes through. `None` uses the
    /// real filesystem; the torture suite injects a
    /// [`FaultyIo`](crate::FaultyIo) here.
    pub sink_io: Option<Arc<dyn SinkIo>>,
    /// External cancellation: when the token trips, the supervisor
    /// cancels every in-flight job and drains the remaining queue as
    /// timed-out failures, so the campaign still returns a complete
    /// (partially failed) outcome (serving-plane `cancel` requests,
    /// daemon shutdown).
    pub cancel: Option<CancelToken>,
    /// When set, every job completion is reported to this observer as
    /// it happens — the serving plane streams results from here.
    pub observer: Option<Arc<dyn JobObserver>>,
    /// The counter store the run counts into: jobs, retries, failures,
    /// torn lines, I/O faults, worker crashes, cycles and the wall-clock
    /// phase histograms. The daemon passes one per campaign, labelled
    /// with its id, and `/metrics` renders the registry it lives in;
    /// `repro` passes one for all its campaigns and `--strict` reads
    /// [`CampaignMetrics::is_clean`] from it. `None` counts into a
    /// private store. Either way the outcome's stats are what the run
    /// added to the store.
    pub metrics: Option<CampaignMetrics>,
    /// The execution substrate: the in-process thread pool (default) or
    /// a supervised, crash-contained subprocess fleet.
    pub backend: WorkerBackend,
}

impl Default for Exec {
    fn default() -> Self {
        Exec {
            jobs: 1,
            resume: None,
            progress: false,
            job_deadline: None,
            sink_io: None,
            cancel: None,
            observer: None,
            metrics: None,
            backend: WorkerBackend::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::lane_count;

    #[test]
    fn default_is_sequential() {
        let e = Exec::default();
        assert_eq!(e.jobs, 1);
        assert!(e.resume.is_none());
        assert!(e.job_deadline.is_none());
        assert!(e.sink_io.is_none());
        assert!(e.cancel.is_none());
        assert!(e.observer.is_none());
        assert!(e.metrics.is_none());
        assert!(matches!(e.backend, WorkerBackend::Thread));
    }

    #[test]
    fn zero_jobs_resolves_to_at_least_one() {
        let e = Exec {
            jobs: 0,
            ..Exec::default()
        };
        assert!(lane_count(e.jobs, 100) >= 1);
        assert_eq!(lane_count(e.jobs, 1), 1);
        // Never more threads than jobs to run.
        assert_eq!(lane_count(100_000, 3), 3);
    }
}
