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
/// directory, observability, the job budgets, and the supervision plane
/// (hard deadlines, backoff, sink I/O).
///
/// The execution policy never changes *what* a campaign computes — only
/// how fast, how observably, and how fault-tolerantly. Results are
/// bitwise-identical for every `jobs` value.
///
/// Two distinct overrun planes coexist:
///
/// * **soft** ([`Exec::job_wall_budget`]): the job is left to finish,
///   its result is discarded, and it is retried — the legacy
///   quarantine path, right when overruns are mild host contention;
/// * **hard** ([`Exec::job_deadline`]): the supervisor trips the job's
///   [`CancelToken`](vpsim_pipeline::CancelToken) mid-simulation, so a
///   genuinely hung job is abandoned with bounded latency. Retried
///   attempts get a doubled deadline ([`Exec::retry_backoff`] spacing);
///   a cancelled final attempt fails the cell as timed out.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Worker threads, spawned per run while the calling thread
    /// supervises; `0` resolves to the machine's available parallelism.
    /// The process backend sizes its fleet from [`FleetConfig::workers`]
    /// instead.
    pub jobs: usize,
    /// Directory for the resumable manifest. When set, every finished
    /// job is appended to `<dir>/<campaign-name>.jsonl` as it completes,
    /// and a rerun with the same directory skips the jobs already
    /// recorded there.
    pub resume: Option<PathBuf>,
    /// Print live progress/throughput lines to stderr.
    pub progress: bool,
    /// Wall-clock budget per job (soft). A job still running past the
    /// budget is quarantined: its eventual result is discarded and the
    /// job is retried (the overrun may be host contention), up to
    /// [`Exec::max_retries`] times; the final attempt's result is used
    /// regardless, since job outputs are deterministic.
    pub job_wall_budget: Duration,
    /// Retries granted to wall-budget-quarantined and
    /// deadline-cancelled jobs.
    pub max_retries: u32,
    /// Simulated-cycle budget per job. A job whose pair consumes more
    /// simulated cycles is flagged as a runaway in the campaign stats
    /// (cycle counts are deterministic, so it is never retried).
    pub cycle_budget: u64,
    /// Hard per-job deadline. When set, the supervisor trips the running
    /// attempt's cancel token once it exceeds `deadline << attempt`
    /// (doubling per retry), aborting the simulation mid-run instead of
    /// waiting for it. `None` (the default) keeps the legacy
    /// quarantine-on-completion behaviour only.
    pub job_deadline: Option<Duration>,
    /// Per-campaign wall-clock budget. When exceeded, the supervisor
    /// cancels every in-flight job and the remaining queue drains as
    /// timed-out failures — the campaign still returns a complete
    /// (partially failed) outcome rather than hanging.
    pub campaign_deadline: Option<Duration>,
    /// Base spacing for deadline-retry backoff: attempt `k` is held
    /// back `retry_backoff * 2^k` before re-entering the queue.
    pub retry_backoff: Duration,
    /// The sink I/O plane the manifest writes through. `None` uses the
    /// real filesystem; the torture suite injects a
    /// [`FaultyIo`](crate::FaultyIo) here.
    pub sink_io: Option<Arc<dyn SinkIo>>,
    /// External cancellation: when the token trips, the supervisor
    /// cancels every in-flight job and drains the remaining queue as
    /// timed-out failures — the same graceful teardown as
    /// [`Exec::campaign_deadline`], but on demand (serving-plane
    /// `cancel` requests, daemon shutdown).
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
            job_wall_budget: Duration::from_secs(60),
            max_retries: 1,
            cycle_budget: u64::MAX,
            job_deadline: None,
            campaign_deadline: None,
            retry_backoff: Duration::from_millis(25),
            sink_io: None,
            cancel: None,
            observer: None,
            metrics: None,
            backend: WorkerBackend::default(),
        }
    }
}

impl Exec {
    /// An execution policy using every available core.
    #[must_use]
    pub fn parallel() -> Self {
        Exec {
            jobs: 0,
            ..Exec::default()
        }
    }

    /// The resolved worker count (`0` → available parallelism).
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        }
    }

    /// The hard deadline granted to attempt `attempt` (zero-based):
    /// [`Exec::job_deadline`] doubled per retry, saturating. `None`
    /// when no hard deadline is configured.
    #[must_use]
    pub fn deadline_for_attempt(&self, attempt: u32) -> Option<Duration> {
        let base = self.job_deadline?;
        Some(base.saturating_mul(1u32 << attempt.min(16)))
    }

    /// The backoff delay before re-queueing attempt `attempt`
    /// (zero-based attempt number of the attempt *about to run*).
    #[must_use]
    pub fn backoff_for_attempt(&self, attempt: u32) -> Duration {
        self.retry_backoff.saturating_mul(1u32 << attempt.min(16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        let e = Exec::default();
        assert_eq!(e.jobs, 1);
        assert_eq!(e.effective_jobs(), 1);
        assert!(e.resume.is_none());
        assert!(e.job_deadline.is_none());
        assert!(e.campaign_deadline.is_none());
        assert!(e.sink_io.is_none());
        assert!(e.cancel.is_none());
        assert!(e.observer.is_none());
        assert!(e.metrics.is_none());
        assert!(matches!(e.backend, WorkerBackend::Thread));
    }

    #[test]
    fn zero_jobs_resolves_to_at_least_one() {
        assert!(Exec::parallel().effective_jobs() >= 1);
    }

    #[test]
    fn deadlines_double_per_attempt_and_saturate() {
        let e = Exec {
            job_deadline: Some(Duration::from_millis(100)),
            ..Exec::default()
        };
        assert_eq!(e.deadline_for_attempt(0), Some(Duration::from_millis(100)));
        assert_eq!(e.deadline_for_attempt(1), Some(Duration::from_millis(200)));
        assert_eq!(e.deadline_for_attempt(2), Some(Duration::from_millis(400)));
        // Huge attempt numbers must not overflow.
        assert!(e.deadline_for_attempt(u32::MAX).is_some());
        assert_eq!(Exec::default().deadline_for_attempt(0), None);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let e = Exec {
            retry_backoff: Duration::from_millis(10),
            ..Exec::default()
        };
        assert_eq!(e.backoff_for_attempt(0), Duration::from_millis(10));
        assert_eq!(e.backoff_for_attempt(3), Duration::from_millis(80));
    }
}
