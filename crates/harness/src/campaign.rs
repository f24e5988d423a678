//! The campaign job model: cells → jobs → deterministic reduction.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vpsec::attacks::AttackCategory;
use vpsec::experiment::{
    CellPlan, Channel, Evaluation, ExperimentConfig, PairOutcome, PredictorKind,
};
use vpsim_pipeline::SchedStats;

use crate::exec::{Exec, WorkerBackend};
use crate::io::{RealIo, SinkIo};
use crate::ledger::{Batch, JobFailure};
use crate::sink::{JobRecord, Manifest};
use crate::{fleet, pool};

/// One named evaluation cell of a campaign.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Unique name; the key for looking the result up in the
    /// [`CampaignOutcome`].
    pub name: String,
    /// Attack category evaluated.
    pub category: AttackCategory,
    /// Channel used.
    pub channel: Channel,
    /// Predictor configuration.
    pub predictor: PredictorKind,
    /// Experiment parameters (trial count, seed, defenses, ...).
    pub cfg: ExperimentConfig,
}

impl CellSpec {
    /// Build a cell spec.
    pub fn new(
        name: impl Into<String>,
        category: AttackCategory,
        channel: Channel,
        predictor: PredictorKind,
        cfg: ExperimentConfig,
    ) -> Self {
        CellSpec {
            name: name.into(),
            category,
            channel,
            predictor,
            cfg,
        }
    }
}

/// Why a cell could not be evaluated.
#[derive(Debug, Clone)]
pub enum CellError {
    /// A job of the cell panicked. Panics are deterministic, so the
    /// cell is failed immediately instead of retried.
    JobPanicked {
        /// Trial index of the panicking job.
        trial: usize,
        /// The panic message.
        message: String,
    },
    /// A job of the cell was cancelled by the supervisor on its final
    /// attempt (hard [`Exec::job_deadline`](crate::Exec) or campaign
    /// deadline budget exhausted).
    JobTimedOut {
        /// Trial index of the cancelled job.
        trial: usize,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// A job of the cell took down every worker process it was
    /// dispatched to; the fleet supervisor quarantined it after K
    /// crashes instead of crash-looping (process backend only).
    Poisoned {
        /// Trial index of the poisoned job.
        trial: usize,
        /// Worker processes it crashed before quarantine.
        crashes: u32,
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::JobPanicked { trial, message } => {
                write!(f, "trial {trial} panicked: {message}")
            }
            CellError::JobTimedOut { trial, attempts } => {
                write!(
                    f,
                    "trial {trial} exceeded its deadline and was cancelled \
                     after {attempts} attempt(s)"
                )
            }
            CellError::Poisoned { trial, crashes } => {
                write!(
                    f,
                    "trial {trial} crashed {crashes} worker process(es); \
                     cell quarantined as poisoned"
                )
            }
        }
    }
}

/// The per-cell result of a campaign run.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The category does not support the channel (Table III "—").
    Unsupported,
    /// All jobs completed; the reduced evaluation.
    Evaluated(Evaluation),
    /// At least one job failed permanently.
    Failed(CellError),
}

/// A named cell outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's name, as given in its [`CellSpec`].
    pub name: String,
    /// What happened to it.
    pub outcome: CellOutcome,
}

impl CellResult {
    /// The evaluation, if the cell completed.
    #[must_use]
    pub fn evaluation(&self) -> Option<&Evaluation> {
        match &self.outcome {
            CellOutcome::Evaluated(e) => Some(e),
            _ => None,
        }
    }
}

/// Aggregated observability counters for one campaign run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Jobs in the campaign (sum of trials over supported cells).
    pub jobs_total: usize,
    /// Jobs executed by this run.
    pub jobs_run: usize,
    /// Jobs skipped because the resume manifest already had them.
    pub jobs_resumed: usize,
    /// Quarantine retries performed (wall-budget overruns).
    pub retries: usize,
    /// Jobs that exceeded the wall-time budget.
    pub quarantined_wall: usize,
    /// Jobs that exceeded the simulated-cycle budget.
    pub quarantined_cycles: usize,
    /// Jobs that panicked.
    pub panics: usize,
    /// Supervisor cancellations delivered (hard-deadline or campaign
    /// budget trips observed by a running attempt).
    pub cancelled: usize,
    /// Cancelled attempts re-queued with exponential backoff.
    pub backoff_retries: usize,
    /// Jobs that permanently failed as timed out (cancelled on their
    /// final attempt or drained after the campaign deadline).
    pub deadline_failed: usize,
    /// Torn manifest lines dropped while resuming (interrupted writes;
    /// the affected jobs re-ran).
    pub torn_lines: usize,
    /// Sink I/O failures observed and degraded around (spilled or
    /// append-only fallback) instead of aborting.
    pub io_faults: usize,
    /// Worker processes that died unexpectedly (crash, abort, kill,
    /// missed heartbeats). Always zero on the thread backend.
    pub worker_crashes: usize,
    /// Worker processes respawned after a death.
    pub worker_respawns: usize,
    /// Requests the serving plane shed with `503` during this
    /// campaign's run window (filled in by the daemon; zero for CLI
    /// runs).
    pub shed_requests: usize,
    /// Wall time of this run.
    pub wall_time: Duration,
    /// Simulated cycles over all completed jobs (resumed included).
    pub sim_cycles: u64,
    /// Scheduler work counters summed over all completed jobs (resumed
    /// included — the manifest rows carry them).
    pub sched: SchedStats,
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs ({} run, {} resumed) in {:.2?}; {:.1} Mcycles simulated",
            self.jobs_total,
            self.jobs_run,
            self.jobs_resumed,
            self.wall_time,
            self.sim_cycles as f64 / 1e6
        )?;
        let total = self.sched.ticks + self.sched.skipped_cycles;
        if total > 0 {
            write!(
                f,
                " ({:.1}% cycles skipped)",
                self.sched.skipped_cycles as f64 / total as f64 * 100.0
            )?;
        }
        if self.retries + self.quarantined_wall + self.quarantined_cycles + self.panics > 0 {
            write!(
                f,
                "; {} wall-quarantined ({} retries), {} cycle-quarantined, {} panicked",
                self.quarantined_wall, self.retries, self.quarantined_cycles, self.panics
            )?;
        }
        if self.cancelled + self.backoff_retries + self.deadline_failed > 0 {
            write!(
                f,
                "; {} cancelled ({} backoff-retried, {} deadline-failed)",
                self.cancelled, self.backoff_retries, self.deadline_failed
            )?;
        }
        if self.torn_lines + self.io_faults > 0 {
            write!(
                f,
                "; {} torn line(s) recovered, {} I/O fault(s) degraded",
                self.torn_lines, self.io_faults
            )?;
        }
        if self.worker_crashes + self.worker_respawns > 0 {
            write!(
                f,
                "; {} worker crash(es) contained, {} respawn(s)",
                self.worker_crashes, self.worker_respawns
            )?;
        }
        if self.shed_requests > 0 {
            write!(f, "; {} request(s) shed under overload", self.shed_requests)?;
        }
        Ok(())
    }
}

/// A shared, cross-campaign health ledger for `--strict` runs: every
/// campaign executed with [`Exec::health`](crate::Exec) set folds its
/// anomaly counters in here, and the report bins exit nonzero when the
/// ledger is dirty.
///
/// "Dirty" means the run's *scientific output* is degraded or partial:
/// a failed (quarantined) cell, a panic, a timeout, or manifest state
/// recovered from torn lines / spilled past I/O faults. Soft wall
/// quarantines that still produced a result are not counted — they are
/// an operational detail, not a result defect.
#[derive(Debug, Default)]
pub struct RunHealth {
    /// Cells that failed permanently (panicked or timed out).
    pub failed_cells: AtomicU64,
    /// Jobs that panicked.
    pub panics: AtomicU64,
    /// Jobs that permanently timed out.
    pub deadline_failed: AtomicU64,
    /// Torn manifest lines recovered on resume.
    pub torn_lines: AtomicU64,
    /// Sink I/O faults degraded around.
    pub io_faults: AtomicU64,
    /// Worker processes that died and were contained by the fleet
    /// supervisor. **Not** part of [`RunHealth::is_clean`]: a relocated
    /// job recomputes the identical result, so a contained crash is an
    /// operational event, not a scientific defect — a cell actually
    /// lost to crashes shows up in `failed_cells` (poisoned).
    pub worker_crashes: AtomicU64,
    /// Worker processes respawned (same operational-only status).
    pub worker_respawns: AtomicU64,
}

impl RunHealth {
    /// Fold one campaign's outcome into the ledger.
    pub fn absorb(&self, stats: &CampaignStats, failed_cells: u64) {
        self.failed_cells.fetch_add(failed_cells, Ordering::Relaxed);
        self.panics
            .fetch_add(stats.panics as u64, Ordering::Relaxed);
        self.deadline_failed
            .fetch_add(stats.deadline_failed as u64, Ordering::Relaxed);
        self.torn_lines
            .fetch_add(stats.torn_lines as u64, Ordering::Relaxed);
        self.io_faults
            .fetch_add(stats.io_faults as u64, Ordering::Relaxed);
        self.worker_crashes
            .fetch_add(stats.worker_crashes as u64, Ordering::Relaxed);
        self.worker_respawns
            .fetch_add(stats.worker_respawns as u64, Ordering::Relaxed);
    }

    /// Whether every absorbed campaign ran with a clean bill of health.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failed_cells.load(Ordering::Relaxed) == 0
            && self.panics.load(Ordering::Relaxed) == 0
            && self.deadline_failed.load(Ordering::Relaxed) == 0
            && self.torn_lines.load(Ordering::Relaxed) == 0
            && self.io_faults.load(Ordering::Relaxed) == 0
    }

    /// A one-line human summary of the ledger.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} failed cell(s), {} panic(s), {} deadline failure(s), \
             {} torn line(s), {} I/O fault(s), {} worker crash(es) contained \
             ({} respawn(s))",
            self.failed_cells.load(Ordering::Relaxed),
            self.panics.load(Ordering::Relaxed),
            self.deadline_failed.load(Ordering::Relaxed),
            self.torn_lines.load(Ordering::Relaxed),
            self.io_faults.load(Ordering::Relaxed),
            self.worker_crashes.load(Ordering::Relaxed),
            self.worker_respawns.load(Ordering::Relaxed),
        )
    }
}

/// Everything a campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    cells: Vec<CellResult>,
    /// Run counters.
    pub stats: CampaignStats,
}

impl CampaignOutcome {
    /// All cell results, in push order.
    #[must_use]
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// Consume into the cell results.
    #[must_use]
    pub fn into_cells(self) -> Vec<CellResult> {
        self.cells
    }

    /// The evaluation of the named cell, if it completed.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Evaluation> {
        self.cells.iter().find(|c| c.name == name)?.evaluation()
    }

    /// The evaluation of the named cell, or a typed error describing
    /// why it is unavailable — so one bad cell can be quarantined (a
    /// placeholder row in a report) without aborting the whole campaign.
    ///
    /// # Errors
    ///
    /// Fails when the cell is missing, unsupported, or had a failing
    /// job.
    pub fn try_eval(&self, name: &str) -> Result<&Evaluation, CampaignError> {
        match self.cells.iter().find(|c| c.name == name) {
            Some(c) => match &c.outcome {
                CellOutcome::Evaluated(e) => Ok(e),
                CellOutcome::Unsupported => Err(CampaignError::Unsupported {
                    name: name.to_owned(),
                }),
                CellOutcome::Failed(err) => Err(CampaignError::Failed {
                    name: name.to_owned(),
                    error: err.clone(),
                }),
            },
            None => Err(CampaignError::NoSuchCell {
                name: name.to_owned(),
            }),
        }
    }

    /// The evaluation of the named cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is missing, unsupported, or failed. Use
    /// [`CampaignOutcome::try_eval`] to quarantine bad cells instead.
    #[must_use]
    pub fn expect_eval(&self, name: &str) -> &Evaluation {
        self.try_eval(name).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Why a cell's evaluation could not be looked up in a
/// [`CampaignOutcome`].
#[derive(Debug, Clone)]
pub enum CampaignError {
    /// No cell with that name exists in the campaign.
    NoSuchCell {
        /// The requested cell name.
        name: String,
    },
    /// The cell's category does not support its channel (Table III "—").
    Unsupported {
        /// The cell name.
        name: String,
    },
    /// At least one of the cell's jobs failed permanently.
    Failed {
        /// The cell name.
        name: String,
        /// What went wrong.
        error: CellError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::NoSuchCell { name } => write!(f, "no cell named {name}"),
            CampaignError::Unsupported { name } => write!(f, "cell {name} is unsupported"),
            CampaignError::Failed { name, error } => write!(f, "cell {name} failed: {error}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Errors setting up or resuming a campaign run.
#[derive(Debug, Clone)]
pub enum HarnessError {
    /// I/O on the resume directory failed.
    Io(String),
    /// The resume manifest belongs to a different campaign definition.
    ManifestMismatch {
        /// The manifest file.
        path: String,
        /// Fingerprint of the campaign being run.
        expected: String,
        /// Fingerprint recorded in the manifest.
        found: String,
    },
    /// The process backend was requested for a campaign that does not
    /// carry its spec document. Worker processes rebuild their cell
    /// plans from the spec's canonical JSON, so only campaigns built
    /// via [`CampaignSpec::to_campaign`](crate::CampaignSpec) (or a
    /// hand-written spec) can relocate jobs across processes.
    ProcessBackendNeedsSpec,
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Io(e) => write!(f, "resume-manifest I/O error: {e}"),
            HarnessError::ManifestMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "manifest {path} was written by a different campaign \
                 (fingerprint {found}, this campaign is {expected}); \
                 delete it or pick another resume directory"
            ),
            HarnessError::ProcessBackendNeedsSpec => write!(
                f,
                "the process-isolated backend needs the campaign's spec \
                 document to relocate jobs into worker processes; build the \
                 campaign from a CampaignSpec (to_campaign) or use the \
                 thread backend"
            ),
        }
    }
}

impl std::error::Error for HarnessError {}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// A list of evaluation cells that expand into independent,
/// coordinate-seeded jobs.
#[derive(Debug, Clone)]
pub struct Campaign {
    name: String,
    cells: Vec<(CellSpec, Option<CellPlan>)>,
    /// Canonical spec JSON, when the campaign came from a
    /// [`CampaignSpec`](crate::CampaignSpec). The process backend ships
    /// this to worker processes so they can rebuild identical plans.
    spec_json: Option<String>,
}

impl Campaign {
    /// An empty campaign. The name keys the resume manifest file.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            cells: Vec::new(),
            spec_json: None,
        }
    }

    /// Attach the canonical spec JSON this campaign was built from
    /// (required by the process backend; see
    /// [`HarnessError::ProcessBackendNeedsSpec`]).
    pub(crate) fn set_spec_json(&mut self, json: String) {
        self.spec_json = Some(json);
    }

    /// The cell plans in declaration order (`None` for unsupported
    /// cells). Worker processes use this to execute dispatched jobs.
    pub(crate) fn plans(&self) -> Vec<Option<CellPlan>> {
        self.cells.iter().map(|(_, p)| p.clone()).collect()
    }

    /// The campaign's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a cell. Returns `false` if the category does not support the
    /// channel — the cell is kept and will report
    /// [`CellOutcome::Unsupported`].
    pub fn push(&mut self, spec: CellSpec) -> bool {
        let plan = CellPlan::new(spec.category, spec.channel, spec.predictor, &spec.cfg);
        let supported = plan.is_some();
        self.cells.push((spec, plan));
        supported
    }

    /// Number of cells (supported or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the campaign has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total jobs the campaign expands into.
    #[must_use]
    pub fn num_jobs(&self) -> usize {
        self.cells
            .iter()
            .map(|(_, p)| p.as_ref().map_or(0, CellPlan::trials))
            .sum()
    }

    /// A structural hash of the campaign definition: name, cell names,
    /// coordinates and full experiment configurations. Guards resume
    /// manifests against being replayed into a different campaign.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        fnv1a(&mut hash, self.name.as_bytes());
        for (spec, _) in &self.cells {
            fnv1a(&mut hash, spec.name.as_bytes());
            let coords = format!(
                "{:?}|{:?}|{:?}|{:?}",
                spec.category, spec.channel, spec.predictor, spec.cfg
            );
            fnv1a(&mut hash, coords.as_bytes());
        }
        hash
    }

    /// Run every job and reduce each cell into its [`Evaluation`].
    ///
    /// Results are bitwise-identical for every [`Exec::jobs`] value and
    /// across resumed runs.
    ///
    /// # Errors
    ///
    /// Fails if the resume directory is unusable or its manifest was
    /// written by a different campaign.
    pub fn run(&self, exec: &Exec) -> Result<CampaignOutcome, HarnessError> {
        let started = Instant::now();
        if matches!(exec.backend, WorkerBackend::Process(_)) && self.spec_json.is_none() {
            return Err(HarnessError::ProcessBackendNeedsSpec);
        }
        let fingerprint = self.fingerprint();
        let jobs_total = self.num_jobs();
        let manifest = match &exec.resume {
            Some(dir) => {
                let io: Arc<dyn SinkIo> = exec
                    .sink_io
                    .clone()
                    .unwrap_or_else(|| Arc::new(RealIo) as Arc<dyn SinkIo>);
                Some(Manifest::open(
                    dir,
                    &self.name,
                    fingerprint,
                    jobs_total,
                    io,
                )?)
            }
            None => None,
        };
        let resumed: HashMap<(usize, usize), JobRecord> = manifest
            .as_ref()
            .map(Manifest::completed)
            .cloned()
            .unwrap_or_default();

        // The jobs still to run, as (cell, trial) in canonical order.
        let pending: Vec<(usize, usize)> = self
            .cells
            .iter()
            .enumerate()
            .flat_map(|(cell, (_, plan))| {
                let trials = plan.as_ref().map_or(0, CellPlan::trials);
                (0..trials).map(move |trial| (cell, trial))
            })
            .filter(|job| !resumed.contains_key(job))
            .collect();

        // Replay resumed records to the observer first, in canonical
        // (cell, trial) order, so a streaming consumer sees an
        // identical prefix whether the campaign resumed or not.
        if let Some(observer) = &exec.observer {
            let mut replay: Vec<&JobRecord> = resumed.values().collect();
            replay.sort_by_key(|r| (r.cell, r.trial));
            for rec in replay {
                observer.job_done(rec, true);
            }
        }

        let plans = self.plans();
        let on_done = |rec: &JobRecord| {
            let sink_start = Instant::now();
            if let Some(m) = &manifest {
                m.record(*rec);
            }
            if let Some(observer) = &exec.observer {
                observer.job_done(rec, false);
            }
            if let Some(m) = &exec.metrics {
                m.sink_seconds.observe(sink_start.elapsed().as_secs_f64());
            }
        };
        let batch = Batch {
            campaign: &self.name,
            plans: &plans,
            pending: &pending,
            total_jobs: jobs_total,
            resumed: resumed.len(),
        };
        let (results, run_stats) = match &exec.backend {
            WorkerBackend::Thread => pool::run_jobs(&batch, exec, &on_done),
            WorkerBackend::Process(cfg) => fleet::run_jobs(
                &batch,
                exec,
                cfg,
                self.spec_json.as_deref().expect("checked above"),
                &on_done,
            ),
        };

        // Results come back in `pending` order, which is the canonical
        // order the reduction below walks.
        let mut results = results.into_iter();

        // Reduce each cell in trial order; execution order is irrelevant.
        let mut sim_cycles = 0u64;
        let mut sched = SchedStats::default();
        let mut cells_out = Vec::with_capacity(self.cells.len());
        for (cell, (spec, plan)) in self.cells.iter().enumerate() {
            let Some(plan) = plan else {
                cells_out.push(CellResult {
                    name: spec.name.clone(),
                    outcome: CellOutcome::Unsupported,
                });
                continue;
            };
            let mut pairs: Vec<PairOutcome> = Vec::with_capacity(plan.trials());
            let mut error = None;
            for trial in 0..plan.trials() {
                let result = match resumed.get(&(cell, trial)) {
                    Some(rec) => Ok(*rec),
                    None => results
                        .next()
                        .flatten()
                        .expect("every pending job resolves"),
                };
                // The first failing trial names the cell's error.
                error = match (error, result) {
                    (None, Err(JobFailure::Panic(message))) => {
                        Some(CellError::JobPanicked { trial, message })
                    }
                    (None, Err(JobFailure::Deadline { attempts })) => {
                        Some(CellError::JobTimedOut { trial, attempts })
                    }
                    (None, Err(JobFailure::Poisoned { crashes })) => {
                        Some(CellError::Poisoned { trial, crashes })
                    }
                    (error, Ok(rec)) => {
                        pairs.push(rec.pair);
                        error
                    }
                    (error, Err(_)) => error,
                };
            }
            let outcome = match error {
                Some(e) => CellOutcome::Failed(e),
                None => {
                    sim_cycles += pairs.iter().map(PairOutcome::total_cycles).sum::<u64>();
                    for pair in &pairs {
                        sched.merge(&pair.sched());
                    }
                    CellOutcome::Evaluated(plan.finish(&pairs))
                }
            };
            cells_out.push(CellResult {
                name: spec.name.clone(),
                outcome,
            });
        }

        let failed_cells = cells_out
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Failed(_)))
            .count() as u64;
        let stats = CampaignStats {
            torn_lines: manifest.as_ref().map_or(0, Manifest::torn_lines),
            io_faults: manifest.as_ref().map_or(0, Manifest::io_faults),
            wall_time: started.elapsed(),
            sim_cycles,
            sched,
            ..run_stats
        };
        if let Some(health) = &exec.health {
            health.absorb(&stats, failed_cells);
        }
        if exec.progress {
            eprintln!("[{}] done: {stats}", self.name);
        }
        Ok(CampaignOutcome {
            cells: cells_out,
            stats,
        })
    }
}
