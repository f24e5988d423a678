//! The campaign job model: cells → jobs → deterministic reduction.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use vpsec::attacks::AttackCategory;
use vpsec::experiment::{
    CellPlan, Channel, Evaluation, ExperimentConfig, PairOutcome, PredictorKind,
};
use vpsim_obs::Registry;
use vpsim_pipeline::SchedStats;

use crate::exec::{Exec, WorkerBackend};
use crate::io::{RealIo, SinkIo};
use crate::ledger::{Batch, JobFailure};
use crate::sink::{JobRecord, Manifest};
use crate::store::{CampaignMetrics, CampaignStats, Count, Phase};
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
    /// attempt (hard [`Exec::job_deadline`](crate::Exec)), or drained
    /// when the campaign expired ([`Exec::cancel`](crate::Exec)).
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

    /// Run every job and reduce each cell into its [`Evaluation`],
    /// counting into [`Exec::metrics`] (or a private store). The
    /// outcome's stats are what this run added to the store.
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
        let metrics = exec
            .metrics
            .clone()
            .unwrap_or_else(|| CampaignMetrics::register(&Registry::new(), &self.name));
        let before = metrics.read();
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
                    &metrics,
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
            metrics.observe(Phase::Sink, sink_start.elapsed());
        };
        let batch = Batch {
            campaign: &self.name,
            plans: &plans,
            pending: &pending,
            total_jobs: jobs_total,
            resumed: resumed.len(),
            metrics: metrics.clone(),
        };
        let results = match &exec.backend {
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
                Some(e) => {
                    metrics.inc(Count::CellsFailed);
                    CellOutcome::Failed(e)
                }
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

        let stats = CampaignStats {
            jobs_total,
            jobs_resumed: resumed.len(),
            wall_time: started.elapsed(),
            sim_cycles,
            sched,
            ..metrics.stats_since(&before)
        };
        if exec.progress {
            eprintln!("[{}] done: {stats}", self.name);
        }
        Ok(CampaignOutcome {
            cells: cells_out,
            stats,
        })
    }
}
