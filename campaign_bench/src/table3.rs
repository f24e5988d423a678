//! `table3` — the paper's Table III as one closed batch on the thread
//! pool, plus the pieces `daemon_fleet` shares with it: the spec, the
//! `repro run` reference, the output checks and the job replay.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vpsec::attacks::{build_trial, Trial};
use vpsec::experiment::{CellPlan, ExperimentConfig, PairOutcome, PredictorKind, TrialOutcome};
use vpsim_harness::{CampaignOutcome, CampaignSpec, CellOutcome, Exec};
use vpsim_mem::MemoryHierarchy;
use vpsim_pipeline::{Machine, SchedStats};
use vpsim_predictor::{Lvp, LvpConfig, NoPredictor, ValuePredictor};
use vpsim_serve::{StreamLog, StreamObserver};

use crate::daemon;
use crate::layers::{report_split, JobTimes, SimCounters};
use crate::stats::{median, rate, ratio, time_setup, Report};
use crate::trace::Tracer;

/// Paired trials per cell: 18 supported cells × 400 = 7,200 jobs, long
/// enough that the pool watchdog's 50 ms wake-up step is a few percent
/// of a campaign.
pub const TRIALS: usize = 400;

/// Worker threads, and fleet processes on the process backend.
pub const WORKERS: usize = 2;

/// Timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

const CATEGORIES: [&str; 6] = [
    "train_hit",
    "train_test",
    "spill_over",
    "test_hit",
    "fill_up",
    "modify_test",
];

/// The Table III spec document: category × {timing_window,
/// persistent} × {none, lvp}, 24 cells of which 18 are supported.
pub fn spec_json(seed: u64) -> String {
    let mut cells = Vec::new();
    for category in CATEGORIES {
        for channel in ["timing_window", "persistent"] {
            for predictor in ["none", "lvp"] {
                cells.push(format!(
                    "{{\"category\":\"{category}\",\"channel\":\"{channel}\",\"predictor\":\"{predictor}\"}}"
                ));
            }
        }
    }
    format!(
        "{{\"name\":\"table3\",\"trials\":{TRIALS},\"seed\":{seed},\"chaos_level\":0,\"cells\":[{}]}}",
        cells.join(",")
    )
}

pub fn parse(text: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::parse(text).map_err(|e| e.to_string())
}

/// The spec run the way `repro run` runs it: thread backend, result
/// lines formatted and ordered by the serving plane's `StreamObserver`.
pub struct Reference {
    pub lines: Vec<String>,
    pub outcome: CampaignOutcome,
}

pub fn reference(spec: &CampaignSpec) -> Result<Reference, String> {
    let log = Arc::new(StreamLog::default());
    let observer = Arc::new(StreamObserver::new(
        Arc::clone(&log),
        Arc::new(AtomicUsize::new(0)),
        &spec.trials_per_cell(),
    ));
    let exec = Exec {
        jobs: WORKERS,
        observer: Some(observer),
        ..Exec::default()
    };
    let outcome = spec.to_campaign().run(&exec).map_err(|e| e.to_string())?;
    log.close();
    Ok(Reference {
        lines: log.snapshot(),
        outcome,
    })
}

/// Table III's verdicts as recorded in EXPERIMENTS.md: every `lvp`
/// cell is effective (p < 0.05) and no `none` cell is.
pub fn check_verdicts(outcome: &CampaignOutcome, spec: &CampaignSpec, report: &mut Report) {
    let mut evaluated = 0;
    for (cell, coord) in outcome.cells().iter().zip(&spec.cells) {
        if let Some(e) = cell.evaluation() {
            evaluated += 1;
            let paper = coord.predictor == PredictorKind::Lvp;
            report.check(e.succeeds() == paper, || {
                format!(
                    "Table III verdict of {}: p = {}, but the paper has the attack {}",
                    cell.name,
                    e.ttest.p_value,
                    if paper { "effective" } else { "not effective" }
                )
            });
        }
    }
    report.check(evaluated == 18, || {
        format!("{evaluated} Table III cells evaluated, expected 18")
    });
}

/// Check a campaign's outcome against the reference, bit for bit.
/// Returns the failed jobs: every job of a failed cell and every job
/// whose observations differ from the reference.
pub fn check_outcome(
    outcome: &CampaignOutcome,
    reference: &CampaignOutcome,
    report: &mut Report,
) -> u64 {
    let mut failed = 0u64;
    for (got, want) in outcome.cells().iter().zip(reference.cells()) {
        match (&got.outcome, &want.outcome) {
            (CellOutcome::Unsupported, CellOutcome::Unsupported) => {}
            (CellOutcome::Evaluated(g), CellOutcome::Evaluated(w)) => {
                let differ = (0..w.mapped.len())
                    .filter(|&t| {
                        g.mapped.get(t).map(|v| v.to_bits()) != Some(w.mapped[t].to_bits())
                            || g.unmapped.get(t).map(|v| v.to_bits())
                                != Some(w.unmapped[t].to_bits())
                    })
                    .count();
                failed += differ as u64;
                report.check(differ == 0, || {
                    format!(
                        "cell {}: {differ} job(s) differ from the reference",
                        got.name
                    )
                });
            }
            (other, CellOutcome::Evaluated(w)) => {
                failed += w.mapped.len() as u64;
                report.check(false, || format!("cell {}: {}", got.name, describe(other)));
            }
            (other, _) => {
                report.check(false, || format!("cell {}: {}", got.name, describe(other)));
            }
        }
    }
    report.check(
        outcome.stats.sim_cycles == reference.stats.sim_cycles,
        || {
            format!(
                "{} sim cycles, but the reference run simulated {}",
                outcome.stats.sim_cycles, reference.stats.sim_cycles
            )
        },
    );
    failed
}

fn describe(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::Unsupported => "unsupported, unlike the reference".to_owned(),
        CellOutcome::Evaluated(_) => "evaluated, unlike the reference".to_owned(),
        CellOutcome::Failed(e) => format!("failed: {e}"),
    }
}

/// One timed `Campaign::run`, checked against the reference. Returns
/// the instants the call started and returned.
pub fn timed_run(
    spec: &CampaignSpec,
    exec: &Exec,
    reference: &Reference,
    report: &mut Report,
) -> Result<(Instant, Instant), String> {
    let campaign = spec.to_campaign();
    let start = Instant::now();
    let outcome = campaign.run(exec).map_err(|e| e.to_string())?;
    let end = Instant::now();
    report.attempted += spec.num_jobs() as u64;
    report.failed += check_outcome(&outcome, &reference.outcome, report);
    Ok((start, end))
}

fn secs((start, end): (Instant, Instant)) -> f64 {
    (end - start).as_secs_f64()
}

fn pool(jobs: usize) -> Exec {
    Exec {
        jobs,
        ..Exec::default()
    }
}

/// The end-to-end run: back-to-back campaigns for `budget`.
pub fn run(spec_seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let text = spec_json(spec_seed);
    let spec = parse(&text)?;
    let reference = reference(&spec)?;
    check_verdicts(&reference.outcome, &spec, report);
    let jobs = spec.num_jobs() as f64;
    let cycles = reference.outcome.stats.sim_cycles as f64;
    let (mut walls, mut setup) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed() < budget {
        // Set-up samples spread over the run see the same host as the
        // campaigns.
        setup.push(time_setup(8, || {
            parse(&text).map(|spec| spec.to_campaign())
        }));
        walls.push(secs(timed_run(&spec, &pool(WORKERS), &reference, report)?));
    }
    report.set("jobs_per_s", rate(jobs, &walls));
    // Each paired trial transmits one bit per arm (`CellPlan::finish`
    // counts 2 × trials bits).
    report.set("bits_per_s", rate(2.0 * jobs, &walls));
    report.set("sim_cycles_per_s", rate(cycles, &walls));
    report.set("setup_s", median(&setup));
    eprintln!(
        "table3: {} campaigns of {jobs} jobs, {cycles} sim cycles each; walls {walls:.3?} s",
        walls.len()
    );
    Ok(())
}

/// The traced run, covering every layer a Table III job crosses on any
/// backend: pool metrics from observed campaigns alternated with
/// untraced and single-worker ones, every job replayed layer by layer,
/// then the fleet, sink and serve layers of `daemon_fleet`.
pub fn run_traced(
    spec_seed: u64,
    budget: Duration,
    work_dir: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let spec = parse(&spec_json(spec_seed))?;
    let reference = reference(&spec)?;
    check_verdicts(&reference.outcome, &spec, report);
    let jobs = spec.num_jobs() as f64;
    let (mut off, mut on, mut single) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy, mut tail) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while off.is_empty() || start.elapsed() < budget {
        off.push(secs(timed_run(&spec, &pool(WORKERS), &reference, report)?));
        let times = Arc::new(JobTimes::default());
        let observed = Exec {
            observer: Some(Arc::clone(&times) as _),
            ..pool(WORKERS)
        };
        let (began, ended) = timed_run(&spec, &observed, &reference, report)?;
        let run = times.finish(began, ended, tracer);
        on.push(run.wall.as_secs_f64());
        busy.push(run.busy / (run.wall.as_secs_f64() * WORKERS as f64));
        tail.push(run.tail.as_secs_f64() * 1e3);
        single.push(secs(timed_run(&spec, &pool(1), &reference, report)?));
    }
    let (off, on) = (rate(jobs, &off), rate(jobs, &on));
    report.set("harness.pool.busy_frac", median(&busy));
    report.set("harness.pool.tail_ms", median(&tail));
    report.set("harness.pool.scaling", ratio(off, rate(jobs, &single)));
    report.set("trace.overhead_pct", 100.0 * ratio(off - on, off));
    replay(&spec, tracer, report);
    daemon::measure_layers(&spec, &reference, work_dir, report, tracer)
}

/// Replay every job of `spec` on this thread through the calls
/// `CellPlan::run_pair` makes (`build_trial`, predictor,
/// `Machine::new`, `store_value`, one `Machine::run` per step), timing
/// each layer, and check that every replayed pair equals
/// `CellPlan::run_pair(t)` bit for bit. Reports the experiment,
/// pipeline, memory and predictor layers and the job-time split.
pub fn replay(spec: &CampaignSpec, tracer: &mut Tracer, report: &mut Report) {
    let cfg = spec.experiment_config();
    assert!(
        cfg.chaos.is_off() && !cfg.background_noise,
        "the replay covers chaos level 0 without background noise"
    );
    let mut sim = SimCounters::default();
    let mut mismatched = 0u64;
    for coord in &spec.cells {
        let span = tracer.enter("experiment.plan", sim.jobs);
        let plan = CellPlan::new(coord.category, coord.channel, coord.predictor, &cfg);
        tracer.exit(span);
        let Some(plan) = plan else { continue };
        let arms = [true, false]
            .map(|mapped| build_trial(coord.category, coord.channel, mapped, &cfg.setup));
        let [Some(mapped), Some(unmapped)] = arms else {
            unreachable!("a planned cell builds both trials")
        };
        let mut pairs = Vec::with_capacity(plan.trials());
        for t in 0..plan.trials() {
            let job = sim.jobs;
            let span = tracer.enter("experiment.run_pair", job);
            let pair = plan.run_pair(t);
            tracer.exit(span);
            let base = plan.trial_seed(t);
            let root = tracer.enter("experiment.job", job);
            let mut arm = |trial: &Trial, defense_seed: u64| {
                replay_arm(
                    trial,
                    coord.predictor,
                    &cfg,
                    base,
                    defense_seed,
                    job,
                    tracer,
                    &mut sim,
                )
            };
            let replayed = PairOutcome {
                mapped: arm(&mapped, base ^ 0x5ee3),
                unmapped: arm(&unmapped, base ^ 0x0def_5eed),
            };
            tracer.exit(root);
            let span = tracer.enter("mem.hierarchy_new", job);
            let hierarchy = MemoryHierarchy::new(cfg.mem, base);
            tracer.exit(span);
            drop(hierarchy);
            if !same_bits(&pair, &replayed) {
                mismatched += 1;
            }
            pairs.push(pair);
            sim.jobs += 1;
        }
        let span = tracer.enter("experiment.finish", sim.jobs);
        black_box(plan.finish(&pairs));
        tracer.exit(span);
    }
    report.attempted += sim.jobs;
    report.failed += mismatched;
    report.check(mismatched == 0, || {
        format!("{mismatched} replayed job(s) differ from CellPlan::run_pair")
    });
    report.timing(
        "experiment.pair_us",
        &tracer.durations_us("experiment.run_pair"),
    );
    report.set("experiment.plan_ms", tracer.total_ms("experiment.plan"));
    report.set("experiment.finish_ms", tracer.total_ms("experiment.finish"));
    sim.report(tracer, report);
    report_split(tracer, "experiment.job", report);
}

fn same_bits(a: &PairOutcome, b: &PairOutcome) -> bool {
    let arm = |x: &TrialOutcome, y: &TrialOutcome| {
        x.observed.to_bits() == y.observed.to_bits()
            && x.total_cycles == y.total_cycles
            && x.sched == y.sched
    };
    arm(&a.mapped, &b.mapped) && arm(&a.unmapped, &b.unmapped)
}

/// One arm of a paired trial on a fresh machine, as the experiment
/// layer runs it.
#[allow(clippy::too_many_arguments)]
fn replay_arm(
    trial: &Trial,
    predictor: PredictorKind,
    cfg: &ExperimentConfig,
    seed: u64,
    defense_seed: u64,
    job: u64,
    tracer: &mut Tracer,
    sim: &mut SimCounters,
) -> TrialOutcome {
    let mut core = cfg.core;
    core.delay_side_effects = core.delay_side_effects || cfg.defense.d_type;
    let span = tracer.enter("predictor.new", job);
    let vp = new_predictor(predictor, cfg, defense_seed);
    tracer.exit(span);
    let span = tracer.enter("pipeline.machine_new", job);
    let mut machine = Machine::new(core, cfg.mem, vp, seed);
    let init = tracer.enter("mem.init", job);
    for &(addr, value) in &trial.memory_init {
        machine.mem_mut().store_value(addr, value);
    }
    tracer.exit(init);
    tracer.exit(span);
    let mut outcome = TrialOutcome {
        observed: 0.0,
        total_cycles: 0,
        sched: SchedStats::default(),
    };
    for (i, step) in trial.steps.iter().enumerate() {
        let mut last_window = None;
        for _ in 0..step.repeat {
            let span = tracer.enter("pipeline.run", job);
            let result = machine.run(step.party.pid(), &step.program);
            tracer.exit(span);
            let r = result.unwrap_or_else(|e| panic!("step `{}` failed: {e}", step.label));
            sim.add_run(&r);
            outcome.total_cycles += r.cycles;
            outcome.sched.merge(&r.sched);
            last_window = r.timing_windows().first().copied();
        }
        if i == trial.observe_step {
            outcome.observed =
                last_window.expect("observed step must contain an rdtsc pair") as f64;
        }
    }
    sim.add_machine(&machine.mem().stats());
    let span = tracer.enter("pipeline.machine_drop", job);
    drop(machine);
    tracer.exit(span);
    outcome
}

/// The predictor `CellPlan` builds for Table III's `none` and `lvp`
/// cells.
fn new_predictor(
    kind: PredictorKind,
    cfg: &ExperimentConfig,
    defense_seed: u64,
) -> Box<dyn ValuePredictor> {
    match kind {
        PredictorKind::None => Box::new(NoPredictor::new()),
        PredictorKind::Lvp => cfg.defense.apply(
            Lvp::new(LvpConfig {
                index: cfg.index,
                confidence_threshold: cfg.setup.confidence,
                ..LvpConfig::default()
            }),
            cfg.index,
            defense_seed,
        ),
        other => panic!("the replay covers Table III's predictors, not {other}"),
    }
}
