//! Crash-recovery and supervision torture suite.
//!
//! Three planes of abuse, all seeded and reproducible:
//!
//! 1. **Kill/resume torture**: a reference campaign's manifest is
//!    truncated at many seeded byte offsets — mid-header, mid-record —
//!    and resumed; every interruption point must converge to a final
//!    manifest and evaluations bit-identical to an uninterrupted run.
//! 2. **I/O-fault torture**: the same campaign runs with a seeded
//!    [`FaultyIo`] injecting short writes, `ENOSPC`, fsync failures and
//!    torn renames; the campaign must degrade gracefully (spill files,
//!    surfaced `io_faults` counters) and still produce bit-identical
//!    evaluations, including across a simulated crash.
//! 3. **Cancellation torture**: a deliberately hung cell (absurd
//!    training-repeat count) must be *cancelled* within its hard
//!    deadline — not merely logged — and an external cancel must bound
//!    the whole run while still resolving every queued job.
//! 4. **Process-fleet torture**: campaigns on the process-isolated
//!    backend survive a worker SIGKILLed mid-flight with bit-identical
//!    results, quarantine deterministically crashing cells after K
//!    crashes, detect hung workers by missed heartbeats within a
//!    bounded time, and reap every worker they spawn (no zombies).

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vpsec::attacks::{AttackCategory, AttackSetup};
use vpsec::experiment::{Channel, Evaluation, ExperimentConfig, PredictorKind};
use vpsim_harness::{
    Campaign, CampaignSpec, CellOutcome, CellSpec, Exec, FaultPlan, FaultyIo, FleetConfig,
    JobObserver, JobRecord, SinkIo, WorkerBackend,
};
use vpsim_pipeline::CancelToken;
use vpsim_rng::SmallRng;

fn cfg(trials: usize) -> ExperimentConfig {
    ExperimentConfig {
        trials,
        ..ExperimentConfig::default()
    }
}

/// The reference campaign: two supported cells, 12 jobs total.
fn reference_campaign(name: &str) -> Campaign {
    let mut c = Campaign::new(name);
    c.push(CellSpec::new(
        "train_test/tw/lvp",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        cfg(6),
    ));
    c.push(CellSpec::new(
        "fill_up/tw/none",
        AttackCategory::FillUp,
        Channel::TimingWindow,
        PredictorKind::None,
        cfg(6),
    ));
    c
}

const CELLS: [&str; 2] = ["train_test/tw/lvp", "fill_up/tw/none"];

fn assert_bitwise_eq(a: &Evaluation, b: &Evaluation, context: &str) {
    assert_eq!(a.mapped, b.mapped, "{context}: mapped observations drifted");
    assert_eq!(a.unmapped, b.unmapped, "{context}: unmapped drifted");
    assert_eq!(
        a.ttest.p_value.to_bits(),
        b.ttest.p_value.to_bits(),
        "{context}: p-value bits drifted"
    );
    assert_eq!(
        a.rate_kbps.to_bits(),
        b.rate_kbps.to_bits(),
        "{context}: rate bits drifted"
    );
}

/// A unique scratch directory per call; no tempdir crate in the image.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpsim-torture-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic payload of a manifest: every parseable record's
/// `(cell, trial)` coordinates and bit-exact simulation results,
/// sorted. Run-local observability (`wall_ns`, `attempts`) is excluded
/// — it legitimately differs between runs of identical science.
fn payload(manifest_text: &str) -> Vec<(usize, usize, u64, u64, u64, u64)> {
    let mut rows: Vec<_> = manifest_text
        .lines()
        .filter_map(JobRecord::parse)
        .map(|r| {
            (
                r.cell,
                r.trial,
                r.pair.mapped.observed.to_bits(),
                r.pair.mapped.total_cycles,
                r.pair.unmapped.observed.to_bits(),
                r.pair.unmapped.total_cycles,
            )
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Torture plane 1: ≥20 seeded interruption points, each truncating
/// the manifest to a strict byte prefix (modelling a campaign killed
/// mid-write), must all converge — bit-identical evaluations AND a
/// bit-identical final manifest payload.
#[test]
fn seeded_interruption_points_converge_to_the_uninterrupted_run() {
    let campaign = reference_campaign("torture");
    let exec_for = |dir: &PathBuf| Exec {
        jobs: 4,
        resume: Some(dir.clone()),
        ..Exec::default()
    };

    // Uninterrupted reference run.
    let base_dir = scratch_dir("base");
    let baseline = campaign.run(&exec_for(&base_dir)).unwrap();
    let base_text = std::fs::read_to_string(base_dir.join("torture.jsonl")).unwrap();
    let base_payload = payload(&base_text);
    assert_eq!(base_payload.len(), 12, "reference run must record all jobs");
    let header_len = base_text.lines().next().unwrap().len();

    // Interruption points: deterministic specials covering the
    // interesting structural positions, then seeded random offsets.
    let mut rng = SmallRng::seed_from_u64(0x70e7_0001);
    let mut points: Vec<usize> = vec![
        0,                   // file exists but is empty
        header_len / 2,      // torn mid-header
        header_len + 1,      // header survives, first record torn at byte one
        base_text.len() - 1, // last byte of the final record lost
    ];
    while points.len() < 20 {
        points.push(rng.gen_range(0..base_text.len()));
    }

    for (k, &cut) in points.iter().enumerate() {
        let dir = scratch_dir(&format!("cut{k}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("torture.jsonl"), &base_text[..cut]).unwrap();

        let context = format!("interruption #{k} (cut at byte {cut}/{})", base_text.len());
        let resumed = campaign
            .run(&exec_for(&dir))
            .unwrap_or_else(|e| panic!("{context}: resume refused: {e}"));
        assert_eq!(
            resumed.stats.jobs_resumed + resumed.stats.jobs_run,
            12,
            "{context}: every job must resolve"
        );
        for name in CELLS {
            assert_bitwise_eq(
                baseline.expect_eval(name),
                resumed.expect_eval(name),
                &format!("{context}, cell {name}"),
            );
        }
        let final_text = std::fs::read_to_string(dir.join("torture.jsonl")).unwrap();
        assert_eq!(
            payload(&final_text),
            base_payload,
            "{context}: final manifest payload must be bit-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

/// Torture plane 2: hostile seeded I/O. The campaign must never abort
/// on injected sink failures, must surface the fault counters, and its
/// evaluations must stay bit-identical to the clean run — including
/// across a simulated crash (live state reverted to durable).
#[test]
fn faulty_io_sweep_degrades_gracefully_and_stays_bit_identical() {
    let campaign = reference_campaign("torture-io");
    let clean = campaign.run(&Exec::default()).unwrap();
    let vdir = PathBuf::from("/vfs/torture-io");

    let mut any_faults = false;
    let mut any_surfaced = false;
    for seed in 1..=6u64 {
        let fio = Arc::new(FaultyIo::new(FaultPlan::hostile(seed)));
        let exec = Exec {
            jobs: 2,
            resume: Some(vdir.clone()),
            sink_io: Some(Arc::clone(&fio) as Arc<dyn SinkIo>),
            ..Exec::default()
        };
        let context = format!("hostile I/O seed {seed}");
        let first = campaign
            .run(&exec)
            .unwrap_or_else(|e| panic!("{context}: campaign aborted on injected faults: {e}"));
        for name in CELLS {
            assert_bitwise_eq(
                clean.expect_eval(name),
                first.expect_eval(name),
                &format!("{context}, first run, cell {name}"),
            );
        }
        // Some injected faults are *silent* by design (torn rename,
        // delayed flush): they only become visible after a crash. The
        // campaign can only surface the faults that returned errors.
        any_faults |= fio.faults_injected() > 0;
        any_surfaced |= first.stats.io_faults > 0 || first.stats.torn_lines > 0;

        // Crash: lose everything not yet durable, then resume on the
        // same (faulty) disk. Science must not change.
        fio.crash();
        let second = campaign
            .run(&exec)
            .unwrap_or_else(|e| panic!("{context}: post-crash resume aborted: {e}"));
        for name in CELLS {
            assert_bitwise_eq(
                clean.expect_eval(name),
                second.expect_eval(name),
                &format!("{context}, post-crash run, cell {name}"),
            );
        }
        any_surfaced |= second.stats.io_faults > 0 || second.stats.torn_lines > 0;
    }
    assert!(
        any_faults,
        "six hostile plans must inject at least one fault between them"
    );
    assert!(
        any_surfaced,
        "at least one run must surface io_faults/torn_lines in its stats"
    );
}

/// A quiet `FaultyIo` behaves exactly like a real filesystem: no
/// faults, full resume after a crash (everything synced is durable).
#[test]
fn quiet_faulty_io_crash_resumes_everything() {
    let campaign = reference_campaign("torture-quiet");
    let fio = Arc::new(FaultyIo::new(FaultPlan::quiet(7)));
    let vdir = PathBuf::from("/vfs/torture-quiet");
    let exec = Exec {
        jobs: 2,
        resume: Some(vdir.clone()),
        sink_io: Some(Arc::clone(&fio) as Arc<dyn SinkIo>),
        ..Exec::default()
    };
    let first = campaign.run(&exec).unwrap();
    assert_eq!(first.stats.jobs_run, 12);
    assert_eq!(first.stats.io_faults, 0);
    fio.crash();
    let second = campaign.run(&exec).unwrap();
    assert_eq!(
        second.stats.jobs_resumed, 12,
        "a quiet disk loses nothing on crash: every job must resume"
    );
    assert_eq!(second.stats.jobs_run, 0);
}

/// A hung-cell campaign: absurd training-repeat counts make each trial
/// run for minutes of wall time, unless cancelled.
fn hung_campaign(name: &str, trials: usize) -> Campaign {
    let mut c = Campaign::new(name);
    c.push(CellSpec::new(
        "healthy",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        cfg(4),
    ));
    c.push(CellSpec::new(
        "hung",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        ExperimentConfig {
            trials,
            setup: AttackSetup {
                // ~2×10^8 training repeats per trial: minutes of wall
                // time if left alone, cancelled within the deadline.
                extra_training: 200_000_000,
                ..AttackSetup::default()
            },
            ..ExperimentConfig::default()
        },
    ));
    c
}

/// Torture plane 3a: the watchdog cancels a hung job mid-simulation
/// within its hard deadline; the campaign finishes promptly with the
/// hung cell failed as timed out and the healthy cell intact.
#[test]
fn a_hung_cell_is_cancelled_within_its_deadline() {
    let campaign = hung_campaign("torture-hang", 2);
    let started = Instant::now();
    let outcome = campaign
        .run(&Exec {
            jobs: 2,
            job_deadline: Some(Duration::from_millis(150)),
            ..Exec::default()
        })
        .unwrap();
    let elapsed = started.elapsed();
    // 2 hung jobs × (150 ms + backoff + 300 ms retry) plus slack; far
    // below the minutes an uncancelled run would take.
    assert!(
        elapsed < Duration::from_secs(30),
        "hung cell was not cancelled promptly (took {elapsed:?})"
    );
    assert!(
        outcome.get("healthy").is_some(),
        "healthy cell must evaluate"
    );
    match &outcome.cells()[1].outcome {
        CellOutcome::Failed(err) => {
            let msg = err.to_string();
            assert!(
                msg.contains("deadline") && msg.contains("cancelled"),
                "expected a deadline-cancellation failure, got: {msg}"
            );
        }
        other => panic!("hung cell must fail as timed out, got {other:?}"),
    }
    assert!(outcome.stats.cancelled >= 2, "{:?}", outcome.stats);
    assert!(outcome.stats.backoff_retries >= 1, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.deadline_failed, 2, "{:?}", outcome.stats);
}

/// Torture plane 3b: an external cancel bounds the whole run. Every
/// queued job still resolves (as a timed-out failure), so the campaign
/// returns a complete outcome instead of hanging.
#[test]
fn an_external_cancel_bounds_the_run_and_resolves_every_job() {
    let campaign = hung_campaign("torture-cancel", 6);
    let cancel = CancelToken::new();
    let tripper = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            cancel.cancel();
        })
    };
    let started = Instant::now();
    let outcome = campaign
        .run(&Exec {
            jobs: 2,
            cancel: Some(cancel),
            ..Exec::default()
        })
        .unwrap();
    let elapsed = started.elapsed();
    tripper.join().unwrap();
    assert!(
        elapsed < Duration::from_secs(30),
        "the external cancel did not bound the run (took {elapsed:?})"
    );
    // The outcome is complete: both cells resolved, one way or another.
    assert_eq!(outcome.cells().len(), 2);
    match &outcome.cells()[1].outcome {
        CellOutcome::Failed(_) => {}
        other => panic!("hung cell must fail under the external cancel, got {other:?}"),
    }
    assert!(outcome.stats.deadline_failed >= 1, "{:?}", outcome.stats);
}

/// An untripped supervision plane is result-neutral: the same campaign
/// with and without a generous hard deadline and an external cancel
/// produces bit-identical evaluations (the cancellation check is a pure
/// read when untripped).
#[test]
fn untripped_deadlines_are_result_neutral() {
    let campaign = reference_campaign("torture-neutral");
    let plain = campaign.run(&Exec::default()).unwrap();
    let supervised = campaign
        .run(&Exec {
            jobs: 4,
            job_deadline: Some(Duration::from_secs(600)),
            cancel: Some(CancelToken::new()),
            ..Exec::default()
        })
        .unwrap();
    for name in CELLS {
        assert_bitwise_eq(
            plain.expect_eval(name),
            supervised.expect_eval(name),
            &format!("untripped supervision, cell {name}"),
        );
    }
    assert_eq!(supervised.stats.cancelled, 0);
    assert_eq!(supervised.stats.deadline_failed, 0);
}

// ---------------------------------------------------------------------------
// Torture plane 4: process-isolated fleet supervision.
// ---------------------------------------------------------------------------

/// Fleet tortures are serialized: the no-zombie check enumerates this
/// process's children, and concurrent fleets would spawn into each
/// other's observation window.
static FLEET_LOCK: Mutex<()> = Mutex::new(());

fn fleet_guard() -> std::sync::MutexGuard<'static, ()> {
    FLEET_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fleet campaigns are spec-built: the process backend relocates jobs
/// by handing the canonical spec JSON to each worker, so the campaign
/// must come from a [`CampaignSpec`].
fn fleet_spec(name: &str, trials: usize) -> CampaignSpec {
    let json = format!(
        "{{\"name\":\"{name}\",\"trials\":{trials},\"seed\":7,\"cells\":[\
         {{\"category\":\"train_test\",\"channel\":\"timing_window\",\"predictor\":\"lvp\"}},\
         {{\"category\":\"fill_up\",\"channel\":\"timing_window\",\"predictor\":\"none\"}}]}}"
    );
    CampaignSpec::parse(&json).expect("fleet spec must parse")
}

const FLEET_CELLS: [&str; 2] = ["train_test/timing_window/lvp", "fill_up/timing_window/none"];

/// A fleet aimed at the dedicated test worker binary (cargo only
/// populates `CARGO_BIN_EXE_*` for this package's own binaries; the
/// production path re-execs the CLI with `--worker-loop` instead).
fn fleet_cfg(workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        worker_cmd: Some(vec![env!("CARGO_BIN_EXE_vpsim-worker").to_owned()]),
        ..FleetConfig::default()
    }
}

/// Every child pid of this process, across all of its threads (a
/// zombie stays a child until reaped).
fn my_children() -> Vec<u32> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task")
        .expect("/proc must be mounted")
        .flatten()
    {
        if let Ok(text) = std::fs::read_to_string(task.path().join("children")) {
            out.extend(
                text.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
    }
    out
}

/// An observer that holds each lane at its finished jobs until
/// [`KillGate::open`]: a fleet whose every lane has parked here has all
/// its workers spawned and idle, and cannot finish its campaign.
#[derive(Debug, Default)]
struct KillGate {
    /// Jobs finished so far, and whether the gate is open.
    state: Mutex<(usize, bool)>,
    cond: Condvar,
}

impl KillGate {
    /// Wait until `jobs` jobs have finished, or `deadline` passes.
    fn await_jobs(&self, jobs: usize, deadline: Instant) -> bool {
        let mut state = self.state.lock().expect("gate lock");
        while state.0 < jobs {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            state = self.cond.wait_timeout(state, left).expect("gate lock").0;
        }
        true
    }

    /// Release every parked lane for good; returns the jobs finished
    /// before the gate opened.
    fn open(&self) -> usize {
        let mut state = self.state.lock().expect("gate lock");
        state.1 = true;
        self.cond.notify_all();
        state.0
    }
}

impl JobObserver for KillGate {
    fn job_done(&self, _rec: &JobRecord, resumed: bool) {
        if resumed {
            return;
        }
        let mut state = self.state.lock().expect("gate lock");
        state.0 += 1;
        self.cond.notify_all();
        while !state.1 {
            state = self.cond.wait(state).expect("gate lock");
        }
    }
}

/// Torture plane 4a: SIGKILL the workers mid-campaign. The supervisor
/// must contain the crashes, re-dispatch the lost jobs into respawned
/// workers, and finish with evaluations AND a manifest payload
/// bit-identical to the thread-backend run.
#[test]
fn a_sigkilled_worker_mid_campaign_is_contained_and_bit_identical() {
    let _guard = fleet_guard();
    let spec = fleet_spec("torture-sigkill", 20);

    let base_dir = scratch_dir("fleet-base");
    let baseline = spec
        .to_campaign()
        .run(&Exec {
            jobs: 2,
            resume: Some(base_dir.clone()),
            ..Exec::default()
        })
        .unwrap();
    let base_text = std::fs::read_to_string(base_dir.join("torture-sigkill.jsonl")).unwrap();
    assert_eq!(
        payload(&base_text).len(),
        40,
        "reference run records all jobs"
    );

    // Process-backend run on two lanes. The gate parks each lane at its
    // first finished job, so once two jobs are done both workers are
    // spawned and idle and 38 jobs are still queued. The killer then
    // SIGKILLs every worker and opens the gate: whichever lane takes
    // the next job finds its worker dead.
    let pids: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new(KillGate::default());
    let dir = scratch_dir("fleet-kill");
    let exec = Exec {
        jobs: 2,
        resume: Some(dir.clone()),
        observer: Some(Arc::clone(&gate) as Arc<dyn JobObserver>),
        backend: WorkerBackend::Process(FleetConfig {
            pids: Some(Arc::clone(&pids)),
            ..fleet_cfg(2)
        }),
        ..Exec::default()
    };
    let killer_pids = Arc::clone(&pids);
    let killer_gate = Arc::clone(&gate);
    let killer = std::thread::spawn(move || {
        let parked = killer_gate.await_jobs(2, Instant::now() + Duration::from_secs(10));
        let workers = killer_pids.lock().expect("pid board").clone();
        let killed = parked
            && workers.len() == 2
            && workers.iter().all(|pid| {
                Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status()
                    .is_ok_and(|s| s.success())
            });
        (killed, killer_gate.open())
    });
    let outcome = spec.to_campaign().run(&exec).unwrap();
    let (killed, done_before_kill) = killer.join().unwrap();
    assert!(
        killed,
        "both lanes park and the killer reaches both workers"
    );
    assert_eq!(
        done_before_kill, 2,
        "the kill lands with 38 of 40 jobs left"
    );

    assert!(
        outcome.stats.worker_crashes >= 1,
        "the SIGKILL must register as a contained crash: {:?}",
        outcome.stats
    );
    for name in FLEET_CELLS {
        assert_bitwise_eq(
            baseline.expect_eval(name),
            outcome.expect_eval(name),
            &format!("SIGKILLed fleet, cell {name}"),
        );
    }
    let kill_text = std::fs::read_to_string(dir.join("torture-sigkill.jsonl")).unwrap();
    assert_eq!(
        payload(&kill_text),
        payload(&base_text),
        "manifest payload must be bit-identical to the thread backend"
    );
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torture plane 4b: a cell whose job aborts the worker on every
/// dispatch (simulating a deterministic native crash) is quarantined
/// after exactly K crashes, identically on every run, while the healthy
/// cell still evaluates bit-identically to the thread backend.
#[test]
fn a_poisoned_cell_is_quarantined_deterministically_after_k_crashes() {
    let _guard = fleet_guard();
    let spec = fleet_spec("torture-poison", 6);
    let baseline = spec.to_campaign().run(&Exec::default()).unwrap();

    let run_once = || {
        spec.to_campaign()
            .run(&Exec {
                jobs: 2,
                backend: WorkerBackend::Process(FleetConfig {
                    worker_env: vec![("VPSIM_TEST_WORKER_ABORT".to_owned(), "0:1".to_owned())],
                    poison_threshold: 2,
                    ..fleet_cfg(2)
                }),
                ..Exec::default()
            })
            .unwrap()
    };
    let first = run_once();
    let second = run_once();
    for (tag, outcome) in [("first", &first), ("second", &second)] {
        match &outcome.cells()[0].outcome {
            CellOutcome::Failed(err) => {
                let msg = err.to_string();
                assert!(
                    msg.contains("quarantined as poisoned") && msg.contains("crashed 2 worker"),
                    "{tag} run: expected a K=2 poisoned quarantine, got: {msg}"
                );
            }
            other => panic!("{tag} run: poisoned cell must fail, got {other:?}"),
        }
        assert_eq!(
            outcome.stats.worker_crashes, 2,
            "{tag} run: exactly K crashes, then quarantine: {:?}",
            outcome.stats
        );
        assert_bitwise_eq(
            baseline.expect_eval(FLEET_CELLS[1]),
            outcome.expect_eval(FLEET_CELLS[1]),
            &format!("{tag} poison run, healthy cell"),
        );
    }
    assert_eq!(
        format!("{:?}", first.cells()[0].outcome),
        format!("{:?}", second.cells()[0].outcome),
        "quarantine must be deterministic across runs"
    );
}

/// Torture plane 4c: a worker that wedges (heartbeats muted, job never
/// finishes) is detected by missed heartbeats and killed within a
/// bounded time; the deterministic wedge converges to a poisoned
/// quarantine instead of hanging the campaign.
#[test]
fn a_hung_worker_is_killed_on_missed_heartbeats_within_the_deadline() {
    let _guard = fleet_guard();
    let spec = fleet_spec("torture-fleet-hang", 2);
    let started = Instant::now();
    let outcome = spec
        .to_campaign()
        .run(&Exec {
            jobs: 2,
            backend: WorkerBackend::Process(FleetConfig {
                worker_env: vec![("VPSIM_TEST_WORKER_HANG".to_owned(), "0:1".to_owned())],
                heartbeat_timeout: Duration::from_millis(300),
                poison_threshold: 2,
                ..fleet_cfg(2)
            }),
            ..Exec::default()
        })
        .unwrap();
    let elapsed = started.elapsed();
    // 2 hangs × 300 ms heartbeat timeout plus respawn backoff and
    // slack; far below the uncancelled wedge (which never returns).
    assert!(
        elapsed < Duration::from_secs(30),
        "hung worker was not killed promptly (took {elapsed:?})"
    );
    assert!(
        outcome.stats.worker_crashes >= 2,
        "each wedge incarnation must be killed and counted: {:?}",
        outcome.stats
    );
    match &outcome.cells()[0].outcome {
        CellOutcome::Failed(err) => {
            let msg = err.to_string();
            assert!(
                msg.contains("quarantined as poisoned"),
                "a deterministic wedge must converge to quarantine, got: {msg}"
            );
        }
        other => panic!("wedged cell must fail as poisoned, got {other:?}"),
    }
    assert!(
        outcome.get(FLEET_CELLS[1]).is_some(),
        "the healthy cell must still evaluate"
    );
}

/// Torture plane 4d: the supervisor reaps every worker it ever spawned
/// — after a crash-heavy campaign drains, none of the fleet's pids may
/// linger as a child of this process (a zombie would).
#[test]
fn the_fleet_drain_leaves_no_zombie_processes() {
    let _guard = fleet_guard();
    let spec = fleet_spec("torture-zombie", 6);
    let pids: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let outcome = spec
        .to_campaign()
        .run(&Exec {
            jobs: 2,
            backend: WorkerBackend::Process(FleetConfig {
                // Every incarnation aborts before its 2nd result: a
                // steady crash/respawn churn across the whole run.
                worker_env: vec![("VPSIM_TEST_WORKER_EXIT_AFTER".to_owned(), "2".to_owned())],
                pids: Some(Arc::clone(&pids)),
                ..fleet_cfg(2)
            }),
            ..Exec::default()
        })
        .unwrap();
    assert!(
        outcome.stats.worker_crashes >= 1 && outcome.stats.worker_respawns >= 1,
        "the churn hook must crash and respawn workers: {:?}",
        outcome.stats
    );
    for name in FLEET_CELLS {
        assert!(outcome.get(name).is_some(), "cell {name} must evaluate");
    }
    let spawned = pids.lock().unwrap().clone();
    assert!(
        spawned.len() >= 3,
        "churn must have spawned replacements, saw {spawned:?}"
    );
    let children = my_children();
    for pid in spawned {
        assert!(
            !children.contains(&pid),
            "worker {pid} left unreaped (zombie) after drain"
        );
    }
}
