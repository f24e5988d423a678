//! The worker half of the process-isolated backend: a long-lived
//! subprocess that builds the campaign's cell plans once from the spec
//! frame, then executes jobs one at a time as the supervisor dispatches
//! them.
//!
//! The loop is started by re-execing the current binary with
//! `--worker-loop` (both `repro` and the serve daemon dispatch that
//! flag straight here, before any other argument parsing). Three
//! threads cooperate:
//!
//! * the **heartbeat thread** writes an `hb` frame every
//!   [`HEARTBEAT_INTERVAL`], started *before* the spec is even read so
//!   the supervisor can distinguish "building plans" from "dead" at
//!   every point of the worker's life. A write failure means the
//!   supervisor is gone — the worker exits rather than orphan itself.
//! * the **reader thread** owns stdin once the main thread has read the
//!   spec frame. It hands each `job` frame to the main thread with a
//!   fresh [`CancelToken`] and trips that token when the job's `cancel`
//!   frame arrives. Frames are read in order, so a cancel can never
//!   overtake its job, even before the main thread picks the job up.
//! * the **main thread** runs one job at a time through the same
//!   `run_job` as an in-process pool worker, and reports `done` /
//!   `cancelled` / `panic`. Anything `catch_unwind` cannot contain
//!   (abort, OOM kill, SIGKILL) takes down only this process — that is
//!   the whole point of the backend.
//!
//! ## Deterministic fault hooks
//!
//! Torture tests and CI smokes need workers that die in specific ways
//! at specific points. Three env vars (read once at startup; harmless
//! in production where they are unset) provide that:
//!
//! * `VPSIM_TEST_WORKER_ABORT="cell:trial"` — `abort()` when that job
//!   is dispatched, before any work: a deterministic poisoned cell.
//! * `VPSIM_TEST_WORKER_HANG="cell:trial"` — mute heartbeats and sleep
//!   forever: a wedged worker only liveness checks can detect.
//! * `VPSIM_TEST_WORKER_EXIT_AFTER=n` — `abort()` instead of reporting
//!   the n-th completed job: sudden death with a computed-but-lost
//!   result, indistinguishable from a SIGKILL between compute and
//!   flush.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use vpsim_pipeline::CancelToken;

use crate::ledger::{run_job, Outcome};
use crate::proto::{read_frame, write_frame, FromWorker, ToWorker};
use crate::sink::JobRecord;
use crate::spec::CampaignSpec;

/// Cadence of the worker's liveness beacon. The supervisor's default
/// [`FleetConfig::heartbeat_timeout`](crate::FleetConfig) is 20× this,
/// so a worker must miss many beats before it is declared dead.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Write one frame under the shared stdout lock (frames from the
/// heartbeat and main threads must never interleave).
fn send(out: &Mutex<io::Stdout>, msg: &FromWorker) -> bool {
    let mut w = out.lock().expect("worker stdout poisoned");
    write_frame(&mut *w, &msg.encode()).is_ok()
}

fn coord_env(name: &str) -> Option<(usize, usize)> {
    let v = std::env::var(name).ok()?;
    let (c, t) = v.split_once(':')?;
    Some((c.trim().parse().ok()?, t.trim().parse().ok()?))
}

/// Serve jobs over stdin/stdout until the supervisor says `exit` or
/// hangs up. Returns the process exit code: `0` for a clean drain,
/// nonzero when the worker could not serve (unparseable spec, lost
/// supervisor mid-job).
pub fn worker_loop() -> i32 {
    let out = Arc::new(Mutex::new(io::stdout()));
    let heartbeats_muted = Arc::new(AtomicBool::new(false));
    {
        let out = Arc::clone(&out);
        let muted = Arc::clone(&heartbeats_muted);
        std::thread::spawn(move || loop {
            std::thread::sleep(HEARTBEAT_INTERVAL);
            if muted.load(Ordering::Relaxed) {
                continue;
            }
            if !send(&out, &FromWorker::Heartbeat) {
                // Supervisor gone; a worker must never outlive it.
                std::process::exit(0);
            }
        });
    }

    // The first frame is the campaign spec document itself.
    let Ok(Some(spec_json)) = read_frame(&mut io::stdin().lock()) else {
        return 0;
    };
    // The reader thread hangs up the channel on `exit`, EOF or a read
    // error.
    let (tx, rx) = mpsc::channel::<(usize, usize, u32, CancelToken)>();
    std::thread::spawn(move || {
        let mut stdin = io::stdin().lock();
        let mut current: Option<((usize, usize), CancelToken)> = None;
        while let Ok(Some(line)) = read_frame(&mut stdin) {
            match ToWorker::parse(&line) {
                Some(ToWorker::Job {
                    cell,
                    trial,
                    attempt,
                }) => {
                    let token = CancelToken::new();
                    current = Some(((cell, trial), token.clone()));
                    if tx.send((cell, trial, attempt, token)).is_err() {
                        return;
                    }
                }
                Some(ToWorker::Cancel { cell, trial }) => {
                    if let Some((_, token)) = current.as_ref().filter(|(c, _)| *c == (cell, trial))
                    {
                        token.cancel();
                    }
                }
                Some(ToWorker::Exit) | None => return,
            }
        }
    });

    let spec = match CampaignSpec::parse(&spec_json) {
        Ok(spec) => spec,
        Err(e) => {
            let _ = send(
                &out,
                &FromWorker::Fatal {
                    message: format!("spec frame rejected: {e}"),
                },
            );
            return 2;
        }
    };
    let plans = spec.to_campaign().plans();

    let abort_on = coord_env("VPSIM_TEST_WORKER_ABORT");
    let hang_on = coord_env("VPSIM_TEST_WORKER_HANG");
    let exit_after: Option<u64> = std::env::var("VPSIM_TEST_WORKER_EXIT_AFTER")
        .ok()
        .and_then(|v| v.parse().ok());

    let mut completed = 0u64;
    // A hung-up channel is a clean drain.
    while let Ok((cell, trial, attempt, token)) = rx.recv() {
        if abort_on == Some((cell, trial)) {
            std::process::abort();
        }
        if hang_on == Some((cell, trial)) {
            heartbeats_muted.store(true, Ordering::Relaxed);
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        let Some(plan) = plans.get(cell).and_then(Option::as_ref) else {
            let _ = send(
                &out,
                &FromWorker::Panicked {
                    cell,
                    trial,
                    message: format!("no plan for cell {cell}"),
                },
            );
            continue;
        };
        let outcome = run_job(plan, trial, &token);
        let msg = match outcome {
            Outcome::Done { pair, wall_nanos } => {
                completed += 1;
                if exit_after.is_some_and(|n| completed >= n) {
                    std::process::abort();
                }
                FromWorker::Done(JobRecord {
                    cell,
                    trial,
                    pair,
                    wall_nanos,
                    attempts: attempt + 1,
                })
            }
            Outcome::Cancelled => FromWorker::Cancelled { cell, trial },
            Outcome::Panicked(message) => FromWorker::Panicked {
                cell,
                trial,
                message,
            },
        };
        if !send(&out, &msg) {
            return 1;
        }
    }
    0
}

// The loop itself is exercised end-to-end (real subprocesses, real
// pipes) by the fleet tests in `fleet.rs` and `tests/torture.rs`.
