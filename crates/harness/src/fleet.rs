//! The process transport: each lane of the shared transport
//! ([`crate::pool`]) owns one long-lived worker subprocess and forwards
//! its jobs over the length-prefixed stdin/stdout protocol
//! ([`crate::proto`]). A process boundary contains what `catch_unwind`
//! cannot — aborts, OOM kills, SIGKILL, wedged processes. This module
//! keeps only what concerns processes: spawn, heartbeats, kill
//! escalation, reaping, respawn backoff and frames. Every job decision
//! (re-dispatch, poison quarantine, retry, expiry) is a ledger call
//! through the lane, exactly as for thread lanes.
//!
//! * **Crashes never orphan work or processes.** A worker's EOF reaps
//!   the child (`wait`, so no zombies), settles its in-flight job as a
//!   crash, and respawns the lane behind an exponential backoff gate. A
//!   lane past its respawn budget is abandoned; when every lane is
//!   gone the remaining jobs fail instead of hanging.
//! * **Liveness is observed, not assumed.** Workers heartbeat on a
//!   fixed cadence from a dedicated thread; a worker silent past
//!   [`FleetConfig::heartbeat_timeout`] is killed and settled as a
//!   crash. A cancel (hard job deadline, expiry) escalates to a
//!   kill after [`FleetConfig::kill_grace`], but settles as cancelled,
//!   so a slow cancel never counts toward poisoning.

use std::io::BufReader;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::exec::Exec;
use crate::ledger::{Batch, Job, JobResult, Ledger, OnDone, Outcome};
use crate::pool::{run_lanes, Lane};
use crate::proto::{read_frame, write_frame, FromWorker, ToWorker};

/// How often a lane waiting for a reply re-checks heartbeats and its
/// job's cancel token.
const TICK: Duration = Duration::from_millis(25);

/// Configuration of the subprocess fleet behind
/// [`WorkerBackend::Process`](crate::WorkerBackend).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker processes. `0` resolves to the machine's available
    /// parallelism, and a run never starts more than its pending jobs.
    pub workers: usize,
    /// Command line to launch one worker (`[program, args...]`).
    /// `None` re-execs the current executable with `--worker-loop`,
    /// which both `repro` and the serve daemon dispatch into
    /// [`worker_loop`](crate::worker_loop). Tests point this at a
    /// dedicated worker binary instead (a test harness executable does
    /// not understand `--worker-loop`).
    pub worker_cmd: Option<Vec<String>>,
    /// Extra environment variables for every worker (the torture suite
    /// injects its deterministic fault hooks here).
    pub worker_env: Vec<(String, String)>,
    /// A worker silent for longer than this is declared dead and
    /// killed. Workers beat every 100 ms, so the 2 s default tolerates
    /// ~20 missed beats of scheduler jitter.
    pub heartbeat_timeout: Duration,
    /// Crash count K at which a `(cell, trial)` job is failed as
    /// poisoned instead of re-dispatched.
    pub poison_threshold: u32,
    /// Respawn budget per worker slot; an exceeding slot is abandoned.
    pub max_respawns: u32,
    /// Base respawn delay, doubled per consecutive respawn of a slot.
    pub respawn_backoff: Duration,
    /// How long a cancelled job may keep running before its worker is
    /// killed outright.
    pub kill_grace: Duration,
    /// When set, the PID of every spawned worker is pushed here — the
    /// torture suite uses it to aim real `kill -9`s.
    pub pids: Option<Arc<Mutex<Vec<u32>>>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 0,
            worker_cmd: None,
            worker_env: Vec::new(),
            heartbeat_timeout: Duration::from_secs(2),
            poison_threshold: 3,
            max_respawns: 16,
            respawn_backoff: Duration::from_millis(50),
            kill_grace: Duration::from_secs(2),
            pids: None,
        }
    }
}

/// Exponential respawn gate after the `n`-th consecutive death.
fn respawn_gate(cfg: &FleetConfig, n: u32) -> Duration {
    cfg.respawn_backoff.saturating_mul(1u32 << n.min(8))
}

/// Why a lane killed its worker (decides how the EOF settles the job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillCause {
    /// Missed heartbeats or a confused reply: settled as a crash.
    Hung,
    /// Ignored a cooperative cancel past the grace period: settled as
    /// cancelled, never as a crash.
    CancelStuck,
}

/// One incarnation of a lane's worker process. Its reader thread
/// forwards every frame; the channel disconnects at EOF.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    frames: mpsc::Receiver<FromWorker>,
    last_seen: Instant,
}

struct ProcessLane<'a> {
    campaign: &'a str,
    cfg: &'a FleetConfig,
    spec_json: &'a str,
    worker: Option<Worker>,
    spawned: bool,
    respawns: u32,
    /// Don't respawn before this instant (exponential backoff).
    gate: Option<Instant>,
}

impl ProcessLane<'_> {
    fn serve(mut self, mut lane: Lane<'_, '_>) {
        while self.may_respawn(&lane) {
            let Some(job) = lane.next_job() else { break };
            // Claim the job first: a worker is only (re)spawned for work,
            // never after expiry or once the queue is empty.
            if self.worker.is_some() || self.respawn(&lane) {
                self.forward(&job, &mut lane);
            } else {
                lane.update(Ledger::release);
            }
        }
        self.shutdown();
    }

    /// With no live worker, wait out the respawn gate. `false`: the
    /// lane is abandoned, or every job resolved meanwhile.
    fn may_respawn(&self, lane: &Lane<'_, '_>) -> bool {
        if self.worker.is_some() {
            return true;
        }
        if self.respawns >= self.cfg.max_respawns {
            eprintln!(
                "[{}] fleet: abandoning worker slot {} (respawn budget spent)",
                self.campaign,
                lane.slot()
            );
            return false;
        }
        self.gate.is_none_or(|gate| lane.wait_until(gate))
    }

    /// Spawn the lane's worker; on failure, gate the next try.
    fn respawn(&mut self, lane: &Lane<'_, '_>) -> bool {
        self.worker = self.spawn(lane.slot());
        if self.worker.is_none() {
            self.respawns += 1;
            self.gate = Some(Instant::now() + respawn_gate(self.cfg, self.respawns));
            return false;
        }
        self.gate = None;
        if std::mem::replace(&mut self.spawned, true) {
            self.respawns += 1;
            lane.update(|l, _| l.worker_respawned());
        }
        true
    }

    /// Launch a worker and hand it the spec frame.
    fn spawn(&self, slot: usize) -> Option<Worker> {
        let (program, args) = match &self.cfg.worker_cmd {
            Some(cmd) if !cmd.is_empty() => (cmd[0].clone(), cmd[1..].to_vec()),
            _ => match std::env::current_exe() {
                Ok(exe) => (exe.display().to_string(), vec!["--worker-loop".to_owned()]),
                Err(e) => {
                    eprintln!(
                        "[{}] fleet: cannot resolve the worker executable: {e}",
                        self.campaign
                    );
                    return None;
                }
            },
        };
        let mut cmd = Command::new(program);
        cmd.args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in &self.cfg.worker_env {
            cmd.env(k, v);
        }
        let mut child = match cmd.spawn() {
            Ok(child) => child,
            Err(e) => {
                eprintln!(
                    "[{}] fleet: spawning worker {slot} failed: {e}",
                    self.campaign
                );
                return None;
            }
        };
        let mut stdin = child.stdin.take().expect("worker stdin is piped");
        if write_frame(&mut stdin, self.spec_json).is_err() {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        let stdout = child.stdout.take().expect("worker stdout is piped");
        if let Some(board) = &self.cfg.pids {
            board.lock().expect("pid board poisoned").push(child.id());
        }
        let (tx, frames) = mpsc::channel();
        std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            while let Ok(Some(line)) = read_frame(&mut r) {
                if let Some(msg) = FromWorker::parse(&line) {
                    if tx.send(msg).is_err() {
                        return;
                    }
                }
            }
        });
        Some(Worker {
            child,
            stdin,
            frames,
            last_seen: Instant::now(),
        })
    }

    /// Run `job` on the lane's worker until it replies or dies, and
    /// settle it.
    fn forward(&mut self, job: &Job, lane: &mut Lane<'_, '_>) {
        let campaign = self.campaign;
        let slot = lane.slot();
        let coords = (job.cell, job.trial);
        let w = self
            .worker
            .as_mut()
            .expect("a job is forwarded to a live worker");
        let frame = ToWorker::Job {
            cell: job.cell,
            trial: job.trial,
            attempt: job.attempt,
        };
        if write_frame(&mut w.stdin, &frame.encode()).is_err() {
            // The job never reached the worker: back untouched.
            self.bury(lane);
            return lane.update(Ledger::release);
        }
        let mut cancel_sent: Option<Instant> = None;
        let mut killed: Option<KillCause> = None;
        loop {
            let w = self.worker.as_mut().expect("live until buried");
            let reply = match w.frames.recv_timeout(TICK) {
                Err(RecvTimeoutError::Disconnected) => {
                    self.bury(lane);
                    return match killed {
                        Some(KillCause::CancelStuck) => lane.settle(Outcome::Cancelled),
                        _ => lane.update(Ledger::settle_crash),
                    };
                }
                Err(RecvTimeoutError::Timeout) => None,
                Ok(msg) => {
                    w.last_seen = Instant::now();
                    match msg {
                        FromWorker::Heartbeat => None,
                        FromWorker::Done(rec) => Some((
                            (rec.cell, rec.trial),
                            Outcome::Done {
                                pair: rec.pair,
                                wall_nanos: rec.wall_nanos,
                            },
                        )),
                        FromWorker::Cancelled { cell, trial } => {
                            Some(((cell, trial), Outcome::Cancelled))
                        }
                        FromWorker::Panicked {
                            cell,
                            trial,
                            message,
                        } => Some(((cell, trial), Outcome::Panicked(message))),
                        FromWorker::Fatal { message } => {
                            eprintln!(
                                "[{campaign}] fleet: worker {slot} cannot serve: {message}; \
                                 abandoning its slot"
                            );
                            // It would recur on every respawn: spend them all.
                            self.respawns = self.cfg.max_respawns;
                            killed.get_or_insert(KillCause::Hung);
                            let _ = w.child.kill();
                            None
                        }
                    }
                }
            };
            if killed.is_some() {
                continue; // wait for the EOF
            }
            let now = Instant::now();
            let mut kill = |cause, why: String| {
                eprintln!("[{campaign}] fleet: worker {slot} {why}; killing it");
                killed = Some(cause);
                let _ = w.child.kill();
            };
            match reply {
                Some((c, outcome)) if c == coords => return lane.settle(outcome),
                Some((c, _)) => kill(
                    KillCause::Hung,
                    format!("answered for {c:?} while running {coords:?}"),
                ),
                None if now.duration_since(w.last_seen) > self.cfg.heartbeat_timeout => kill(
                    KillCause::Hung,
                    format!("missed heartbeats for {:?}", self.cfg.heartbeat_timeout),
                ),
                None => match cancel_sent {
                    Some(sent) if now.duration_since(sent) > self.cfg.kill_grace => kill(
                        KillCause::CancelStuck,
                        format!("ignored a cancel for {:?}", self.cfg.kill_grace),
                    ),
                    None if job.token.is_cancelled() => {
                        let frame = ToWorker::Cancel {
                            cell: job.cell,
                            trial: job.trial,
                        };
                        let _ = write_frame(&mut w.stdin, &frame.encode());
                        cancel_sent = Some(now);
                    }
                    _ => {}
                },
            }
        }
    }

    /// The worker is gone: reap it (no zombies) and gate the respawn.
    fn bury(&mut self, lane: &Lane<'_, '_>) {
        if let Some(mut w) = self.worker.take() {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
        self.gate = Some(Instant::now() + respawn_gate(self.cfg, self.respawns));
        lane.update(|l, _| l.worker_died());
    }

    /// Graceful teardown: ask the worker to exit, give it a short grace
    /// period, then kill it. The child is always `wait()`ed.
    fn shutdown(&mut self) {
        let Some(mut w) = self.worker.take() else {
            return;
        };
        let _ = write_frame(&mut w.stdin, &ToWorker::Exit.encode());
        // Closing stdin nudges the worker with an EOF too.
        drop(w.stdin);
        let deadline = Instant::now() + Duration::from_secs(2);
        while matches!(w.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = w.child.kill();
        let _ = w.child.wait();
    }
}

/// Run the batch's pending jobs on a subprocess fleet: one lane per
/// worker process. Same contract as [`pool::run_jobs`](crate::pool::run_jobs).
pub(crate) fn run_jobs(
    batch: &Batch<'_>,
    exec: &Exec,
    cfg: &FleetConfig,
    spec_json: &str,
    on_done: &OnDone<'_>,
) -> Vec<Option<JobResult>> {
    run_lanes(
        batch,
        exec,
        cfg.workers,
        cfg.poison_threshold,
        on_done,
        &|lane| {
            ProcessLane {
                campaign: batch.campaign,
                cfg,
                spec_json,
                worker: None,
                spawned: false,
                respawns: 0,
                gate: None,
            }
            .serve(lane);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::lane_count;

    #[test]
    fn fleet_size_resolves_and_is_capped_by_pending_work() {
        let auto = FleetConfig::default();
        assert!(lane_count(auto.workers, 100) >= 1);
        let four = FleetConfig {
            workers: 4,
            ..FleetConfig::default()
        };
        assert_eq!(lane_count(four.workers, 100), 4);
        // Never more processes than jobs to run.
        assert_eq!(lane_count(four.workers, 2), 2);
        assert_eq!(lane_count(four.workers, 0), 0);
    }

    #[test]
    fn respawn_gates_grow_exponentially_and_saturate() {
        let cfg = FleetConfig {
            respawn_backoff: Duration::from_millis(10),
            ..FleetConfig::default()
        };
        assert_eq!(respawn_gate(&cfg, 0), Duration::from_millis(10));
        assert_eq!(respawn_gate(&cfg, 3), Duration::from_millis(80));
        // Caps at 2^8 — a slot that keeps dying waits seconds, not years.
        assert_eq!(respawn_gate(&cfg, 40), Duration::from_millis(10 * 256));
    }
}
