//! The job ledger: the single owner of a campaign's job lifecycle.
//!
//! Both worker backends reach one [`Ledger`] through the lanes of
//! [`crate::pool`], which guard it with one mutex: thread lanes run jobs
//! in-process, process lanes ([`crate::fleet`]) forward them to worker
//! subprocesses. Every job decision is a ledger transition, and every
//! transition takes the current `Instant` from its caller, so the policy
//! is a pure function of the events fed in (the unit tests below drive
//! it with injected instants and no sleeps).
//!
//! Scheduling never affects results — each job is a pure function of
//! its `(cell, trial)` coordinates — so jobs may run in any order on
//! any transport. Failure handling follows from determinism too:
//!
//! * a panic would recur on every retry, so a panicking job fails at
//!   once;
//! * a finished attempt is kept however long it ran: its result is the
//!   same on any retry, and `CoreConfig::max_cycles` already turns a
//!   runaway simulation into a panic;
//! * an attempt past its hard deadline ([`Exec::job_deadline`]) is
//!   cancelled and re-queued behind an exponential backoff gate, up to
//!   [`MAX_RETRIES`] times; a cancelled final attempt fails as a
//!   deadline;
//! * a job whose worker process dies re-enters the *front* of the
//!   queue for its slot's next worker, with its attempt unchanged (a
//!   crash is not a retry), and K crashes of the same coordinate
//!   quarantine it as poisoned;
//! * expiry ([`Exec::cancel`], or every lane stopped) drains the queue
//!   as deadline failures and cancels every in-flight attempt, so every
//!   pending job always resolves.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use vpsec::experiment::{CellPlan, PairOutcome};
use vpsim_pipeline::{CancelToken, RunCtl};

use crate::exec::Exec;
use crate::sink::JobRecord;
use crate::store::{CampaignMetrics, CampaignStats, Count, Counts, Phase};

/// How often a supervisor polls [`Exec::cancel`], which has no wake-up
/// of its own.
const CANCEL_POLL: Duration = Duration::from_millis(50);

/// Cadence of the progress line ([`Exec::progress`]).
const REPORT_EVERY: Duration = Duration::from_secs(1);

/// Retries granted to a job cancelled past its hard deadline.
const MAX_RETRIES: u32 = 1;

/// Backoff before a cancelled attempt re-enters the queue, doubled per
/// attempt.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// `base` doubled once per earlier attempt of the job (zero-based
/// `attempt`), saturating: the hard deadline and the retry backoff.
fn doubled(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16))
}

/// The work a single run executes: the campaign's cell plans, the
/// still-pending jobs as `(cell, trial)`, the job counts the progress
/// line reports, and the run's counter store.
pub(crate) struct Batch<'a> {
    pub campaign: &'a str,
    pub plans: &'a [Option<CellPlan>],
    pub pending: &'a [(usize, usize)],
    pub total_jobs: usize,
    pub resumed: usize,
    pub metrics: CampaignMetrics,
}

/// Why a job permanently failed.
#[derive(Debug, Clone)]
pub(crate) enum JobFailure {
    /// The job panicked; deterministic, so never retried.
    Panic(String),
    /// The job was cancelled on its final attempt (hard deadline) or
    /// drained after the campaign expired.
    Deadline { attempts: u32 },
    /// The job took down `crashes` worker processes and was quarantined
    /// instead of crash-looping (process backend only).
    Poisoned { crashes: u32 },
}

pub(crate) type JobResult = Result<JobRecord, JobFailure>;

/// Called once per finished job, outside any ledger lock: the manifest
/// append and the observer.
pub(crate) type OnDone<'a> = dyn Fn(&JobRecord) + Sync + 'a;

/// How one attempt ended inside a worker (thread or process).
pub(crate) enum Outcome {
    Done { pair: PairOutcome, wall_nanos: u64 },
    Cancelled,
    Panicked(String),
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Run one attempt of trial `trial` under `token`, containing panics.
pub(crate) fn run_job(plan: &CellPlan, trial: usize, token: &CancelToken) -> Outcome {
    let start = Instant::now();
    let ctl = || RunCtl {
        cancel: Some(token),
        tracer: None,
    };
    let result = catch_unwind(AssertUnwindSafe(|| plan.run_pair_with(trial, ctl(), ctl())));
    let wall_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match result {
        Ok(Ok(pair)) => Outcome::Done { pair, wall_nanos },
        Ok(Err(_interrupted)) => Outcome::Cancelled,
        Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
    }
}

/// A job handed to a worker slot.
pub(crate) struct Job {
    pub cell: usize,
    pub trial: usize,
    /// Zero-based attempt number.
    pub attempt: u32,
    /// Tripped by the ledger when the attempt must stop.
    pub token: CancelToken,
}

/// What [`Ledger::take`] hands a worker slot.
pub(crate) enum Take {
    Job(Job),
    /// Nothing eligible: wait for a settle, or until this backoff gate.
    Wait(Option<Instant>),
    /// Every job is resolved.
    Finished,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Position in the batch's pending list.
    index: usize,
    cell: usize,
    trial: usize,
    attempt: u32,
    /// Backoff gate: not eligible before this instant.
    not_before: Option<Instant>,
    /// A relocated job waits for the next worker of the slot it crashed.
    pinned: Option<usize>,
}

struct Attempt {
    job: Queued,
    /// When the hard deadline ([`Exec::job_deadline`]) trips the token.
    deadline: Option<Instant>,
    token: CancelToken,
    cancelled: bool,
}

/// The job lifecycle of one campaign run.
pub(crate) struct Ledger<'a> {
    exec: &'a Exec,
    campaign: &'a str,
    poison_threshold: u32,
    queue: VecDeque<Queued>,
    /// Each worker slot's in-flight attempt.
    slots: Vec<Option<Attempt>>,
    results: Vec<Option<JobResult>>,
    outstanding: usize,
    expired: bool,
    crashes: HashMap<(usize, usize), u32>,
    /// The run's counter store, and its reading when the ledger started.
    metrics: CampaignMetrics,
    before: Counts,
    total_jobs: usize,
    resumed: usize,
    started: Instant,
    last_report: Instant,
}

impl<'a> Ledger<'a> {
    /// A ledger for `slots` workers. A job crashing `poison_threshold`
    /// workers is poisoned. An already tripped [`Exec::cancel`] drains
    /// the whole queue here, before any job runs.
    pub(crate) fn new(
        batch: &Batch<'a>,
        exec: &'a Exec,
        slots: usize,
        poison_threshold: u32,
        now: Instant,
    ) -> Ledger<'a> {
        let mut ledger = Ledger {
            exec,
            campaign: batch.campaign,
            poison_threshold,
            queue: batch
                .pending
                .iter()
                .enumerate()
                .map(|(index, &(cell, trial))| Queued {
                    index,
                    cell,
                    trial,
                    attempt: 0,
                    not_before: None,
                    pinned: None,
                })
                .collect(),
            slots: (0..slots).map(|_| None).collect(),
            results: vec![None; batch.pending.len()],
            outstanding: batch.pending.len(),
            expired: false,
            crashes: HashMap::new(),
            metrics: batch.metrics.clone(),
            before: batch.metrics.read(),
            total_jobs: batch.total_jobs,
            resumed: batch.resumed,
            started: now,
            last_report: now,
        };
        ledger.expire_if_cancelled();
        ledger
    }

    pub(crate) fn finished(&self) -> bool {
        self.outstanding == 0
    }

    /// Hand `slot` the first eligible job not pinned to another slot. A
    /// gated job never blocks an eligible one behind it.
    pub(crate) fn take(&mut self, slot: usize, now: Instant) -> Take {
        if self.finished() {
            return Take::Finished;
        }
        let mine = |j: &Queued| j.pinned.is_none_or(|s| s == slot);
        let eligible = self
            .queue
            .iter()
            .position(|j| mine(j) && j.not_before.is_none_or(|t| t <= now));
        let Some(mut job) = eligible.and_then(|pos| self.queue.remove(pos)) else {
            let gates = self.queue.iter().filter(|j| mine(j));
            return Take::Wait(gates.filter_map(|j| j.not_before).min());
        };
        job.pinned = None;
        let token = CancelToken::new();
        let deadline = self.exec.job_deadline.map(|d| doubled(d, job.attempt));
        self.slots[slot] = Some(Attempt {
            job,
            deadline: deadline.and_then(|d| now.checked_add(d)),
            token: token.clone(),
            cancelled: false,
        });
        Take::Job(Job {
            cell: job.cell,
            trial: job.trial,
            attempt: job.attempt,
            token,
        })
    }

    /// Put `slot`'s job back at the front, untouched: it never reached
    /// its worker.
    pub(crate) fn release(&mut self, slot: usize) {
        if let Some(a) = self.slots[slot].take() {
            self.queue.push_front(a.job);
        }
    }

    /// Settle `slot`'s attempt. Returns the finished job, which the
    /// caller passes to its [`OnDone`] after releasing any lock on the
    /// ledger.
    pub(crate) fn settle(
        &mut self,
        slot: usize,
        outcome: Outcome,
        now: Instant,
    ) -> Option<JobRecord> {
        let job = self.slots[slot].take()?.job;
        match outcome {
            Outcome::Done { pair, wall_nanos } => {
                self.metrics
                    .observe(Phase::Run, Duration::from_nanos(wall_nanos));
                let cycles = pair.total_cycles();
                let sched = pair.sched();
                self.metrics.inc(Count::JobsRun);
                self.metrics.add(Count::SimCycles, cycles);
                self.metrics.add(Count::SchedTicks, sched.ticks);
                self.metrics.add(Count::SchedSkipped, sched.skipped_cycles);
                let rec = JobRecord {
                    cell: job.cell,
                    trial: job.trial,
                    pair,
                    wall_nanos,
                    attempts: job.attempt + 1,
                };
                self.resolve(job.index, Ok(rec));
                return Some(rec);
            }
            Outcome::Cancelled => {
                self.metrics.inc(Count::Cancelled);
                if self.expired || job.attempt >= MAX_RETRIES {
                    let attempts = job.attempt + 1;
                    self.fail(job.index, JobFailure::Deadline { attempts });
                } else {
                    let backoff = doubled(RETRY_BACKOFF, job.attempt);
                    self.metrics.inc(Count::BackoffRetries);
                    self.metrics.observe(Phase::Backoff, backoff);
                    self.queue.push_back(Queued {
                        attempt: job.attempt + 1,
                        not_before: Some(now + backoff),
                        ..job
                    });
                }
            }
            Outcome::Panicked(message) => {
                self.metrics.inc(Count::Panics);
                self.fail(job.index, JobFailure::Panic(message));
            }
        }
        None
    }

    /// `slot`'s worker process died with the attempt in flight.
    pub(crate) fn settle_crash(&mut self, slot: usize) {
        let Some(a) = self.slots[slot].take() else {
            return;
        };
        let job = a.job;
        let crashes = {
            let n = self.crashes.entry((job.cell, job.trial)).or_insert(0);
            *n += 1;
            *n
        };
        let campaign = self.campaign;
        if crashes >= self.poison_threshold {
            eprintln!(
                "[{campaign}] job (cell {}, trial {}) crashed {crashes} worker(s); \
                 quarantining the cell as poisoned",
                job.cell, job.trial
            );
            self.fail(job.index, JobFailure::Poisoned { crashes });
        } else if self.expired {
            self.drain(vec![job]);
        } else {
            eprintln!(
                "[{campaign}] worker {slot} died with (cell {}, trial {}) in flight \
                 (crash {crashes}/{}); re-dispatching",
                job.cell, job.trial, self.poison_threshold
            );
            // Front of the queue, for this slot's next worker: the
            // relocated job runs next, so a genuinely poisoned cell
            // converges on its K-th crash instead of interleaving with the
            // backlog, and every count is one fresh worker's first job,
            // whichever other worker happens to be idle.
            self.queue.push_front(Queued {
                not_before: None,
                pinned: Some(slot),
                ..job
            });
        }
    }

    /// `slot` stopped serving: the jobs pinned to it go to any worker.
    pub(crate) fn unpin(&mut self, slot: usize) {
        for job in self.queue.iter_mut().filter(|j| j.pinned == Some(slot)) {
            job.pinned = None;
        }
    }

    /// Count a worker process death (any cause, idle or not).
    pub(crate) fn worker_died(&self) {
        self.metrics.inc(Count::WorkerCrashes);
    }

    /// Count a worker process respawn.
    pub(crate) fn worker_respawned(&self) {
        self.metrics.inc(Count::WorkerRespawns);
    }

    /// Expire the campaign once its external cancel tripped.
    pub(crate) fn expire_if_cancelled(&mut self) {
        let cancel = self.exec.cancel.as_ref();
        if cancel.is_some_and(CancelToken::is_cancelled) {
            self.expire("external cancellation requested");
        }
    }

    /// Expire the campaign: every queued job fails as a deadline with
    /// the attempts it already used, and [`Ledger::overdue`] cancels
    /// every in-flight attempt from now on. The transport also expires
    /// a run whose lanes all stopped.
    pub(crate) fn expire(&mut self, why: &str) {
        if std::mem::replace(&mut self.expired, true) {
            return;
        }
        if !self.finished() {
            eprintln!(
                "[{}] {why}; cancelling in-flight jobs and draining the queue",
                self.campaign
            );
        }
        let queued = self.queue.drain(..).collect();
        self.drain(queued);
    }

    /// Trip the token of every in-flight attempt that must stop: all of
    /// them once the campaign expired, otherwise those past their hard
    /// deadline.
    pub(crate) fn overdue(&mut self, now: Instant) {
        for a in self.slots.iter_mut().flatten() {
            let past_deadline = a.deadline.is_some_and(|d| now >= d);
            if a.cancelled || !(self.expired || past_deadline) {
                continue;
            }
            if !self.expired {
                eprintln!(
                    "[{}] job (cell {}, trial {}) exceeded its hard deadline \
                     (attempt {}); cancelling mid-simulation",
                    self.campaign,
                    a.job.cell,
                    a.job.trial,
                    a.job.attempt + 1
                );
            }
            a.token.cancel();
            a.cancelled = true;
        }
    }

    /// The next instant a supervisor must act at: the external-cancel
    /// poll, the next progress line, or the earliest hard deadline of an
    /// attempt not yet cancelled. `None`: nothing is due until an
    /// attempt settles.
    pub(crate) fn next_timer(&self, now: Instant) -> Option<Instant> {
        let exec = self.exec;
        let poll = exec.cancel.as_ref().filter(|_| !self.expired);
        let poll = poll.map(|_| now + CANCEL_POLL);
        let report = exec.progress.then(|| self.last_report + REPORT_EVERY);
        let attempts = self.slots.iter().flatten().filter(|a| !a.cancelled);
        let deadlines = attempts.filter_map(|a| a.deadline);
        poll.into_iter().chain(report).chain(deadlines).min()
    }

    /// The progress line — the run's stats so far — at most once per
    /// second while [`Exec::progress`] is on.
    pub(crate) fn progress_line(&mut self, now: Instant) -> Option<String> {
        if !self.exec.progress || now.duration_since(self.last_report) < REPORT_EVERY {
            return None;
        }
        self.last_report = now;
        let stats = CampaignStats {
            wall_time: now.duration_since(self.started),
            ..self.stats()
        };
        Some(format!("[{}] {stats}", self.campaign))
    }

    /// The run's counters so far: what the store gained since the ledger
    /// started, with the batch's job totals.
    pub(crate) fn stats(&self) -> CampaignStats {
        CampaignStats {
            jobs_total: self.total_jobs,
            jobs_resumed: self.resumed,
            ..self.metrics.stats_since(&self.before)
        }
    }

    /// One result per pending job, in batch order (all `Some` once the
    /// ledger finished).
    pub(crate) fn into_results(self) -> Vec<Option<JobResult>> {
        self.results
    }

    /// Fail `jobs` as deadlines, each with the attempts it already used.
    fn drain(&mut self, jobs: Vec<Queued>) {
        for job in jobs {
            let attempts = job.attempt;
            self.fail(job.index, JobFailure::Deadline { attempts });
        }
    }

    fn fail(&mut self, index: usize, failure: JobFailure) {
        if matches!(failure, JobFailure::Deadline { .. }) {
            self.metrics.inc(Count::DeadlineFailed);
        }
        self.metrics.inc(Count::JobsFailed);
        self.resolve(index, Err(failure));
    }

    fn resolve(&mut self, index: usize, result: JobResult) {
        if self.results[index].replace(result).is_none() {
            self.outstanding -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use vpsim_obs::Registry;

    use super::*;

    const MS: Duration = Duration::from_millis(1);
    const JOBS: [(usize, usize); 3] = [(0, 0), (0, 1), (0, 2)];

    /// A finished attempt of `cycles` simulated cycles and `wall` time.
    fn done(cycles: u64, wall: Duration) -> Outcome {
        let line = format!(
            "{{\"cell\":0,\"trial\":0,\"m_obs\":\"0\",\"m_cyc\":{},\"u_obs\":\"0\",\
             \"u_cyc\":{},\"wall_ns\":0,\"attempts\":1}}",
            cycles / 2,
            cycles - cycles / 2
        );
        let pair = JobRecord::parse(&line).expect("record parses").pair;
        let wall_nanos = u64::try_from(wall.as_nanos()).unwrap();
        Outcome::Done { pair, wall_nanos }
    }

    /// A ledger over `jobs` for `slots` lanes, poisoning at 2 crashes.
    fn ledger<'a>(
        exec: &'a Exec,
        jobs: &'a [(usize, usize)],
        slots: usize,
        t0: Instant,
    ) -> Ledger<'a> {
        let batch = Batch {
            campaign: "ledger-test",
            plans: &[],
            pending: jobs,
            total_jobs: jobs.len(),
            resumed: 0,
            metrics: CampaignMetrics::register(&Registry::new(), "ledger-test"),
        };
        Ledger::new(&batch, exec, slots, 2, t0)
    }

    fn take_job(l: &mut Ledger<'_>, slot: usize, now: Instant) -> Job {
        match l.take(slot, now) {
            Take::Job(job) => job,
            _ => panic!("expected a job"),
        }
    }

    /// Take a job for `slot`: its `(trial, attempt)`.
    fn take(l: &mut Ledger<'_>, slot: usize, now: Instant) -> (usize, u32) {
        let job = take_job(l, slot, now);
        (job.trial, job.attempt)
    }

    #[test]
    fn deadlines_double_per_attempt_and_saturate() {
        assert_eq!(doubled(100 * MS, 0), 100 * MS);
        assert_eq!(doubled(100 * MS, 1), 200 * MS);
        assert_eq!(doubled(100 * MS, 2), 400 * MS);
        // Huge attempt numbers must not overflow.
        assert_eq!(doubled(100 * MS, u32::MAX), 100 * MS * (1 << 16));
        // Without a hard deadline an attempt has no timer.
        let exec = Exec::default();
        let t0 = Instant::now();
        let mut l = ledger(&exec, &JOBS[..1], 1, t0);
        assert_eq!(take(&mut l, 0, t0), (0, 0));
        assert_eq!(l.next_timer(t0), None);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        assert_eq!(doubled(10 * MS, 0), 10 * MS);
        assert_eq!(doubled(10 * MS, 3), 80 * MS);
    }

    #[test]
    fn backoff_gates_never_block_an_eligible_job() {
        let exec = Exec::default();
        let t0 = Instant::now();
        let mut l = ledger(&exec, &JOBS[..2], 2, t0);
        assert_eq!(take(&mut l, 0, t0), (0, 0));
        // Job 0 is cancelled: re-queued behind the backoff gate. Job 1,
        // still queued and eligible, is taken ahead of it.
        assert!(l.settle(0, Outcome::Cancelled, t0).is_none());
        let gate = t0 + RETRY_BACKOFF;
        assert_eq!(take(&mut l, 0, t0 + MS), (1, 0));
        assert!(matches!(l.take(1, t0 + MS), Take::Wait(Some(g)) if g == gate));
        assert_eq!(take(&mut l, 1, gate), (0, 1));
    }

    #[test]
    fn a_slow_attempt_keeps_its_result() {
        let exec = Exec::default();
        let t0 = Instant::now();
        let mut l = ledger(&exec, &JOBS[..1], 1, t0);
        assert_eq!(take(&mut l, 0, t0), (0, 0));
        let hour = Duration::from_secs(3600);
        let rec = l.settle(0, done(30, hour), t0 + hour);
        assert_eq!(rec.map(|r| r.attempts), Some(1));
        assert!(l.finished());
    }

    #[test]
    fn a_crashed_job_goes_first_with_its_attempt_and_is_poisoned_at_k() {
        let exec = Exec::default();
        let t0 = Instant::now();
        let mut l = ledger(&exec, &JOBS, 2, t0);
        assert_eq!(take(&mut l, 0, t0), (0, 0));
        // Undelivered: back to the front untouched, no crash counted.
        l.release(0);
        assert_eq!(take(&mut l, 0, t0), (0, 0));
        l.settle_crash(0);
        // Front of the queue for slot 0's next worker, attempt unchanged:
        // a crash is not a retry, and another slot does not take it.
        assert_eq!(take(&mut l, 1, t0), (1, 0));
        assert_eq!(take(&mut l, 0, t0), (0, 0));
        l.settle_crash(0);
        assert!(l.settle(1, Outcome::Panicked("boom".into()), t0).is_none());
        assert_eq!(take(&mut l, 1, t0), (2, 0));
        assert!(l.settle(1, done(30, MS), t0).is_some());
        let stats = l.stats();
        let results = l.into_results();
        assert!(matches!(
            results[0],
            Some(Err(JobFailure::Poisoned { crashes: 2 }))
        ));
        assert!(matches!(&results[1], Some(Err(JobFailure::Panic(m))) if m == "boom"));
        assert!(matches!(results[2], Some(Ok(rec)) if rec.attempts == 1));
        assert_eq!((stats.jobs_run, stats.panics), (1, 1));
    }

    #[test]
    fn a_stopped_slot_releases_its_pinned_job() {
        let exec = Exec::default();
        let t0 = Instant::now();
        let mut l = ledger(&exec, &JOBS[..1], 2, t0);
        assert_eq!(take(&mut l, 0, t0), (0, 0));
        l.settle_crash(0);
        assert!(matches!(l.take(1, t0), Take::Wait(None)));
        l.unpin(0);
        assert_eq!(take(&mut l, 1, t0), (0, 0));
    }

    #[test]
    fn expiry_drains_the_queue_and_cancels_every_attempt_in_flight() {
        let cancel = CancelToken::new();
        let exec = Exec {
            cancel: Some(cancel.clone()),
            ..Exec::default()
        };
        let t0 = Instant::now();
        let mut l = ledger(&exec, &JOBS, 2, t0);
        let running = take_job(&mut l, 0, t0);
        assert_eq!(take(&mut l, 1, t0), (1, 0));
        // Job 1 comes back for a retry behind its backoff (attempt 1).
        assert!(l.settle(1, Outcome::Cancelled, t0).is_none());
        assert_eq!(l.next_timer(t0), Some(t0 + CANCEL_POLL));
        l.expire_if_cancelled();
        l.overdue(t0 + 99 * MS);
        assert!(!l.expired && !running.token.is_cancelled());
        cancel.cancel();
        l.expire_if_cancelled();
        l.overdue(t0 + 100 * MS);
        assert!(running.token.is_cancelled());
        assert!(matches!(l.take(1, t0 + 100 * MS), Take::Wait(None)));
        assert_eq!(l.next_timer(t0 + 100 * MS), None);
        assert!(l.settle(0, Outcome::Cancelled, t0 + 101 * MS).is_none());
        let stats = l.stats();
        let results = l.into_results();
        let attempts = results.iter().map(|r| match r {
            Some(Err(JobFailure::Deadline { attempts })) => *attempts,
            other => panic!("expected a deadline failure, got {other:?}"),
        });
        // In flight: cancelled during attempt 0, so one attempt used.
        // Queued: job 1 had used one attempt, job 2 none.
        assert_eq!(attempts.collect::<Vec<_>>(), vec![1, 1, 0]);
        // Job 1's first attempt and job 0's attempt were cancelled.
        assert_eq!((stats.deadline_failed, stats.cancelled), (3, 2));
    }

    #[test]
    fn an_external_cancel_expires_before_any_job_runs() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let exec = Exec {
            cancel: Some(cancel),
            ..Exec::default()
        };
        let t0 = Instant::now();
        assert!(matches!(
            ledger(&exec, &JOBS, 1, t0).take(0, t0),
            Take::Finished
        ));
    }

    #[test]
    fn hard_deadlines_cancel_then_retry_with_backoff_and_a_doubled_deadline() {
        let exec = Exec {
            job_deadline: Some(100 * MS),
            ..Exec::default()
        };
        let t0 = Instant::now();
        let mut l = ledger(&exec, &JOBS[..1], 1, t0);
        let first = take_job(&mut l, 0, t0);
        assert_eq!(l.next_timer(t0), Some(t0 + 100 * MS));
        l.overdue(t0 + 99 * MS);
        assert!(!first.token.is_cancelled());
        l.overdue(t0 + 100 * MS);
        assert!(first.token.is_cancelled());
        assert!(l.settle(0, Outcome::Cancelled, t0 + 100 * MS).is_none());
        let t1 = t0 + 100 * MS + RETRY_BACKOFF;
        assert!(matches!(l.take(0, t1 - MS), Take::Wait(Some(g)) if g == t1));
        let retry = take_job(&mut l, 0, t1);
        assert_eq!((retry.attempt, l.next_timer(t1)), (1, Some(t1 + 200 * MS)));
        l.overdue(t1 + 200 * MS);
        assert!(retry.token.is_cancelled());
        assert!(l.settle(0, Outcome::Cancelled, t1 + 200 * MS).is_none());
        let stats = l.stats();
        let results = l.into_results();
        assert!(matches!(
            results[0],
            Some(Err(JobFailure::Deadline { attempts: 2 }))
        ));
        assert_eq!((stats.cancelled, stats.backoff_retries), (2, 1));
    }
}
