//! The transport both backends share: one scoped thread per worker slot
//! (a *lane*) pulls jobs from the campaign's [`Ledger`] behind one
//! `Mutex` + `Condvar` and settles them back. A thread lane runs each
//! job in-process with [`run_job`]; a process lane ([`crate::fleet`])
//! forwards it to its worker subprocess. The calling thread supervises:
//! it sleeps on the same condvar until the ledger's next timer (hard
//! deadline, cancel poll, progress line) and applies expiry and
//! cancellation then.
//!
//! Every condition a waiter checks is ledger state behind the mutex, and
//! every change a waiter needs is followed by a notify: a settle that
//! re-queues or fails a job and the last result wake all waiters, and a
//! lane whose new attempt brings the next timer forward wakes the
//! supervisor. A wake-up therefore cannot fall between a check and its
//! wait.

use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::exec::Exec;
use crate::ledger::{run_job, Batch, Job, JobResult, Ledger, OnDone, Outcome, Take};
use crate::store::{CampaignMetrics, Phase};

struct State<'a> {
    ledger: Ledger<'a>,
    /// When the supervisor wakes on its own (`None`: only when notified).
    wake_at: Option<Instant>,
    /// Lanes still serving.
    lanes: usize,
}

struct Shared<'a> {
    state: Mutex<State<'a>>,
    cond: Condvar,
}

impl<'a> Shared<'a> {
    fn lock(&self) -> MutexGuard<'_, State<'a>> {
        self.state.lock().expect("ledger lock poisoned")
    }

    /// Release the lock until notified or until `until` passes.
    fn wait<'g>(
        &self,
        guard: MutexGuard<'g, State<'a>>,
        until: Option<Instant>,
    ) -> MutexGuard<'g, State<'a>> {
        #[cfg(test)]
        tests::delay_before_wait();
        match until {
            None => self.cond.wait(guard).expect("ledger lock poisoned"),
            Some(t) => {
                let timeout = t.saturating_duration_since(Instant::now());
                self.cond
                    .wait_timeout(guard, timeout)
                    .expect("ledger lock poisoned")
                    .0
            }
        }
    }

    /// Lane `slot` stopped serving: its pinned jobs go to any lane, and
    /// when the last lane stops with jobs left (every process lane
    /// abandoned) they fail rather than wait forever.
    fn retire(&self, slot: usize) {
        let mut state = self.lock();
        state.lanes -= 1;
        state.ledger.unpin(slot);
        if state.lanes == 0 {
            state.ledger.expire("every worker slot is abandoned");
        }
        drop(state);
        self.cond.notify_all();
    }

    /// The calling thread's share: apply expiry, hard deadlines and the
    /// progress line whenever the ledger's next timer fires.
    fn supervise(&self) {
        let mut state = self.lock();
        loop {
            let now = Instant::now();
            state.ledger.expire_if_cancelled();
            state.ledger.overdue(now);
            if let Some(line) = state.ledger.progress_line(now) {
                eprintln!("{line}");
            }
            if state.ledger.finished() {
                break;
            }
            state.wake_at = state.ledger.next_timer(now);
            let until = state.wake_at;
            state = self.wait(state, until);
        }
        drop(state);
        // Expiry may have resolved the last job: release idle lanes.
        self.cond.notify_all();
    }
}

/// One worker slot's handle on the shared ledger.
pub(crate) struct Lane<'s, 'a> {
    shared: &'s Shared<'a>,
    metrics: &'s CampaignMetrics,
    on_done: &'s OnDone<'s>,
    slot: usize,
    idle_since: Instant,
}

impl<'a> Lane<'_, 'a> {
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// Block until the ledger hands this lane a job; `None` once every
    /// job is resolved.
    pub(crate) fn next_job(&mut self) -> Option<Job> {
        let job = {
            let mut state = self.shared.lock();
            loop {
                let now = Instant::now();
                match state.ledger.take(self.slot, now) {
                    Take::Finished => return None,
                    Take::Wait(gate) => state = self.shared.wait(state, gate),
                    Take::Job(job) => {
                        let sooner = state.ledger.next_timer(now);
                        if sooner.is_some_and(|t| state.wake_at.is_none_or(|w| t < w)) {
                            self.shared.cond.notify_all();
                        }
                        break job;
                    }
                }
            }
        };
        self.metrics
            .observe(Phase::QueueWait, self.idle_since.elapsed());
        Some(job)
    }

    /// Settle this lane's attempt; a finished job reaches `on_done`
    /// after the lock is released.
    pub(crate) fn settle(&mut self, outcome: Outcome) {
        let settled = {
            let mut state = self.shared.lock();
            let settled = state.ledger.settle(self.slot, outcome, Instant::now());
            if settled.is_none() || state.ledger.finished() {
                // A retry (maybe behind a new gate), a failure, or the
                // last job: every waiter must re-check.
                self.shared.cond.notify_all();
            }
            settled
        };
        if let Some(rec) = settled {
            (self.on_done)(&rec);
        }
        self.idle_since = Instant::now();
    }

    /// Apply `change` to the ledger for this lane's slot, then wake
    /// every waiter to re-check.
    pub(crate) fn update<R>(&self, change: impl FnOnce(&mut Ledger<'a>, usize) -> R) -> R {
        let r = change(&mut self.shared.lock().ledger, self.slot);
        self.shared.cond.notify_all();
        r
    }

    /// Sleep until `t`; `false` if every job resolved first.
    pub(crate) fn wait_until(&self, t: Instant) -> bool {
        let mut state = self.shared.lock();
        while !state.ledger.finished() && Instant::now() < t {
            state = self.shared.wait(state, Some(t));
        }
        !state.ledger.finished()
    }
}

/// The lanes a run starts for `requested` workers: `0` resolves to the
/// machine's available parallelism, and never more than `pending`.
pub(crate) fn lane_count(requested: usize, pending: usize) -> usize {
    let n = match requested {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        n => n,
    };
    n.min(pending)
}

/// Run the batch's pending jobs on [`lane_count`] threads for
/// `requested` workers, each served by `serve`, and return one result
/// per pending job, in batch order.
pub(crate) fn run_lanes(
    batch: &Batch<'_>,
    exec: &Exec,
    requested: usize,
    poison_threshold: u32,
    on_done: &OnDone<'_>,
    serve: &(dyn Fn(Lane<'_, '_>) + Sync),
) -> Vec<Option<JobResult>> {
    let lanes = lane_count(requested, batch.pending.len());
    let ledger = Ledger::new(batch, exec, lanes, poison_threshold, Instant::now());
    // Nothing pending, or a pre-tripped cancel drained it all: no lanes.
    let lanes = if ledger.finished() { 0 } else { lanes };
    let shared = Shared {
        state: Mutex::new(State {
            ledger,
            wake_at: None,
            lanes,
        }),
        cond: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for slot in 0..lanes {
            let shared = &shared;
            scope.spawn(move || {
                serve(Lane {
                    shared,
                    metrics: &batch.metrics,
                    on_done,
                    slot,
                    idle_since: Instant::now(),
                });
                shared.retire(slot);
            });
        }
        shared.supervise();
    });
    shared
        .state
        .into_inner()
        .expect("ledger lock poisoned")
        .ledger
        .into_results()
}

/// The thread backend: one lane per [`Exec::jobs`] worker, running
/// jobs in-process.
pub(crate) fn run_jobs(
    batch: &Batch<'_>,
    exec: &Exec,
    on_done: &OnDone<'_>,
) -> Vec<Option<JobResult>> {
    run_lanes(batch, exec, exec.jobs, u32::MAX, on_done, &|mut lane| {
        while let Some(job) = lane.next_job() {
            let plan = batch.plans[job.cell]
                .as_ref()
                .expect("queued jobs only reference planned cells");
            lane.settle(run_job(plan, job.trial, &job.token));
        }
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    use vpsec::attacks::AttackCategory;
    use vpsec::experiment::{Channel, ExperimentConfig, PredictorKind};

    use crate::{Campaign, CellSpec, Exec};

    /// Milliseconds every waiter sleeps, lock held, between deciding to
    /// wait and waiting.
    static WAIT_DELAY_MS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn delay_before_wait() {
        let ms = WAIT_DELAY_MS.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(ms));
    }

    /// A delay between the "nothing to take" decision and the wait hung
    /// every run when the last result was published outside the lock.
    /// With the ledger behind the mutex it only slows the run down.
    #[test]
    fn a_delayed_wait_cannot_miss_the_last_wakeup() {
        WAIT_DELAY_MS.store(20, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let cfg = ExperimentConfig {
                trials: 12,
                ..ExperimentConfig::default()
            };
            let exec = Exec {
                jobs: 2,
                ..Exec::default()
            };
            let mut campaign = Campaign::new("wakeup");
            campaign.push(CellSpec::new(
                "cell",
                AttackCategory::TrainTest,
                Channel::TimingWindow,
                PredictorKind::Lvp,
                cfg,
            ));
            let outcome = campaign.run(&exec).expect("no resume directory to fail");
            let _ = tx.send(outcome.expect_eval("cell").mapped.len());
        });
        let observed = rx.recv_timeout(Duration::from_secs(60));
        WAIT_DELAY_MS.store(0, Ordering::Relaxed);
        assert_eq!(observed.expect("the campaign hung on a lost wakeup"), 12);
    }
}
