//! The in-memory campaign registry: per-campaign state, the streaming
//! result log, and the canonical-order reorder buffer.
//!
//! ## Canonical-order streaming
//!
//! Workers finish jobs in a schedule-dependent order, but the stream a
//! client reads must be a pure function of the spec — the determinism
//! contract extends all the way to the wire. The [`StreamObserver`]
//! therefore buffers out-of-order completions and appends them to the
//! log strictly in canonical `(cell, trial)` order; resumed records
//! (replayed first by the harness, already sorted) and live records go
//! through the same gate, so an interrupted-and-resumed campaign
//! streams a byte-identical log.
//!
//! ## Backpressure
//!
//! The log is an append-only `Vec<String>` under a mutex; each client
//! holds a *cursor*, copies out a bounded batch under the lock, and
//! writes to its socket with no lock held. A stalled client stalls only
//! its own connection — workers append without ever touching a socket,
//! and other clients read from their own cursors.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use vpsim_harness::{CampaignSpec, JobObserver, JobRecord};
use vpsim_pipeline::CancelToken;

/// Upper bound on lines copied out of the log per lock acquisition.
pub const STREAM_BATCH: usize = 256;

/// Lifecycle of a campaign inside the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Accepted and persisted, waiting for a runner.
    Queued,
    /// A runner is executing it.
    Running,
    /// Every job finished and the final summary is in the log.
    Done,
    /// Cancelled (by request, or rehydrated as cancelled after a
    /// restart); the log terminates with a `cancelled` status line.
    Cancelled,
    /// The run aborted (manifest mismatch or I/O error).
    Failed,
}

impl CampaignState {
    /// The wire token used in status lines and progress documents.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Cancelled => "cancelled",
            CampaignState::Failed => "failed",
        }
    }
}

/// The append-only per-campaign result log, closed exactly once when
/// the campaign reaches a terminal state.
#[derive(Debug, Default)]
pub struct StreamLog {
    lines: Mutex<LogInner>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct LogInner {
    lines: Vec<String>,
    closed: bool,
}

impl StreamLog {
    /// Append one line (without trailing newline) and wake readers.
    pub fn push(&self, line: String) {
        let mut inner = self.lines.lock().expect("log poisoned");
        inner.lines.push(line);
        drop(inner);
        self.cond.notify_all();
    }

    /// Close the log: readers drain what is left, then see end-of-stream.
    pub fn close(&self) {
        self.lines.lock().expect("log poisoned").closed = true;
        self.cond.notify_all();
    }

    /// Lines appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.lock().expect("log poisoned").lines.len()
    }

    /// Whether the log holds no lines yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the next batch after `cursor` (at most [`STREAM_BATCH`]
    /// lines), blocking until lines are available or the log closes.
    /// `None` means end-of-stream: the log is closed and fully drained.
    #[must_use]
    pub fn next_batch(&self, cursor: usize) -> Option<Vec<String>> {
        let mut inner = self.lines.lock().expect("log poisoned");
        loop {
            if cursor < inner.lines.len() {
                let end = inner.lines.len().min(cursor + STREAM_BATCH);
                return Some(inner.lines[cursor..end].to_vec());
            }
            if inner.closed {
                return None;
            }
            // A timed wait keeps readers immune to missed wakeups.
            let (guard, _) = self
                .cond
                .wait_timeout(inner, Duration::from_millis(200))
                .expect("log poisoned");
            inner = guard;
        }
    }

    /// The whole log, for tests and resume bookkeeping.
    #[must_use]
    pub fn snapshot(&self) -> Vec<String> {
        self.lines.lock().expect("log poisoned").lines.clone()
    }
}

/// One registered campaign.
#[derive(Debug)]
pub struct Entry {
    /// Server-assigned id — namespaces *storage only*, never seeds.
    pub id: u64,
    /// The validated spec as submitted.
    pub spec: CampaignSpec,
    /// Lifecycle state.
    state: Mutex<CampaignState>,
    /// Cooperative cancel token threaded into the campaign's `Exec`.
    pub cancel: CancelToken,
    /// The streaming result log.
    pub log: Arc<StreamLog>,
    /// Jobs completed so far (resumed + live); shared with the
    /// campaign's [`StreamObserver`].
    pub jobs_done: Arc<AtomicUsize>,
    /// Total jobs the spec expands into.
    pub jobs_total: usize,
}

impl Entry {
    /// Register a campaign under `id`.
    #[must_use]
    pub fn new(id: u64, spec: CampaignSpec) -> Entry {
        let jobs_total = spec.num_jobs();
        Entry {
            id,
            spec,
            state: Mutex::new(CampaignState::Queued),
            cancel: CancelToken::new(),
            log: Arc::new(StreamLog::default()),
            jobs_done: Arc::new(AtomicUsize::new(0)),
            jobs_total,
        }
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> CampaignState {
        *self.state.lock().expect("state poisoned")
    }

    /// Transition the lifecycle state. A terminal `Cancelled` is
    /// sticky: a finishing runner cannot overwrite it with `Done`.
    pub fn set_state(&self, next: CampaignState) {
        let mut state = self.state.lock().expect("state poisoned");
        if *state == CampaignState::Cancelled && next == CampaignState::Done {
            return;
        }
        *state = next;
    }

    /// Request cancellation: trips the cancel token (the campaign's job
    /// ledger drains the queue) and marks the entry.
    pub fn request_cancel(&self) {
        self.cancel.cancel();
        self.set_state(CampaignState::Cancelled);
    }
}

/// The result-line observer handed to the harness: formats each
/// [`JobRecord`] as wire JSONL and releases lines in canonical order.
#[derive(Debug)]
pub struct StreamObserver {
    log: Arc<StreamLog>,
    jobs_done: Arc<AtomicUsize>,
    /// Reorder state: pending out-of-order lines plus the canonical
    /// order of all `(cell, trial)` coordinates.
    reorder: Mutex<Reorder>,
}

#[derive(Debug)]
struct Reorder {
    /// All job coordinates in canonical order.
    expected: Vec<(usize, usize)>,
    /// Next index into `expected` to release.
    next: usize,
    /// Finished-but-early lines, keyed by coordinate.
    pending: HashMap<(usize, usize), String>,
}

/// The deterministic wire form of one job result. Telemetry fields
/// (`wall_ns`, `attempts`) are deliberately excluded: the stream is
/// bit-identical across schedules, restarts and hosts.
#[must_use]
pub fn result_line(rec: &JobRecord) -> String {
    format!(
        "{{\"type\":\"result\",\"cell\":{},\"trial\":{},\"m_obs\":\"{:016x}\",\"m_cyc\":{},\"u_obs\":\"{:016x}\",\"u_cyc\":{}}}",
        rec.cell,
        rec.trial,
        rec.pair.mapped.observed.to_bits(),
        rec.pair.mapped.total_cycles,
        rec.pair.unmapped.observed.to_bits(),
        rec.pair.unmapped.total_cycles,
    )
}

impl StreamObserver {
    /// Build an observer for a campaign whose cells expand to
    /// `trials_per_cell[cell]` trials each.
    #[must_use]
    pub fn new(
        log: Arc<StreamLog>,
        jobs_done: Arc<AtomicUsize>,
        trials_per_cell: &[usize],
    ) -> StreamObserver {
        let mut expected = Vec::new();
        for (cell, &trials) in trials_per_cell.iter().enumerate() {
            for trial in 0..trials {
                expected.push((cell, trial));
            }
        }
        StreamObserver {
            log,
            jobs_done,
            reorder: Mutex::new(Reorder {
                expected,
                next: 0,
                pending: HashMap::new(),
            }),
        }
    }
}

impl JobObserver for StreamObserver {
    fn job_done(&self, rec: &JobRecord, _resumed: bool) {
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
        let line = result_line(rec);
        let mut reorder = self.reorder.lock().expect("reorder poisoned");
        reorder.pending.insert((rec.cell, rec.trial), line);
        while reorder.next < reorder.expected.len() {
            let coord = reorder.expected[reorder.next];
            let Some(line) = reorder.pending.remove(&coord) else {
                break;
            };
            reorder.next += 1;
            self.log.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_harness::JobRecord;

    fn rec(cell: usize, trial: usize) -> JobRecord {
        // Build a record through the manifest-line round trip so the
        // test does not depend on PairOutcome's construction details.
        JobRecord::parse(&format!(
            "{{\"cell\":{cell},\"trial\":{trial},\"m_obs\":\"3ff0000000000000\",\"m_cyc\":10,\"u_obs\":\"4000000000000000\",\"u_cyc\":20,\"wall_ns\":5,\"attempts\":1}}"
        ))
        .expect("synthetic record parses")
    }

    #[test]
    fn observer_releases_lines_in_canonical_order() {
        let log = Arc::new(StreamLog::default());
        let done = Arc::new(AtomicUsize::new(0));
        let obs = StreamObserver::new(Arc::clone(&log), Arc::clone(&done), &[2, 2]);
        // Finish in a scrambled schedule: (1,1), (0,1), (1,0), (0,0).
        obs.job_done(&rec(1, 1), false);
        obs.job_done(&rec(0, 1), false);
        assert!(log.is_empty(), "nothing released before (0,0) lands");
        obs.job_done(&rec(1, 0), false);
        obs.job_done(&rec(0, 0), false);
        let lines = log.snapshot();
        assert_eq!(lines.len(), 4);
        assert_eq!(done.load(Ordering::Relaxed), 4);
        for (i, coord) in [(0, 0), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
            assert!(
                lines[i].contains(&format!("\"cell\":{},\"trial\":{}", coord.0, coord.1)),
                "line {i} = {:?} is not {coord:?}",
                lines[i]
            );
        }
    }

    #[test]
    fn result_lines_exclude_telemetry() {
        let line = result_line(&rec(0, 0));
        assert!(!line.contains("wall_ns"));
        assert!(!line.contains("attempts"));
        assert!(line.contains("\"type\":\"result\""));
    }

    #[test]
    fn stream_log_batches_and_terminates() {
        let log = StreamLog::default();
        for i in 0..(STREAM_BATCH + 10) {
            log.push(format!("line{i}"));
        }
        let first = log.next_batch(0).expect("data available");
        assert_eq!(first.len(), STREAM_BATCH);
        let second = log.next_batch(STREAM_BATCH).expect("tail available");
        assert_eq!(second.len(), 10);
        log.close();
        assert!(log.next_batch(STREAM_BATCH + 10).is_none());
    }

    #[test]
    fn cancelled_state_is_sticky_over_done() {
        let spec = vpsim_harness::CampaignSpec::parse(
            r#"{"name":"s","trials":1,
                "cells":[{"category":"train_test","channel":"timing_window","predictor":"lvp"}]}"#,
        )
        .unwrap();
        let entry = Entry::new(1, spec);
        assert_eq!(entry.state(), CampaignState::Queued);
        entry.request_cancel();
        assert!(entry.cancel.is_cancelled());
        entry.set_state(CampaignState::Done);
        assert_eq!(entry.state(), CampaignState::Cancelled);
        entry.set_state(CampaignState::Failed);
        assert_eq!(entry.state(), CampaignState::Failed);
    }
}
