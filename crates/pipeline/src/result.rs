//! Run results and errors.

use vpsim_isa::{Inst, Pc, RegFile};
use vpsim_mem::Cycles;

/// One committed instruction, recorded when
/// [`CoreConfig::record_commit_trace`](crate::CoreConfig) is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// Cycle at which the instruction committed.
    pub cycle: Cycles,
    /// Its static program counter.
    pub pc: Pc,
    /// The instruction.
    pub inst: Inst,
    /// The destination value it produced, if any.
    pub result: Option<u64>,
}

/// Counters accumulated during one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Loads that consulted the VPS (L1 misses).
    pub vps_lookups: u64,
    /// Loads executed with a predicted value.
    pub predicted_loads: u64,
    /// Predictions verified correct.
    pub correct_predictions: u64,
    /// Predictions verified incorrect (caused a squash).
    pub mispredictions: u64,
    /// Pipeline squashes due to value misprediction.
    pub squashes: u64,
    /// Instructions discarded by squashes.
    pub squashed_insts: u64,
    /// Loads that forwarded from an older store.
    pub forwarded_loads: u64,
    /// Branches committed.
    pub branches: u64,
    /// Branch-direction mispredictions (speculating front-end only).
    pub branch_mispredictions: u64,
    /// Loads whose cache fill was deferred (D-type) and later released.
    pub deferred_fills_released: u64,
    /// Loads whose deferred fill was discarded by a squash (the
    /// persistent-channel trace the D-type defense suppresses).
    pub deferred_fills_discarded: u64,
}

/// Scheduler work counters for one run — diagnostics for the
/// event-driven executor's next-event clock and indexed phase
/// structures.
///
/// These are *not* part of the architectural result: two scheduler
/// implementations may differ here while remaining cycle-for-cycle
/// identical on `cycles`, `rdtsc_values`, `stats` and `trace`. The
/// golden-trace equivalence suite deliberately excludes this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Cycles on which the six phases actually ran (phase sweeps).
    pub ticks: u64,
    /// Idle cycles jumped over by the next-event clock. `cycles =
    /// ticks + skipped_cycles` for a run that halts normally.
    pub skipped_cycles: u64,
    /// Execution-completion events drained from the completion queue.
    pub completion_events: u64,
    /// Result broadcasts delivered through the consumer index.
    pub wakeup_broadcasts: u64,
    /// Prediction verifications drained from the verification queue.
    pub verify_events: u64,
    /// Instructions issued to execution.
    pub issue_slots: u64,
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
}

impl SchedStats {
    /// Accumulate another run's counters (for multi-run benchmarks).
    pub fn merge(&mut self, other: &SchedStats) {
        self.ticks += other.ticks;
        self.skipped_cycles += other.skipped_cycles;
        self.completion_events += other.completion_events;
        self.wakeup_broadcasts += other.wakeup_broadcasts;
        self.verify_events += other.verify_events;
        self.issue_slots += other.issue_slots;
        self.dispatched += other.dispatched;
    }
}

/// The outcome of running a program to its `halt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Cycle at which `halt` committed.
    pub cycles: Cycles,
    /// Final committed architectural register state.
    pub regs: RegFile,
    /// Values produced by `rdtsc` instructions, in commit order — the
    /// receiver's timing observations.
    pub rdtsc_values: Vec<u64>,
    /// Execution counters.
    pub stats: RunStats,
    /// Per-commit trace (empty unless
    /// [`CoreConfig::record_commit_trace`](crate::CoreConfig) is set).
    pub trace: Vec<CommitEvent>,
    /// Scheduler work counters (diagnostic; see [`SchedStats`]).
    pub sched: SchedStats,
}

impl RunResult {
    /// Convenience: consecutive `rdtsc` differences (t2 − t1 pairs), the
    /// timing windows the attack PoCs measure.
    ///
    /// With `2k` rdtsc readings this returns `k` window widths:
    /// `[t1, t2, t3, t4]` → `[t2 - t1, t4 - t3]`.
    #[must_use]
    pub fn timing_windows(&self) -> Vec<u64> {
        self.rdtsc_values
            .chunks_exact(2)
            .map(|w| w[1].saturating_sub(w[0]))
            .collect()
    }

    /// The `i`-th entry of [`timing_windows`](RunResult::timing_windows),
    /// without building the vector; `None` past the last complete pair.
    #[must_use]
    pub fn timing_window(&self, i: usize) -> Option<u64> {
        match self.rdtsc_values.get(2 * i..2 * i + 2)? {
            &[t1, t2] => Some(t2.saturating_sub(t1)),
            _ => None,
        }
    }
}

/// Errors terminating a run abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle budget was exhausted before `halt` committed.
    CycleLimitExceeded {
        /// The configured limit.
        limit: Cycles,
    },
    /// Fetch ran past the end of the program (no `halt` reached).
    FetchPastEnd {
        /// The out-of-range program counter.
        pc: u32,
    },
    /// A [`CancelToken`](crate::CancelToken) was tripped and the
    /// executor unwound at its next cancellation point.
    Cancelled {
        /// The simulated cycle at which the trip was observed.
        at_cycle: Cycles,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleLimitExceeded { limit } => {
                write!(f, "cycle limit of {limit} exceeded before halt")
            }
            RunError::FetchPastEnd { pc } => {
                write!(f, "fetch ran past the end of the program at pc{pc}")
            }
            RunError::Cancelled { at_cycle } => {
                write!(f, "run cancelled cooperatively at cycle {at_cycle}")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_windows_pairs() {
        let r = RunResult {
            cycles: 100,
            regs: RegFile::new(),
            rdtsc_values: vec![10, 40, 50, 95],
            stats: RunStats::default(),
            trace: Vec::new(),
            sched: SchedStats::default(),
        };
        assert_eq!(r.timing_windows(), vec![30, 45]);
        let each: Vec<Option<u64>> = (0..3).map(|i| r.timing_window(i)).collect();
        assert_eq!(each, [Some(30), Some(45), None]);
    }

    #[test]
    fn timing_windows_ignores_odd_tail() {
        let r = RunResult {
            cycles: 1,
            regs: RegFile::new(),
            rdtsc_values: vec![1, 5, 9],
            stats: RunStats::default(),
            trace: Vec::new(),
            sched: SchedStats::default(),
        };
        assert_eq!(r.timing_windows(), vec![4]);
        assert_eq!((r.timing_window(0), r.timing_window(1)), (Some(4), None));
    }

    #[test]
    fn error_messages() {
        assert!(RunError::CycleLimitExceeded { limit: 5 }
            .to_string()
            .contains('5'));
        assert!(RunError::FetchPastEnd { pc: 3 }.to_string().contains("pc3"));
        assert!(RunError::Cancelled { at_cycle: 77 }
            .to_string()
            .contains("cycle 77"));
    }
}
