//! Typed microarchitectural trace events, the [`TraceSink`] consumer
//! trait, and the bounded [`RingRecorder`].
//!
//! Events are *cycle-stamped by the pipeline*: the executor stamps its
//! own events, predictor chaos included, where they happen. The memory
//! hierarchy has no notion of the simulated clock, so it buffers
//! unstamped [`TraceEvent`]s which the executor drains and stamps at
//! the end of the scheduler tick that produced them.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Which level of the memory hierarchy an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The L1 data cache.
    L1,
    /// The unified L2.
    L2,
    /// Backing memory (DRAM).
    Mem,
}

impl Level {
    /// The stable token used in serialized traces.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Level::L1 => "l1",
            Level::L2 => "l2",
            Level::Mem => "mem",
        }
    }
}

/// One microarchitectural event. `Copy`, fixed-width fields only — a
/// recorded trace is a pure function of `(program, config, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction was dispatched into the ROB (front-end fetch).
    Fetch {
        /// Dynamic-instruction sequence number.
        seq: u64,
        /// Static program counter (instruction index).
        pc: u32,
    },
    /// An instruction was issued to an execution unit.
    Issue {
        /// Dynamic-instruction sequence number.
        seq: u64,
        /// Static program counter.
        pc: u32,
    },
    /// An instruction committed architecturally.
    Commit {
        /// Dynamic-instruction sequence number.
        seq: u64,
        /// Static program counter.
        pc: u32,
    },
    /// Every instruction younger than `after_seq` was squashed.
    Squash {
        /// The last surviving sequence number.
        after_seq: u64,
        /// How many in-flight instructions were discarded.
        discarded: u64,
    },
    /// A memory access resolved, hitting at `level`.
    MemAccess {
        /// Accessed virtual address.
        addr: u64,
        /// `true` for stores.
        write: bool,
        /// The level that satisfied the access.
        level: Level,
        /// Modelled latency in cycles.
        latency: u64,
    },
    /// A cache line was evicted from `level`.
    CacheEvict {
        /// The evicting level.
        level: Level,
        /// Line-aligned address of the victim.
        line_addr: u64,
        /// Whether the victim was dirty (write-back traffic).
        dirty: bool,
    },
    /// A line was filled into `level` (demand fill, install or prefetch).
    CacheFill {
        /// The filled level.
        level: Level,
        /// Line-aligned address.
        line_addr: u64,
    },
    /// An architectural `flush` invalidated a line from the hierarchy.
    LineFlush {
        /// Line-aligned address.
        line_addr: u64,
        /// Whether a dirty copy had to be written back.
        dirty: bool,
    },
    /// The TLB was shot down (chaos-injected interference).
    TlbShootdown,
    /// The VPS supplied a speculative value for an L1-miss load.
    Predict {
        /// Dynamic-instruction sequence number of the load.
        seq: u64,
        /// Byte address of the load instruction.
        pc: u64,
        /// The predicted value.
        value: u64,
        /// Predictor confidence at prediction time.
        confidence: u32,
    },
    /// The predictor was trained with an actual loaded value.
    Train {
        /// Byte address of the load instruction.
        pc: u64,
        /// The actual value.
        value: u64,
    },
    /// A value misprediction was detected at verification.
    Mispredict {
        /// Dynamic-instruction sequence number of the load.
        seq: u64,
        /// Byte address of the load instruction.
        pc: u64,
        /// The speculative value that was wrong.
        predicted: u64,
        /// The actual value.
        actual: u64,
    },
    /// Chaos suppressed a confident prediction (confidence decay).
    PredDecay {
        /// Byte address of the load instruction.
        pc: u64,
    },
    /// Chaos flipped bits in a predicted value before forwarding it.
    PredFlip {
        /// Byte address of the load instruction.
        pc: u64,
        /// The predictor's original value.
        original: u64,
        /// The perturbed value actually forwarded.
        perturbed: u64,
    },
    /// Chaos dropped a training update.
    PredDropTrain {
        /// Byte address of the load instruction.
        pc: u64,
    },
}

impl TraceEvent {
    /// The stable `kind` token used in serialized traces.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Fetch { .. } => "fetch",
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Squash { .. } => "squash",
            TraceEvent::MemAccess { .. } => "mem_access",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::CacheFill { .. } => "cache_fill",
            TraceEvent::LineFlush { .. } => "line_flush",
            TraceEvent::TlbShootdown => "tlb_shootdown",
            TraceEvent::Predict { .. } => "predict",
            TraceEvent::Train { .. } => "train",
            TraceEvent::Mispredict { .. } => "mispredict",
            TraceEvent::PredDecay { .. } => "pred_decay",
            TraceEvent::PredFlip { .. } => "pred_flip",
            TraceEvent::PredDropTrain { .. } => "pred_drop_train",
        }
    }

    /// Whether this is a memory-hierarchy event (used by attribution).
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            TraceEvent::MemAccess { .. }
                | TraceEvent::CacheEvict { .. }
                | TraceEvent::CacheFill { .. }
                | TraceEvent::LineFlush { .. }
                | TraceEvent::TlbShootdown
        )
    }
}

/// Serialize one cycle-stamped event as a single canonical JSON line
/// (no trailing newline). Field order is fixed; addresses are hex.
#[must_use]
pub fn stamped_json(cycle: u64, event: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"cycle\":{cycle},\"kind\":\"{}\"", event.kind());
    match *event {
        TraceEvent::Fetch { seq, pc }
        | TraceEvent::Issue { seq, pc }
        | TraceEvent::Commit { seq, pc } => {
            let _ = write!(s, ",\"seq\":{seq},\"pc\":{pc}");
        }
        TraceEvent::Squash {
            after_seq,
            discarded,
        } => {
            let _ = write!(s, ",\"after_seq\":{after_seq},\"discarded\":{discarded}");
        }
        TraceEvent::MemAccess {
            addr,
            write,
            level,
            latency,
        } => {
            let _ = write!(
                s,
                ",\"addr\":\"{addr:#x}\",\"write\":{write},\"level\":\"{}\",\"latency\":{latency}",
                level.token()
            );
        }
        TraceEvent::CacheEvict {
            level,
            line_addr,
            dirty,
        } => {
            let _ = write!(
                s,
                ",\"level\":\"{}\",\"line\":\"{line_addr:#x}\",\"dirty\":{dirty}",
                level.token()
            );
        }
        TraceEvent::CacheFill { level, line_addr } => {
            let _ = write!(
                s,
                ",\"level\":\"{}\",\"line\":\"{line_addr:#x}\"",
                level.token()
            );
        }
        TraceEvent::LineFlush { line_addr, dirty } => {
            let _ = write!(s, ",\"line\":\"{line_addr:#x}\",\"dirty\":{dirty}");
        }
        TraceEvent::TlbShootdown => {}
        TraceEvent::Predict {
            seq,
            pc,
            value,
            confidence,
        } => {
            let _ = write!(
                s,
                ",\"seq\":{seq},\"pc\":\"{pc:#x}\",\"value\":{value},\"confidence\":{confidence}"
            );
        }
        TraceEvent::Train { pc, value } => {
            let _ = write!(s, ",\"pc\":\"{pc:#x}\",\"value\":{value}");
        }
        TraceEvent::Mispredict {
            seq,
            pc,
            predicted,
            actual,
        } => {
            let _ = write!(
                s,
                ",\"seq\":{seq},\"pc\":\"{pc:#x}\",\"predicted\":{predicted},\"actual\":{actual}"
            );
        }
        TraceEvent::PredDecay { pc } | TraceEvent::PredDropTrain { pc } => {
            let _ = write!(s, ",\"pc\":\"{pc:#x}\"");
        }
        TraceEvent::PredFlip {
            pc,
            original,
            perturbed,
        } => {
            let _ = write!(
                s,
                ",\"pc\":\"{pc:#x}\",\"original\":{original},\"perturbed\":{perturbed}"
            );
        }
    }
    s.push('}');
    s
}

/// A consumer of cycle-stamped trace events.
///
/// Implementations must not feed anything back into the simulation —
/// a sink observes, it never perturbs.
pub trait TraceSink: Send {
    /// Record one event stamped with the simulated cycle it occurred on.
    fn record(&mut self, cycle: u64, event: TraceEvent);
}

/// A bounded ring-buffer [`TraceSink`]: keeps the most recent
/// `capacity` events, counting everything it has seen and dropped.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    buf: VecDeque<(u64, TraceEvent)>,
    seen: u64,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` events (`capacity >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> RingRecorder {
        assert!(capacity >= 1, "ring recorder needs capacity >= 1");
        RingRecorder {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            seen: 0,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, TraceEvent)> {
        self.buf.iter()
    }

    /// Total events ever recorded (retained + dropped).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Forget everything, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.seen = 0;
        self.dropped = 0;
    }

    /// The retained events as canonical JSON lines (one per event,
    /// `\n`-terminated).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (cycle, ev) in &self.buf {
            out.push_str(&stamped_json(*cycle, ev));
            out.push('\n');
        }
        out
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        self.seen += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back((cycle, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = RingRecorder::new(2);
        for seq in 0..5 {
            r.record(seq, TraceEvent::Fetch { seq, pc: 0 });
        }
        assert_eq!(r.seen(), 5);
        assert_eq!(r.dropped(), 3);
        let seqs: Vec<u64> = r.events().map(|(c, _)| *c).collect();
        assert_eq!(seqs, vec![3, 4]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn stamped_json_is_stable_per_kind() {
        let cases = [
            (
                TraceEvent::Fetch { seq: 1, pc: 2 },
                r#"{"cycle":7,"kind":"fetch","seq":1,"pc":2}"#,
            ),
            (
                TraceEvent::MemAccess {
                    addr: 0x1000,
                    write: false,
                    level: Level::L2,
                    latency: 12,
                },
                r#"{"cycle":7,"kind":"mem_access","addr":"0x1000","write":false,"level":"l2","latency":12}"#,
            ),
            (
                TraceEvent::Predict {
                    seq: 9,
                    pc: 0x40,
                    value: 5,
                    confidence: 3,
                },
                r#"{"cycle":7,"kind":"predict","seq":9,"pc":"0x40","value":5,"confidence":3}"#,
            ),
            (
                TraceEvent::TlbShootdown,
                r#"{"cycle":7,"kind":"tlb_shootdown"}"#,
            ),
        ];
        for (ev, want) in cases {
            assert_eq!(stamped_json(7, &ev), want);
        }
    }

    #[test]
    fn jsonl_rendering_is_newline_terminated() {
        let mut r = RingRecorder::new(8);
        r.record(1, TraceEvent::TlbShootdown);
        r.record(
            2,
            TraceEvent::Squash {
                after_seq: 4,
                discarded: 2,
            },
        );
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }
}
