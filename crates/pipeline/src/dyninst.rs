//! Dynamic (in-flight) instructions — the reorder-buffer entry type.

use vpsim_isa::{Inst, Pc};
use vpsim_mem::Cycles;

/// Unique, monotonically increasing id of a dynamic instruction within a
/// run; doubles as the register-rename tag.
pub type Seq = u64;

/// An ordered set of seqs, kept as a sorted vector. Its members are
/// in-flight instructions, so it never outgrows the ROB: inserting the
/// youngest seq (dispatch's case) is an append, other inserts and
/// removes a binary search plus a short shift, "any member older than
/// seq" a look at the first, and a squash a truncation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqSet(Vec<Seq>);

impl SeqSet {
    /// Add `seq`; adding a member again changes nothing.
    pub(crate) fn insert(&mut self, seq: Seq) {
        match self.0.last() {
            Some(&last) if last >= seq => {
                if let Err(at) = self.0.binary_search(&seq) {
                    self.0.insert(at, seq);
                }
            }
            _ => self.0.push(seq),
        }
    }

    /// Remove `seq` if it is a member.
    pub(crate) fn remove(&mut self, seq: Seq) {
        if let Ok(at) = self.0.binary_search(&seq) {
            self.0.remove(at);
        }
    }

    /// Remove the member at position `at` (oldest first).
    pub(crate) fn remove_at(&mut self, at: usize) {
        self.0.remove(at);
    }

    /// Whether any member is older (smaller) than `seq`.
    pub(crate) fn any_below(&self, seq: Seq) -> bool {
        self.0.first().is_some_and(|&first| first < seq)
    }

    /// The members older (smaller) than `seq`, oldest first.
    pub(crate) fn below(&self, seq: Seq) -> &[Seq] {
        &self.0[..self.0.partition_point(|&s| s < seq)]
    }

    /// Remove every member younger (larger) than `seq`.
    pub(crate) fn truncate_after(&mut self, seq: Seq) {
        let keep = self.0.partition_point(|&s| s <= seq);
        self.0.truncate(keep);
    }

    /// The members, oldest first.
    pub(crate) fn as_slice(&self) -> &[Seq] {
        &self.0
    }

    /// Remove every member, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// A min-queue of timed events `(cycle, seq)`, kept as a vector sorted
/// latest first, so peeking at and popping the earliest event read the
/// last element. A run has only a few events in flight, so an insert's
/// shift stays short.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue(Vec<(Cycles, Seq)>);

impl EventQueue {
    /// Add an event.
    pub(crate) fn push(&mut self, event: (Cycles, Seq)) {
        // Move each earlier event one slot towards the end, from the
        // end: an event due before all others (a one-cycle ALU result)
        // moves none.
        let v = &mut self.0;
        v.push(event);
        let mut at = v.len() - 1;
        while at > 0 && v[at - 1] < event {
            v[at] = v[at - 1];
            at -= 1;
        }
        v[at] = event;
    }

    /// The earliest event.
    pub(crate) fn peek(&self) -> Option<(Cycles, Seq)> {
        self.0.last().copied()
    }

    /// Remove the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(Cycles, Seq)> {
        self.0.pop()
    }

    /// Remove every event, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Execution status of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Dispatched, waiting for operands or an issue slot.
    Waiting,
    /// Issued; result will be available at `done_at`.
    Executing,
    /// Result available (broadcast to dependents).
    Done,
}

/// How a load obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOrigin {
    /// L1 hit or lower-level access without prediction.
    Memory,
    /// Store-to-load forwarding from an older in-flight store.
    Forwarded,
    /// The VPS supplied a speculative value (the entry's result until
    /// verification); the true memory value is the entry's
    /// [`actual`](DynInst::actual), architecturally available only at
    /// `verify_at`.
    Predicted,
}

/// Validity bits of the [`DynInst`] fields that are optional: each such
/// field holds a plain value that means something only while its bit is
/// set.
const RESULT: u16 = 1 << 0;
const DONE_AT: u16 = 1 << 1;
const ADDR: u16 = 1 << 2;
const VERIFY_AT: u16 = 1 << 3;
const REDIRECT: u16 = 1 << 4;
const PREDICTED_NEXT: u16 = 1 << 5;
/// Source slot `i` holds its operand's value (`VALUE << i`) or the tag
/// of the producer it waits on (`TAG << i`), never both.
const VALUE: u16 = 1 << 6;
const TAG: u16 = 1 << 8;

/// A dynamic instruction in the reorder buffer. Every ROB move copies
/// one, so the optional fields are plain values behind validity bits,
/// read through `Option`-returning accessors.
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Rename tag / age.
    pub seq: Seq,
    /// The decoded instruction.
    pub inst: Inst,
    /// Source slots (index matches `Inst::sources`): an operand's value
    /// or its producer's tag, as `valid` says.
    src: [u64; 2],
    /// Result value (dest-register value, store data, branch taken
    /// flag). A predicted load's result is the predicted value until
    /// verification.
    result: u64,
    /// Cycle at which the result becomes available for wakeup.
    done_at: Cycles,
    /// Effective address for loads/stores/flushes, once computed.
    addr: u64,
    /// For predicted loads: the true memory value, known to the
    /// simulator at issue but architecturally available only at
    /// `verify_at`.
    pub actual: u64,
    /// For predicted loads: when the actual data arrives (verification).
    verify_at: Cycles,
    /// Static program counter.
    pub pc: Pc,
    /// Branch resolution outcome: the next fetch PC.
    redirect: Pc,
    /// For branches under a speculating front-end: the PC fetch
    /// continued at when this branch was dispatched (the prediction).
    predicted_next: Pc,
    /// Which optional fields hold a value.
    valid: u16,
    /// Execution status.
    pub status: Status,
    /// How a load got its value.
    pub load_origin: Option<LoadOrigin>,
    /// Set once a predicted load's value check has completed.
    pub verified: bool,
    /// D-type: this load skipped its cache fill; install at commit.
    pub deferred_fill: bool,
    /// A load that missed without a prediction: it owes the VPS a
    /// training update (its pc and address, its value) on completion.
    pub pending_train: bool,
}

impl DynInst {
    /// A freshly dispatched entry.
    #[must_use]
    pub fn new(seq: Seq, pc: Pc, inst: Inst) -> DynInst {
        DynInst {
            seq,
            inst,
            src: [0; 2],
            result: 0,
            done_at: 0,
            addr: 0,
            actual: 0,
            verify_at: 0,
            pc,
            redirect: Pc(0),
            predicted_next: Pc(0),
            valid: 0,
            status: Status::Waiting,
            load_origin: None,
            verified: false,
            deferred_fill: false,
            pending_train: false,
        }
    }

    /// `value` if the `bit` field holds one.
    fn field<T>(&self, bit: u16, value: T) -> Option<T> {
        (self.valid & bit != 0).then_some(value)
    }

    /// The result, once produced.
    #[must_use]
    pub fn result(&self) -> Option<u64> {
        self.field(RESULT, self.result)
    }

    /// Set the result.
    pub fn set_result(&mut self, value: u64) {
        self.result = value;
        self.valid |= RESULT;
    }

    /// When the result becomes available, once issued.
    #[must_use]
    pub fn done_at(&self) -> Option<Cycles> {
        self.field(DONE_AT, self.done_at)
    }

    /// Set when the result becomes available.
    pub fn set_done_at(&mut self, cycle: Cycles) {
        self.done_at = cycle;
        self.valid |= DONE_AT;
    }

    /// The effective address, once computed.
    #[must_use]
    pub fn addr(&self) -> Option<u64> {
        self.field(ADDR, self.addr)
    }

    /// Set the effective address.
    pub fn set_addr(&mut self, addr: u64) {
        self.addr = addr;
        self.valid |= ADDR;
    }

    /// When a predicted load's actual data arrives.
    #[must_use]
    pub fn verify_at(&self) -> Option<Cycles> {
        self.field(VERIFY_AT, self.verify_at)
    }

    /// Set when a predicted load's actual data arrives.
    pub fn set_verify_at(&mut self, cycle: Cycles) {
        self.verify_at = cycle;
        self.valid |= VERIFY_AT;
    }

    /// A resolved branch's next fetch PC.
    #[must_use]
    pub fn redirect(&self) -> Option<Pc> {
        self.field(REDIRECT, self.redirect)
    }

    /// Set a resolved branch's next fetch PC.
    pub fn set_redirect(&mut self, pc: Pc) {
        self.redirect = pc;
        self.valid |= REDIRECT;
    }

    /// The PC a speculating front-end fetched after this branch.
    #[must_use]
    pub fn predicted_next(&self) -> Option<Pc> {
        self.field(PREDICTED_NEXT, self.predicted_next)
    }

    /// Set the PC a speculating front-end fetched after this branch.
    pub fn set_predicted_next(&mut self, pc: Pc) {
        self.predicted_next = pc;
        self.valid |= PREDICTED_NEXT;
    }

    /// Source slot `i`'s value, once resolved.
    #[must_use]
    pub fn operand(&self, i: usize) -> Option<u64> {
        self.field(VALUE << i, self.src[i])
    }

    /// The producer source slot `i` waits on, while unresolved.
    #[must_use]
    pub fn src_tag(&self, i: usize) -> Option<Seq> {
        self.field(TAG << i, self.src[i])
    }

    /// Resolve source slot `i` to `value`.
    pub fn set_operand(&mut self, i: usize, value: u64) {
        self.src[i] = value;
        self.valid = (self.valid & !(TAG << i)) | VALUE << i;
    }

    /// Make source slot `i` wait on producer `tag`.
    pub fn set_src_tag(&mut self, i: usize, tag: Seq) {
        self.src[i] = tag;
        self.valid = (self.valid & !(VALUE << i)) | TAG << i;
    }

    /// Whether every source operand has a value.
    #[must_use]
    pub fn operands_ready(&self) -> bool {
        self.valid & (TAG | TAG << 1) == 0
    }

    /// Whether the result is available at `cycle` (for wakeup/commit).
    #[must_use]
    pub fn result_available(&self, cycle: Cycles) -> bool {
        matches!(self.done_at(), Some(t) if t <= cycle) && self.result().is_some()
    }

    /// Whether this entry is a load carrying an unverified prediction.
    #[must_use]
    pub fn is_unverified_prediction(&self) -> bool {
        self.load_origin == Some(LoadOrigin::Predicted) && !self.verified
    }

    /// Whether this entry can commit at `cycle`: result available, and
    /// any prediction verified.
    #[must_use]
    pub fn committable(&self, cycle: Cycles) -> bool {
        match self.status {
            Status::Done => {}
            _ => return false,
        }
        if let Some(t) = self.done_at() {
            if t > cycle {
                return false;
            }
        }
        if self.is_unverified_prediction() {
            return false;
        }
        if let Some(v) = self.verify_at() {
            if v > cycle {
                return false;
            }
        }
        true
    }
}

/// The ROB entry stays this small: dispatch and commit copy it, and a
/// squash-free run moves every entry twice.
const _: () = assert!(std::mem::size_of::<DynInst>() <= 104);

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_isa::Reg;

    fn entry() -> DynInst {
        DynInst::new(
            0,
            Pc(0),
            Inst::Li {
                rd: Reg::R1,
                imm: 5,
            },
        )
    }

    #[test]
    fn fresh_entry_waiting() {
        let e = entry();
        assert_eq!(e.status, Status::Waiting);
        assert!(e.operands_ready(), "Li has no sources");
        assert!(!e.result_available(100));
    }

    #[test]
    fn result_availability_timing() {
        let mut e = entry();
        e.set_result(5);
        e.set_done_at(10);
        e.status = Status::Done;
        assert!(!e.result_available(9));
        assert!(e.result_available(10));
        assert!(e.committable(10));
        assert!(!e.committable(9));
    }

    #[test]
    fn unverified_prediction_blocks_commit() {
        let mut e = DynInst::new(
            1,
            Pc(0),
            Inst::Load {
                rd: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
        );
        e.set_result(7);
        e.set_done_at(5);
        e.status = Status::Done;
        e.load_origin = Some(LoadOrigin::Predicted);
        e.actual = 7;
        e.set_verify_at(50);
        assert!(e.is_unverified_prediction());
        assert!(!e.committable(10));
        e.verified = true;
        assert!(!e.committable(10), "verify_at still in the future");
        assert!(e.committable(50));
    }

    /// `SeqSet` against `BTreeSet<Seq>` on seeded operation streams:
    /// inserts in dispatch order, out of order and again; removes of
    /// members and non-members, and by position; truncation at, just
    /// below and just above a member; "any below" probes. Membership, in
    /// order, and a fresh "any below" and "members below" probe are
    /// compared after every operation.
    #[test]
    fn seq_set_matches_btree_set() {
        use std::collections::BTreeSet;
        use vpsim_rng::SmallRng;

        /// A member, one just below or above a member, or any seq up
        /// to just past the youngest.
        fn probe(rng: &mut SmallRng, model: &BTreeSet<Seq>, youngest: Seq) -> Seq {
            let members: Vec<Seq> = model.iter().copied().collect();
            if members.is_empty() || rng.gen_bool(0.5) {
                return rng.gen_range(0..youngest + 3);
            }
            let m = *rng.choose(&members);
            match rng.gen_range(0u64..3) {
                0 => m.saturating_sub(1),
                1 => m,
                _ => m + 1,
            }
        }

        for stream in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0x5e05_e700 ^ stream);
            let mut set = SeqSet::default();
            let mut model = BTreeSet::new();
            let mut youngest: Seq = 0;
            for op in 0..400 {
                let seq = probe(&mut rng, &model, youngest);
                match rng.gen_range(0u64..7) {
                    0 | 1 => {
                        youngest += rng.gen_range(1u64..4);
                        set.insert(youngest);
                        model.insert(youngest);
                    }
                    2 => {
                        set.insert(seq);
                        model.insert(seq);
                    }
                    3 => {
                        set.remove(seq);
                        model.remove(&seq);
                    }
                    4 => {
                        set.truncate_after(seq);
                        model.split_off(&(seq + 1));
                    }
                    5 if !model.is_empty() => {
                        let at = rng.gen_range(0..model.len());
                        set.remove_at(at);
                        let member = *model.iter().nth(at).expect("at < len");
                        model.remove(&member);
                    }
                    _ => {}
                }
                let want: Vec<Seq> = model.iter().copied().collect();
                assert_eq!(set.as_slice(), want, "stream {stream}, op {op}");
                let below = probe(&mut rng, &model, youngest);
                assert_eq!(
                    set.any_below(below),
                    model.range(..below).next().is_some(),
                    "stream {stream}, op {op}: any below {below}"
                );
                let older: Vec<Seq> = model.range(..below).copied().collect();
                assert_eq!(set.below(below), older, "stream {stream}, op {op}");
            }
            set.clear();
            assert!(set.as_slice().is_empty());
        }
    }

    /// `EventQueue` against `BinaryHeap<Reverse<(Cycles, Seq)>>` on
    /// seeded streams of pushes, peeks and pops. Cycles are drawn from a
    /// narrow window around a moving clock, so many events share a
    /// cycle and order by seq, as same-cycle completions do; seqs are
    /// sometimes reused, as a popped event's seq never is but the queue
    /// must not care. Every peek and pop must agree.
    #[test]
    fn event_queue_matches_binary_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use vpsim_rng::SmallRng;

        for stream in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xe7e7_0000 ^ stream);
            let mut queue = EventQueue::default();
            let mut model = BinaryHeap::new();
            let mut now: Cycles = 0;
            let mut next_seq: Seq = 0;
            for op in 0..400 {
                match rng.gen_range(0u64..5) {
                    0 | 1 => {
                        let event = (now + rng.gen_range(0u64..4), next_seq);
                        next_seq += rng.gen_range(0u64..3);
                        queue.push(event);
                        model.push(Reverse(event));
                    }
                    2 => {
                        let popped = queue.pop();
                        assert_eq!(
                            popped,
                            model.pop().map(|Reverse(e)| e),
                            "stream {stream}, op {op}"
                        );
                        if let Some((t, _)) = popped {
                            now = now.max(t);
                        }
                    }
                    3 => now += 1,
                    _ => {}
                }
                assert_eq!(
                    queue.peek(),
                    model.peek().map(|&Reverse(e)| e),
                    "stream {stream}, op {op}"
                );
            }
            queue.clear();
            assert_eq!(queue.peek(), None);
        }
    }

    #[test]
    fn pending_src_tags_block_readiness() {
        let mut e = DynInst::new(
            2,
            Pc(0),
            Inst::Addi {
                rd: Reg::R1,
                rs: Reg::R2,
                imm: 1,
            },
        );
        e.set_src_tag(0, 1);
        assert!(!e.operands_ready());
        assert_eq!((e.operand(0), e.src_tag(0)), (None, Some(1)));
        e.set_operand(0, 3);
        assert!(e.operands_ready());
        assert_eq!((e.operand(0), e.src_tag(0)), (Some(3), None));
        assert_eq!((e.operand(1), e.src_tag(1)), (None, None));
    }
}
