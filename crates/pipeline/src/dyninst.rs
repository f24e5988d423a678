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

    /// Whether any member is older (smaller) than `seq`.
    pub(crate) fn any_below(&self, seq: Seq) -> bool {
        self.0.first().is_some_and(|&first| first < seq)
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
    /// The VPS supplied a speculative value; `actual` arrives at
    /// `verify_at` (stored on the entry).
    Predicted {
        /// Value the predictor supplied (post-defense perturbation).
        predicted: u64,
        /// The true memory value, known to the simulator at issue time
        /// but architecturally available only at `verify_at`.
        actual: u64,
    },
}

/// A dynamic instruction in the reorder buffer.
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Rename tag / age.
    pub seq: Seq,
    /// Static program counter.
    pub pc: Pc,
    /// The decoded instruction.
    pub inst: Inst,
    /// Execution status.
    pub status: Status,
    /// Resolved source-operand values (index matches `Inst::sources`).
    pub operands: [Option<u64>; 2],
    /// Producer tags for unresolved operands.
    pub src_tags: [Option<Seq>; 2],
    /// Result value (dest-register value, store data, branch taken flag).
    pub result: Option<u64>,
    /// Cycle at which the result becomes available for wakeup.
    pub done_at: Option<Cycles>,
    /// Effective address for loads/stores/flushes, once computed.
    pub addr: Option<u64>,
    /// How a load got its value.
    pub load_origin: Option<LoadOrigin>,
    /// For predicted loads: when the actual data arrives (verification).
    pub verify_at: Option<Cycles>,
    /// Set once a predicted load's value check has completed.
    pub verified: bool,
    /// D-type: this load skipped its cache fill; install at commit.
    pub deferred_fill: bool,
    /// A load that missed without a prediction: it owes the VPS a
    /// training update (its pc and address, its value) on completion.
    pub pending_train: bool,
    /// Branch resolution outcome: the next fetch PC.
    pub redirect: Option<Pc>,
    /// For branches under a speculating front-end: the PC fetch
    /// continued at when this branch was dispatched (the prediction).
    pub predicted_next: Option<Pc>,
}

impl DynInst {
    /// A freshly dispatched entry.
    #[must_use]
    pub fn new(seq: Seq, pc: Pc, inst: Inst) -> DynInst {
        DynInst {
            seq,
            pc,
            inst,
            status: Status::Waiting,
            operands: [None, None],
            src_tags: [None, None],
            result: None,
            done_at: None,
            addr: None,
            load_origin: None,
            verify_at: None,
            verified: false,
            deferred_fill: false,
            pending_train: false,
            redirect: None,
            predicted_next: None,
        }
    }

    /// Whether every source operand has a value.
    #[must_use]
    pub fn operands_ready(&self) -> bool {
        self.src_tags.iter().all(Option::is_none)
    }

    /// Whether the result is available at `cycle` (for wakeup/commit).
    #[must_use]
    pub fn result_available(&self, cycle: Cycles) -> bool {
        matches!(self.done_at, Some(t) if t <= cycle) && self.result.is_some()
    }

    /// Whether this entry is a load carrying an unverified prediction.
    #[must_use]
    pub fn is_unverified_prediction(&self) -> bool {
        matches!(self.load_origin, Some(LoadOrigin::Predicted { .. })) && !self.verified
    }

    /// Whether this entry can commit at `cycle`: result available, and
    /// any prediction verified.
    #[must_use]
    pub fn committable(&self, cycle: Cycles) -> bool {
        match self.status {
            Status::Done => {}
            _ => return false,
        }
        if let Some(t) = self.done_at {
            if t > cycle {
                return false;
            }
        }
        if self.is_unverified_prediction() {
            return false;
        }
        if let Some(v) = self.verify_at {
            if v > cycle {
                return false;
            }
        }
        true
    }
}

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
        e.result = Some(5);
        e.done_at = Some(10);
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
        e.result = Some(7);
        e.done_at = Some(5);
        e.status = Status::Done;
        e.load_origin = Some(LoadOrigin::Predicted {
            predicted: 7,
            actual: 7,
        });
        e.verify_at = Some(50);
        assert!(e.is_unverified_prediction());
        assert!(!e.committable(10));
        e.verified = true;
        assert!(!e.committable(10), "verify_at still in the future");
        assert!(e.committable(50));
    }

    /// `SeqSet` against `BTreeSet<Seq>` on seeded operation streams:
    /// inserts in dispatch order, out of order and again; removes of
    /// members and non-members; truncation at, just below and just above
    /// a member; "any below" probes. Membership, in order, and a fresh
    /// "any below" probe are compared after every operation.
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
                match rng.gen_range(0u64..6) {
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
            }
            set.clear();
            assert!(set.as_slice().is_empty());
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
        e.src_tags[0] = Some(1);
        assert!(!e.operands_ready());
        e.src_tags[0] = None;
        e.operands[0] = Some(3);
        assert!(e.operands_ready());
    }
}
