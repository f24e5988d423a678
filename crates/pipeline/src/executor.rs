//! The cycle-accurate out-of-order execution engine, scheduled
//! event-driven.
//!
//! Each *simulated* cycle runs six phases in order:
//!
//! 1. **verify** — predicted loads whose miss data has arrived are
//!    checked; a mismatch squashes every younger instruction and refetches
//!    (the "squash the pipeline / squash and reissue" arrow of Figure 1);
//! 2. **complete** — instructions whose latency elapsed become `Done`;
//!    branches redirect fetch; unpredicted miss loads train the VPS;
//! 3. **wakeup** — completed results are broadcast to waiting consumers;
//! 4. **issue** — ready instructions begin execution (loads access the
//!    memory hierarchy and, on an L1 miss, consult the VPS);
//! 5. **dispatch** — fetch fills the ROB (branches stall fetch until they
//!    resolve; `fence` waits for a drained ROB);
//! 6. **commit** — in-order retirement performs stores and flushes,
//!    releases D-type deferred fills, and records `rdtsc` observations.
//!
//! The scheduler, however, does **not** tick every cycle. A cycle on
//! which no phase has anything to do is *provably* a no-op: every
//! cycle-dependent condition in the six phases compares the clock
//! against one of four timer classes — an executing instruction's
//! `done_at`, a predicted load's `verify_at`, `fetch_stall_until`, or
//! `commit_stall_until` — and everything else is a pure function of
//! machine state that only the phases themselves mutate. So whenever a
//! full phase sweep performs zero work, the executor jumps the clock
//! straight to the earliest pending timer (see [`DESIGN.md` §10] for the
//! invariant argument). Long DRAM-miss stalls collapse from thousands of
//! idle sweeps into a single jump while remaining **cycle-for-cycle
//! identical** to the tick-by-tick schedule — the golden-trace suite in
//! `crates/bench/tests/golden_equivalence.rs` holds the executor to
//! bit-identical results.
//!
//! Within a ticked cycle, the phases run on indexed structures instead
//! of rescanning the whole ROB:
//!
//! * a queue of **completion events** keyed `(done_at, seq)` drives the
//!   complete phase, and one of **verification events** keyed
//!   `(verify_at, seq)` the verify phase (each an [`EventQueue`]: a
//!   short sorted vector whose earliest event is last);
//! * a **consumer index** of `(producer, consumer)` registrations,
//!   sorted by producer, routes each wakeup broadcast to exactly the
//!   instructions that asked for it;
//! * a **ready queue** (a sorted [`SeqSet`] of issuable seqs) feeds the
//!   issue phase oldest-first, walked in place;
//! * a **store index** (a [`SeqSet`] of in-flight stores) gives
//!   store-to-load forwarding the older stores without a ROB scan;
//! * a load that owes the VPS a training update carries a flag on its
//!   ROB entry.
//!
//! These live in an [`ExecState`] the [`Machine`](crate::Machine) owns
//! and every run borrows, so a warm run reuses their allocations; a run
//! clears it first, so nothing a previous run left (an error exit or an
//! unwound panic included) reaches the next. A ROB lookup by seq
//! ([`rob_pos`]) is O(1) unless a squash gap lies between the entry and
//! the tail. The ROB entry itself ([`DynInst`]) is compact: dispatch
//! and commit copy it, so its optional fields are plain values behind
//! validity bits.
//!
//! Queued events invalidated by a squash are discarded lazily: a due
//! event is popped first and then checked against the live ROB entry.
//! Seqs are never reused within a run, so a stale event can never alias
//! a live one.

use std::collections::VecDeque;

use vpsim_chaos::{PipeChaos, PredChaos};
use vpsim_isa::{Inst, Pc, Program, RegFile, NUM_REGS};
use vpsim_mem::{Cycles, MemoryHierarchy};
use vpsim_obs::{TraceEvent, TraceSink};
use vpsim_predictor::{LoadContext, ValuePredictor};

use crate::cancel::CancelToken;
use crate::chaos;
use crate::config::CoreConfig;
use crate::dyninst::{DynInst, EventQueue, LoadOrigin, Seq, SeqSet, Status};
use crate::result::{CommitEvent, RunError, RunResult, RunStats, SchedStats};

/// Scheduler ticks between cancellation-point checks, minus one. The
/// check is a pure atomic read — it cannot change any simulation state
/// — so the mask only amortises its cost; any value keeps supervised
/// untripped runs bit-identical to unsupervised ones.
const CANCEL_CHECK_MASK: u64 = 1024 - 1;

/// The rename table's "no in-flight producer" entry: the register's
/// value is in the register file. Seqs count dispatches from zero, so
/// no run reaches it.
const NO_PRODUCER: Seq = Seq::MAX;

/// The executor's ROB, phase indices and per-tick scratch buffers: the
/// state that needs heap memory. The [`Machine`](crate::Machine) owns
/// one and lends it to every run, which [clears](ExecState::clear) it
/// first, so warm runs reuse its allocations.
#[derive(Debug, Default)]
pub(crate) struct ExecState {
    /// In-flight instructions, oldest first; seqs strictly increase.
    rob: VecDeque<DynInst>,
    /// Completion events `(done_at, seq)`; lazily invalidated.
    completions: EventQueue,
    /// Verification events `(verify_at, seq)`; lazily invalidated.
    verifications: EventQueue,
    /// `(producer, consumer)`: a consumer waiting on a producer's result
    /// broadcast, sorted, so each producer's consumers are one range.
    consumers: Vec<(Seq, Seq)>,
    /// Results that became available this cycle, in completion order.
    pending_wakeup: Vec<(Seq, u64)>,
    /// Waiting entries whose operands are all ready, oldest first.
    ready: SeqSet,
    /// Seqs of in-flight loads carrying an unverified prediction (the
    /// D-type shadow test asks for "any unverified prediction older
    /// than seq").
    unverified: SeqSet,
    /// Stores whose address is still unknown (not yet issued). Loads
    /// cannot issue past them.
    unissued_stores: SeqSet,
    /// Every in-flight store, the forwarding candidates of a load.
    stores: SeqSet,
    /// Flushes anywhere in the ROB (they block younger loads from
    /// issuing until commit).
    flushes_in_rob: SeqSet,
    /// Complete-phase scratch: VPS trainings owed, in completion order.
    trains: Vec<(LoadContext, u64)>,
}

impl ExecState {
    /// Empty every field, keeping the allocations.
    fn clear(&mut self) {
        self.rob.clear();
        self.completions.clear();
        self.verifications.clear();
        self.consumers.clear();
        self.pending_wakeup.clear();
        self.ready.clear();
        self.unverified.clear();
        self.unissued_stores.clear();
        self.stores.clear();
        self.flushes_in_rob.clear();
        self.trains.clear();
    }
}

/// ROB position of `seq`, if still in flight. Seqs increase along the
/// ROB and are never reused, and everything dispatched since the last
/// squash sits contiguously at the tail, so the tail-anchored slot
/// `len - 1 - (back.seq - seq)` holds `seq` unless a squash gap lies
/// between them; only then does the lookup binary-search.
fn rob_pos(rob: &VecDeque<DynInst>, seq: Seq) -> Option<usize> {
    let from_back = rob.back()?.seq.checked_sub(seq)?;
    if let Some(slot) = (rob.len() as u64 - 1).checked_sub(from_back) {
        if rob[slot as usize].seq == seq {
            return Some(slot as usize);
        }
    }
    let pos = rob.partition_point(|e| e.seq < seq);
    (pos < rob.len() && rob[pos].seq == seq).then_some(pos)
}

pub(crate) struct Executor<'a> {
    config: CoreConfig,
    program: &'a Program,
    pid: u32,
    mem: &'a mut MemoryHierarchy,
    vp: &'a mut dyn ValuePredictor,
    state: &'a mut ExecState,
    /// Each register's youngest in-flight producer, or [`NO_PRODUCER`].
    rat: [Seq; NUM_REGS],
    regs: RegFile,
    fetch_pc: Pc,
    fetch_stall_until: Cycles,
    commit_stall_until: Cycles,
    next_seq: Seq,
    cycle: Cycles,
    halted: bool,
    rdtsc_values: Vec<u64>,
    stats: RunStats,
    sched: SchedStats,
    trace: Vec<CommitEvent>,
    /// Work performed in the current phase sweep; zero means the machine
    /// is quiescent and the clock may jump to the next timer.
    work_this_cycle: u64,
    /// Fetched-but-uncommitted `halt`s (fetch stalls behind them).
    halts_in_flight: usize,
    /// Dispatched-but-unresolved branches (stall-mode fetch gate).
    unresolved_branches: usize,
    /// The pipeline-side fault injector (spurious squashes), when a
    /// noise plane is installed. Draws once per committed instruction,
    /// a point the cycle-skipping scheduler reaches identically on
    /// every schedule, so chaos runs stay bit-reproducible.
    chaos: Option<&'a mut PipeChaos>,
    /// The predictor-side fault injector (entry decay, value flips,
    /// dropped trainings), drawn at the three predictor call sites. Its
    /// lookup draws follow the stack's `lookup`, so the stack's state
    /// and statistics evolve as they would without it.
    pred_chaos: Option<&'a mut PredChaos>,
    /// Cooperative kill flag, polled every `CANCEL_CHECK_MASK + 1`
    /// scheduler ticks at the loop boundary (never mid-phase).
    cancel: Option<&'a CancelToken>,
    /// Event-trace sink. `None` (the default) keeps every emission site
    /// down to a single branch, so untraced runs stay bit-identical to
    /// (and as fast as) a build without tracing.
    tracer: Option<&'a mut dyn TraceSink>,
}

impl<'a> Executor<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: CoreConfig,
        program: &'a Program,
        pid: u32,
        mem: &'a mut MemoryHierarchy,
        vp: &'a mut dyn ValuePredictor,
        state: &'a mut ExecState,
        chaos: Option<&'a mut PipeChaos>,
        pred_chaos: Option<&'a mut PredChaos>,
        cancel: Option<&'a CancelToken>,
        tracer: Option<&'a mut dyn TraceSink>,
    ) -> Executor<'a> {
        if let Err(e) = config.validate() {
            panic!("invalid core configuration: {e}");
        }
        state.clear();
        Executor {
            config,
            program,
            pid,
            mem,
            vp,
            state,
            rat: [NO_PRODUCER; NUM_REGS],
            regs: RegFile::new(),
            fetch_pc: Pc(0),
            fetch_stall_until: 0,
            commit_stall_until: 0,
            next_seq: 0,
            cycle: 0,
            halted: false,
            rdtsc_values: Vec::new(),
            stats: RunStats::default(),
            sched: SchedStats::default(),
            trace: Vec::new(),
            work_this_cycle: 0,
            halts_in_flight: 0,
            unresolved_branches: 0,
            chaos,
            pred_chaos,
            cancel,
            tracer,
        }
    }

    /// Record one event at the current cycle, when a tracer is attached.
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.tracer.as_deref_mut() {
            sink.record(self.cycle, event);
        }
    }

    /// Train the stack, unless predictor chaos drops the update, and
    /// record a `train` event for an update that reached it.
    fn train(&mut self, ctx: &LoadContext, actual: u64, prediction: Option<u64>) {
        let chaos = self.pred_chaos.as_deref_mut();
        let event = match chaos::train(&mut *self.vp, chaos, ctx, actual, prediction) {
            Some(fault) => fault,
            None => TraceEvent::Train {
                pc: ctx.pc,
                value: actual,
            },
        };
        self.emit(event);
    }

    pub(crate) fn run(mut self) -> Result<RunResult, RunError> {
        while !self.halted {
            if self.sched.ticks & CANCEL_CHECK_MASK == 0 {
                if let Some(token) = self.cancel {
                    if token.is_cancelled() {
                        return Err(RunError::Cancelled {
                            at_cycle: self.cycle,
                        });
                    }
                }
            }
            if self.cycle >= self.config.max_cycles {
                return Err(RunError::CycleLimitExceeded {
                    limit: self.config.max_cycles,
                });
            }
            self.work_this_cycle = 0;
            self.verify_predictions();
            self.complete();
            self.wakeup();
            self.issue();
            self.dispatch()?;
            self.commit();
            if let Some(sink) = self.tracer.as_deref_mut() {
                self.mem.drain_trace(self.cycle, sink);
            }
            self.sched.ticks += 1;
            if self.work_this_cycle > 0 || self.halted {
                self.cycle += 1;
            } else {
                // Quiescent: nothing can change until the next timer
                // fires. Jump straight to it (capped at max_cycles so a
                // deadlocked machine still reports CycleLimitExceeded at
                // the same point the tick-by-tick schedule would).
                let target = self.next_event();
                self.sched.skipped_cycles += target - self.cycle - 1;
                self.cycle = target;
            }
        }
        Ok(RunResult {
            cycles: self.cycle,
            regs: self.regs,
            rdtsc_values: self.rdtsc_values,
            stats: self.stats,
            trace: self.trace,
            sched: self.sched,
        })
    }

    fn ctx_for(&self, pc: Pc, addr: u64) -> LoadContext {
        LoadContext {
            pc: pc.byte_addr(),
            addr,
            pid: self.pid,
        }
    }

    // ------------------------------------------------------------------
    // The next-event clock.
    // ------------------------------------------------------------------

    /// Earliest upcoming cycle at which any phase could perform work:
    /// the minimum over all live completion and verification events,
    /// the fetch- and commit-stall releases, capped at `max_cycles`.
    /// Only meaningful (and only called) when the current cycle was
    /// quiescent, so every live timer is strictly in the future.
    fn next_event(&mut self) -> Cycles {
        let mut next = self.config.max_cycles;
        if let Some(t) = self.peek_completion() {
            next = next.min(t);
        }
        if let Some(t) = self.peek_verification() {
            next = next.min(t);
        }
        if self.fetch_stall_until > self.cycle {
            next = next.min(self.fetch_stall_until);
        }
        if self.commit_stall_until > self.cycle {
            next = next.min(self.commit_stall_until);
        }
        // Guaranteed by the quiescence argument; the clamp is defensive
        // (a jump of one cycle is always safe, merely slower).
        next.max(self.cycle + 1)
    }

    /// ROB position of a completion event's entry, if the event still
    /// refers to a live executing entry.
    fn live_completion(&self, (t, seq): (Cycles, Seq)) -> Option<usize> {
        rob_pos(&self.state.rob, seq).filter(|&p| {
            let e = &self.state.rob[p];
            e.status == Status::Executing && e.done_at() == Some(t)
        })
    }

    /// ROB position of a verification event's entry, if the event still
    /// refers to an unverified predicted load.
    fn live_verification(&self, (t, seq): (Cycles, Seq)) -> Option<usize> {
        rob_pos(&self.state.rob, seq).filter(|&p| {
            let e = &self.state.rob[p];
            e.is_unverified_prediction() && e.verify_at() == Some(t)
        })
    }

    /// Time of the earliest live completion event, discarding stale ones.
    fn peek_completion(&mut self) -> Option<Cycles> {
        while let Some(event) = self.state.completions.peek() {
            if self.live_completion(event).is_some() {
                return Some(event.0);
            }
            self.state.completions.pop();
        }
        None
    }

    /// Time of the earliest live verification event, discarding stale
    /// ones.
    fn peek_verification(&mut self) -> Option<Cycles> {
        while let Some(event) = self.state.verifications.peek() {
            if self.live_verification(event).is_some() {
                return Some(event.0);
            }
            self.state.verifications.pop();
        }
        None
    }

    /// Pop the oldest live completion event due at the current cycle:
    /// its seq and ROB position. The due time is compared first, so a
    /// cycle with nothing due costs one peek.
    fn pop_due_completion(&mut self) -> Option<(Seq, usize)> {
        while let Some(event) = self.state.completions.peek() {
            if event.0 > self.cycle {
                return None;
            }
            self.state.completions.pop();
            if let Some(pos) = self.live_completion(event) {
                return Some((event.1, pos));
            }
        }
        None
    }

    /// Pop the oldest live verification event due at the current cycle:
    /// its seq and ROB position.
    fn pop_due_verification(&mut self) -> Option<(Seq, usize)> {
        while let Some(event) = self.state.verifications.peek() {
            if event.0 > self.cycle {
                return None;
            }
            self.state.verifications.pop();
            if let Some(pos) = self.live_verification(event) {
                return Some((event.1, pos));
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Phase 1: prediction verification (and misprediction squash).
    // ------------------------------------------------------------------

    fn verify_predictions(&mut self) {
        // Events share one due cycle (a prediction is verified the cycle
        // its data arrives), so queue order == ROB order among due events.
        while let Some((seq, pos)) = self.pop_due_verification() {
            self.work_this_cycle += 1;
            self.sched.verify_events += 1;
            let e = &self.state.rob[pos];
            let addr = e.addr().expect("predicted load has an address");
            // Until verification a predicted load's result is the
            // predicted value.
            let predicted = e.result().expect("predicted load has its predicted value");
            let (pc, actual) = (e.pc, e.actual);
            let ctx = self.ctx_for(pc, addr);
            self.train(&ctx, actual, Some(predicted));
            self.state.rob[pos].verified = true;
            self.state.unverified.remove(seq);
            if predicted == actual {
                self.stats.correct_predictions += 1;
                continue;
            }
            // Misprediction: fix the value, squash everything younger,
            // refetch after the squash penalty (Figure 1: "incorrect →
            // squash the pipeline").
            if self.tracer.is_some() {
                self.emit(TraceEvent::Mispredict {
                    seq,
                    pc: ctx.pc,
                    predicted,
                    actual,
                });
            }
            self.stats.mispredictions += 1;
            self.stats.squashes += 1;
            let e = &mut self.state.rob[pos];
            e.set_result(actual);
            e.set_done_at(self.cycle);
            self.squash_younger_than(seq, None);
        }
    }

    /// Discard every instruction younger than `seq` and refetch.
    /// `redirect` overrides the refetch PC (branch mispredictions resume
    /// at the branch's true target; value mispredictions refetch the
    /// squashed path itself).
    fn squash_younger_than(&mut self, seq: Seq, redirect: Option<Pc>) {
        let rob = &mut self.state.rob;
        let keep = rob.partition_point(|e| e.seq <= seq);
        let first_squashed_pc = rob.get(keep).map(|e| e.pc);
        let discarded_fills = rob.range(keep..).filter(|e| e.deferred_fill).count() as u64;
        let squashed = (rob.len() - keep) as u64;
        rob.truncate(keep);
        if self.tracer.is_some() {
            self.emit(TraceEvent::Squash {
                after_seq: seq,
                discarded: squashed,
            });
        }
        self.stats.squashed_insts += squashed;
        self.stats.deferred_fills_discarded += discarded_fills;
        // Purge squashed seqs from the phase indices; heap events decay
        // lazily. A consumer is younger than its producer, so dropping
        // squashed consumers drops squashed producers' registrations too.
        self.state
            .consumers
            .retain(|&(_, consumer)| consumer <= seq);
        self.state.ready.truncate_after(seq);
        self.state.unverified.truncate_after(seq);
        self.state.unissued_stores.truncate_after(seq);
        self.state.stores.truncate_after(seq);
        self.state.flushes_in_rob.truncate_after(seq);
        self.halts_in_flight = self
            .state
            .rob
            .iter()
            .filter(|e| matches!(e.inst, Inst::Halt))
            .count();
        self.unresolved_branches = self
            .state
            .rob
            .iter()
            .filter(|e| matches!(e.inst, Inst::Branch { .. }) && e.status != Status::Done)
            .count();
        // Roll the rename table back to the surviving producers.
        self.rat = [NO_PRODUCER; NUM_REGS];
        for e in &self.state.rob {
            if let Some(rd) = e.inst.dest() {
                self.rat[rd.index()] = e.seq;
            }
        }
        match redirect {
            Some(target) => self.fetch_pc = target,
            None => {
                if let Some(pc) = first_squashed_pc {
                    self.fetch_pc = pc;
                }
            }
        }
        self.fetch_stall_until = self.cycle + self.config.squash_penalty;
    }

    // ------------------------------------------------------------------
    // Phase 2: execution completion.
    // ------------------------------------------------------------------

    fn complete(&mut self) {
        // Due events pop in (cycle, seq) order; all due events share the
        // current cycle, so this is ROB (program) order, exactly the
        // order the tick-by-tick scan processed them in. A mispredicted
        // branch squashes every younger entry; their events go stale and
        // the drain loop discards them.
        while let Some((seq, pos)) = self.pop_due_completion() {
            self.work_this_cycle += 1;
            self.sched.completion_events += 1;
            let e = &mut self.state.rob[pos];
            e.status = Status::Done;
            if e.pending_train {
                let ctx = LoadContext {
                    pc: e.pc.byte_addr(),
                    addr: e.addr().expect("issued load has an address"),
                    pid: self.pid,
                };
                let actual = e.result().expect("completed load has its value");
                self.state.trains.push((ctx, actual));
            }
            if e.inst.dest().is_some() {
                self.state
                    .pending_wakeup
                    .push((seq, e.result().expect("completed instruction has a result")));
            }
            if let Inst::Branch { .. } = e.inst {
                let actual = e.redirect().expect("resolved branch has a redirect");
                if self.config.branch_prediction {
                    if e.predicted_next() != Some(actual) {
                        // Direction misprediction: discard the wrong
                        // path and resume at the true target.
                        self.stats.branch_mispredictions += 1;
                        self.squash_younger_than(seq, Some(actual));
                        continue;
                    }
                } else {
                    // Stall-mode front-end: fetch waited for this branch;
                    // at most one is in flight.
                    self.fetch_pc = actual;
                    self.unresolved_branches -= 1;
                }
            }
        }
        for i in 0..self.state.trains.len() {
            let (ctx, actual) = self.state.trains[i];
            self.train(&ctx, actual, None);
        }
        self.state.trains.clear();
    }

    // ------------------------------------------------------------------
    // Phase 3: wakeup (result broadcast).
    // ------------------------------------------------------------------

    fn wakeup(&mut self) {
        let state = &mut *self.state;
        if state.consumers.is_empty() {
            state.pending_wakeup.clear();
            return;
        }
        // Each producer that broadcast this cycle hands its value to its
        // range of registrations, which is then dropped. Squashes purge
        // squashed consumers, so every one is in the ROB.
        for &(producer, value) in &state.pending_wakeup {
            let from = state.consumers.partition_point(|&(p, _)| p < producer);
            let len = state.consumers[from..]
                .iter()
                .take_while(|&&(p, _)| p == producer)
                .count();
            if len == 0 {
                continue;
            }
            for &(_, consumer) in &state.consumers[from..from + len] {
                let pos =
                    rob_pos(&state.rob, consumer).expect("registered consumers are in the ROB");
                let e = &mut state.rob[pos];
                for i in 0..2 {
                    if e.src_tag(i) == Some(producer) {
                        e.set_operand(i, value);
                        self.work_this_cycle += 1;
                        self.sched.wakeup_broadcasts += 1;
                    }
                }
                if e.status == Status::Waiting && e.operands_ready() {
                    state.ready.insert(consumer);
                }
            }
            state.consumers.drain(from..from + len);
        }
        state.pending_wakeup.clear();
    }

    // ------------------------------------------------------------------
    // Phase 4: issue.
    // ------------------------------------------------------------------

    fn issue(&mut self) {
        let mut issued = 0;
        // The ready queue iterates oldest-first, mirroring the seed
        // executor's ascending ROB scan. Entries that fail their issue
        // check (blocked loads, a non-head rdtsc) stay queued and are
        // retried on the next ticked cycle. Issuing never adds to the
        // queue, so the walk removes issued entries in place.
        let mut at = 0;
        while issued < self.config.issue_width {
            let Some(&seq) = self.state.ready.as_slice().get(at) else {
                break;
            };
            let pos = rob_pos(&self.state.rob, seq).expect("ready entries are in the ROB");
            let inst = self.state.rob[pos].inst;
            let ok = match inst {
                Inst::Rdtsc { .. } => self.issue_rdtsc(pos),
                Inst::Load { .. } => self.issue_load(pos),
                Inst::Store { .. } => self.issue_store(pos),
                Inst::Flush { .. } => self.issue_flush(pos),
                Inst::Branch { .. } => self.issue_branch(pos),
                Inst::Alu { .. } | Inst::Addi { .. } | Inst::Li { .. } | Inst::Nop => {
                    self.issue_alu(pos)
                }
                // Fence/Halt/Jump are finished at dispatch and never
                // enter the ready queue.
                Inst::Fence | Inst::Halt | Inst::Jump { .. } => {
                    unreachable!("dispatch-completed instruction in the ready queue")
                }
            };
            if !ok {
                at += 1;
                continue;
            }
            issued += 1;
            self.state.ready.remove_at(at);
            self.work_this_cycle += 1;
            self.sched.issue_slots += 1;
            let e = &self.state.rob[pos];
            debug_assert_eq!(e.status, Status::Executing);
            let pc = e.pc;
            let done_at = e.done_at().expect("issued with a latency");
            self.state.completions.push((done_at, seq));
            if self.tracer.is_some() {
                self.emit(TraceEvent::Issue { seq, pc: pc.0 });
            }
        }
    }

    fn issue_alu(&mut self, idx: usize) -> bool {
        let e = &mut self.state.rob[idx];
        let (result, latency) = match e.inst {
            Inst::Nop => (0, self.config.alu_latency),
            Inst::Li { imm, .. } => (imm, self.config.alu_latency),
            Inst::Addi { imm, .. } => (
                e.operand(0)
                    .expect("ready operand")
                    .wrapping_add(imm as u64),
                self.config.alu_latency,
            ),
            Inst::Alu { op, .. } => {
                let a = e.operand(0).expect("ready operand");
                let b = e.operand(1).expect("ready operand");
                let lat = if matches!(op, vpsim_isa::AluOp::Mul) {
                    self.config.mul_latency
                } else {
                    self.config.alu_latency
                };
                (op.eval(a, b), lat)
            }
            _ => unreachable!("issue_alu on non-ALU instruction"),
        };
        e.status = Status::Executing;
        e.set_result(result);
        e.set_done_at(self.cycle + latency);
        true
    }

    fn issue_branch(&mut self, idx: usize) -> bool {
        let e = &mut self.state.rob[idx];
        let Inst::Branch { cond, target, .. } = e.inst else {
            unreachable!()
        };
        let a = e.operand(0).expect("ready operand");
        let b = e.operand(1).expect("ready operand");
        let taken = cond.eval(a, b);
        e.set_redirect(if taken { target } else { e.pc.next() });
        e.set_result(u64::from(taken));
        e.status = Status::Executing;
        e.set_done_at(self.cycle + self.config.alu_latency);
        true
    }

    fn issue_rdtsc(&mut self, idx: usize) -> bool {
        // Serialising: executes only as the oldest instruction, so the
        // reading orders after every earlier instruction (rdtscp-like).
        if idx != 0 {
            return false;
        }
        let e = &mut self.state.rob[idx];
        e.set_result(self.cycle);
        e.status = Status::Executing;
        e.set_done_at(self.cycle + 1);
        true
    }

    fn issue_store(&mut self, idx: usize) -> bool {
        let e = &mut self.state.rob[idx];
        let Inst::Store { offset, .. } = e.inst else {
            unreachable!()
        };
        let base = e.operand(0).expect("ready operand");
        e.set_addr(base.wrapping_add(offset as u64));
        e.set_result(e.operand(1).expect("ready operand"));
        e.status = Status::Executing;
        e.set_done_at(self.cycle + self.config.alu_latency);
        self.state.unissued_stores.remove(self.state.rob[idx].seq);
        true
    }

    fn issue_flush(&mut self, idx: usize) -> bool {
        let e = &mut self.state.rob[idx];
        let Inst::Flush { offset, .. } = e.inst else {
            unreachable!()
        };
        let base = e.operand(0).expect("ready operand");
        e.set_addr(base.wrapping_add(offset as u64));
        e.status = Status::Executing;
        e.set_result(0);
        e.set_done_at(self.cycle + self.config.alu_latency);
        true
    }

    fn issue_load(&mut self, idx: usize) -> bool {
        let seq = self.state.rob[idx].seq;
        // Memory ordering: wait until every older store knows its address
        // and no older flush is still in flight (flushes order younger
        // loads so that attack code like `flush(x); r = x` reliably
        // misses, as the PoCs require). Both conditions read the oldest
        // member of a seq set — no ROB scan on the retry path.
        if self.state.unissued_stores.any_below(seq) || self.state.flushes_in_rob.any_below(seq) {
            return false;
        }
        let Inst::Load { offset, .. } = self.state.rob[idx].inst else {
            unreachable!()
        };
        let base = self.state.rob[idx].operand(0).expect("ready operand");
        let addr = base.wrapping_add(offset as u64);
        let pc = self.state.rob[idx].pc;
        // Store-to-load forwarding from the youngest older matching store.
        // Every older store has issued (checked above), so each has its
        // address and value.
        let rob = &self.state.rob;
        let forwarded = self
            .state
            .stores
            .below(seq)
            .iter()
            .rev()
            .find_map(|&store| {
                let e = &rob[rob_pos(rob, store).expect("in-flight stores are in the ROB")];
                (e.addr() == Some(addr)).then(|| e.result().expect("issued store has its value"))
            });
        let e = &mut self.state.rob[idx];
        e.set_addr(addr);
        if let Some(value) = forwarded {
            e.set_result(value);
            e.status = Status::Executing;
            e.set_done_at(self.cycle + self.config.forward_latency);
            e.load_origin = Some(LoadOrigin::Forwarded);
            self.stats.forwarded_loads += 1;
            return true;
        }
        // D-type shadow: an older load with an unverified prediction makes
        // this access speculative; suppress its cache fill until commit.
        let shadowed = self.config.delay_side_effects && self.state.unverified.any_below(seq);
        let outcome = if shadowed {
            self.mem.read_no_fill(addr)
        } else {
            self.mem.read(addr)
        };
        let e = &mut self.state.rob[idx];
        e.deferred_fill = shadowed;
        e.status = Status::Executing;
        if !outcome.is_l1_miss() {
            // L1 hit: the load-based VPS is not consulted (paper §II).
            e.set_result(outcome.value);
            e.set_done_at(self.cycle + outcome.latency);
            e.load_origin = Some(LoadOrigin::Memory);
            return true;
        }
        // L1 miss: consult the Value Prediction System.
        self.stats.vps_lookups += 1;
        let ctx = self.ctx_for(pc, addr);
        let l1_hit_latency = self.mem.config().l1.hit_latency;
        let (prediction, fault) =
            chaos::lookup(&mut *self.vp, self.pred_chaos.as_deref_mut(), &ctx);
        if let Some(fault) = fault {
            self.emit(fault);
        }
        let e = &mut self.state.rob[idx];
        match prediction {
            Some(p) => {
                // Forward the speculative value at hit-like latency while
                // the real miss completes in the background.
                e.set_result(p.value);
                e.set_done_at(self.cycle + l1_hit_latency);
                let verify_at = self.cycle + outcome.latency;
                e.set_verify_at(verify_at);
                e.load_origin = Some(LoadOrigin::Predicted);
                e.actual = outcome.value;
                self.stats.predicted_loads += 1;
                self.state.verifications.push((verify_at, seq));
                self.state.unverified.insert(seq);
                if self.tracer.is_some() {
                    self.emit(TraceEvent::Predict {
                        seq,
                        pc: ctx.pc,
                        value: p.value,
                        confidence: p.confidence,
                    });
                }
            }
            None => {
                e.set_result(outcome.value);
                e.set_done_at(self.cycle + outcome.latency);
                e.load_origin = Some(LoadOrigin::Memory);
                // Train once the data arrives (complete phase).
                e.pending_train = true;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Phase 5: fetch/dispatch.
    // ------------------------------------------------------------------

    fn dispatch(&mut self) -> Result<(), RunError> {
        for _ in 0..self.config.fetch_width {
            if self.cycle < self.fetch_stall_until {
                return Ok(());
            }
            if self.state.rob.len() >= self.config.rob_entries {
                return Ok(());
            }
            // Fetch stalls behind a fetched halt, and — without branch
            // prediction — behind unresolved branches.
            let blocked = self.halts_in_flight > 0
                || (!self.config.branch_prediction && self.unresolved_branches > 0);
            if blocked {
                return Ok(());
            }
            let Some(inst) = self.program.fetch(self.fetch_pc) else {
                return Err(RunError::FetchPastEnd {
                    pc: self.fetch_pc.0,
                });
            };
            if matches!(inst, Inst::Fence) && !self.state.rob.is_empty() {
                return Ok(());
            }
            let mut e = DynInst::new(self.next_seq, self.fetch_pc, inst);
            self.next_seq += 1;
            // Capture operands through the rename table.
            for (i, src) in inst.sources().into_iter().enumerate() {
                let Some(r) = src else { continue };
                let tag = self.rat[r.index()];
                if tag == NO_PRODUCER {
                    e.set_operand(i, self.regs.read(r));
                    continue;
                }
                let pos = rob_pos(&self.state.rob, tag).expect("RAT points at a live producer");
                let producer = &self.state.rob[pos];
                if producer.result_available(self.cycle) {
                    e.set_operand(i, producer.result().expect("available result"));
                } else {
                    e.set_src_tag(i, tag);
                    // The youngest consumer yet: last of its producer's range.
                    let consumers = &mut self.state.consumers;
                    let at = consumers.partition_point(|&(p, _)| p <= tag);
                    consumers.insert(at, (tag, e.seq));
                }
            }
            if let Some(rd) = inst.dest() {
                self.rat[rd.index()] = e.seq;
            }
            match inst {
                Inst::Fence | Inst::Halt => {
                    // Complete immediately (fence required an empty ROB).
                    e.status = Status::Done;
                    e.set_result(0);
                    e.set_done_at(self.cycle);
                    if matches!(inst, Inst::Halt) {
                        self.halts_in_flight += 1;
                    }
                    self.fetch_pc = self.fetch_pc.next();
                }
                Inst::Jump { target } => {
                    e.status = Status::Done;
                    e.set_result(0);
                    e.set_done_at(self.cycle);
                    self.fetch_pc = target;
                }
                Inst::Branch { target, .. } if self.config.branch_prediction => {
                    // Static BTFN: predict backward branches taken
                    // (loops) and forward branches not taken.
                    let predicted = if target.0 <= e.pc.0 {
                        target
                    } else {
                        e.pc.next()
                    };
                    e.set_predicted_next(predicted);
                    self.fetch_pc = predicted;
                }
                Inst::Branch { .. } => {
                    self.unresolved_branches += 1;
                    self.fetch_pc = self.fetch_pc.next();
                }
                _ => {
                    self.fetch_pc = self.fetch_pc.next();
                }
            }
            match inst {
                Inst::Store { .. } => {
                    self.state.unissued_stores.insert(e.seq);
                    self.state.stores.insert(e.seq);
                }
                Inst::Flush { .. } => {
                    self.state.flushes_in_rob.insert(e.seq);
                }
                _ => {}
            }
            if e.status == Status::Waiting && e.operands_ready() {
                self.state.ready.insert(e.seq);
            }
            self.work_this_cycle += 1;
            self.sched.dispatched += 1;
            if self.tracer.is_some() {
                self.emit(TraceEvent::Fetch {
                    seq: e.seq,
                    pc: e.pc.0,
                });
            }
            self.state.rob.push_back(e);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Phase 6: commit.
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.config.commit_width {
            if self.cycle < self.commit_stall_until {
                return;
            }
            let Some(head) = self.state.rob.front() else {
                return;
            };
            if !head.committable(self.cycle) {
                return;
            }
            let e = self.state.rob.pop_front().expect("head exists");
            self.work_this_cycle += 1;
            self.stats.committed += 1;
            if self.tracer.is_some() {
                self.emit(TraceEvent::Commit {
                    seq: e.seq,
                    pc: e.pc.0,
                });
            }
            if self.config.record_commit_trace {
                self.trace.push(CommitEvent {
                    cycle: self.cycle,
                    pc: e.pc,
                    inst: e.inst,
                    result: e.inst.dest().and(e.result()),
                });
            }
            match e.inst {
                Inst::Store { .. } => {
                    let addr = e.addr().expect("committed store has an address");
                    self.mem.write(addr, e.result().expect("store value"));
                    self.state.stores.remove(e.seq);
                }
                Inst::Flush { .. } => {
                    let addr = e.addr().expect("committed flush has an address");
                    let cost = self.mem.flush_line(addr);
                    self.commit_stall_until = self.cycle + cost;
                    self.state.flushes_in_rob.remove(e.seq);
                }
                Inst::Rdtsc { .. } => {
                    self.rdtsc_values.push(e.result().expect("rdtsc result"));
                }
                Inst::Load { .. } => {
                    self.stats.loads += 1;
                    if e.deferred_fill {
                        // D-type: the speculative access survived to
                        // commit; its cache fill becomes visible now.
                        self.mem.install(e.addr().expect("load address"));
                        self.stats.deferred_fills_released += 1;
                    }
                }
                Inst::Branch { .. } => {
                    self.stats.branches += 1;
                }
                Inst::Halt => {
                    self.halts_in_flight -= 1;
                    self.halted = true;
                    return;
                }
                _ => {}
            }
            if let Some(rd) = e.inst.dest() {
                self.regs.write(rd, e.result().expect("dest result"));
                if self.rat[rd.index()] == e.seq {
                    self.rat[rd.index()] = NO_PRODUCER;
                }
            }
            if let Some(ch) = self.chaos.as_deref_mut() {
                if ch.squash_fires() {
                    // Spurious squash (context-switch model): the commit
                    // survives — it is architectural — but every
                    // in-flight younger instruction is discarded and the
                    // front end stalls for the descheduled window on top
                    // of the ordinary squash penalty.
                    let penalty = ch.switch_penalty();
                    self.stats.squashes += 1;
                    self.squash_younger_than(e.seq, None);
                    self.fetch_stall_until += penalty;
                    return;
                }
            }
        }
    }
}
