//! The machine's memo of runs: a repeated run is replayed from the
//! answers its port calls get, without scheduling a cycle.
//!
//! An untraced run without injectors is a pure function of the core
//! configuration, the pid, the program and the sequence of answers its
//! [`Port`](crate::executor::Port) calls get (see [`crate::executor`]).
//! A machine's core configuration and its hierarchy's configuration
//! never change, so the memo keeps one tree per (pid, program). A node
//! is either the call the run makes next, or a leaf holding the run's
//! [`RunResult`]; the edge from a call to the next node carries one of
//! the call's answers. A replay starts at the root, performs each
//! node's call against the live hierarchy and predictor, and follows
//! the edge with the answer it got, so the hierarchy and the predictor
//! change exactly as the executor would change them. A leaf is a hit.
//! An answer with no edge is a miss: the executor then runs the program
//! from its first cycle with the calls already performed as its trail's
//! prefix, so no call is performed twice, and the memo grafts the calls
//! the executor performed after the prefix, and its result, onto the
//! tree. An edge compares an answer as an untraced run reads it: a
//! read's value, latency and serving level, a flush's cost, and a
//! lookup's predicted value, but not its confidence, which only a trace
//! event reports.
//!
//! Storage is four flat arrays: 32-byte nodes, one arena of words for
//! the calls' arguments and the leaves, the programs' instructions and
//! the roots. They are reserved at their caps on the first memoized run
//! and cleared together when a new path does not fit, so a memo never
//! allocates per node or leaf and never holds more than [`MEMO_BYTES`].
//! A leaf keeps the run's cycles, its 20 counters four to a word, only
//! the registers the program writes, and its `rdtsc` values. A run with
//! more than [`MAX_CALLS`] calls, or a counter past 16 bits, is executed
//! but not recorded. [`Machine::reset`] keeps the memo: it depends on
//! nothing the reset restores.
//!
//! [`Machine::reset`]: crate::Machine::reset

use vpsim_isa::{Inst, Program, Reg, RegFile, NUM_REGS};
use vpsim_mem::{AccessOutcome, MemoryHierarchy};
use vpsim_predictor::ValuePredictor;

use crate::executor::{Answer, Call};
use crate::result::{RunResult, RunStats, SchedStats};

/// Port calls a recorded run may make: a run that makes more is still
/// executed, but its trail stops recording and the memo skips it.
const MAX_CALLS: usize = 256;

/// Capacities of the four arrays.
const NODE_CAP: usize = 3 * 1024;
const WORD_CAP: usize = 16 * 1024;
const INST_CAP: usize = 512;
const ROOT_CAP: usize = 64;

/// A memo's bytes at its caps, its trail included.
const MEMO_BYTES: usize = NODE_CAP * size_of::<Node>()
    + WORD_CAP * size_of::<u64>()
    + INST_CAP * size_of::<Inst>()
    + ROOT_CAP * size_of::<Root>()
    + MAX_CALLS * size_of::<(Call, Answer)>();

const _: () = assert!(size_of::<Node>() <= 32);
const _: () = assert!(MEMO_BYTES <= 256 * 1024);
// A root's destination registers are one `u32` mask.
const _: () = assert!(NUM_REGS <= 32);

/// The end of a child or sibling list.
const NIL: u32 = u32::MAX;

/// A run's counters: the 13 of [`RunStats`], then the 7 of
/// [`SchedStats`]. A leaf packs them four to a word.
const COUNTERS: usize = 20;
const COUNTER_WORDS: usize = COUNTERS / 4;

/// A leaf's words besides its registers and `rdtsc` values: the cycles,
/// the counters and the number of `rdtsc` values.
const LEAF_WORDS: usize = 2 + COUNTER_WORDS;

/// An answer as an edge compares it: a tag (with a read's serving
/// level) and two words. That is the whole answer, except a
/// prediction's confidence: an untraced run reads only the predicted
/// value, and the confidence keeps rising as a warm entry trains.
type Key = (u8, u64, u64);

/// What a node does: finish with its leaf, or perform a call of this
/// kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Leaf,
    Read,
    ReadNoFill,
    Write,
    FlushLine,
    Install,
    Lookup,
    Train,
    TrainPredicted,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The [key](key) of the parent call's answer that leads here:
    /// `tag`, `a` and `b`; unused at a root.
    a: u64,
    b: u64,
    /// The word where the call's arguments, or the leaf, start.
    at: u32,
    /// First node after this call, or [`NIL`].
    child: u32,
    /// Next node after the parent's call, or [`NIL`].
    sibling: u32,
    tag: u8,
    step: Step,
}

/// One (pid, program) tree.
#[derive(Debug, Clone, Copy)]
struct Root {
    pid: u32,
    /// The program's instructions: `insts[start..start + len]`.
    start: u32,
    len: u32,
    /// The registers the program writes, one bit each.
    dests: u32,
    node: u32,
}

/// `answer` as an edge compares it.
fn key(answer: Answer) -> Key {
    match answer {
        Answer::Done => (0, 0, 0),
        Answer::Access(AccessOutcome {
            value,
            latency,
            level,
        }) => (1 + level as u8, value, latency),
        Answer::Cost(cost) => (4, cost, 0),
        Answer::Prediction(None) => (5, 0, 0),
        Answer::Prediction(Some(p)) => (6, p.value, 0),
    }
}

/// Append `call`'s arguments to `words`; the step that performs it.
fn push_call(words: &mut Vec<u64>, call: Call) -> Step {
    match call {
        Call::Read { addr, fill } => {
            words.push(addr);
            if fill {
                Step::Read
            } else {
                Step::ReadNoFill
            }
        }
        Call::Write { addr, value } => {
            words.extend_from_slice(&[addr, value]);
            Step::Write
        }
        Call::FlushLine { addr } => {
            words.push(addr);
            Step::FlushLine
        }
        Call::Install { addr } => {
            words.push(addr);
            Step::Install
        }
        Call::Lookup { pc, addr } => {
            words.extend_from_slice(&[pc, addr]);
            Step::Lookup
        }
        Call::Train {
            pc,
            addr,
            actual,
            prediction: None,
        } => {
            words.extend_from_slice(&[pc, addr, actual]);
            Step::Train
        }
        Call::Train {
            pc,
            addr,
            actual,
            prediction: Some(predicted),
        } => {
            words.extend_from_slice(&[pc, addr, actual, predicted]);
            Step::TrainPredicted
        }
    }
}

/// Words [`push_call`] appends for `call`.
fn call_words(call: &Call) -> usize {
    match call {
        Call::Read { .. } | Call::FlushLine { .. } | Call::Install { .. } => 1,
        Call::Write { .. } | Call::Lookup { .. } => 2,
        Call::Train {
            prediction: None, ..
        } => 3,
        Call::Train { .. } => 4,
    }
}

/// The call a `step` performs, its arguments read from `w`; `None` for
/// a leaf.
fn call_at(step: Step, w: &[u64]) -> Option<Call> {
    Some(match step {
        Step::Leaf => return None,
        Step::Read => Call::Read {
            addr: w[0],
            fill: true,
        },
        Step::ReadNoFill => Call::Read {
            addr: w[0],
            fill: false,
        },
        Step::Write => Call::Write {
            addr: w[0],
            value: w[1],
        },
        Step::FlushLine => Call::FlushLine { addr: w[0] },
        Step::Install => Call::Install { addr: w[0] },
        Step::Lookup => Call::Lookup {
            pc: w[0],
            addr: w[1],
        },
        Step::Train => Call::Train {
            pc: w[0],
            addr: w[1],
            actual: w[2],
            prediction: None,
        },
        Step::TrainPredicted => Call::Train {
            pc: w[0],
            addr: w[1],
            actual: w[2],
            prediction: Some(w[3]),
        },
    })
}

/// `result`'s counters, in [`COUNTERS`] order.
fn counters(result: &RunResult) -> [u64; COUNTERS] {
    let RunStats {
        committed,
        loads,
        vps_lookups,
        predicted_loads,
        correct_predictions,
        mispredictions,
        squashes,
        squashed_insts,
        forwarded_loads,
        branches,
        branch_mispredictions,
        deferred_fills_released,
        deferred_fills_discarded,
    } = result.stats;
    let SchedStats {
        ticks,
        skipped_cycles,
        completion_events,
        wakeup_broadcasts,
        verify_events,
        issue_slots,
        dispatched,
    } = result.sched;
    [
        committed,
        loads,
        vps_lookups,
        predicted_loads,
        correct_predictions,
        mispredictions,
        squashes,
        squashed_insts,
        forwarded_loads,
        branches,
        branch_mispredictions,
        deferred_fills_released,
        deferred_fills_discarded,
        ticks,
        skipped_cycles,
        completion_events,
        wakeup_broadcasts,
        verify_events,
        issue_slots,
        dispatched,
    ]
}

/// The calls of one memoized run and their answers: first those the
/// memo's replay performed (the prefix), then those the executor
/// performed.
#[derive(Debug, Default)]
pub(crate) struct Trail {
    steps: Vec<(Call, Answer)>,
    /// Calls the executor has made so far.
    cursor: usize,
    /// The run made more than [`MAX_CALLS`] calls.
    overflowed: bool,
}

impl Trail {
    /// The recorded answer to the executor's next call, if the prefix
    /// still holds one.
    ///
    /// # Panics
    ///
    /// Panics if `call` is not the call the prefix recorded: the run
    /// would not be a function of its answers.
    pub(crate) fn replay(&mut self, call: Call) -> Option<Answer> {
        let &(recorded, answer) = self.steps.get(self.cursor)?;
        assert_eq!(recorded, call, "a replayed run diverged from its prefix");
        self.cursor += 1;
        Some(answer)
    }

    /// Record a call the executor performed.
    pub(crate) fn record(&mut self, call: Call, answer: Answer) {
        if self.steps.len() == MAX_CALLS {
            self.overflowed = true;
            return;
        }
        self.steps.push((call, answer));
        self.cursor += 1;
    }
}

/// Where a replay left the tree: the root and the call node whose
/// answer had no edge, with the number of calls performed (the node's
/// call last), or no root at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Miss {
    root: Option<usize>,
    node: u32,
    depth: usize,
}

/// A machine's memo of runs (see the [module docs](self)).
#[derive(Default)]
pub(crate) struct Memo {
    roots: Vec<Root>,
    insts: Vec<Inst>,
    nodes: Vec<Node>,
    words: Vec<u64>,
    trail: Trail,
    /// Runs served from a leaf.
    #[cfg(test)]
    pub(crate) hits: u64,
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("roots", &self.roots.len())
            .field("nodes", &self.nodes.len())
            .field("words", &self.words.len())
            .finish_non_exhaustive()
    }
}

impl Memo {
    /// Replay `program` as process `pid` from the tree, performing each
    /// recorded call against `mem` and `vp`: the result at a leaf, or
    /// where the tree ran out, with the calls performed so far as the
    /// [trail](Memo::trail)'s prefix.
    pub(crate) fn replay(
        &mut self,
        pid: u32,
        program: &Program,
        mem: &mut MemoryHierarchy,
        vp: &mut dyn ValuePredictor,
    ) -> Result<RunResult, Miss> {
        if self.trail.steps.capacity() == 0 {
            self.reserve();
        }
        self.trail.steps.clear();
        self.trail.cursor = 0;
        self.trail.overflowed = false;
        let Some(root) = self.find(pid, program) else {
            return Err(Miss {
                root: None,
                node: NIL,
                depth: 0,
            });
        };
        let mut node = self.roots[root].node;
        loop {
            let current = self.nodes[node as usize];
            let at = current.at as usize;
            let Some(call) = call_at(current.step, &self.words[at..]) else {
                #[cfg(test)]
                {
                    self.hits += 1;
                }
                return Ok(self.leaf(at, self.roots[root].dests));
            };
            let answer = call.perform(mem, vp, pid);
            self.trail.steps.push((call, answer));
            let key = key(answer);
            let (mut prev, mut child) = (NIL, current.child);
            while child != NIL {
                let next = &self.nodes[child as usize];
                if (next.tag, next.a, next.b) == key {
                    break;
                }
                prev = child;
                child = next.sibling;
            }
            if child == NIL {
                return Err(Miss {
                    root: Some(root),
                    node,
                    depth: self.trail.steps.len(),
                });
            }
            if prev != NIL {
                // Move the edge taken to the front of its list.
                self.nodes[prev as usize].sibling = self.nodes[child as usize].sibling;
                self.nodes[child as usize].sibling = current.child;
                self.nodes[node as usize].child = child;
            }
            node = child;
        }
    }

    /// The trail the executor answers a miss's prefix from and records
    /// into.
    pub(crate) fn trail(&mut self) -> &mut Trail {
        &mut self.trail
    }

    /// Graft the executor's run after `miss`, which returned `result`,
    /// onto the tree: a new branch below the miss's node, or a new root
    /// when there was none or the branch does not fit, after clearing
    /// the memo. A run whose trail overflowed, with a counter past 16
    /// bits, or that would not fit an empty memo, is skipped.
    pub(crate) fn record(&mut self, pid: u32, program: &Program, miss: Miss, result: &RunResult) {
        let counters = counters(result);
        if self.trail.overflowed || counters.iter().any(|&c| c > u64::from(u16::MAX)) {
            return;
        }
        let dests = match miss.root {
            Some(root) => self.roots[root].dests,
            None => dest_mask(program),
        };
        let leaf_words = LEAF_WORDS + dests.count_ones() as usize + result.rdtsc_values.len();
        // Nodes and words of the calls from `from` on and the leaf.
        let need = |from: usize| {
            let calls = &self.trail.steps[from..];
            let words = calls
                .iter()
                .map(|(call, _)| call_words(call))
                .sum::<usize>();
            (calls.len() + 1, words + leaf_words)
        };
        let (branch_nodes, branch_words) = need(miss.depth);
        if miss.root.is_some()
            && self.nodes.len() + branch_nodes <= NODE_CAP
            && self.words.len() + branch_words <= WORD_CAP
        {
            let key = key(self.trail.steps[miss.depth - 1].1);
            let first = self.push_chain(miss.depth, key, result, &counters, dests);
            let parent = miss.node as usize;
            self.nodes[first as usize].sibling = self.nodes[parent].child;
            self.nodes[parent].child = first;
            return;
        }
        let (nodes, words) = need(0);
        if nodes > NODE_CAP || words > WORD_CAP || program.len() > INST_CAP {
            return;
        }
        if self.nodes.len() + nodes > NODE_CAP
            || self.words.len() + words > WORD_CAP
            || self.insts.len() + program.len() > INST_CAP
            || self.roots.len() == ROOT_CAP
        {
            self.clear();
        }
        let start = self.insts.len() as u32;
        self.insts.extend(program.iter().map(|(_, inst)| inst));
        let node = self.push_chain(0, key(Answer::Done), result, &counters, dests);
        self.roots.push(Root {
            pid,
            start,
            len: program.len() as u32,
            dests,
            node,
        });
    }

    /// Reserve every array at its cap, once per memo.
    fn reserve(&mut self) {
        self.roots.reserve_exact(ROOT_CAP);
        self.insts.reserve_exact(INST_CAP);
        self.nodes.reserve_exact(NODE_CAP);
        self.words.reserve_exact(WORD_CAP);
        self.trail.steps.reserve_exact(MAX_CALLS);
    }

    /// Drop every tree, keeping the arrays' allocations.
    fn clear(&mut self) {
        self.roots.clear();
        self.insts.clear();
        self.nodes.clear();
        self.words.clear();
    }

    /// The root of `program` run as `pid`, if the memo has one.
    fn find(&self, pid: u32, program: &Program) -> Option<usize> {
        self.roots.iter().position(|root| {
            let (start, len) = (root.start as usize, root.len as usize);
            root.pid == pid
                && len == program.len()
                && self.insts[start..start + len]
                    .iter()
                    .copied()
                    .eq(program.iter().map(|(_, inst)| inst))
        })
    }

    /// Append nodes for the trail's calls from `from` on, the first
    /// reached by the answer `key`, ending in `result`'s leaf; the
    /// index of the first.
    fn push_chain(
        &mut self,
        from: usize,
        mut key: Key,
        result: &RunResult,
        counters: &[u64; COUNTERS],
        dests: u32,
    ) -> u32 {
        let first = self.nodes.len() as u32;
        for i in from..self.trail.steps.len() {
            let (call, answer) = self.trail.steps[i];
            let at = self.words.len() as u32;
            let step = push_call(&mut self.words, call);
            let child = self.nodes.len() as u32 + 1;
            self.push_node(key, step, at, child);
            key = self::key(answer);
        }
        let at = self.words.len() as u32;
        self.words.push(result.cycles);
        for quad in counters.chunks_exact(4) {
            self.words
                .push(quad[0] | quad[1] << 16 | quad[2] << 32 | quad[3] << 48);
        }
        for reg in regs(dests) {
            self.words.push(result.regs.read(reg));
        }
        self.words.push(result.rdtsc_values.len() as u64);
        self.words.extend_from_slice(&result.rdtsc_values);
        self.push_node(key, Step::Leaf, at, NIL);
        first
    }

    fn push_node(&mut self, (tag, a, b): Key, step: Step, at: u32, child: u32) {
        self.nodes.push(Node {
            a,
            b,
            at,
            child,
            sibling: NIL,
            tag,
            step,
        });
    }

    /// The result kept in the leaf at word `at`.
    fn leaf(&self, at: usize, dests: u32) -> RunResult {
        let w = &self.words[at..];
        let c = |i: usize| w[1 + i / 4] >> (16 * (i % 4)) & u64::from(u16::MAX);
        let stats = RunStats {
            committed: c(0),
            loads: c(1),
            vps_lookups: c(2),
            predicted_loads: c(3),
            correct_predictions: c(4),
            mispredictions: c(5),
            squashes: c(6),
            squashed_insts: c(7),
            forwarded_loads: c(8),
            branches: c(9),
            branch_mispredictions: c(10),
            deferred_fills_released: c(11),
            deferred_fills_discarded: c(12),
        };
        let sched = SchedStats {
            ticks: c(13),
            skipped_cycles: c(14),
            completion_events: c(15),
            wakeup_broadcasts: c(16),
            verify_events: c(17),
            issue_slots: c(18),
            dispatched: c(19),
        };
        let mut regs_out = RegFile::new();
        let mut i = 1 + COUNTER_WORDS;
        for reg in regs(dests) {
            regs_out.write(reg, w[i]);
            i += 1;
        }
        let n = w[i] as usize;
        RunResult {
            cycles: w[0],
            regs: regs_out,
            rdtsc_values: w[i + 1..i + 1 + n].to_vec(),
            stats,
            trace: Vec::new(),
            sched,
        }
    }
}

/// The registers `program` writes, one bit each.
fn dest_mask(program: &Program) -> u32 {
    program
        .iter()
        .filter_map(|(_, inst)| inst.dest())
        .fold(0, |mask, reg| mask | 1 << reg.index())
}

/// The registers of `mask`, lowest first.
fn regs(mask: u32) -> impl Iterator<Item = Reg> {
    (0..NUM_REGS as u8)
        .filter(move |&i| mask & 1 << i != 0)
        .map(Reg::new)
}

#[cfg(test)]
mod tests;
