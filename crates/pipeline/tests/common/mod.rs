//! The seeded program generator shared by the differential and
//! run-sequence tests and the memo's differential test: structured,
//! guaranteed-terminating programs (straight-line bodies inside counted
//! loops) over a small address pool, with `flush`es so loads miss and
//! the value predictor engages, and stores so trained predictions go
//! stale and squashes happen; and the run sequences built from them,
//! whose runs also end past the cycle budget or past the last
//! instruction. Each test binary uses part of it.

#![allow(dead_code)]

use vpsim_isa::{AluOp, Inst, Program, ProgramBuilder, Reg};
use vpsim_rng::SmallRng;

/// One generated body operation.
#[derive(Debug, Clone)]
pub enum Op {
    Alu(AluOp, u8, u8, u8),
    Addi(u8, u8, i8),
    Li(u8, u16),
    Load(u8, usize),
    Store(u8, usize),
    Flush(usize),
    Fence,
    /// A forward conditional branch over the next op (exercises the
    /// speculating front-end's not-taken prediction on both paths).
    SkipNextIfGe(u8, u8),
}

/// Registers r16..r23 are the generator's data registers; low registers
/// hold the address pool and loop counters.
fn data_reg(i: u8) -> Reg {
    Reg::new(16 + (i % 8))
}

/// The address pool: r1..r4 hold four word addresses 64 bytes apart
/// (distinct cache lines).
fn pool_reg(i: usize) -> Reg {
    Reg::new(1 + (i % 4) as u8)
}

const ALU_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Xor,
    AluOp::And,
    AluOp::Or,
    AluOp::Mul,
    AluOp::Shl,
    AluOp::Shr,
];

fn arb_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0usize..8) {
        0 => Op::Alu(
            *rng.choose(&ALU_OPS),
            rng.gen_range(0u64..256) as u8,
            rng.gen_range(0u64..256) as u8,
            rng.gen_range(0u64..256) as u8,
        ),
        1 => Op::Addi(
            rng.gen_range(0u64..256) as u8,
            rng.gen_range(0u64..256) as u8,
            rng.gen_range(-128i64..128) as i8,
        ),
        2 => Op::Li(
            rng.gen_range(0u64..256) as u8,
            rng.gen_range(0u64..65536) as u16,
        ),
        3 => Op::Load(rng.gen_range(0u64..256) as u8, rng.gen_range(0usize..4)),
        4 => Op::Store(rng.gen_range(0u64..256) as u8, rng.gen_range(0usize..4)),
        5 => Op::Flush(rng.gen_range(0usize..4)),
        6 => Op::Fence,
        _ => Op::SkipNextIfGe(
            rng.gen_range(0u64..256) as u8,
            rng.gen_range(0u64..256) as u8,
        ),
    }
}

pub fn arb_body(rng: &mut SmallRng, max_len: usize) -> Vec<Op> {
    let n = rng.gen_range(1usize..max_len);
    rng.vec_of(n, arb_op)
}

/// Build a program: pool setup, then `iters` passes over the body via a
/// counted loop (always terminates).
pub fn build_program(body: &[Op], iters: u64) -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..4 {
        b.li(pool_reg(i), 0x8000 + (i as u64) * 64);
    }
    b.li(Reg::R14, 0); // loop counter
    b.li(Reg::R15, iters);
    b.label("top").unwrap();
    // A pending forward-skip label to place after the next non-skip op.
    let mut pending: Option<String> = None;
    let mut skip_id = 0usize;
    for op in body {
        if let Op::SkipNextIfGe(a, x) = *op {
            // Resolve any earlier skip first (no nesting), then open one.
            if let Some(label) = pending.take() {
                b.label(&label).unwrap();
            }
            let label = format!("skip{skip_id}");
            skip_id += 1;
            b.bge(data_reg(a), data_reg(x), &label);
            pending = Some(label);
            continue;
        }
        match *op {
            Op::Alu(op, a, x, y) => {
                b.alu(op, data_reg(a), data_reg(x), data_reg(y));
            }
            Op::Addi(a, x, i) => {
                b.addi(data_reg(a), data_reg(x), i64::from(i));
            }
            Op::Li(r, v) => {
                b.li(data_reg(r), u64::from(v));
            }
            Op::Load(r, s) => {
                b.load(data_reg(r), pool_reg(s), 0);
            }
            Op::Store(r, s) => {
                b.store(data_reg(r), pool_reg(s), 0);
            }
            Op::Flush(s) => {
                b.flush(pool_reg(s), 0);
            }
            Op::Fence => {
                b.fence();
            }
            Op::SkipNextIfGe(..) => unreachable!("handled above"),
        }
        if let Some(label) = pending.take() {
            b.label(&label).unwrap();
        }
    }
    if let Some(label) = pending.take() {
        b.label(&label).unwrap();
    }
    b.addi(Reg::R14, Reg::R14, 1)
        .blt(Reg::R14, Reg::R15, "top")
        .halt();
    b.build().expect("generated program is well-formed")
}

/// Cycle budget of every machine that runs a sequence: the halting runs
/// finish inside it, the over-limit runs loop far past it.
pub const MAX_CYCLES: u64 = 5_000;

/// Loop passes of the probe: it dispatches about 4,500 seqs, past every
/// seq an error exit here leaves behind (none above 2,000).
const PROBE_PASSES: u64 = 1_500;

/// How a run of a sequence ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    Halt,
    CycleLimit,
    PastEnd,
}

/// How each run in a sequence ends; it repeats three times per machine,
/// so error exits follow halts, halts follow error exits, and two
/// error exits follow each other.
pub const PATTERN: [Ending; 8] = [
    Ending::Halt,
    Ending::Halt,
    Ending::CycleLimit,
    Ending::Halt,
    Ending::PastEnd,
    Ending::CycleLimit,
    Ending::PastEnd,
    Ending::Halt,
];

/// FNV-1a: the digest of a fixture line and the seed of a sequence.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME)
    })
}

/// The program for one run. Over-limit runs append a flushed load, a
/// consumer of its value and a store of that value to the body, so the
/// budget runs out with a predicted or missing load, its registered
/// consumer and an unissued store in flight. Past-end runs drop the
/// final `halt`: the loop exit falls through past the last instruction.
pub fn program_for(rng: &mut SmallRng, ending: Ending) -> Program {
    let mut body = arb_body(rng, 24);
    let iters = match ending {
        Ending::CycleLimit => {
            body.extend([
                Op::Flush(0),
                Op::Load(0, 0),
                Op::Addi(1, 0, 3),
                Op::Store(1, 1),
            ]);
            1_000_000
        }
        _ => rng.gen_range(1u64..6),
    };
    let program = build_program(&body, iters);
    if ending != Ending::PastEnd {
        return program;
    }
    let insts: Vec<Inst> = program.iter().map(|(_, inst)| inst).collect();
    assert_eq!(insts.last(), Some(&Inst::Halt), "generator ends in halt");
    Program::from_insts(insts[..insts.len() - 1].to_vec())
}

/// The run after every error exit. It stores a word no other program
/// touches and fences, so the loop's loads of that word hit the L1 and
/// never consult the value predictor: nothing squashes before the
/// loop exit, and the loop dispatches past every seq an error exit can
/// leave behind. A leaked unissued store or flush blocks its loads, a
/// leaked unverified prediction shadows them under the D-type defense,
/// and a leaked ready or ROB entry is issued or committed.
pub fn probe_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0x9000)
        .li(Reg::R2, 0)
        .li(Reg::R3, PROBE_PASSES)
        .li(Reg::R4, 7)
        .store(Reg::R4, Reg::R1, 0)
        .fence();
    b.label("loop").unwrap();
    b.load(Reg::R5, Reg::R1, 0)
        .addi(Reg::R2, Reg::R2, 1)
        .blt(Reg::R2, Reg::R3, "loop")
        .halt();
    b.build().expect("probe assembles")
}

/// The programs of the sequence named `name`, each with its ending.
pub fn sequence(name: &str) -> Vec<(Program, Ending)> {
    let mut rng = SmallRng::seed_from_u64(fnv1a(name.as_bytes()));
    (0..3 * PATTERN.len())
        .map(|run| {
            let ending = PATTERN[run % PATTERN.len()];
            (program_for(&mut rng, ending), ending)
        })
        .collect()
}
