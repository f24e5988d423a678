//! The seeded program generator shared by the differential and
//! run-sequence tests: structured, guaranteed-terminating programs
//! (straight-line bodies inside counted loops) over a small address
//! pool, with `flush`es so loads miss and the value predictor engages,
//! and stores so trained predictions go stale and squashes happen.

use vpsim_isa::{AluOp, Program, ProgramBuilder, Reg};
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
