//! Differential testing: the out-of-order pipeline — with value
//! speculation, mispredictions, squashes and reissues — must be
//! architecturally indistinguishable from the sequential golden-model
//! interpreter for *any* program.
//!
//! Programs are generated as structured, guaranteed-terminating
//! sequences (straight-line bodies inside counted loops) over a small
//! address pool, with `flush` instructions sprinkled in so loads miss
//! and the value predictor engages; stores mutate the pool so trained
//! predictions go stale and squashes actually happen. Generation draws
//! from a seeded [`SmallRng`], so any failure reproduces exactly.

mod common;

use common::{arb_body, build_program};
use vpsim_isa::{AluOp, Interpreter, Program, ProgramBuilder, Reg};
use vpsim_mem::MemoryConfig;
use vpsim_pipeline::{CoreConfig, Machine};
use vpsim_predictor::{
    Fcm, FcmConfig, Lvp, LvpConfig, NoPredictor, Stride, StrideConfig, ValuePredictor, Vtage,
    VtageConfig,
};
use vpsim_rng::SmallRng;

const CASES: usize = 48;

fn run_both(program: &Program, vp: Box<dyn ValuePredictor>) -> (Vec<u64>, Vec<u64>, u64) {
    // Golden model.
    let mut interp = Interpreter::new();
    let golden = interp.run(program, 2_000_000).expect("golden model halts");
    // Pipeline.
    let mut machine = Machine::new(
        CoreConfig::default(),
        MemoryConfig::deterministic(),
        vp,
        0xd1ff,
    );
    let result = machine.run(0, program).expect("pipeline halts");
    // Compare registers and the memory pool.
    let g_regs: Vec<u64> = (0..32).map(|i| golden.regs.read(Reg::new(i))).collect();
    let p_regs: Vec<u64> = (0..32).map(|i| result.regs.read(Reg::new(i))).collect();
    for i in 0..4u64 {
        assert_eq!(
            interp.load(0x8000 + i * 64),
            machine.mem().peek(0x8000 + i * 64),
            "memory word {i} diverged"
        );
    }
    (g_regs, p_regs, result.stats.mispredictions)
}

/// Run the "pipeline ≡ golden model" differential for `CASES` random
/// programs with the given predictor factory.
fn differential(seed: u64, make_vp: impl Fn() -> Box<dyn ValuePredictor>) {
    let mut rng = SmallRng::seed_from_u64(0xd1ff_0000 ^ seed);
    for case in 0..CASES {
        let body = arb_body(&mut rng, 24);
        let iters = rng.gen_range(1u64..6);
        let program = build_program(&body, iters);
        let (g, p, _) = run_both(&program, make_vp());
        assert_eq!(
            g, p,
            "architectural registers diverged (case {case}: {body:?} × {iters})"
        );
    }
}

/// With an LVP, arbitrary programs retire to the same architectural
/// state as sequential execution — squashes must be invisible.
#[test]
fn pipeline_matches_golden_model_with_lvp() {
    differential(1, || {
        Box::new(Lvp::new(LvpConfig {
            confidence_threshold: 1,
            ..LvpConfig::default()
        }))
    });
}

/// Same property with the stride predictor (different speculation
/// pattern: it predicts changing values).
#[test]
fn pipeline_matches_golden_model_with_stride() {
    differential(2, || {
        Box::new(Stride::new(StrideConfig {
            confidence_threshold: 1,
            ..StrideConfig::default()
        }))
    });
}

/// Same property with VTAGE.
#[test]
fn pipeline_matches_golden_model_with_vtage() {
    differential(3, || {
        Box::new(Vtage::new(VtageConfig {
            confidence_threshold: 1,
            ..VtageConfig::default()
        }))
    });
}

/// Same property with the two-level FCM (history-hash speculation).
#[test]
fn pipeline_matches_golden_model_with_fcm() {
    differential(4, || {
        Box::new(Fcm::new(FcmConfig {
            confidence_threshold: 1,
            ..FcmConfig::default()
        }))
    });
}

/// And with no predictor at all (baseline sanity).
#[test]
fn pipeline_matches_golden_model_without_vp() {
    differential(5, || Box::new(NoPredictor::new()));
}

/// D-type (delayed side effects) must not change architectural
/// results either — only cache visibility.
#[test]
fn d_type_is_architecturally_invisible() {
    let mut rng = SmallRng::seed_from_u64(0xd1ff_0006);
    for _ in 0..CASES {
        let body = arb_body(&mut rng, 20);
        let iters = rng.gen_range(1u64..5);
        let program = build_program(&body, iters);
        let run = |delay: bool| {
            let core = CoreConfig {
                delay_side_effects: delay,
                ..CoreConfig::default()
            };
            let vp = Box::new(Lvp::new(LvpConfig {
                confidence_threshold: 1,
                ..LvpConfig::default()
            }));
            let mut m = Machine::new(core, MemoryConfig::deterministic(), vp, 5);
            let r = m.run(0, &program).expect("halts");
            (0..32)
                .map(|i| r.regs.read(Reg::new(i)))
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(false), run(true));
    }
}

/// A deterministic stress case guaranteed to cause repeated
/// mispredictions: a loop that loads a location it keeps incrementing
/// through memory (flush forces a miss each time; the trained "last
/// value" is always stale).
#[test]
fn squash_storm_matches_golden_model() {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0x8000)
        .li(Reg::R14, 0)
        .li(Reg::R15, 24)
        .li(Reg::R16, 0);
    b.label("top").unwrap();
    b.flush(Reg::R1, 0)
        .fence()
        .load(Reg::R17, Reg::R1, 0) // miss every iteration
        .addi(Reg::R17, Reg::R17, 3) // value changes every iteration
        .store(Reg::R17, Reg::R1, 0)
        .alu(AluOp::Add, Reg::R16, Reg::R16, Reg::R17)
        .addi(Reg::R14, Reg::R14, 1)
        .blt(Reg::R14, Reg::R15, "top")
        .halt();
    let program = b.build().unwrap();

    let mut interp = Interpreter::new();
    let golden = interp.run(&program, 100_000).unwrap();

    let vp = Box::new(Lvp::new(LvpConfig {
        confidence_threshold: 1,
        ..LvpConfig::default()
    }));
    let mut machine = Machine::new(CoreConfig::default(), MemoryConfig::deterministic(), vp, 9);
    let result = machine.run(0, &program).unwrap();
    assert!(
        result.stats.mispredictions >= 5,
        "stress case must actually mispredict (got {})",
        result.stats.mispredictions
    );
    assert_eq!(golden.regs.read(Reg::R16), result.regs.read(Reg::R16));
    assert_eq!(interp.load(0x8000), machine.mem().peek(0x8000));
}
