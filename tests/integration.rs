//! Cross-crate integration tests: ISA → pipeline → memory → predictor →
//! attack framework, exercised together through the public `vpsec` API.

use vpsec::attacks::{build_trial, AttackCategory, AttackSetup, Party};
use vpsec::experiment::{run_trial, Channel, ExperimentConfig, PredictorKind};
use vpsec::isa::{AluOp, ProgramBuilder, Reg};
use vpsec::mem::MemoryConfig;
use vpsec::model::enumerate;
use vpsec::pipeline::{CoreConfig, Machine};
use vpsec::predictor::{Lvp, LvpConfig, NoPredictor};
use vpsec::stats::welch_t_test;

/// A realistic multi-phase program: build a table in memory, reduce it,
/// and verify the committed architectural result against a host-side
/// model.
#[test]
fn end_to_end_program_semantics() {
    let mut m = Machine::new(
        CoreConfig::default(),
        MemoryConfig::deterministic(),
        Box::new(Lvp::new(LvpConfig::default())),
        3,
    );
    let base = 0x5000u64;
    let n = 32u64;
    // Phase 1: mem[base + 8i] = i * 3 + 1.
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, base)
        .li(Reg::R2, 0)
        .li(Reg::R3, n)
        .li(Reg::R4, 3)
        .li(Reg::R8, 3); // shift for ×8
    b.label("fill").unwrap();
    b.alu(AluOp::Mul, Reg::R5, Reg::R2, Reg::R4)
        .addi(Reg::R5, Reg::R5, 1)
        .alu(AluOp::Shl, Reg::R6, Reg::R2, Reg::R8)
        .alu(AluOp::Add, Reg::R6, Reg::R6, Reg::R1)
        .store(Reg::R5, Reg::R6, 0)
        .addi(Reg::R2, Reg::R2, 1)
        .blt(Reg::R2, Reg::R3, "fill");
    // Phase 2: sum the table.
    b.li(Reg::R2, 0).li(Reg::R10, 0);
    b.label("sum").unwrap();
    b.alu(AluOp::Shl, Reg::R6, Reg::R2, Reg::R8)
        .alu(AluOp::Add, Reg::R6, Reg::R6, Reg::R1)
        .load(Reg::R5, Reg::R6, 0)
        .alu(AluOp::Add, Reg::R10, Reg::R10, Reg::R5)
        .addi(Reg::R2, Reg::R2, 1)
        .blt(Reg::R2, Reg::R3, "sum");
    b.halt();
    let program = b.build().expect("valid program");
    let result = m.run(0, &program).expect("program halts");
    let expected: u64 = (0..n).map(|i| i * 3 + 1).sum();
    assert_eq!(result.regs.read(Reg::R10), expected);
    // Memory contents visible to the host.
    for i in 0..n {
        assert_eq!(m.mem().peek(base + 8 * i), i * 3 + 1);
    }
}

/// The model layer and the PoC layer agree: every enumerated category
/// has a runnable timing-window trial and, where promised, a persistent
/// one.
#[test]
fn model_and_pocs_are_consistent() {
    let setup = AttackSetup::default();
    let e = enumerate();
    let mut categories: Vec<AttackCategory> = e
        .effective
        .iter()
        .map(|p| p.category().expect("classified"))
        .collect();
    categories.dedup();
    for cat in AttackCategory::ALL {
        assert!(
            categories.contains(&cat),
            "category {cat} missing from the model's survivors"
        );
        assert!(
            build_trial(cat, Channel::TimingWindow, true, &setup).is_some(),
            "{cat} lacks a timing-window PoC"
        );
        assert_eq!(
            build_trial(cat, Channel::Persistent, true, &setup).is_some(),
            cat.supports_persistent(),
            "{cat} persistent-channel support mismatch"
        );
    }
}

/// Machine state persists across sender/receiver runs: predictor state
/// trained in one process is observable from another (no-pid indexing),
/// which is the cross-process premise of the threat model.
#[test]
fn cross_process_predictor_aliasing() {
    let mut m = Machine::new(
        CoreConfig::default(),
        MemoryConfig::deterministic(),
        Box::new(Lvp::new(LvpConfig::default())),
        5,
    );
    m.mem_mut().store_value(0x9000, 1234);
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0x9000)
        .flush(Reg::R1, 0)
        .fence()
        .load(Reg::R2, Reg::R1, 0)
        .fence()
        .halt();
    let p = b.build().unwrap();
    // Process 1 trains.
    for _ in 0..3 {
        m.run(1, &p).unwrap();
    }
    // Process 2 triggers the same load PC: the prediction fires.
    let r = m.run(2, &p).unwrap();
    assert!(
        r.stats.predicted_loads >= 1,
        "PC-indexed predictor without pid must alias across processes"
    );
}

/// A full mapped-vs-unmapped experiment through the public API, with the
/// statistics crate making the call — the complete paper pipeline.
#[test]
fn full_pipeline_statistics_verdict() {
    let cfg = ExperimentConfig {
        trials: 15,
        ..ExperimentConfig::default()
    };
    let setup = cfg.setup;
    let mapped = build_trial(AttackCategory::FillUp, Channel::TimingWindow, true, &setup).unwrap();
    let unmapped =
        build_trial(AttackCategory::FillUp, Channel::TimingWindow, false, &setup).unwrap();
    let mut m_obs = Vec::new();
    let mut u_obs = Vec::new();
    for t in 0..cfg.trials as u64 {
        m_obs.push(run_trial(&mapped, PredictorKind::Lvp, &cfg, t).observed);
        u_obs.push(run_trial(&unmapped, PredictorKind::Lvp, &cfg, t).observed);
    }
    let t = welch_t_test(&m_obs, &u_obs);
    assert!(t.significant(), "FillUp under LVP must leak: {t}");
}

/// The trial runner honours parties: sender steps run as pid 1 and
/// receiver steps as pid 2 (observable through a pid-aware predictor
/// stand-in that the framework builds internally — here we check the
/// step metadata directly).
#[test]
fn trials_assign_parties_correctly() {
    let setup = AttackSetup::default();
    let t = build_trial(AttackCategory::TestHit, Channel::TimingWindow, true, &setup).unwrap();
    assert_eq!(
        t.steps[0].party,
        Party::Sender,
        "secret training is the victim's"
    );
    assert_eq!(
        t.steps[1].party,
        Party::Receiver,
        "trigger is the attacker's"
    );
}

/// Memory hierarchy and predictor compose under the single run entry
/// point, `Machine::run`.
#[test]
fn raw_run_program_entry_point() {
    let mut m = Machine::new(
        CoreConfig::default(),
        MemoryConfig::deterministic(),
        Box::new(NoPredictor::new()),
        0,
    );
    m.mem_mut().store_value(0x4000, 77);
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0x4000).load(Reg::R2, Reg::R1, 0).halt();
    let r = m.run(0, &b.build().unwrap()).expect("runs");
    assert_eq!(r.regs.read(Reg::R2), 77);
    assert_eq!(
        m.predictor().stats().lookups,
        1,
        "cold load consults the predictor"
    );
}
