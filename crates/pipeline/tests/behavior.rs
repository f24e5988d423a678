//! End-to-end behavioural tests of the pipeline's value-prediction
//! mechanics — the properties the paper's attacks rest on.

use vpsim_isa::{AluOp, ProgramBuilder, Reg};
use vpsim_mem::MemoryConfig;
use vpsim_pipeline::{CoreConfig, Machine, RunError, RunResult};
use vpsim_predictor::{Lvp, LvpConfig, NoPredictor, ValuePredictor};

const DATA: u64 = 0x10_000;
const PROBE: u64 = 0x20_000;

fn machine_with(vp: Box<dyn ValuePredictor>) -> Machine {
    Machine::new(
        CoreConfig::default(),
        MemoryConfig::deterministic(),
        vp,
        1234,
    )
}

fn lvp_machine() -> Machine {
    machine_with(Box::new(Lvp::new(LvpConfig::default())))
}

/// Train the VPS at the load in the timed-trigger program by running a
/// matching single-load program `times` times with a flush before each
/// run so every access misses.
#[allow(dead_code)]
fn train(m: &mut Machine, times: usize, value: u64) {
    m.mem_mut().store_value(DATA, value);
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .flush(Reg::R1, 0)
        .fence()
        .load(Reg::R2, Reg::R1, 0)
        .fence()
        .halt();
    let p = b.build().unwrap();
    for _ in 0..times {
        m.run(0, &p).unwrap();
    }
}

/// A trigger program measuring the timing window around a flushed load
/// plus a dependent chain, exactly like the Figure 3 receiver: returns
/// (window cycles, result of the run).
fn trigger(m: &mut Machine) -> (u64, RunResult) {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .li(Reg::R3, PROBE)
        .flush(Reg::R1, 0)
        .fence()
        .rdtsc(Reg::R10)
        // The same load PC alignment is irrelevant here: LVP defaults to
        // PC indexing and this program trains/triggers itself at this PC.
        .load(Reg::R2, Reg::R1, 0)
        // Dependent chain: an ALU op then a dependent load (flushed, so
        // it costs a full miss serialised behind the value of R2).
        .alu(AluOp::Add, Reg::R4, Reg::R2, Reg::R3)
        .load(Reg::R5, Reg::R4, 0)
        .fence()
        .rdtsc(Reg::R11)
        .halt();
    let p = b.build().unwrap();
    // The dependent load target must also miss.
    let r = m.run(0, &p).unwrap();
    let w = r.timing_windows()[0];
    (w, r)
}

#[test]
fn alu_program_computes() {
    let mut m = lvp_machine();
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 6)
        .li(Reg::R2, 7)
        .alu(AluOp::Mul, Reg::R3, Reg::R1, Reg::R2)
        .addi(Reg::R4, Reg::R3, -2)
        .alu(AluOp::Xor, Reg::R5, Reg::R4, Reg::R1)
        .halt();
    let r = m.run(0, &b.build().unwrap()).unwrap();
    assert_eq!(r.regs.read(Reg::R3), 42);
    assert_eq!(r.regs.read(Reg::R4), 40);
    assert_eq!(r.regs.read(Reg::R5), 46);
}

#[test]
fn loop_counts_correctly() {
    let mut m = lvp_machine();
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0).li(Reg::R2, 25);
    b.label("top").unwrap();
    b.addi(Reg::R1, Reg::R1, 1)
        .blt(Reg::R1, Reg::R2, "top")
        .halt();
    let r = m.run(0, &b.build().unwrap()).unwrap();
    assert_eq!(r.regs.read(Reg::R1), 25);
    assert!(r.stats.committed >= 50, "loop body committed 25 times");
}

#[test]
fn loads_and_stores_roundtrip() {
    let mut m = lvp_machine();
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .li(Reg::R2, 0xfeed)
        .store(Reg::R2, Reg::R1, 0)
        .load(Reg::R3, Reg::R1, 0)
        .store(Reg::R3, Reg::R1, 8)
        .halt();
    let r = m.run(0, &b.build().unwrap()).unwrap();
    assert_eq!(r.regs.read(Reg::R3), 0xfeed);
    assert_eq!(m.mem().peek(DATA + 8), 0xfeed);
}

#[test]
fn store_to_load_forwarding_counts() {
    let mut m = lvp_machine();
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .li(Reg::R2, 5)
        .store(Reg::R2, Reg::R1, 0)
        .load(Reg::R3, Reg::R1, 0) // must forward: store is in flight
        .halt();
    let r = m.run(0, &b.build().unwrap()).unwrap();
    assert_eq!(r.regs.read(Reg::R3), 5);
    assert_eq!(r.stats.forwarded_loads, 1);
}

/// Forwarding takes the youngest older store to the load's address: of
/// two in-flight stores to one word the younger forwards, a store to
/// another word forwards only to its own load, and a store squashed by
/// a value misprediction never forwards once the squash has happened.
#[test]
fn forwarding_takes_the_youngest_older_store_and_never_a_squashed_one() {
    let mut m = lvp_machine();
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .li(Reg::R2, 11)
        .li(Reg::R3, 22)
        .li(Reg::R4, 33)
        .store(Reg::R2, Reg::R1, 0)
        .store(Reg::R3, Reg::R1, 0)
        .store(Reg::R4, Reg::R1, 8)
        .load(Reg::R5, Reg::R1, 0)
        .load(Reg::R6, Reg::R1, 8)
        .halt();
    let r = m.run(0, &b.build().unwrap()).unwrap();
    assert_eq!((r.regs.read(Reg::R5), r.regs.read(Reg::R6)), (22, 33));
    assert_eq!(r.stats.forwarded_loads, 2);
    assert_eq!((m.mem().peek(DATA), m.mem().peek(DATA + 8)), (22, 33));

    // A flushed load the LVP predicts, a store to the address it loads,
    // and a load of one fixed address: the trained one.
    let (trained, actual) = (PROBE, PROBE + 64);
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .li(Reg::R8, 99)
        .li(Reg::R9, trained)
        .flush(Reg::R1, 0)
        .fence()
        .load(Reg::R2, Reg::R1, 0)
        .store(Reg::R8, Reg::R2, 0)
        .load(Reg::R5, Reg::R9, 0)
        .halt();
    let p = b.build().unwrap();
    let mut m = lvp_machine();
    m.mem_mut().store_value(DATA, trained);
    for _ in 0..3 {
        let r = m.run(0, &p).unwrap();
        assert_eq!((r.regs.read(Reg::R5), r.stats.forwarded_loads), (99, 1));
    }
    // The trained prediction is now wrong: the wrong-path store to
    // `trained` forwards to the wrong-path load and is squashed with
    // it; refetched, the store goes to `actual` and the load reads
    // `trained` from memory.
    m.mem_mut().store_value(trained, 5);
    m.mem_mut().store_value(DATA, actual);
    let r = m.run(0, &p).unwrap();
    assert_eq!((r.stats.predicted_loads, r.stats.mispredictions), (1, 1));
    assert_eq!(r.stats.squashed_insts, 3);
    assert_eq!(
        r.stats.forwarded_loads, 1,
        "only the wrong-path load forwarded"
    );
    assert_eq!((r.regs.read(Reg::R2), r.regs.read(Reg::R5)), (actual, 5));
    assert_eq!((m.mem().peek(trained), m.mem().peek(actual)), (5, 99));
}

#[test]
fn rdtsc_values_increase() {
    let mut m = lvp_machine();
    let mut b = ProgramBuilder::new();
    b.rdtsc(Reg::R1)
        .li(Reg::R2, DATA)
        .load(Reg::R3, Reg::R2, 0)
        .fence()
        .rdtsc(Reg::R4)
        .halt();
    let r = m.run(0, &b.build().unwrap()).unwrap();
    assert_eq!(r.rdtsc_values.len(), 2);
    assert!(r.rdtsc_values[1] > r.rdtsc_values[0]);
    assert_eq!(r.regs.read(Reg::R1), r.rdtsc_values[0]);
}

#[test]
fn fetch_past_end_detected() {
    // Build a program whose halt is jumped over.
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 1).jump("end").halt();
    b.label("end").unwrap();
    b.nops(1);
    // ProgramBuilder requires a halt somewhere; the nop at "end" runs off
    // the end of the program.
    let p = b.build().unwrap();
    let mut m = lvp_machine();
    match m.run(0, &p) {
        Err(RunError::FetchPastEnd { .. }) => {}
        other => panic!("expected FetchPastEnd, got {other:?}"),
    }
}

#[test]
fn cycle_limit_enforced() {
    let mut b = ProgramBuilder::new();
    b.label("spin").unwrap();
    b.jump("spin").halt();
    let p = b.build().unwrap();
    let cfg = CoreConfig {
        max_cycles: 1000,
        ..CoreConfig::default()
    };
    let mut m = Machine::new(
        cfg,
        MemoryConfig::deterministic(),
        Box::new(NoPredictor::new()),
        0,
    );
    match m.run(0, &p) {
        Err(RunError::CycleLimitExceeded { limit }) => assert_eq!(limit, 1000),
        other => panic!("expected CycleLimitExceeded, got {other:?}"),
    }
}

// --------------------------------------------------------------------
// Value-prediction timing semantics: the heart of the paper.
// --------------------------------------------------------------------

#[test]
fn branch_prediction_speeds_up_loops() {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0).li(Reg::R2, 200);
    b.label("top").unwrap();
    b.addi(Reg::R1, Reg::R1, 1)
        .blt(Reg::R1, Reg::R2, "top")
        .halt();
    let p = b.build().unwrap();
    let run = |speculate: bool| {
        let cfg = CoreConfig {
            branch_prediction: speculate,
            ..CoreConfig::default()
        };
        let mut m = Machine::new(
            cfg,
            MemoryConfig::deterministic(),
            Box::new(NoPredictor::new()),
            0,
        );
        m.run(0, &p).unwrap()
    };
    let stall = run(false);
    let spec = run(true);
    assert_eq!(stall.regs.read(Reg::R1), 200);
    assert_eq!(spec.regs.read(Reg::R1), 200);
    assert!(
        spec.cycles * 2 < stall.cycles,
        "BTFN loop speculation should at least halve loop time: {} vs {}",
        spec.cycles,
        stall.cycles
    );
    // The loop's backward branch is predicted taken; only the final
    // (exit) iteration mispredicts.
    assert_eq!(spec.stats.branches, 200);
    assert_eq!(spec.stats.branch_mispredictions, 1);
    assert_eq!(stall.stats.branch_mispredictions, 0);
}

#[test]
fn wrong_path_execution_leaves_cache_trace() {
    // Spectre-v1 flavour: a forward branch is predicted not-taken, so
    // the guarded load executes transiently even when the branch is
    // actually taken — and its cache fill survives the squash.
    let mut m = lvp_machine();
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA) // guard value location
        .li(Reg::R2, PROBE)
        .flush(Reg::R1, 0)
        .fence()
        .load(Reg::R3, Reg::R1, 0) // slow-arriving guard (miss)
        .li(Reg::R4, 1)
        .bge(Reg::R3, Reg::R4, "skip") // taken (guard = 5) but predicted not-taken
        .load(Reg::R5, Reg::R2, 0); // architecturally never executes
    b.label("skip").unwrap();
    b.fence().halt();
    let p = b.build().unwrap();
    m.mem_mut().store_value(DATA, 5);
    let r = m.run(0, &p).unwrap();
    assert_eq!(r.stats.branch_mispredictions, 1);
    assert!(
        m.mem().probe_l2(PROBE),
        "wrong-path load must leave a cache trace (transient execution)"
    );
}

#[test]
fn vps_consulted_only_on_l1_misses() {
    let mut m = lvp_machine();
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .load(Reg::R2, Reg::R1, 0) // cold: miss
        .load(Reg::R3, Reg::R1, 0) // hot: L1 hit → no VPS
        .halt();
    let r = m.run(0, &b.build().unwrap()).unwrap();
    assert_eq!(r.stats.vps_lookups, 1, "only the miss consults the VPS");
}

#[test]
fn correct_prediction_overlaps_dependent_chain() {
    // no prediction: window ≈ miss + dependent miss (serialised).
    // correct prediction: dependent miss overlaps the verify window.
    let mut no_vp = machine_with(Box::new(NoPredictor::new()));
    no_vp.mem_mut().store_value(DATA, PROBE); // loaded value = probe base
    let (w_none, r_none) = trigger(&mut no_vp);
    assert_eq!(r_none.stats.predicted_loads, 0);

    let mut with_vp = lvp_machine();
    with_vp.mem_mut().store_value(DATA, PROBE);
    // Train: the trigger program itself trains its load PC when run
    // repeatedly (flush forces a miss every time).
    for _ in 0..4 {
        trigger(&mut with_vp);
    }
    with_vp.cold_caches();
    let (w_pred, r_pred) = trigger(&mut with_vp);
    assert!(r_pred.stats.predicted_loads >= 1, "prediction must fire");
    assert_eq!(r_pred.stats.mispredictions, 0, "trained value is correct");
    assert!(
        w_pred + 60 < w_none,
        "correct prediction ({w_pred}) must be much faster than no prediction ({w_none})"
    );
}

#[test]
fn misprediction_squashes_and_reissues() {
    let mut m = lvp_machine();
    m.mem_mut().store_value(DATA, PROBE);
    for _ in 0..4 {
        trigger(&mut m);
    }
    // Change the value so the trained prediction is wrong.
    m.mem_mut().store_value(DATA, PROBE + 512 * 8);
    m.cold_caches();
    let (w_wrong, r_wrong) = m
        .mem_mut()
        .peek(DATA)
        .ne(&PROBE)
        .then(|| trigger(&mut m))
        .unwrap();
    assert!(r_wrong.stats.mispredictions >= 1, "must mispredict");
    assert!(r_wrong.stats.squashes >= 1);
    assert!(r_wrong.stats.squashed_insts >= 1);
    // Architectural result is still correct after squash + reissue.
    assert_eq!(r_wrong.regs.read(Reg::R2), PROBE + 512 * 8);

    // And it is slower than a correct prediction.
    let mut ok = lvp_machine();
    ok.mem_mut().store_value(DATA, PROBE);
    for _ in 0..4 {
        trigger(&mut ok);
    }
    ok.cold_caches();
    let (w_ok, _) = trigger(&mut ok);
    assert!(
        w_wrong > w_ok + 60,
        "misprediction ({w_wrong}) must be slower than correct prediction ({w_ok})"
    );
}

#[test]
fn no_prediction_below_confidence() {
    let mut m = lvp_machine();
    m.mem_mut().store_value(DATA, PROBE);
    // Only 2 trainings (threshold 3): trigger must not predict.
    trigger(&mut m);
    trigger(&mut m);
    m.cold_caches();
    let (_, r) = trigger(&mut m);
    // Note each trigger run contains exactly one miss-load of DATA.
    assert_eq!(
        r.stats.predicted_loads, 0,
        "below confidence: no prediction"
    );
}

#[test]
fn single_different_access_invalidates_training() {
    // The Train+Test modify step: 1 access with a different value resets
    // confidence → the next trigger sees *no prediction*. Use a program
    // with a single load so the stats reflect only the target PC.
    let mut m = lvp_machine();
    m.mem_mut().store_value(DATA, PROBE);
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .flush(Reg::R1, 0)
        .fence()
        .load(Reg::R2, Reg::R1, 0)
        .fence()
        .halt();
    let p = b.build().unwrap();
    for _ in 0..5 {
        m.run(0, &p).unwrap();
    }
    let r = m.run(0, &p).unwrap();
    assert!(r.stats.predicted_loads >= 1, "trained");
    // Modify: one access with a different value at the same PC.
    m.mem_mut().store_value(DATA, 0xdead);
    let r_modify = m.run(0, &p).unwrap(); // mispredicts, retrains, conf = 0
    assert!(r_modify.stats.mispredictions >= 1);
    let r_after = m.run(0, &p).unwrap();
    assert_eq!(
        r_after.stats.predicted_loads, 0,
        "confidence was reset: no prediction"
    );
}

// --------------------------------------------------------------------
// Transient execution & the persistent channel.
// --------------------------------------------------------------------

/// Receiver-style encode: a load whose address depends on the predicted
/// value, Spectre-style (`y = arr2[x * 512]`, Figure 4).
fn encode_program() -> vpsim_isa::Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .flush(Reg::R1, 0)
        .fence()
        .load(Reg::R2, Reg::R1, 0) // trigger load (miss → prediction)
        .li(Reg::R3, 4096)
        .alu(AluOp::Mul, Reg::R4, Reg::R2, Reg::R3) // index = value * 4096
        .li(Reg::R5, PROBE)
        .alu(AluOp::Add, Reg::R6, Reg::R4, Reg::R5)
        .load(Reg::R7, Reg::R6, 0) // encode load → cache line fill
        .fence()
        .halt();
    b.build().unwrap()
}

#[test]
fn transient_encode_leaves_cache_trace() {
    let mut m = lvp_machine();
    m.mem_mut().store_value(DATA, 3); // "secret" value 3
    let p = encode_program();
    // Train value 3 at the trigger load PC.
    for _ in 0..4 {
        m.run(0, &p).unwrap();
    }
    // Now change memory to 5: the prediction (3) is transiently used for
    // the encode load before the squash.
    m.mem_mut().store_value(DATA, 5);
    m.cold_caches();
    let r = m.run(0, &p).unwrap();
    assert!(r.stats.mispredictions >= 1);
    // Persistent trace: the line for the *predicted* (stale secret) value
    // was installed during transient execution and survives the squash.
    assert!(
        m.mem().probe_l2(PROBE + 3 * 4096),
        "transient encode for predicted value must be cached"
    );
    // The re-executed encode for the actual value is cached too.
    assert!(m.mem().probe_l2(PROBE + 5 * 4096));
}

#[test]
fn d_type_defense_suppresses_transient_trace() {
    let core = CoreConfig::default().with_delayed_side_effects();
    let mut m = Machine::new(
        core,
        MemoryConfig::deterministic(),
        Box::new(Lvp::new(LvpConfig::default())),
        1234,
    );
    m.mem_mut().store_value(DATA, 3);
    let p = encode_program();
    for _ in 0..4 {
        m.run(0, &p).unwrap();
    }
    m.mem_mut().store_value(DATA, 5);
    m.cold_caches();
    let r = m.run(0, &p).unwrap();
    assert!(r.stats.mispredictions >= 1);
    assert!(
        r.stats.deferred_fills_discarded >= 1,
        "squashed fill discarded"
    );
    // The transient (squashed) encode line must NOT be visible.
    assert!(
        !m.mem().probe_l2(PROBE + 3 * 4096),
        "D-type: squashed speculative fill must leave no trace"
    );
    // The committed re-execution's line is visible: after the squash the
    // prediction is verified, so the re-executed encode load fills
    // normally (it is no longer shadowed).
    assert!(m.mem().probe_l2(PROBE + 5 * 4096));
}

#[test]
fn d_type_releases_fill_when_prediction_correct() {
    let core = CoreConfig::default().with_delayed_side_effects();
    let mut m = Machine::new(
        core,
        MemoryConfig::deterministic(),
        Box::new(Lvp::new(LvpConfig::default())),
        1234,
    );
    m.mem_mut().store_value(DATA, 3);
    let p = encode_program();
    for _ in 0..4 {
        m.run(0, &p).unwrap();
    }
    // Prediction now fires and is CORRECT: the shadowed encode load
    // survives to commit, so its deferred fill is released.
    m.cold_caches();
    let r = m.run(0, &p).unwrap();
    assert!(r.stats.predicted_loads >= 1);
    assert_eq!(r.stats.mispredictions, 0);
    assert!(r.stats.deferred_fills_released >= 1);
    assert!(m.mem().probe_l2(PROBE + 3 * 4096), "released at commit");
}

#[test]
fn squash_preserves_architectural_state() {
    // A register written before the mispredicted load must survive; ones
    // after it must reflect re-execution.
    let mut m = lvp_machine();
    m.mem_mut().store_value(DATA, 100);
    let mut b = ProgramBuilder::new();
    b.li(Reg::R9, 0x77)
        .li(Reg::R1, DATA)
        .flush(Reg::R1, 0)
        .fence()
        .load(Reg::R2, Reg::R1, 0)
        .addi(Reg::R3, Reg::R2, 1)
        .addi(Reg::R4, Reg::R3, 1)
        .halt();
    let p = b.build().unwrap();
    for _ in 0..4 {
        m.run(0, &p).unwrap();
    }
    m.mem_mut().store_value(DATA, 200);
    m.cold_caches();
    let r = m.run(0, &p).unwrap();
    assert!(r.stats.mispredictions >= 1);
    assert_eq!(r.regs.read(Reg::R9), 0x77);
    assert_eq!(r.regs.read(Reg::R2), 200);
    assert_eq!(r.regs.read(Reg::R3), 201);
    assert_eq!(r.regs.read(Reg::R4), 202);
}

#[test]
fn commit_trace_records_program_order() {
    let core = CoreConfig {
        record_commit_trace: true,
        ..CoreConfig::default()
    };
    let mut m = Machine::new(
        core,
        MemoryConfig::deterministic(),
        Box::new(Lvp::new(LvpConfig::default())),
        0,
    );
    m.mem_mut().store_value(DATA, 9);
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, DATA)
        .load(Reg::R2, Reg::R1, 0)
        .addi(Reg::R3, Reg::R2, 1)
        .halt();
    let r = m.run(0, &b.build().unwrap()).unwrap();
    assert_eq!(r.trace.len() as u64, r.stats.committed);
    // Commit cycles are monotone and PCs follow program order here.
    for w in r.trace.windows(2) {
        assert!(w[0].cycle <= w[1].cycle);
        assert!(w[0].pc < w[1].pc);
    }
    // The load's committed value is visible in the trace.
    let load_event = r.trace.iter().find(|e| e.inst.is_load()).unwrap();
    assert_eq!(load_event.result, Some(9));
    // Disabled by default.
    let mut m2 = lvp_machine();
    let mut b2 = ProgramBuilder::new();
    b2.halt();
    let r2 = m2.run(0, &b2.build().unwrap()).unwrap();
    assert!(r2.trace.is_empty());
}

#[test]
fn deterministic_replay() {
    let build = || {
        let mut m = lvp_machine();
        m.mem_mut().store_value(DATA, PROBE);
        m
    };
    let mut a = build();
    let mut b = build();
    for _ in 0..5 {
        let (wa, _) = trigger(&mut a);
        let (wb, _) = trigger(&mut b);
        assert_eq!(wa, wb, "same seed + config ⇒ same timing");
    }
}
