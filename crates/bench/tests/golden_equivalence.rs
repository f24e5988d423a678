//! Golden-trace equivalence suite for the pipeline executor.
//!
//! Every fixture in `tests/golden/` was recorded from the pre-event-driven
//! (tick-by-tick) executor. The tests re-run the same deterministic
//! workloads — every attack-zoo trial variant, defense and front-end
//! configurations, the performance kernels and the end-to-end RSA key
//! leak — and assert the executor still produces **bit-identical**
//! [`RunResult`]s: cycles, final registers, rdtsc observations, run
//! statistics and the full commit trace. `table3.tsv` came later: it was
//! recorded from the per-set boxed cache tag store, before the flat
//! one, and pins every Table III pair's observation, cycles and
//! scheduler counters.
//!
//! To re-record (only after an *intentional* semantic change):
//!
//! ```sh
//! GOLDEN_RECORD=1 cargo test -p vpsim-bench --test golden_equivalence
//! ```
//!
//! [`RunResult`]: vpsim_pipeline::RunResult

use std::fmt::Write as _;
use std::path::PathBuf;

use vpsec::attacks::{build_trial, AttackCategory, AttackSetup, Trial};
use vpsec::chaos::ChaosConfig;
use vpsec::experiment::{CellPlan, Channel, ExperimentConfig, PredictorKind};
use vpsim_crypto::{leak_exponent, LeakConfig, Mpi};
use vpsim_isa::Reg;
use vpsim_mem::MemoryConfig;
use vpsim_pipeline::{CoreConfig, Machine, RunResult};
use vpsim_predictor::{
    Fcm, FcmConfig, IndexConfig, IndexKind, Lvp, LvpConfig, NoPredictor, Oracle, Stride,
    StrideConfig, ValuePredictor, Vtage, VtageConfig,
};

// ---------------------------------------------------------------------
// Canonical serialization + digest.
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

/// Render a run result into the canonical text form the digests (and the
/// full-dump fixtures) are computed over. Deliberately lists fields
/// explicitly — adding *new* diagnostic fields to `RunResult` must not
/// invalidate recorded fixtures.
fn canonical(r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "cycles: {}", r.cycles);
    let _ = write!(s, "regs:");
    for reg in Reg::all() {
        let _ = write!(s, " {}", r.regs.read(reg));
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "rdtsc: {:?}", r.rdtsc_values);
    let _ = writeln!(s, "stats: {:?}", r.stats);
    let _ = writeln!(s, "trace[{}]:", r.trace.len());
    for ev in &r.trace {
        let _ = writeln!(
            s,
            "  @{} pc{} {:?} -> {:?}",
            ev.cycle, ev.pc.0, ev.inst, ev.result
        );
    }
    s
}

// ---------------------------------------------------------------------
// Workload drivers. Each returns (digest, runs, total cycles).
// ---------------------------------------------------------------------

struct CellDigest {
    name: String,
    digest: u64,
    runs: u64,
    cycles: u64,
}

fn golden_core() -> CoreConfig {
    CoreConfig {
        record_commit_trace: true,
        ..CoreConfig::default()
    }
}

fn predictor_for(kind: &str, setup: &AttackSetup) -> Box<dyn ValuePredictor> {
    let lvp = LvpConfig {
        confidence_threshold: setup.confidence,
        ..LvpConfig::default()
    };
    let vtage = VtageConfig {
        confidence_threshold: setup.confidence,
        ..VtageConfig::default()
    };
    match kind {
        "novp" => Box::new(NoPredictor::new()),
        "lvp" => Box::new(Lvp::new(lvp)),
        "ovtage" => Box::new(Oracle::new(Vtage::new(vtage), [setup.target_pc()])),
        other => unreachable!("unknown predictor {other}"),
    }
}

/// Run one attack trial on a fresh machine, digesting every step run.
/// `chaos` optionally installs the fault/noise plane — passing
/// `ChaosConfig::level(0)` must leave every digest untouched.
fn run_attack_cell(
    name: &str,
    trial: &Trial,
    core: CoreConfig,
    kind: &str,
    chaos: Option<&ChaosConfig>,
) -> CellDigest {
    let setup = AttackSetup::default();
    let seed = fnv1a(FNV_OFFSET, name.as_bytes());
    let mut machine = Machine::new(
        core,
        MemoryConfig::default(),
        predictor_for(kind, &setup),
        seed,
    );
    if let Some(c) = chaos {
        machine.set_chaos(c, seed ^ 0xc4a0_5eed_0bad_f00d);
    }
    for (addr, value) in &trial.memory_init {
        machine.mem_mut().store_value(*addr, *value);
    }
    let mut digest = FNV_OFFSET;
    let mut runs = 0u64;
    let mut cycles = 0u64;
    for step in &trial.steps {
        for _ in 0..step.repeat {
            let r = machine
                .run(step.party.pid(), &step.program)
                .unwrap_or_else(|e| panic!("{name}: step `{}` failed: {e}", step.label));
            digest = fnv1a(digest, canonical(&r).as_bytes());
            runs += 1;
            cycles += r.cycles;
        }
    }
    CellDigest {
        name: name.to_owned(),
        digest,
        runs,
        cycles,
    }
}

/// Every attack-zoo cell: 6 categories x 2 channels x mapped/unmapped x
/// 3 predictors, plus D-type-defended and stall-front-end variants for
/// the cells that exercise those paths.
fn attack_cells() -> Vec<CellDigest> {
    attack_cells_with(None)
}

fn attack_cells_with(chaos: Option<&ChaosConfig>) -> Vec<CellDigest> {
    let setup = AttackSetup::default();
    let mut out = Vec::new();
    for cat in AttackCategory::ALL {
        for channel in [Channel::TimingWindow, Channel::Persistent] {
            for mapped in [true, false] {
                let Some(trial) = build_trial(cat, channel, mapped, &setup) else {
                    continue;
                };
                for kind in ["novp", "lvp", "ovtage"] {
                    let name = format!(
                        "{cat:?}/{channel:?}/{}/{kind}",
                        if mapped { "mapped" } else { "unmapped" }
                    );
                    out.push(run_attack_cell(&name, &trial, golden_core(), kind, chaos));
                }
            }
        }
    }
    // D-type defense: deferred fills + release/discard at commit/squash.
    for (cat, channel) in [
        (AttackCategory::TrainTest, Channel::Persistent),
        (AttackCategory::TestHit, Channel::Persistent),
    ] {
        let trial = build_trial(cat, channel, true, &setup).expect("supported");
        let name = format!("{cat:?}/{channel:?}/mapped/lvp/dtype");
        out.push(run_attack_cell(
            &name,
            &trial,
            golden_core().with_delayed_side_effects(),
            "lvp",
            chaos,
        ));
    }
    // Stall-mode front-end (no branch prediction): fetch waits on
    // unresolved branches, the complete phase redirects fetch.
    {
        let trial = build_trial(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            true,
            &setup,
        )
        .expect("supported");
        let core = CoreConfig {
            branch_prediction: false,
            ..golden_core()
        };
        out.push(run_attack_cell(
            "TrainTest/tw/mapped/lvp/stall",
            &trial,
            core,
            "lvp",
            chaos,
        ));
    }
    out
}

/// The performance kernels under data-address-indexed predictors: long
/// loops, branch mispredictions on loop exit, store/flush/fence traffic.
fn kernel_cells() -> Vec<CellDigest> {
    use vpsim_bench::workloads::{constant_table, pointer_chase, random_values, Workload};

    fn kernel_predictor(kind: &str) -> Box<dyn ValuePredictor> {
        let index = IndexConfig {
            kind: IndexKind::DataAddress,
            ..IndexConfig::default()
        };
        match kind {
            "novp" => Box::new(NoPredictor::new()),
            "lvp" => Box::new(Lvp::new(LvpConfig {
                index,
                capacity: 8192,
                ..LvpConfig::default()
            })),
            "stride" => Box::new(Stride::new(StrideConfig {
                index,
                capacity: 8192,
                ..StrideConfig::default()
            })),
            "vtage" => Box::new(Vtage::new(VtageConfig {
                index,
                log2_entries: 13,
                ..VtageConfig::default()
            })),
            "fcm" => Box::new(Fcm::new(FcmConfig {
                index,
                l1_capacity: 8192,
                l2_capacity: 16384,
                ..FcmConfig::default()
            })),
            other => unreachable!("unknown predictor {other}"),
        }
    }

    fn run_kernel(w: &Workload, kind: &str) -> CellDigest {
        let mut m = Machine::new(
            golden_core(),
            MemoryConfig::deterministic(),
            kernel_predictor(kind),
            0,
        );
        for (a, v) in &w.memory {
            m.mem_mut().store_value(*a, *v);
        }
        let r = m.run(0, &w.program).expect("kernel halts");
        CellDigest {
            name: format!("kernel/{}/{kind}", w.name),
            digest: fnv1a(FNV_OFFSET, canonical(&r).as_bytes()),
            runs: 1,
            cycles: r.cycles,
        }
    }

    let mut out = Vec::new();
    for w in [
        pointer_chase(128, 2),
        constant_table(64, 2),
        random_values(64),
    ] {
        for kind in ["novp", "lvp", "stride", "vtage", "fcm"] {
            out.push(run_kernel(&w, kind));
        }
    }
    out
}

/// The end-to-end RSA exponent leak (tests/rsa_end_to_end.rs shapes).
fn rsa_cells() -> Vec<CellDigest> {
    let mut out = Vec::new();
    for (label, exp, seed) in [
        ("rsa/alternating", Mpi::from_u64(0b1010_1010), 0x5eed),
        ("rsa/irregular", Mpi::from_hex("bad5eed"), 0x5eee),
    ] {
        let cfg = LeakConfig {
            seed,
            calibration_runs: 4,
            ..LeakConfig::default()
        };
        let r = leak_exponent(&exp, &cfg);
        let mut s = String::new();
        let _ = writeln!(s, "true_bits: {:?}", r.true_bits);
        let _ = writeln!(s, "recovered: {:?}", r.recovered_bits);
        let obs: Vec<u64> = r.observations.iter().map(|o| o.to_bits()).collect();
        let _ = writeln!(s, "observations: {obs:?}");
        let _ = writeln!(s, "threshold: {}", r.threshold.to_bits());
        let _ = writeln!(s, "total_cycles: {}", r.total_cycles);
        out.push(CellDigest {
            name: label.to_owned(),
            digest: fnv1a(FNV_OFFSET, s.as_bytes()),
            runs: r.observations.len() as u64,
            cycles: r.total_cycles,
        });
    }
    out
}

/// Table III as campaigns run it: every supported cell of 6 categories
/// x 2 channels x {none, lvp} on default (jittered) memory, each pair
/// through `CellPlan::run_pair`. One digest per cell folds every arm's
/// observation bits, total cycles and scheduler counters; `runs`
/// counts pairs.
fn table3_cells() -> Vec<CellDigest> {
    let cfg = ExperimentConfig {
        trials: 20,
        ..ExperimentConfig::default()
    };
    let mut out = Vec::new();
    for cat in AttackCategory::ALL {
        for channel in [Channel::TimingWindow, Channel::Persistent] {
            for predictor in [PredictorKind::None, PredictorKind::Lvp] {
                let Some(plan) = CellPlan::new(cat, channel, predictor, &cfg) else {
                    continue;
                };
                let mut digest = FNV_OFFSET;
                let mut cycles = 0u64;
                for t in 0..plan.trials() {
                    let pair = plan.run_pair(t);
                    for arm in [pair.mapped, pair.unmapped] {
                        let s = arm.sched;
                        let line = format!(
                            "{} {} {} {} {} {} {} {} {}\n",
                            arm.observed.to_bits(),
                            arm.total_cycles,
                            s.ticks,
                            s.skipped_cycles,
                            s.completion_events,
                            s.wakeup_broadcasts,
                            s.verify_events,
                            s.issue_slots,
                            s.dispatched
                        );
                        digest = fnv1a(digest, line.as_bytes());
                    }
                    cycles += pair.total_cycles();
                }
                out.push(CellDigest {
                    name: format!("table3/{cat:?}/{channel:?}/{predictor:?}"),
                    digest,
                    runs: plan.trials() as u64,
                    cycles,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Fixture I/O.
// ---------------------------------------------------------------------

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn recording() -> bool {
    std::env::var_os("GOLDEN_RECORD").is_some_and(|v| v == "1")
}

fn render_digests(cells: &[CellDigest]) -> String {
    let mut s = String::new();
    for c in cells {
        let _ = writeln!(
            s,
            "{}\t{:#018x}\truns={}\tcycles={}",
            c.name, c.digest, c.runs, c.cycles
        );
    }
    s
}

fn check_or_record(fixture: &str, actual: &str) {
    let path = golden_dir().join(fixture);
    if recording() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write fixture");
        eprintln!("recorded {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             record with GOLDEN_RECORD=1 cargo test -p vpsim-bench --test golden_equivalence",
            path.display()
        )
    });
    if expected != actual {
        let mismatches: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .take(8)
            .map(|(e, a)| format!("  expected: {e}\n  actual:   {a}"))
            .collect();
        panic!(
            "{fixture}: executor output diverged from the recorded golden \
             trace ({} line(s) differ; first mismatches:)\n{}\n\
             (only re-record after an intentional semantic change)",
            expected
                .lines()
                .zip(actual.lines())
                .filter(|(e, a)| e != a)
                .count()
                + expected.lines().count().abs_diff(actual.lines().count()),
            mismatches.join("\n")
        );
    }
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

#[test]
fn attack_zoo_traces_are_bit_identical() {
    check_or_record("attack_zoo.tsv", &render_digests(&attack_cells()));
}

/// The level-0 determinism contract of the fault/noise plane, checked
/// against the *committed* fixtures: installing `ChaosConfig::level(0)`
/// through the public `Machine::set_chaos` API must reproduce every
/// attack-zoo digest bit for bit — a zeroed plane consumes no RNG words
/// and perturbs nothing.
#[test]
fn chaos_level_zero_matches_golden_fixtures() {
    if recording() {
        return; // `attack_zoo_traces_are_bit_identical` records the fixture.
    }
    check_or_record(
        "attack_zoo.tsv",
        &render_digests(&attack_cells_with(Some(&ChaosConfig::level(0)))),
    );
}

#[test]
fn kernel_traces_are_bit_identical() {
    check_or_record("kernels.tsv", &render_digests(&kernel_cells()));
}

#[test]
fn rsa_leak_is_bit_identical() {
    check_or_record("rsa.tsv", &render_digests(&rsa_cells()));
}

#[test]
fn table3_pairs_are_bit_identical() {
    check_or_record("table3.tsv", &render_digests(&table3_cells()));
}

/// A complete human-readable commit trace for one small predicted-load
/// workload — when a digest diverges, this fixture shows *where*.
#[test]
fn full_trace_fixture_matches() {
    use vpsim_bench::workloads::pointer_chase;
    let w = pointer_chase(32, 1);
    let index = IndexConfig {
        kind: IndexKind::DataAddress,
        ..IndexConfig::default()
    };
    let mut m = Machine::new(
        golden_core(),
        MemoryConfig::deterministic(),
        Box::new(Lvp::new(LvpConfig {
            index,
            capacity: 8192,
            ..LvpConfig::default()
        })),
        0,
    );
    for (a, v) in &w.memory {
        m.mem_mut().store_value(*a, *v);
    }
    // Two passes: the second predicts from the first's training.
    let first = m.run(0, &w.program).expect("halts");
    let second = m.run(0, &w.program).expect("halts");
    let dump = format!(
        "== run 1 (cold) ==\n{}== run 2 (trained) ==\n{}",
        canonical(&first),
        canonical(&second)
    );
    check_or_record("full_pointer_chase.txt", &dump);
}

/// The level-0 *event trace* of one attack-zoo cell, pinned byte for
/// byte: the Train+Test/timing-window/LVP mapped arm of trial 0 as
/// emitted by `repro --trace`. Any change to event ordering, cycle
/// stamps, or the JSONL shape shows up here as a readable diff.
#[test]
fn trace_dump_level0_matches_golden_fixture() {
    let dump = vpsim_bench::trace_dump::run(1);
    let lines: Vec<&str> = dump.jsonl.lines().collect();
    let is_header = |l: &&str| l.starts_with("{\"type\":\"trace_header\"");
    let first = lines.iter().position(is_header).expect("has a header");
    assert_eq!(first, 0, "dump starts with a header line");
    let second = lines[1..]
        .iter()
        .position(is_header)
        .map_or(lines.len(), |i| i + 1);
    let mut arm = lines[..second].join("\n");
    arm.push('\n');
    assert!(arm.contains("\"cell\":\"train_test/timing_window/lvp\""));
    assert!(arm.contains("\"arm\":\"mapped\""));
    check_or_record("trace_train_test_lvp.jsonl", &arm);
}
