//! Run-sequence golden fixture: seeded programs run back to back on one
//! machine per configuration, with runs that end in
//! `CycleLimitExceeded` (loads, consumers and stores still in flight)
//! and in `FetchPastEnd` interleaved between runs that halt; a probe
//! program runs after every error exit. Whatever executor state one run
//! leaves behind, an error exit included, would show up in the next
//! run's result. Each run's full outcome, the whole `RunResult` with its
//! `SchedStats` and commit trace or the `RunError`, and the machine's
//! memory and predictor counters after it are folded into one FNV
//! digest per run.
//!
//! To re-record (only after an *intentional* semantic change):
//!
//! ```sh
//! GOLDEN_RECORD=1 cargo test -p vpsim-pipeline --test run_sequences
//! ```

mod common;

use std::path::PathBuf;

use common::{arb_body, build_program, Op};
use vpsim_chaos::ChaosConfig;
use vpsim_isa::{Inst, Program, ProgramBuilder, Reg};
use vpsim_mem::MemoryConfig;
use vpsim_pipeline::{CoreConfig, Machine, RunError};
use vpsim_predictor::{Lvp, LvpConfig, NoPredictor, ValuePredictor, Vtage, VtageConfig};
use vpsim_rng::SmallRng;

/// Cycle budget of every machine here: the halting runs finish inside
/// it, the over-limit runs loop far past it.
const MAX_CYCLES: u64 = 5_000;

/// Loop passes of the probe: it dispatches about 4,500 seqs, past every
/// seq an error exit here leaves behind (none above 2,000).
const PROBE_PASSES: u64 = 1_500;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Ending {
    Halt,
    CycleLimit,
    PastEnd,
}

/// How each run in a sequence ends; it repeats three times per machine,
/// so error exits follow halts, halts follow error exits, and two
/// error exits follow each other.
const PATTERN: [Ending; 8] = [
    Ending::Halt,
    Ending::Halt,
    Ending::CycleLimit,
    Ending::Halt,
    Ending::PastEnd,
    Ending::CycleLimit,
    Ending::PastEnd,
    Ending::Halt,
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME)
    })
}

/// The program for one run. Over-limit runs append a flushed load, a
/// consumer of its value and a store of that value to the body, so the
/// budget runs out with a predicted or missing load, its registered
/// consumer and an unissued store in flight. Past-end runs drop the
/// final `halt`: the loop exit falls through past the last instruction.
fn program_for(rng: &mut SmallRng, ending: Ending) -> Program {
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
fn probe_program() -> Program {
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

fn lvp() -> Box<dyn ValuePredictor> {
    Box::new(Lvp::new(LvpConfig {
        confidence_threshold: 1,
        ..LvpConfig::default()
    }))
}

/// One machine per configuration: LVP, VTAGE, no predictor, the D-type
/// defense, the stall-mode front end and chaos level 2.
fn machines() -> Vec<(&'static str, Machine)> {
    let core = CoreConfig {
        max_cycles: MAX_CYCLES,
        record_commit_trace: true,
        ..CoreConfig::default()
    };
    let vtage = Box::new(Vtage::new(VtageConfig {
        confidence_threshold: 1,
        ..VtageConfig::default()
    }));
    let build = |core: CoreConfig, vp: Box<dyn ValuePredictor>, seed: u64| {
        Machine::new(core, MemoryConfig::default(), vp, seed)
    };
    let mut chaotic = build(core, lvp(), 0x5e06);
    chaotic.set_chaos(&ChaosConfig::level(2), 0x5e06);
    vec![
        ("lvp", build(core, lvp(), 0x5e01)),
        ("vtage", build(core, vtage, 0x5e02)),
        ("novp", build(core, Box::new(NoPredictor::new()), 0x5e03)),
        (
            "dtype",
            build(core.with_delayed_side_effects(), lvp(), 0x5e04),
        ),
        (
            "stall",
            build(
                CoreConfig {
                    branch_prediction: false,
                    ..core
                },
                lvp(),
                0x5e05,
            ),
        ),
        ("chaos2", chaotic),
    ]
}

/// Run `program` on `machine` and render one fixture line, checking
/// that the run ended as `ending` says.
fn run_line(
    machine: &mut Machine,
    name: &str,
    run: &str,
    program: &Program,
    ending: Ending,
) -> String {
    let result = machine.run(3, program);
    let label = match (&result, ending) {
        (Ok(r), Ending::Halt) => format!("halt@{}", r.cycles),
        (Err(RunError::CycleLimitExceeded { .. }), Ending::CycleLimit) => "cycle_limit".to_owned(),
        (Err(RunError::FetchPastEnd { .. }), Ending::PastEnd) => "past_end".to_owned(),
        (other, _) => panic!("{name} run {run}: unexpected outcome {other:?}"),
    };
    // The memory and predictor counters after the run make an error
    // exit's digest show how far the run got.
    let outcome = format!(
        "{result:?} {:?} {:?}",
        machine.mem().stats(),
        machine.predictor().stats()
    );
    format!(
        "{name}\t{run}\t{label}\t{:#018x}\n",
        fnv1a(outcome.as_bytes())
    )
}

fn run_sequences() -> String {
    let probe = probe_program();
    let mut out = String::new();
    for (name, mut machine) in machines() {
        let mut rng = SmallRng::seed_from_u64(fnv1a(name.as_bytes()));
        for run in 0..3 * PATTERN.len() {
            let ending = PATTERN[run % PATTERN.len()];
            let program = program_for(&mut rng, ending);
            out += &run_line(&mut machine, name, &run.to_string(), &program, ending);
            if ending != Ending::Halt {
                out += &run_line(
                    &mut machine,
                    name,
                    &format!("{run}+probe"),
                    &probe,
                    Ending::Halt,
                );
            }
        }
    }
    out
}

#[test]
fn run_sequences_are_bit_identical() {
    let actual = run_sequences();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("run_sequences.tsv");
    if std::env::var_os("GOLDEN_RECORD").is_some_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write fixture");
        eprintln!("recorded {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\nrecord with GOLDEN_RECORD=1 \
             cargo test -p vpsim-pipeline --test run_sequences",
            path.display()
        )
    });
    let diverged: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .take(8)
        .map(|(e, a)| format!("  expected: {e}\n  actual:   {a}"))
        .collect();
    assert!(
        expected == actual,
        "run sequences diverged from the recorded fixture (first mismatches):\n{}",
        diverged.join("\n")
    );
}
