//! Differential test of the memo of runs: two machines built alike run
//! the same programs again and again, one plainly, so its memo replays
//! the repeats, and one through the executor, with a trace sink on
//! every run. After every run the two must agree on the result or
//! error, the memory and predictor statistics, the chaos events and the
//! hierarchy's `Debug` text, and the plain machine must have served
//! most repeats from its memo.
//!
//! The programs are the run-sequence programs (halts, cycle-budget and
//! past-the-end exits, the probe), seeded random programs with `rdtsc`s
//! appended, and timed train/trigger pairs; each round starts with a
//! run under a tripped cancel token. Memories are small, so lines are
//! evicted, with DRAM jitter on; the rounds alternate two seeds, so
//! repeats meet both new and recorded jitter.

#[path = "../../tests/common/mod.rs"]
mod common;

use common::{arb_body, build_program, probe_program, sequence, Ending, MAX_CYCLES};
use vpsim_chaos::ChaosConfig;
use vpsim_isa::{AluOp, Inst, Program, ProgramBuilder, Reg};
use vpsim_mem::{CacheGeometry, MemoryConfig, PrefetchKind, ReplacementKind};
use vpsim_obs::RingRecorder;
use vpsim_predictor::{Lvp, LvpConfig, NoPredictor, ValuePredictor, Vtage, VtageConfig};
use vpsim_rng::SmallRng;

use crate::{CancelToken, CoreConfig, Machine, RunCtl};

/// Rounds per configuration: a reset before each but the first.
const ROUNDS: u64 = 4;

/// Runs of each halting program per round.
const REPEATS: usize = 3;

fn lvp() -> Box<dyn ValuePredictor> {
    Box::new(Lvp::new(LvpConfig {
        confidence_threshold: 1,
        ..LvpConfig::default()
    }))
}

fn vtage() -> Box<dyn ValuePredictor> {
    Box::new(Vtage::new(VtageConfig {
        confidence_threshold: 1,
        ..VtageConfig::default()
    }))
}

fn no_vp() -> Box<dyn ValuePredictor> {
    Box::new(NoPredictor::new())
}

/// A small hierarchy with the default DRAM jitter: the generators'
/// four-line pool and the probe's line contend for two ways.
fn small_memory() -> MemoryConfig {
    let base = MemoryConfig::default();
    MemoryConfig {
        l1: CacheGeometry {
            sets: 4,
            ways: 2,
            ..base.l1
        },
        l2: CacheGeometry {
            sets: 16,
            ways: 2,
            ..base.l2
        },
        tlb_entries: 2,
        ..base
    }
}

struct Config {
    /// The name of the run sequence it runs.
    name: &'static str,
    core: CoreConfig,
    mem: MemoryConfig,
    predictor: fn() -> Box<dyn ValuePredictor>,
    chaos: Option<ChaosConfig>,
}

impl Config {
    fn build(&self, seed: u64) -> Machine {
        let mut machine = Machine::new(self.core, self.mem, (self.predictor)(), seed);
        self.arm(&mut machine, seed);
        machine
    }

    fn reset(&self, machine: &mut Machine, seed: u64) {
        machine.reset((self.predictor)(), seed);
        self.arm(machine, seed);
    }

    fn arm(&self, machine: &mut Machine, seed: u64) {
        if let Some(chaos) = &self.chaos {
            machine.set_chaos(chaos, seed);
        }
    }
}

/// The run sequences' predictors and cores, and a memory-chaos machine
/// with random L2 replacement and the next-line prefetcher.
fn configs() -> Vec<Config> {
    let core = CoreConfig {
        max_cycles: MAX_CYCLES,
        ..CoreConfig::default()
    };
    let config = |name, core, predictor| Config {
        name,
        core,
        mem: small_memory(),
        predictor,
        chaos: None,
    };
    vec![
        config("lvp", core, lvp),
        config("vtage", core, vtage),
        config("novp", core, no_vp),
        config("dtype", core.with_delayed_side_effects(), lvp),
        config(
            "stall",
            CoreConfig {
                branch_prediction: false,
                ..core
            },
            lvp,
        ),
        Config {
            mem: MemoryConfig {
                l2: CacheGeometry {
                    replacement: ReplacementKind::Random,
                    ..small_memory().l2
                },
                prefetch: PrefetchKind::NextLine,
                ..small_memory()
            },
            chaos: Some(ChaosConfig {
                mem: ChaosConfig::level(4).mem,
                ..ChaosConfig::off()
            }),
            ..config("memchaos", core, lvp)
        },
    ]
}

/// `program` with `rdtsc` and `halt` in place of its final `halt`.
fn timed(program: &Program) -> Program {
    let mut insts: Vec<Inst> = program.iter().map(|(_, inst)| inst).collect();
    assert_eq!(insts.pop(), Some(Inst::Halt), "generator ends in halt");
    insts.extend([Inst::Rdtsc { rd: Reg::R9 }, Inst::Halt]);
    Program::from_insts(insts)
}

/// Train the predictor on the pool word `slot` with a flushed load.
fn train(slot: u64) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0x8000 + 64 * slot)
        .flush(Reg::R1, 0)
        .fence()
        .load(Reg::R2, Reg::R1, 0)
        .fence()
        .halt();
    b.build().expect("train assembles")
}

/// Time a flushed load of the pool word `slot` and a load that depends
/// on its value: the attacks' trigger.
fn trigger(slot: u64) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0x8000 + 64 * slot)
        .li(Reg::R2, 0x8100)
        .flush(Reg::R1, 0)
        .fence()
        .rdtsc(Reg::R10)
        .load(Reg::R3, Reg::R1, 0)
        .alu(AluOp::And, Reg::R4, Reg::R3, Reg::R2)
        .load(Reg::R5, Reg::R4, 0)
        .fence()
        .rdtsc(Reg::R11)
        .halt();
    b.build().expect("trigger assembles")
}

/// `config`'s programs with their endings: its run sequence and the
/// probe, then seeded random and timed programs that halt.
fn programs(config: &Config) -> Vec<(Program, Ending)> {
    let mut programs = sequence(config.name);
    programs.push((probe_program(), Ending::Halt));
    let mut rng = SmallRng::seed_from_u64(0x3e30 ^ config.name.len() as u64);
    for _ in 0..6 {
        let program = build_program(&arb_body(&mut rng, 12), rng.gen_range(1u64..4));
        programs.push((timed(&program), Ending::Halt));
        programs.push((program, Ending::Halt));
    }
    for slot in 0..2 {
        programs.push((train(slot), Ending::Halt));
        programs.push((trigger(slot), Ending::Halt));
    }
    programs
}

/// Run `program` on both machines, `traced` through the executor, and
/// check that they agree afterwards.
fn run_both(
    plain: &mut Machine,
    traced: &mut Machine,
    program: &Program,
    cancel: Option<&CancelToken>,
    what: &str,
) -> bool {
    let result = plain.run_with(
        0,
        program,
        RunCtl {
            cancel,
            tracer: None,
        },
    );
    let mut recorder = RingRecorder::new(64);
    let expected = traced.run_with(
        0,
        program,
        RunCtl {
            cancel,
            tracer: Some(&mut recorder),
        },
    );
    assert!(
        recorder.seen() > 0 || cancel.is_some(),
        "{what}: not traced"
    );
    assert_eq!(result, expected, "{what}: result");
    assert_eq!(
        plain.mem().stats(),
        traced.mem().stats(),
        "{what}: memory stats"
    );
    assert_eq!(
        plain.predictor().stats(),
        traced.predictor().stats(),
        "{what}: predictor stats"
    );
    assert_eq!(plain.chaos_events(), traced.chaos_events(), "{what}: chaos");
    assert_eq!(
        format!("{:?}", plain.mem()),
        format!("{:?}", traced.mem()),
        "{what}: hierarchy"
    );
    result.is_ok()
}

#[test]
fn replayed_runs_match_the_executor() {
    let tripped = CancelToken::new();
    tripped.cancel();
    for config in configs() {
        let programs = programs(&config);
        let seed = |round: u64| 0x3e30 + round % 2;
        let mut plain = config.build(seed(0));
        let mut traced = config.build(seed(0));
        // Runs of a halting program that halted on the plain machine
        // before.
        let mut repeats = 0;
        let mut halted = vec![false; programs.len()];
        for round in 0..ROUNDS {
            if round > 0 {
                config.reset(&mut plain, seed(round));
                config.reset(&mut traced, seed(round));
            }
            let what = format!("{} round {round} cancelled", config.name);
            assert!(!run_both(
                &mut plain,
                &mut traced,
                &programs[0].0,
                Some(&tripped),
                &what
            ));
            for (i, (program, ending)) in programs.iter().enumerate() {
                let runs = if *ending == Ending::Halt { REPEATS } else { 1 };
                for repeat in 0..runs {
                    let what = format!("{} round {round} program {i} run {repeat}", config.name);
                    let ok = run_both(&mut plain, &mut traced, program, None, &what);
                    assert_eq!(ok, *ending == Ending::Halt, "{what}: ending");
                    repeats += usize::from(ok && halted[i]);
                    halted[i] |= ok;
                }
            }
        }
        let hits = plain.memo_hits();
        assert!(
            hits * 2 > repeats as u64,
            "{}: the memo served {hits} of {repeats} repeats",
            config.name
        );
    }
}
