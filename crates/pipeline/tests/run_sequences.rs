//! Run-sequence golden fixture: seeded programs run back to back on one
//! machine per configuration, with runs that end in
//! `CycleLimitExceeded` (loads, consumers and stores still in flight)
//! and in `FetchPastEnd` interleaved between runs that halt; a probe
//! program runs after every error exit. Whatever executor state one run
//! leaves behind, an error exit included, would show up in the next
//! run's result. Each run's full outcome, the whole `RunResult` with its
//! `SchedStats` and commit trace or the `RunError`, and the machine's
//! memory and predictor counters after it are folded into one FNV
//! digest per run. Each sequence also runs twice on a machine that
//! records no commit trace, reset in between, so the machine's memo of
//! runs replays the second pass's repeated programs: with the recorded
//! commit traces put back, both passes must render the fixture's lines.
//!
//! To re-record (only after an *intentional* semantic change):
//!
//! ```sh
//! GOLDEN_RECORD=1 cargo test -p vpsim-pipeline --test run_sequences
//! ```

mod common;

use std::path::PathBuf;

use common::{fnv1a, probe_program, sequence, Ending, MAX_CYCLES};
use vpsim_chaos::ChaosConfig;
use vpsim_isa::Program;
use vpsim_mem::MemoryConfig;
use vpsim_pipeline::{CoreConfig, Machine, RunError, RunResult};
use vpsim_predictor::{Lvp, LvpConfig, NoPredictor, ValuePredictor, Vtage, VtageConfig};

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

/// One machine configuration of the sequences.
struct Config {
    name: &'static str,
    core: CoreConfig,
    predictor: fn() -> Box<dyn ValuePredictor>,
    seed: u64,
    chaos: Option<ChaosConfig>,
}

impl Config {
    /// A new machine of this configuration.
    fn build(&self) -> Machine {
        let mut machine = Machine::new(
            self.core,
            MemoryConfig::default(),
            (self.predictor)(),
            self.seed,
        );
        self.arm(&mut machine);
        machine
    }

    /// Reset `machine` to what [`Config::build`] returns.
    fn reset(&self, machine: &mut Machine) {
        machine.reset((self.predictor)(), self.seed);
        self.arm(machine);
    }

    fn arm(&self, machine: &mut Machine) {
        if let Some(chaos) = &self.chaos {
            machine.set_chaos(chaos, self.seed);
        }
    }
}

/// LVP, VTAGE, no predictor, the D-type defense, the stall-mode front
/// end and chaos level 2.
fn configs() -> Vec<Config> {
    let core = CoreConfig {
        max_cycles: MAX_CYCLES,
        record_commit_trace: true,
        ..CoreConfig::default()
    };
    let config = |name, core, predictor, seed| Config {
        name,
        core,
        predictor,
        seed,
        chaos: None,
    };
    vec![
        config("lvp", core, lvp, 0x5e01),
        config("vtage", core, vtage, 0x5e02),
        config("novp", core, no_vp, 0x5e03),
        config("dtype", core.with_delayed_side_effects(), lvp, 0x5e04),
        config(
            "stall",
            CoreConfig {
                branch_prediction: false,
                ..core
            },
            lvp,
            0x5e05,
        ),
        Config {
            chaos: Some(ChaosConfig::level(2)),
            ..config("chaos2", core, lvp, 0x5e06)
        },
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
    line(machine, name, run, &result, ending)
}

/// The fixture line of a run of `machine` that returned `result`.
fn line(
    machine: &Machine,
    name: &str,
    run: &str,
    result: &Result<RunResult, RunError>,
    ending: Ending,
) -> String {
    let label = match (result, ending) {
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

/// Run `run` of a sequence, and the probe after it if it is an error
/// exit, each with its label and ending.
fn with_probe(run: usize, program: &Program, ending: Ending) -> Vec<(String, Program, Ending)> {
    let mut runs = vec![(run.to_string(), program.clone(), ending)];
    if ending != Ending::Halt {
        runs.push((format!("{run}+probe"), probe_program(), Ending::Halt));
    }
    runs
}

/// Run `program` on `machine`, then the probe after an error exit: the
/// fixture lines of one run.
fn run_lines(
    machine: &mut Machine,
    name: &str,
    run: usize,
    program: &Program,
    ending: Ending,
) -> String {
    with_probe(run, program, ending)
        .iter()
        .map(|(run, program, ending)| run_line(machine, name, run, program, *ending))
        .collect()
}

/// Every run of `config`'s sequence in order, the probes included.
fn runs(config: &Config) -> Vec<(String, Program, Ending)> {
    sequence(config.name)
        .iter()
        .enumerate()
        .flat_map(|(run, (program, ending))| with_probe(run, program, *ending))
        .collect()
}

fn run_sequences() -> String {
    let mut out = String::new();
    for config in configs() {
        let mut machine = config.build();
        for (run, program, ending) in runs(&config) {
            out += &run_line(&mut machine, config.name, &run, &program, ending);
        }
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("run_sequences.tsv")
}

fn fixture() -> String {
    let path = fixture_path();
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\nrecord with GOLDEN_RECORD=1 \
             cargo test -p vpsim-pipeline --test run_sequences",
            path.display()
        )
    })
}

/// Fail with the first mismatched lines unless `actual`, the fixture
/// text `what` rendered, is `expected`.
fn assert_fixture(expected: &str, actual: &str, what: &str) {
    let diverged: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .take(8)
        .map(|(e, a)| format!("  expected: {e}\n  actual:   {a}"))
        .collect();
    assert!(
        expected == actual,
        "{what} diverged from the recorded fixture (first mismatches):\n{}",
        diverged.join("\n")
    );
}

/// A machine that ran the earlier programs of its sequence, error exits
/// included, and was then reset runs every program exactly as a new
/// machine does, chaos events included.
#[test]
fn a_reset_machine_runs_like_a_new_one() {
    for config in configs() {
        let mut reused = config.build();
        for (run, (program, ending)) in sequence(config.name).iter().enumerate() {
            config.reset(&mut reused);
            let mut fresh = config.build();
            let lines = |machine: &mut Machine| {
                let lines = run_lines(machine, config.name, run, program, *ending);
                (lines, machine.chaos_events())
            };
            assert_eq!(
                lines(&mut reused),
                lines(&mut fresh),
                "{} run {run} after a reset",
                config.name
            );
        }
    }
}

#[test]
fn run_sequences_are_bit_identical() {
    let actual = run_sequences();
    if std::env::var_os("GOLDEN_RECORD").is_some_and(|v| v == "1") {
        let path = fixture_path();
        std::fs::write(&path, &actual).expect("write fixture");
        eprintln!("recorded {}", path.display());
        return;
    }
    assert_fixture(&fixture(), &actual, "run sequences");
}

/// Every sequence twice on a machine like the fixture's that records no
/// commit trace, reset in between, so its memo of runs replays the
/// second pass's halting programs. With the commit trace of the fixture
/// machine's run put back into each result, both passes render the
/// fixture.
#[test]
fn a_warm_machine_replays_the_fixture() {
    let mut passes = [String::new(), String::new()];
    for config in configs() {
        let runs = runs(&config);
        let mut recording = config.build();
        let traces: Vec<_> = runs
            .iter()
            .map(|(_, program, _)| recording.run(3, program).map(|r| r.trace))
            .collect();
        let config = Config {
            core: CoreConfig {
                record_commit_trace: false,
                ..config.core
            },
            ..config
        };
        let mut warm = config.build();
        for (pass, text) in passes.iter_mut().enumerate() {
            if pass > 0 {
                config.reset(&mut warm);
            }
            for ((run, program, ending), trace) in runs.iter().zip(&traces) {
                let mut result = warm.run(3, program);
                if let (Ok(r), Ok(trace)) = (&mut result, trace) {
                    r.trace.clone_from(trace);
                }
                *text += &line(&warm, config.name, run, &result, *ending);
            }
        }
    }
    let expected = fixture();
    for (pass, text) in passes.iter().enumerate() {
        assert_fixture(&expected, text, &format!("pass {pass} on a warm machine"));
    }
}
