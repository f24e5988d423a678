//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --all                      # everything (default 100 trials)
//! repro --figure 5                 # one figure (2, 3, 4, 5, 7, 8)
//! repro --table 2                  # one table (1, 2, 3)
//! repro --defenses                 # §VI-B defense evaluation
//! repro --ablations                # design-choice ablations
//! repro --trials 30 --all          # trade precision for speed
//! repro --table 3 --jobs 8         # shard trials across 8 workers
//! repro --all --jobs 0             # jobs 0 = all available cores
//! repro --table 3 --resume out/    # record/skip finished jobs in out/
//! repro --chaos 2                  # robustness sweep at noise level 2
//! repro --table 3 --deadline 120   # hard-cancel any job past 120 s
//! repro --all --strict             # exit nonzero on any degraded cell
//! repro --trace out.jsonl          # deterministic event-trace dump
//! ```
//!
//! Serve-plane subcommands (campaign-as-a-service):
//!
//! ```text
//! repro serve --port 0 --state dir   # run the vpsim-serve daemon
//! repro run --spec f --isolate process --workers 4
//!                                    # run one spec locally, printing
//!                                    # canonical result lines; process
//!                                    # isolation contains worker crashes
//! repro submit --addr H:P --spec f   # POST a campaign spec
//! repro watch --addr H:P --id 1      # stream results as JSONL
//! repro query --addr H:P [--id 1]    # progress / campaign list
//! repro cancel --addr H:P --id 1     # cooperative cancellation
//! repro shutdown --addr H:P          # graceful daemon stop
//! ```
//!
//! `repro --worker-loop` (dispatched before all other parsing) turns
//! the process into a fleet worker for the process-isolated backend.
//!
//! Evaluations run through the `vpsim-harness` campaign engine: results
//! are bitwise-identical for every `--jobs` value, and a campaign killed
//! half-way can be rerun with the same `--resume DIR` to skip every job
//! already recorded there.

use std::process::ExitCode;

use vpsim_bench::reports;
use vpsim_harness::{CampaignMetrics, Exec};
use vpsim_obs::Registry;

#[derive(Debug)]
struct Args {
    trials: usize,
    items: Vec<Item>,
    csv_dir: Option<std::path::PathBuf>,
    /// Dump deterministic per-trial event traces (JSONL) here and print
    /// the leakage-attribution summary.
    trace: Option<std::path::PathBuf>,
    exec: Exec,
    /// Exit nonzero when any campaign ran degraded (quarantined or
    /// panicked cells, deadline failures, torn manifest lines, injected
    /// or real I/O faults).
    strict: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Table(u32),
    Figure(u32),
    Defenses,
    Ablations,
    Performance,
    Chaos(u8),
}

impl std::fmt::Display for Item {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Item::Table(n) => write!(f, "--table {n}"),
            Item::Figure(n) => write!(f, "--figure {n}"),
            Item::Defenses => write!(f, "--defenses"),
            Item::Ablations => write!(f, "--ablations"),
            Item::Performance => write!(f, "--performance"),
            Item::Chaos(l) => write!(f, "--chaos {l}"),
        }
    }
}

const VALID_TABLES: [u32; 3] = [1, 2, 3];
const VALID_FIGURES: [u32; 6] = [2, 3, 4, 5, 7, 8];

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--trials N] [--jobs N] [--resume DIR] [--progress] [--csv DIR] \
         [--trace FILE] [--deadline SECS] [--strict] \
         (--all | --table {{1|2|3}} | --figure {{2|3|4|5|7|8}} | --defenses | --ablations | \
         --performance | --chaos {{0..4}})..."
    );
    ExitCode::FAILURE
}

/// Parse the argument list (without the program name). All validation
/// happens here so errors name the offending argument before any
/// simulation starts.
fn parse_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args {
        trials: 100,
        items: Vec::new(),
        csv_dir: None,
        trace: None,
        exec: Exec::default(),
        strict: false,
    };
    let mut jobs_explicit = false;
    let mut it = argv.into_iter();
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let push = |items: &mut Vec<Item>, item: Item| -> Result<(), String> {
        if items.contains(&item) {
            return Err(format!("duplicate item: {item}"));
        }
        items.push(item);
        Ok(())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trials" => {
                let v = value("--trials", &mut it)?;
                args.trials = v
                    .parse()
                    .map_err(|_| format!("--trials expects a positive integer, got `{v}`"))?;
                if args.trials == 0 {
                    return Err("--trials 0 would evaluate empty distributions".to_owned());
                }
            }
            "--jobs" => {
                let v = value("--jobs", &mut it)?;
                args.exec.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs expects an integer (0 = all cores), got `{v}`"))?;
                jobs_explicit = true;
            }
            "--resume" => {
                args.exec.resume = Some(std::path::PathBuf::from(value("--resume", &mut it)?));
            }
            "--progress" => args.exec.progress = true,
            "--deadline" => {
                let v = value("--deadline", &mut it)?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("--deadline expects whole seconds, got `{v}`"))?;
                if secs == 0 {
                    return Err("--deadline 0 would cancel every job at its first \
                                scheduler checkpoint"
                        .to_owned());
                }
                args.exec.job_deadline = Some(std::time::Duration::from_secs(secs));
            }
            "--strict" => args.strict = true,
            "--csv" => {
                args.csv_dir = Some(std::path::PathBuf::from(value("--csv", &mut it)?));
            }
            "--trace" => {
                args.trace = Some(std::path::PathBuf::from(value("--trace", &mut it)?));
            }
            "--table" => {
                let v = value("--table", &mut it)?;
                let n = v
                    .parse()
                    .map_err(|_| format!("--table expects a number, got `{v}`"))?;
                if !VALID_TABLES.contains(&n) {
                    return Err(format!("unknown table {n}; the paper has tables 1-3"));
                }
                push(&mut args.items, Item::Table(n))?;
            }
            "--figure" => {
                let v = value("--figure", &mut it)?;
                let n = v
                    .parse()
                    .map_err(|_| format!("--figure expects a number, got `{v}`"))?;
                if !VALID_FIGURES.contains(&n) {
                    return Err(format!(
                        "unknown figure {n} (Figure 1 is the simulator itself; \
                         Figure 6 is the victim in vpsim-crypto)"
                    ));
                }
                push(&mut args.items, Item::Figure(n))?;
            }
            "--defenses" => push(&mut args.items, Item::Defenses)?,
            "--ablations" => push(&mut args.items, Item::Ablations)?,
            "--performance" => push(&mut args.items, Item::Performance)?,
            "--chaos" => {
                let v = value("--chaos", &mut it)?;
                let max = vpsec::chaos::ChaosConfig::NUM_LEVELS - 1;
                let l: u8 = v
                    .parse()
                    .map_err(|_| format!("--chaos expects a level 0..={max}, got `{v}`"))?;
                if l > max {
                    return Err(format!("unknown chaos level {l}; levels are 0..={max}"));
                }
                push(&mut args.items, Item::Chaos(l))?;
            }
            "--all" => {
                for item in [
                    Item::Table(1),
                    Item::Table(2),
                    Item::Figure(2),
                    Item::Figure(3),
                    Item::Figure(4),
                    Item::Figure(5),
                    Item::Figure(7),
                    Item::Figure(8),
                    Item::Table(3),
                    Item::Defenses,
                    Item::Ablations,
                    Item::Performance,
                ] {
                    push(&mut args.items, item)?;
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.items.is_empty() && args.csv_dir.is_none() && args.trace.is_none() {
        return Err(
            "nothing to do: pass --all, an item flag, --csv DIR, or --trace FILE".to_owned(),
        );
    }
    if args.exec.resume.is_some() && !jobs_explicit {
        // A resumable run is usually a long one; default to all cores.
        args.exec.jobs = 0;
    }
    Ok(args)
}

fn write_csvs(dir: &std::path::Path, trials: usize, exec: &Exec) -> std::io::Result<()> {
    use vpsec::attacks::AttackCategory;
    use vpsim_bench::export;
    std::fs::create_dir_all(dir)?;
    let cfg = vpsim_bench::reports::config(trials);
    let files = [
        (
            "fig5_train_test.csv",
            export::figure_distributions_csv(AttackCategory::TrainTest, &cfg, exec),
        ),
        (
            "fig8_test_hit.csv",
            export::figure_distributions_csv(AttackCategory::TestHit, &cfg, exec),
        ),
        ("table3.csv", export::table_iii_csv(&cfg, exec)),
        (
            "defense_window_sweep.csv",
            export::window_sweep_csv(&cfg, exec),
        ),
        ("fig7_rsa.csv", export::figure_7_csv(60, 0x965)),
    ];
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// Run `f`, converting a panic into the panic message. The report and
/// export functions panic on campaign-level errors (a manifest recorded
/// by a different campaign, an unwritable resume directory); at the CLI
/// surface those are user errors, not bugs, so they are reported as a
/// one-line `error:` instead of a backtrace. The default panic hook is
/// suspended for the duration so nothing double-prints.
fn trap<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    result.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "internal error".to_owned())
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Worker-loop mode: the process backend re-execs this binary with
    // `--worker-loop` as a fleet worker. Dispatch before any other
    // parsing — the worker speaks frames on stdin/stdout, nothing else.
    if argv.first().is_some_and(|a| a == "--worker-loop") {
        return match vpsim_harness::worker_loop() {
            0 => ExitCode::SUCCESS,
            code => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        };
    }
    // Serve-plane subcommands (`repro serve ...`) dispatch before the
    // legacy flag parser; a first argument starting with `--` keeps the
    // original report-generation CLI unchanged.
    if argv
        .first()
        .is_some_and(|a| vpsim_bench::serve_cli::is_subcommand(a))
    {
        let run = vpsim_bench::serve_cli::parse_from(argv.clone())
            .and_then(|cmd| vpsim_bench::serve_cli::run(&cmd));
        return match run {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut args = match parse_from(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // One counter store for every campaign of this invocation.
    let store = CampaignMetrics::register(&Registry::new(), "repro");
    args.exec.metrics = Some(store.clone());
    let args = args;
    if let Some(dir) = &args.csv_dir {
        match trap(|| write_csvs(dir, args.trials, &args.exec)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("csv export failed: {e}");
                return ExitCode::FAILURE;
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.trace {
        // Trace dumps run the traced zoo sequentially regardless of
        // --jobs, so the file is byte-identical for every worker count.
        match trap(|| vpsim_bench::trace_dump::run(args.trials)) {
            Ok(dump) => {
                if let Err(e) = std::fs::write(path, &dump.jsonl) {
                    eprintln!("trace export failed: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", path.display());
                println!("{}", "=".repeat(78));
                println!("{}", vpsim_bench::trace_dump::attribution_report(&dump));
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    for item in &args.items {
        let report = trap(|| match item {
            Item::Table(1) => reports::table_i(),
            Item::Table(2) => reports::table_ii(),
            Item::Table(3) => reports::table_iii(args.trials, &args.exec),
            Item::Figure(2) => reports::figure_2(),
            Item::Figure(3) => reports::figure_3(args.trials.min(10)),
            Item::Figure(4) => reports::figure_4(args.trials.min(10)),
            Item::Figure(5) => reports::figure_5(args.trials, &args.exec),
            Item::Figure(7) => reports::figure_7(60, (args.trials / 10).max(1)),
            Item::Figure(8) => reports::figure_8(args.trials, &args.exec),
            Item::Defenses => reports::defense_report(args.trials, &args.exec),
            Item::Ablations => reports::ablation_report(args.trials, &args.exec),
            Item::Performance => vpsim_bench::workloads::performance_report(),
            Item::Chaos(l) => {
                // One level of the quick robustness sweep; the full
                // all-levels report is `bench_chaos`'s job.
                let r = vpsim_bench::chaos_bench::run_sweep_levels(true, &[*l]);
                vpsim_bench::chaos_bench::render(&r)
            }
            Item::Table(n) | Item::Figure(n) => unreachable!("id {n} rejected at parse time"),
        });
        match report {
            Ok(report) => {
                println!("{}", "=".repeat(78));
                println!("{report}");
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.strict && !store.is_clean() {
        let t = store.totals();
        eprintln!(
            "strict: run degraded ({} failed cell(s), {} panic(s), {} deadline failure(s), \
             {} torn line(s), {} I/O fault(s), {} worker crash(es) contained)",
            t.failed_cells,
            t.panics,
            t.deadline_failed,
            t.torn_lines,
            t.io_faults,
            t.worker_crashes
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_from(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn minimal_invocations_parse() {
        let a = parse(&["--all"]).unwrap();
        assert_eq!(a.trials, 100);
        assert_eq!(a.items.len(), 12);
        assert_eq!(a.exec.jobs, 1);

        let a = parse(&["--table", "3", "--trials", "30", "--jobs", "8"]).unwrap();
        assert_eq!(a.items, vec![Item::Table(3)]);
        assert_eq!(a.trials, 30);
        assert_eq!(a.exec.jobs, 8);
    }

    #[test]
    fn zero_trials_rejected() {
        let e = parse(&["--trials", "0", "--all"]).unwrap_err();
        assert!(e.contains("--trials 0"), "{e}");
    }

    #[test]
    fn garbage_values_name_the_flag() {
        assert!(parse(&["--trials", "many", "--all"])
            .unwrap_err()
            .contains("--trials"));
        assert!(parse(&["--jobs", "x", "--all"])
            .unwrap_err()
            .contains("--jobs"));
        assert!(parse(&["--table", "x"]).unwrap_err().contains("--table"));
    }

    #[test]
    fn unknown_ids_rejected_at_parse_time() {
        let e = parse(&["--table", "9"]).unwrap_err();
        assert!(e.contains("unknown table 9"), "{e}");
        let e = parse(&["--figure", "6"]).unwrap_err();
        assert!(e.contains("unknown figure 6"), "{e}");
        assert!(e.contains("vpsim-crypto"), "{e}");
    }

    #[test]
    fn chaos_levels_validated_at_parse_time() {
        let a = parse(&["--chaos", "2"]).unwrap();
        assert_eq!(a.items, vec![Item::Chaos(2)]);
        let e = parse(&["--chaos", "9"]).unwrap_err();
        assert!(e.contains("unknown chaos level 9"), "{e}");
        let e = parse(&["--chaos", "loud"]).unwrap_err();
        assert!(e.contains("--chaos"), "{e}");
        assert!(parse(&["--chaos"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn duplicates_rejected() {
        let e = parse(&["--table", "3", "--table", "3"]).unwrap_err();
        assert!(e.contains("duplicate item: --table 3"), "{e}");
        let e = parse(&["--defenses", "--defenses"]).unwrap_err();
        assert!(e.contains("duplicate"), "{e}");
        // --all after an explicit item that --all also contains.
        let e = parse(&["--figure", "5", "--all"]).unwrap_err();
        assert!(e.contains("duplicate"), "{e}");
    }

    #[test]
    fn missing_values_rejected() {
        assert!(parse(&["--trials"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--all", "--resume"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn unknown_flags_rejected() {
        let e = parse(&["--frobnicate"]).unwrap_err();
        assert!(e.contains("`--frobnicate`"), "{e}");
        // The executor-throughput matrix is `bench_pipeline`'s alone.
        let e = parse(&["--bench"]).unwrap_err();
        assert!(e.contains("unknown argument `--bench`"), "{e}");
    }

    #[test]
    fn empty_invocation_rejected() {
        let e = parse(&[]).unwrap_err();
        assert!(e.contains("nothing to do"), "{e}");
    }

    #[test]
    fn resume_defaults_to_all_cores() {
        let a = parse(&["--table", "3", "--resume", "out"]).unwrap();
        assert_eq!(a.exec.jobs, 0, "resume implies a long run; use all cores");
        let a = parse(&["--table", "3", "--resume", "out", "--jobs", "2"]).unwrap();
        assert_eq!(a.exec.jobs, 2, "explicit --jobs wins");
        assert_eq!(a.exec.resume.as_deref(), Some(std::path::Path::new("out")));
    }

    #[test]
    fn progress_flag_sets_exec() {
        let a = parse(&["--all", "--progress"]).unwrap();
        assert!(a.exec.progress);
    }

    #[test]
    fn deadline_flag_sets_hard_budget() {
        let a = parse(&["--table", "3", "--deadline", "120"]).unwrap();
        assert_eq!(
            a.exec.job_deadline,
            Some(std::time::Duration::from_secs(120))
        );
        let e = parse(&["--table", "3", "--deadline", "0"]).unwrap_err();
        assert!(e.contains("--deadline 0"), "{e}");
        let e = parse(&["--table", "3", "--deadline", "soon"]).unwrap_err();
        assert!(e.contains("--deadline"), "{e}");
    }

    #[test]
    fn trace_flag_is_a_standalone_action() {
        let a = parse(&["--trace", "out.jsonl"]).unwrap();
        assert!(a.items.is_empty());
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("out.jsonl")));
        let a = parse(&["--table", "3", "--trace", "t.jsonl"]).unwrap();
        assert_eq!(a.items, vec![Item::Table(3)]);
        assert!(a.trace.is_some());
        assert!(parse(&["--trace"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn strict_flag_parses() {
        let a = parse(&["--all", "--strict"]).unwrap();
        assert!(a.strict);
        assert!(!parse(&["--all"]).unwrap().strict);
    }
}
