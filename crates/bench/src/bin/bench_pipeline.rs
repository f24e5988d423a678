//! `bench_pipeline` — run the pipeline-executor workload matrix and emit
//! the machine-readable `BENCH_pipeline.json` performance baseline.
//!
//! ```text
//! bench_pipeline                         # full matrix -> BENCH_pipeline.json
//! bench_pipeline --quick                 # CI-sized -> BENCH_pipeline.quick.json
//! bench_pipeline --out FILE              # write elsewhere
//! bench_pipeline --baseline FILE         # embed FILE as "before" + speedups
//! bench_pipeline --check FILE            # compare against FILE, write
//!                                        #   nothing: fail on any cycle or
//!                                        #   sched drift (the scheduler is
//!                                        #   cycle-exact) or a >2x slowdown
//! bench_pipeline --traced                # run with event tracing on; the
//!                                        #   --check gate then bounds the
//!                                        #   tracing overhead
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use vpsim_bench::artifact::finish;
use vpsim_bench::pipeline_bench::{render, run_matrix, run_matrix_traced};

#[derive(Debug, Default)]
struct Args {
    quick: bool,
    traced: bool,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    check: Option<PathBuf>,
}

fn parse_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--traced" => args.traced = true,
            "--out" => args.out = Some(PathBuf::from(value("--out", &mut it)?)),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline", &mut it)?)),
            "--check" => args.check = Some(PathBuf::from(value("--check", &mut it)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench_pipeline [--quick] [--traced] [--out FILE] [--baseline FILE] \
                 [--check FILE]"
            );
            return ExitCode::FAILURE;
        }
    };
    let report = if args.traced {
        run_matrix_traced(args.quick)
    } else {
        run_matrix(args.quick)
    };
    print!("{}", render(&report));
    finish(&report, args.check, args.baseline, args.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_bench::pipeline_bench::BenchReport;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_from(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_traced_flag() {
        assert!(parse(&["--quick", "--traced"]).unwrap().traced);
        assert!(!parse(&["--quick"]).unwrap().traced);
    }

    #[test]
    fn quick_without_out_writes_the_quick_artifact() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.out, None);
        let path = BenchReport::new(a.quick, Vec::new()).default_path();
        assert_eq!(path, PathBuf::from("BENCH_pipeline.quick.json"));
    }

    #[test]
    fn rejects_removed_flags() {
        for flag in ["--max-slowdown", "--deadline", "--strict"] {
            let err = parse(&[flag, "3"]).unwrap_err();
            assert_eq!(err, format!("unknown argument `{flag}`"));
        }
    }
}
