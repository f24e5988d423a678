//! `bench_chaos` — run the robustness sweep (attack accuracy under the
//! deterministic fault/noise-injection plane) and emit `BENCH_chaos.json`.
//!
//! ```text
//! bench_chaos                        # full sweep -> BENCH_chaos.json
//! bench_chaos --quick                # CI-sized -> BENCH_chaos.quick.json
//! bench_chaos --out FILE             # write elsewhere
//! bench_chaos --check FILE           # compare against FILE, write
//!                                    #   nothing: the sweep is fully
//!                                    #   deterministic, so any cell drift
//!                                    #   fails the check
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use vpsim_bench::artifact::finish;
use vpsim_bench::chaos_bench::{render, run_sweep};

#[derive(Debug, Default)]
struct Args {
    quick: bool,
    out: Option<PathBuf>,
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
            "--out" => args.out = Some(PathBuf::from(value("--out", &mut it)?)),
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
            eprintln!("usage: bench_chaos [--quick] [--out FILE] [--check FILE]");
            return ExitCode::FAILURE;
        }
    };
    let report = run_sweep(args.quick);
    print!("{}", render(&report));
    finish(&report, args.check, None, args.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_from(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_flag_set() {
        let a = parse(&["--quick", "--out", "x.json"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.out, Some(PathBuf::from("x.json")));
        let a = parse(&["--check", "b.json"]).unwrap();
        assert_eq!(a.check, Some(PathBuf::from("b.json")));
    }

    #[test]
    fn rejects_unknown_and_missing() {
        for flag in ["--bogus", "--deadline", "--strict"] {
            let err = parse(&[flag, "600"]).unwrap_err();
            assert_eq!(err, format!("unknown argument `{flag}`"));
        }
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--check"]).is_err());
    }
}
