//! The one format behind every committed `BENCH_*.json` artifact.
//!
//! A bench bin measures a list of cells, prints its table and hands the
//! [`Report`] to [`finish`], which writes the document or, under
//! `--check`, compares the run against a committed one. A document is
//! `schema`, `mode`, an optional summary block and a `cells` array with
//! one cell object per line, so two artifacts diff cell by cell. Each
//! [`Cell`] type names its deterministic fields ([`Cell::exact`],
//! compared exactly) and its wall-clock rate ([`Cell::rate`], bounded by
//! [`MAX_SLOWDOWN`]).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vpsim_json::Json;

/// The largest wall-clock slowdown `--check` tolerates on a cell's rate.
pub const MAX_SLOWDOWN: f64 = 2.0;

/// One cell of a bench artifact.
pub trait Cell: Sized {
    /// The artifact's name: it is written to `BENCH_<NAME>.json` under
    /// the schema `vpsim-bench-<NAME>/v1`.
    const NAME: &'static str;

    /// The key a cell is matched by against a baseline.
    fn key(&self) -> String;

    /// Append the cell as one single-line JSON object.
    fn write(&self, out: &mut String);

    /// Read a cell back from its object; `None` if a field is missing or
    /// malformed.
    fn read(j: &Json) -> Option<Self>;

    /// The deterministic fields by name, which a check demands equal.
    fn exact(&self) -> Vec<(&'static str, u64)>;

    /// The wall-clock throughput (higher is better), if the cell has one.
    fn rate(&self) -> Option<f64> {
        None
    }

    /// Whether the cell measured nothing, which fails every run.
    fn degenerate(&self) -> bool;

    /// Append a block to write between `mode` and `cells` (none by
    /// default); it must end with `,\n`.
    fn summary(_report: &Report<Self>, _out: &mut String) {}
}

/// A bench run: its mode (`quick` or `full`) and its cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Report<C> {
    /// `quick` or `full`.
    pub mode: String,
    /// The measured cells.
    pub cells: Vec<C>,
}

/// Append `"name": [` and one indented row per line, closed by `]`.
pub fn array<T>(out: &mut String, name: &str, rows: &[T], row: impl Fn(&T, &mut String)) {
    let _ = writeln!(out, "  \"{name}\": [");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "    " } else { ",\n    " });
        row(r, out);
    }
    out.push_str(if rows.is_empty() { "  ]" } else { "\n  ]" });
}

impl<C: Cell> Report<C> {
    /// A report of `cells` in quick or full mode.
    #[must_use]
    pub fn new(quick: bool, cells: Vec<C>) -> Self {
        let mode = if quick { "quick" } else { "full" }.to_owned();
        Report { mode, cells }
    }

    /// Where the report is written without `--out`: `BENCH_<NAME>.json`,
    /// or `BENCH_<NAME>.quick.json` for a quick run, so the CI-sized run
    /// never overwrites the full artifact.
    #[must_use]
    pub fn default_path(&self) -> PathBuf {
        let quick = if self.mode == "quick" { ".quick" } else { "" };
        PathBuf::from(format!("BENCH_{}{quick}.json", C::NAME))
    }

    /// Render the document, with `before`'s cells and per-cell speedups
    /// appended when a baseline is given.
    #[must_use]
    pub fn to_json(&self, before: Option<&Self>) -> String {
        let (name, mode) = (C::NAME, &self.mode);
        let mut out =
            format!("{{\n  \"schema\": \"vpsim-bench-{name}/v1\",\n  \"mode\": \"{mode}\",\n");
        C::summary(self, &mut out);
        array(&mut out, "cells", &self.cells, C::write);
        if let Some(before) = before {
            out.push_str(",\n");
            array(&mut out, "before", &before.cells, C::write);
            let speedups: Vec<String> = self
                .cells
                .iter()
                .filter_map(|c| {
                    let b = before.cells.iter().find(|b| b.key() == c.key())?;
                    Some(format!("    \"{}\": {:.2}", c.key(), c.rate()? / b.rate()?))
                })
                .collect();
            let _ = write!(out, ",\n  \"speedup\": {{\n{}\n  }}", speedups.join(",\n"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parse a document written by [`Report::to_json`]; a `before`
    /// section is ignored. Fails on malformed JSON, another schema, or a
    /// cell that does not read (named by its index).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = vpsim_json::parse(text).map_err(|e| e.to_string())?;
        let string = |key| doc.get(key).and_then(Json::as_str);
        let schema = format!("vpsim-bench-{}/v1", C::NAME);
        let found = string("schema").unwrap_or("(none)");
        if found != schema {
            return Err(format!("schema `{found}` is not `{schema}`"));
        }
        let mode = string("mode").ok_or("no `mode`")?.to_owned();
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("no `cells` array")?
            .iter()
            .enumerate()
            .map(|(i, j)| C::read(j).ok_or_else(|| format!("cell {i} does not read")))
            .collect::<Result<_, _>>()?;
        Ok(Report { mode, cells })
    }

    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("baseline {}: {e}", path.display()))
    }

    /// A baseline this run can be compared with: it has cells, and it
    /// was run in the same mode (keys do not depend on the mode, but the
    /// measured values do).
    fn comparable(&self, base: &Self) -> Result<(), String> {
        if base.cells.is_empty() {
            return Err("baseline file contains no cells".to_owned());
        }
        if base.mode != self.mode {
            return Err(format!(
                "baseline mode `{}` does not match run mode `{}`",
                base.mode, self.mode
            ));
        }
        Ok(())
    }

    /// Compare the run with a baseline: the same cells, every exact
    /// field equal, and every rate within [`MAX_SLOWDOWN`]. The error
    /// has one line per violation, naming the cell and the field.
    pub fn check(&self, base: &Self) -> Result<(), String> {
        self.comparable(base)?;
        let mut problems = Vec::new();
        if base.cells.len() != self.cells.len() {
            problems.push(format!(
                "cell count changed: baseline {} vs run {}",
                base.cells.len(),
                self.cells.len()
            ));
        }
        for c in &self.cells {
            let key = c.key();
            let Some(b) = base.cells.iter().find(|b| b.key() == key) else {
                problems.push(format!("{key}: missing from baseline"));
                continue;
            };
            for ((field, was), (_, now)) in b.exact().into_iter().zip(c.exact()) {
                if was != now {
                    problems.push(format!("{key}: {field} changed {was} -> {now}"));
                }
            }
            if let (Some(was), Some(now)) = (b.rate(), c.rate()) {
                if now * MAX_SLOWDOWN < was {
                    problems.push(format!(
                        "{key}: throughput regressed >{MAX_SLOWDOWN}x: {was:.0} -> {now:.0} per second"
                    ));
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }
}

/// End a bench run. A degenerate cell fails it. With `check`, compare
/// against that baseline and write nothing. Otherwise write the
/// document to `out` (default [`Report::default_path`]), embedding the
/// cells of the `before` baseline when one is given.
#[must_use]
pub fn finish<C: Cell>(
    report: &Report<C>,
    check: Option<PathBuf>,
    before: Option<PathBuf>,
    out: Option<PathBuf>,
) -> ExitCode {
    match try_finish(report, check, before, out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn try_finish<C: Cell>(
    report: &Report<C>,
    check: Option<PathBuf>,
    before: Option<PathBuf>,
    out: Option<PathBuf>,
) -> Result<(), String> {
    if let Some(c) = report.cells.iter().find(|c| c.degenerate()) {
        return Err(format!("{}: degenerate cell, it measured nothing", c.key()));
    }
    if let Some(path) = check {
        report
            .check(&Report::load(&path)?)
            .map_err(|problems| format!("check FAILED against {}:\n{problems}", path.display()))?;
        println!(
            "check: {} cells match {}",
            report.cells.len(),
            path.display()
        );
        return Ok(());
    }
    let before = before.as_deref().map(Report::load).transpose()?;
    if let Some(base) = &before {
        report.comparable(base)?;
    }
    let out = out.unwrap_or_else(|| report.default_path());
    std::fs::write(&out, report.to_json(before.as_ref()))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos_bench::ChaosReport;
    use crate::pipeline_bench::BenchReport;

    const PIPELINE: &str = include_str!("../../../BENCH_pipeline.json");
    const PIPELINE_QUICK: &str = include_str!("../../../BENCH_pipeline.quick.json");
    const CHAOS: &str = include_str!("../../../BENCH_chaos.json");
    const CHAOS_QUICK: &str = include_str!("../../../BENCH_chaos.quick.json");

    #[test]
    fn committed_artifacts_round_trip() {
        let pipeline = BenchReport::from_json(PIPELINE).unwrap();
        assert_eq!((pipeline.mode.as_str(), pipeline.cells.len()), ("full", 36));
        // The full file's `before` and `speedup` come from a baseline
        // run; its own cells still re-render exactly.
        let cells = pipeline.to_json(None);
        assert!(PIPELINE.starts_with(cells.trim_end_matches("\n}\n")));
        let quick = BenchReport::from_json(PIPELINE_QUICK).unwrap();
        assert_eq!((quick.mode.as_str(), quick.cells.len()), ("quick", 36));
        assert_eq!(quick.to_json(None), PIPELINE_QUICK);
        for (text, mode, n) in [(CHAOS, "full", 130), (CHAOS_QUICK, "quick", 130)] {
            let r = ChaosReport::from_json(text).unwrap();
            assert_eq!((r.mode.as_str(), r.cells.len()), (mode, n));
            assert_eq!(r.to_json(None), text);
        }
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        let err = BenchReport::from_json(&PIPELINE_QUICK[..PIPELINE_QUICK.len() / 2]).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
        let err = BenchReport::from_json(CHAOS_QUICK).unwrap_err();
        assert!(err.contains("schema `vpsim-bench-chaos/v1`"), "{err}");
        let unreadable = PIPELINE_QUICK.replacen("\"dispatched\": ", "\"dispatched\": -", 1);
        let err = BenchReport::from_json(&unreadable).unwrap_err();
        assert_eq!(err, "cell 0 does not read");
    }

    #[test]
    fn finish_writes_the_document_and_fails_on_degenerate_cells() {
        let out = std::env::temp_dir().join(format!("vpsim-artifact-{}.json", std::process::id()));
        let run = |report: &ChaosReport| finish(report, None, None, Some(out.clone()));
        let mut report = ChaosReport::from_json(CHAOS_QUICK).unwrap();
        assert_eq!(run(&report), ExitCode::SUCCESS);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), CHAOS_QUICK);
        std::fs::remove_file(&out).unwrap();
        report.cells[7].bits = 0;
        assert_eq!(run(&report), ExitCode::FAILURE);
        assert!(!out.exists(), "a failed run writes no file");
    }
}
