//! Deterministic per-trial event-trace dumps (`repro --trace`).
//!
//! The dump runs a small fixed *traced zoo* — one cell per evaluated
//! channel — through [`CellPlan::run_pair_with`], strictly
//! sequentially in `(cell, trial, arm)` order with a fresh bounded
//! [`RingRecorder`] per arm. Every seed is a pure function of the cell
//! coordinates and trial index, so the emitted JSONL is byte-identical
//! across runs, hosts, and `--jobs` settings; CI diffs two invocations
//! to prove it.
//!
//! Output format, one JSON object per line:
//!
//! ```text
//! {"type":"trace_header","cell":"...","trial":0,"arm":"mapped","seen":N,"dropped":N}
//! {"cycle":12,"kind":"predict",...}   // RingRecorder::to_jsonl lines
//! ...
//! ```
//!
//! The ring keeps the *tail* of each arm's trace; `dropped` in the
//! header records how many early events were cut, so consumers can tell
//! a complete trace from a truncated one.

use std::fmt::Write as _;

use vpsec::attacks::AttackCategory;
use vpsec::experiment::{CellPlan, Channel, PredictorKind};
use vpsim_obs::{attribute, Attribution, RingRecorder};
use vpsim_pipeline::RunCtl;

use crate::reports::config;

/// Per-arm ring capacity. Deep enough to hold every event of a default
/// trial's transient phase; shallow enough that a full dump stays small.
pub const TRACE_RING_CAPACITY: usize = 512;

/// One traced zoo cell: a stable slug plus its plan.
struct TracedCell {
    name: &'static str,
    plan: CellPlan,
}

/// The traced zoo: the two paper-evaluated channels on the baseline LVP
/// attack cells. Small by design — the dump is a microscope, not a
/// campaign; the full matrix is the `table3` campaign's job.
fn traced_zoo(trials: usize) -> Vec<TracedCell> {
    let cfg = config(trials);
    let cells: [(&'static str, AttackCategory, Channel); 2] = [
        (
            "train_test/timing_window/lvp",
            AttackCategory::TrainTest,
            Channel::TimingWindow,
        ),
        (
            "test_hit/persistent/lvp",
            AttackCategory::TestHit,
            Channel::Persistent,
        ),
    ];
    cells
        .into_iter()
        .map(|(name, category, channel)| TracedCell {
            name,
            plan: CellPlan::new(category, channel, PredictorKind::Lvp, &cfg)
                .expect("traced zoo cells support their channels"),
        })
        .collect()
}

/// Attribution counters for one zoo cell, split by arm.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellAttribution {
    /// Secret-mapped arm, summed over trials.
    pub mapped: Attribution,
    /// Unmapped arm, summed over trials.
    pub unmapped: Attribution,
}

/// A finished dump: the JSONL trace text plus the per-cell attribution
/// rows backing the leakage summary.
#[derive(Debug)]
pub struct TraceDump {
    /// One JSON object per line: headers interleaved with events.
    pub jsonl: String,
    /// `(cell name, attribution)` in zoo order.
    pub cells: Vec<(String, CellAttribution)>,
}

/// Run the traced zoo for `trials` paired trials and render the dump.
#[must_use]
pub fn run(trials: usize) -> TraceDump {
    let mut jsonl = String::new();
    let mut cells = Vec::new();
    for cell in traced_zoo(trials) {
        let mut attrib = CellAttribution::default();
        for t in 0..trials {
            let mut mapped = RingRecorder::new(TRACE_RING_CAPACITY);
            let mut unmapped = RingRecorder::new(TRACE_RING_CAPACITY);
            let ctl = |ring| RunCtl {
                cancel: None,
                tracer: Some(ring),
            };
            let _ = cell
                .plan
                .run_pair_with(t, ctl(&mut mapped), ctl(&mut unmapped));
            attrib.mapped.merge(&attribute(mapped.events()));
            attrib.unmapped.merge(&attribute(unmapped.events()));
            for (arm, rec) in [("mapped", &mapped), ("unmapped", &unmapped)] {
                let _ = writeln!(
                    jsonl,
                    "{{\"type\":\"trace_header\",\"cell\":\"{}\",\"trial\":{t},\"arm\":\"{arm}\",\"seen\":{},\"dropped\":{}}}",
                    cell.name,
                    rec.seen(),
                    rec.dropped(),
                );
                jsonl.push_str(&rec.to_jsonl());
            }
        }
        cells.push((cell.name.to_string(), attrib));
    }
    TraceDump { jsonl, cells }
}

/// Render the leakage-attribution summary: per cell and arm, how many
/// events landed inside a transient window — the paper's leak surface.
#[must_use]
pub fn attribution_report(dump: &TraceDump) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Leakage attribution (events in transient windows)");
    let _ = writeln!(
        out,
        "  {:<40} {:>8} {:>8} {:>8} {:>9} {:>10} {:>9} {:>6}",
        "cell/arm", "events", "windows", "squash", "transient", "trans.mem", "fills", "leak%"
    );
    for (name, attrib) in &dump.cells {
        for (arm, a) in [("mapped", &attrib.mapped), ("unmapped", &attrib.unmapped)] {
            let leak_pct = if a.events == 0 {
                0.0
            } else {
                100.0 * a.transient_events as f64 / a.events as f64
            };
            let _ = writeln!(
                out,
                "  {:<40} {:>8} {:>8} {:>8} {:>9} {:>10} {:>9} {:>5.1}%",
                format!("{name}/{arm}"),
                a.events,
                a.windows,
                a.squashed_windows,
                a.transient_events,
                a.transient_mem_events,
                a.transient_fills,
                leak_pct,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_is_deterministic_and_well_formed() {
        let a = run(2);
        let b = run(2);
        assert_eq!(a.jsonl, b.jsonl, "trace dump must be byte-identical");
        assert!(!a.jsonl.is_empty());
        // 2 cells x 2 trials x 2 arms = 8 headers.
        let headers = a
            .jsonl
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"trace_header\""))
            .count();
        assert_eq!(headers, 8);
        for line in a.jsonl.lines() {
            let v = vpsim_json::parse(line).expect("every line is JSON");
            if line.starts_with("{\"type\":\"trace_header\"") {
                assert!(v.get("cell").is_some());
                assert!(v.get("seen").and_then(vpsim_json::Json::as_u64).is_some());
            } else {
                assert!(v.get("cycle").is_some(), "event line has a cycle stamp");
                assert!(v.get("kind").is_some(), "event line has a kind");
            }
        }
    }

    #[test]
    fn mapped_arm_attributes_transient_leakage() {
        let dump = run(3);
        assert_eq!(dump.cells.len(), 2);
        let (_, tt) = &dump.cells[0];
        // The Train+Test mapped arm predicts and leaks through the
        // transient window; its trace must attribute events there.
        assert!(tt.mapped.windows > 0, "mapped arm opens windows");
        assert!(tt.mapped.transient_events > 0);
        let report = attribution_report(&dump);
        assert!(report.contains("train_test/timing_window/lvp/mapped"));
        assert!(report.contains("test_hit/persistent/lvp/unmapped"));
    }
}
