//! `bench_chaos` — the robustness sweep: attack accuracy as a function
//! of injected fault/noise intensity.
//!
//! For every effective attack variant of Table II (12 cells: the six
//! categories over the timing-window channel on LVP, the three
//! persistent-capable categories on the persistent channel, and the same
//! three on VTAGE) plus the end-to-end RSA exponent leak, the sweep
//! transmits a fixed message at every chaos level (0 = clean … 4 =
//! hostile co-tenant) twice — once with the paper's fixed-threshold
//! receiver and once with the self-calibrating receiver — and records
//! the decoded accuracy.
//!
//! Everything here is simulated and seeded: the whole report is
//! bit-deterministic, so `--check` against the committed
//! `BENCH_chaos.quick.json` demands *exact* equality, cell for cell. The
//! committed full report (`BENCH_chaos.json`) is the paper-shaped
//! artifact: accuracy degrades gracefully (monotonically on average) as
//! the noise scales, and the self-calibrating receiver dominates the
//! fixed one wherever noise is nonzero.

use std::fmt::Write as _;

use vpsec::attacks::AttackCategory;
use vpsec::chaos::ChaosConfig;
use vpsec::covert::CovertConfig;
use vpsec::experiment::{Channel, ExperimentConfig, PredictorKind};
use vpsec::receiver::{transmit, ReceiverConfig, ReceiverKind, Threshold};
use vpsim_crypto::{leak_exponent, LeakConfig, Mpi};

/// One measured cell of the robustness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Variant label, `category/channel/predictor` (or `rsa/exponent`).
    pub variant: String,
    /// Chaos level (0 = off).
    pub level: u8,
    /// Receiver label (`fixed` or `selfcal`).
    pub receiver: String,
    /// Bits transmitted.
    pub bits: usize,
    /// Bits decoded incorrectly.
    pub bit_errors: usize,
    /// Trials spent on data bits (repetitions/retries included).
    pub data_trials: usize,
    /// Trials spent on calibration and in-band probes.
    pub probe_trials: usize,
    /// Simulated cycles consumed by the cell.
    pub sim_cycles: u64,
}

impl ChaosCell {
    /// Fraction of bits decoded correctly.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.bits == 0 {
            return 1.0;
        }
        1.0 - self.bit_errors as f64 / self.bits as f64
    }

    /// The `variant@level/receiver` key used for baseline matching.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}@{}/{}", self.variant, self.level, self.receiver)
    }
}

/// A full robustness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// `quick` or `full`.
    pub mode: String,
    /// Chaos levels swept.
    pub levels: Vec<u8>,
    /// The measured cells.
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// Mean accuracy over the attack variants (RSA excluded) for one
    /// level and receiver — the headline degradation series.
    #[must_use]
    pub fn mean_accuracy(&self, level: u8, receiver: &str) -> f64 {
        let accs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.level == level && c.receiver == receiver && !c.variant.starts_with("rsa"))
            .map(ChaosCell::accuracy)
            .collect();
        if accs.is_empty() {
            return 0.0;
        }
        accs.iter().sum::<f64>() / accs.len() as f64
    }
}

/// The 12 effective attack variants of Table II as covert channels.
fn variants() -> Vec<(&'static str, AttackCategory, Channel, PredictorKind)> {
    use AttackCategory as A;
    vec![
        (
            "train_hit/tw/lvp",
            A::TrainHit,
            Channel::TimingWindow,
            PredictorKind::Lvp,
        ),
        (
            "train_test/tw/lvp",
            A::TrainTest,
            Channel::TimingWindow,
            PredictorKind::Lvp,
        ),
        (
            "spill_over/tw/lvp",
            A::SpillOver,
            Channel::TimingWindow,
            PredictorKind::Lvp,
        ),
        (
            "test_hit/tw/lvp",
            A::TestHit,
            Channel::TimingWindow,
            PredictorKind::Lvp,
        ),
        (
            "fill_up/tw/lvp",
            A::FillUp,
            Channel::TimingWindow,
            PredictorKind::Lvp,
        ),
        (
            "modify_test/tw/lvp",
            A::ModifyTest,
            Channel::TimingWindow,
            PredictorKind::Lvp,
        ),
        (
            "train_test/pers/lvp",
            A::TrainTest,
            Channel::Persistent,
            PredictorKind::Lvp,
        ),
        (
            "test_hit/pers/lvp",
            A::TestHit,
            Channel::Persistent,
            PredictorKind::Lvp,
        ),
        (
            "fill_up/pers/lvp",
            A::FillUp,
            Channel::Persistent,
            PredictorKind::Lvp,
        ),
        (
            "train_test/tw/vtage",
            A::TrainTest,
            Channel::TimingWindow,
            PredictorKind::Vtage,
        ),
        (
            "test_hit/tw/vtage",
            A::TestHit,
            Channel::TimingWindow,
            PredictorKind::Vtage,
        ),
        (
            "fill_up/tw/vtage",
            A::FillUp,
            Channel::TimingWindow,
            PredictorKind::Vtage,
        ),
    ]
}

/// The fixed test pattern: alternating-ish bytes exercising both symbol
/// polarities evenly.
fn message(bytes: usize) -> Vec<u8> {
    const PATTERN: [u8; 8] = [0xa5, 0x3c, 0x96, 0x0f, 0x5a, 0xc3, 0x69, 0xf0];
    (0..bytes).map(|i| PATTERN[i % PATTERN.len()]).collect()
}

fn receiver_config(
    kind: ReceiverKind,
    variant_seed: u64,
    category: AttackCategory,
    channel: Channel,
    predictor: PredictorKind,
    level: u8,
) -> ReceiverConfig {
    let covert = CovertConfig {
        category,
        channel,
        predictor,
        experiment: ExperimentConfig {
            seed: variant_seed,
            chaos: ChaosConfig::level(level),
            ..ExperimentConfig::default()
        },
        calibration: 6,
    };
    match kind {
        ReceiverKind::Fixed => ReceiverConfig::fixed(covert),
        ReceiverKind::SelfCalibrating => ReceiverConfig::self_calibrating(covert),
    }
}

/// Run the robustness sweep over every chaos level. `quick` shrinks the
/// message so the whole sweep finishes in CI time; the committed full
/// report uses 8-byte messages and the 64-bit RSA exponent.
#[must_use]
pub fn run_sweep(quick: bool) -> ChaosReport {
    let levels: Vec<u8> = (0..ChaosConfig::NUM_LEVELS).collect();
    run_sweep_levels(quick, &levels)
}

/// [`run_sweep`] restricted to the given chaos levels (`repro --chaos L`
/// runs a single one).
#[must_use]
pub fn run_sweep_levels(quick: bool, levels: &[u8]) -> ChaosReport {
    let levels = levels.to_vec();
    let msg = message(if quick { 2 } else { 8 });
    let mut cells = Vec::new();
    for (vi, (name, category, channel, predictor)) in variants().into_iter().enumerate() {
        let variant_seed = 0xDAC_2021 ^ (vi as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &level in &levels {
            for kind in [ReceiverKind::Fixed, ReceiverKind::SelfCalibrating] {
                let cfg = receiver_config(kind, variant_seed, category, channel, predictor, level);
                let r = transmit(&msg, &cfg).expect("all 12 variants are supported");
                cells.push(ChaosCell {
                    variant: name.to_owned(),
                    level,
                    receiver: kind.to_string(),
                    bits: r.bits(),
                    bit_errors: r.bit_errors,
                    data_trials: r.data_trials,
                    probe_trials: r.probe_trials,
                    sim_cycles: r.total_cycles,
                });
            }
        }
    }
    // The end-to-end RSA exponent leak rides along: fixed = the paper's
    // Figure 7 one-time threshold; selfcal = in-band recalibration.
    let exponent = Mpi::from_u64(if quick { 0xA53C } else { 0xA53C_960F_5AC3_69F0 });
    for &level in &levels {
        for (receiver, recalibrate_every) in [("fixed", 0usize), ("selfcal", 8)] {
            let cfg = LeakConfig {
                chaos: ChaosConfig::level(level),
                recalibrate_every,
                calibration_runs: 6,
                ..LeakConfig::default()
            };
            let r = leak_exponent(&exponent, &cfg);
            let bits = r.true_bits.len();
            let wrong = r
                .true_bits
                .iter()
                .zip(&r.recovered_bits)
                .filter(|(a, b)| a != b)
                .count();
            cells.push(ChaosCell {
                variant: "rsa/exponent".to_owned(),
                level,
                receiver: receiver.to_owned(),
                bits,
                bit_errors: wrong,
                data_trials: bits,
                probe_trials: 2 * cfg.calibration_runs.max(1)
                    + 2 * (0..bits)
                        .filter(|&bit| Threshold::recalibrates_before(bit, recalibrate_every))
                        .count(),
                sim_cycles: r.total_cycles,
            });
        }
    }
    ChaosReport {
        mode: if quick { "quick" } else { "full" }.to_owned(),
        levels,
        cells,
    }
}

// ---------------------------------------------------------------------
// JSON (hand-rolled: the workspace is dependency-free by design).
// ---------------------------------------------------------------------

fn json_cell(c: &ChaosCell, out: &mut String) {
    let _ = write!(
        out,
        "    {{\"variant\": \"{}\", \"level\": {}, \"receiver\": \"{}\", \
         \"bits\": {}, \"bit_errors\": {}, \"accuracy\": {:.4}, \
         \"data_trials\": {}, \"probe_trials\": {}, \"sim_cycles\": {}}}",
        c.variant,
        c.level,
        c.receiver,
        c.bits,
        c.bit_errors,
        c.accuracy(),
        c.data_trials,
        c.probe_trials,
        c.sim_cycles,
    );
}

/// Render the report as the `BENCH_chaos.json` document.
#[must_use]
pub fn to_json(report: &ChaosReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"vpsim-bench-chaos/v1\",");
    let _ = writeln!(out, "  \"mode\": \"{}\",", report.mode);
    out.push_str("  \"summary\": [\n");
    for (i, &level) in report.levels.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"level\": {level}, \"mean_accuracy_fixed\": {:.4}, \
             \"mean_accuracy_selfcal\": {:.4}}}",
            report.mean_accuracy(level, "fixed"),
            report.mean_accuracy(level, "selfcal"),
        );
        out.push_str(if i + 1 < report.levels.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        json_cell(c, &mut out);
        out.push_str(if i + 1 < report.cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

use vpsim_json::field_str as field;

/// Re-hydrate a `BENCH_chaos.json` document produced by [`to_json`].
#[must_use]
pub fn report_from_json(json: &str) -> ChaosReport {
    let mut cells = Vec::new();
    let mut levels = Vec::new();
    let mut mode = "unknown".to_owned();
    for line in json.lines() {
        if let Some(m) = field(line, "mode") {
            if !line.contains("\"variant\"") {
                mode = m.to_owned();
            }
        }
        if let Some(l) = field(line, "level") {
            if line.contains("mean_accuracy_fixed") {
                if let Ok(l) = l.parse() {
                    levels.push(l);
                }
            }
        }
        let Some(variant) = field(line, "variant") else {
            continue;
        };
        let parsed = (|| -> Option<ChaosCell> {
            Some(ChaosCell {
                variant: variant.to_owned(),
                level: field(line, "level")?.parse().ok()?,
                receiver: field(line, "receiver")?.to_owned(),
                bits: field(line, "bits")?.parse().ok()?,
                bit_errors: field(line, "bit_errors")?.parse().ok()?,
                data_trials: field(line, "data_trials")?.parse().ok()?,
                probe_trials: field(line, "probe_trials")?.parse().ok()?,
                sim_cycles: field(line, "sim_cycles")?.parse().ok()?,
            })
        })();
        if let Some(cell) = parsed {
            cells.push(cell);
        }
    }
    ChaosReport {
        mode,
        levels,
        cells,
    }
}

/// Compare a fresh sweep against a committed baseline: the sweep is
/// fully simulated and seeded, so every cell must match **exactly** —
/// any drift means the noise plane, a receiver, or the simulator's
/// determinism changed, and the baseline must be regenerated
/// deliberately.
///
/// # Errors
///
/// Returns a description of every mismatched cell.
pub fn check_against(report: &ChaosReport, baseline_json: &str) -> Result<(), String> {
    let base = report_from_json(baseline_json);
    if base.cells.is_empty() {
        return Err("baseline file contains no cells".to_owned());
    }
    if base.mode != report.mode {
        return Err(format!(
            "baseline mode `{}` does not match run mode `{}`",
            base.mode, report.mode
        ));
    }
    let mut problems = Vec::new();
    if base.cells.len() != report.cells.len() {
        problems.push(format!(
            "cell count changed: baseline {} vs run {}",
            base.cells.len(),
            report.cells.len()
        ));
    }
    for c in &report.cells {
        let Some(b) = base.cells.iter().find(|b| b.key() == c.key()) else {
            problems.push(format!("{}: missing from baseline", c.key()));
            continue;
        };
        if b != c {
            problems.push(format!(
                "{}: drifted (errors {} -> {}, data_trials {} -> {}, cycles {} -> {})",
                c.key(),
                b.bit_errors,
                c.bit_errors,
                b.data_trials,
                c.data_trials,
                b.sim_cycles,
                c.sim_cycles
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Render the human-readable degradation table.
#[must_use]
pub fn render(report: &ChaosReport) -> String {
    let mut out = String::from("Robustness sweep: accuracy under injected faults/noise\n\n");
    let _ = writeln!(out, "  {:<22} {:>9} {:>9}", "", "fixed", "selfcal");
    for &level in &report.levels {
        let _ = writeln!(
            out,
            "  {:<22} {:>8.1}% {:>8.1}%",
            format!("mean @ level {level}"),
            100.0 * report.mean_accuracy(level, "fixed"),
            100.0 * report.mean_accuracy(level, "selfcal"),
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "  {:<22} {:>5} {:>9} {:>9} {:>11} {:>12}",
        "variant", "level", "receiver", "accuracy", "data-trials", "sim-cycles"
    );
    for c in &report.cells {
        let _ = writeln!(
            out,
            "  {:<22} {:>5} {:>9} {:>8.1}% {:>11} {:>12}",
            c.variant,
            c.level,
            c.receiver,
            100.0 * c.accuracy(),
            c.data_trials,
            c.sim_cycles,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ChaosReport {
        // A hand-built report: JSON round-trip and check logic only (the
        // real sweep is exercised by the bench binary and CI).
        let mk = |variant: &str, level: u8, receiver: &str, errors: usize| ChaosCell {
            variant: variant.to_owned(),
            level,
            receiver: receiver.to_owned(),
            bits: 16,
            bit_errors: errors,
            data_trials: 16,
            probe_trials: 12,
            sim_cycles: 1_000_000 + u64::from(level) * 1000,
        };
        ChaosReport {
            mode: "quick".to_owned(),
            levels: vec![0, 1],
            cells: vec![
                mk("train_test/tw/lvp", 0, "fixed", 0),
                mk("train_test/tw/lvp", 0, "selfcal", 0),
                mk("train_test/tw/lvp", 1, "fixed", 3),
                mk("train_test/tw/lvp", 1, "selfcal", 1),
            ],
        }
    }

    #[test]
    fn json_roundtrips_exactly() {
        let r = tiny_report();
        let parsed = report_from_json(&to_json(&r));
        assert_eq!(parsed, r);
    }

    #[test]
    fn check_flags_any_drift() {
        let r = tiny_report();
        let json = to_json(&r);
        assert!(check_against(&r, &json).is_ok());
        let mut drifted = r.clone();
        drifted.cells[2].bit_errors = 4;
        let err = check_against(&drifted, &json).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
        let mut modeless = r;
        modeless.mode = "full".to_owned();
        assert!(check_against(&modeless, &json).is_err());
    }

    #[test]
    fn mean_accuracy_summarises_levels() {
        let r = tiny_report();
        assert!((r.mean_accuracy(0, "fixed") - 1.0).abs() < 1e-12);
        assert!(r.mean_accuracy(1, "selfcal") > r.mean_accuracy(1, "fixed"));
    }

    #[test]
    fn twelve_variants_cover_table_ii() {
        let v = variants();
        assert_eq!(v.len(), 12);
        // Persistent appears only for the three persistent-capable
        // categories; names are unique.
        let names: std::collections::HashSet<&str> = v.iter().map(|(n, ..)| *n).collect();
        assert_eq!(names.len(), 12);
        assert_eq!(
            v.iter()
                .filter(|(_, _, c, _)| *c == Channel::Persistent)
                .count(),
            3
        );
    }
}
