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
use vpsim_json::Json;

use crate::artifact::{array, Cell, Report};

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
}

impl Cell for ChaosCell {
    const NAME: &'static str = "chaos";

    fn key(&self) -> String {
        format!("{}@{}/{}", self.variant, self.level, self.receiver)
    }

    fn write(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"variant\": \"{}\", \"level\": {}, \"receiver\": \"{}\", \
             \"bits\": {}, \"bit_errors\": {}, \"accuracy\": {:.4}, \
             \"data_trials\": {}, \"probe_trials\": {}, \"sim_cycles\": {}}}",
            self.variant,
            self.level,
            self.receiver,
            self.bits,
            self.bit_errors,
            self.accuracy(),
            self.data_trials,
            self.probe_trials,
            self.sim_cycles,
        );
    }

    fn read(j: &Json) -> Option<Self> {
        let text = |k| Some(j.get(k)?.as_str()?.to_owned());
        let n = |k| j.get(k)?.as_u64();
        let count = |k| usize::try_from(n(k)?).ok();
        Some(ChaosCell {
            variant: text("variant")?,
            level: u8::try_from(n("level")?).ok()?,
            receiver: text("receiver")?,
            bits: count("bits")?,
            bit_errors: count("bit_errors")?,
            data_trials: count("data_trials")?,
            probe_trials: count("probe_trials")?,
            sim_cycles: n("sim_cycles")?,
        })
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("bits", self.bits as u64),
            ("bit_errors", self.bit_errors as u64),
            ("data_trials", self.data_trials as u64),
            ("probe_trials", self.probe_trials as u64),
            ("sim_cycles", self.sim_cycles),
        ]
    }

    fn degenerate(&self) -> bool {
        self.bits == 0
    }

    fn summary(report: &ChaosReport, out: &mut String) {
        array(out, "summary", &report.levels(), |level, out| {
            let _ = write!(
                out,
                "{{\"level\": {level}, \"mean_accuracy_fixed\": {:.4}, \
                 \"mean_accuracy_selfcal\": {:.4}}}",
                report.mean_accuracy(*level, "fixed"),
                report.mean_accuracy(*level, "selfcal"),
            );
        });
        out.push_str(",\n");
    }
}

/// A full robustness sweep.
pub type ChaosReport = Report<ChaosCell>;

impl ChaosReport {
    fn levels(&self) -> Vec<u8> {
        let mut levels: Vec<u8> = self.cells.iter().map(|c| c.level).collect();
        levels.sort_unstable();
        levels.dedup();
        levels
    }

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
    let msg = message(if quick { 2 } else { 8 });
    let mut cells = Vec::new();
    for (vi, (name, category, channel, predictor)) in variants().into_iter().enumerate() {
        let variant_seed = 0xDAC_2021 ^ (vi as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &level in levels {
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
    for &level in levels {
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
    Report::new(quick, cells)
}

/// Render the human-readable degradation table.
#[must_use]
pub fn render(report: &ChaosReport) -> String {
    let mut out = String::from("Robustness sweep: accuracy under injected faults/noise\n\n");
    let _ = writeln!(out, "  {:<22} {:>9} {:>9}", "", "fixed", "selfcal");
    for level in report.levels() {
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
        Report::new(
            true,
            vec![
                mk("train_test/tw/lvp", 0, "fixed", 0),
                mk("train_test/tw/lvp", 0, "selfcal", 0),
                mk("train_test/tw/lvp", 1, "fixed", 3),
                mk("train_test/tw/lvp", 1, "selfcal", 1),
            ],
        )
    }

    #[test]
    fn json_roundtrips_exactly() {
        let r = tiny_report();
        let parsed = ChaosReport::from_json(&r.to_json(None)).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.levels(), [0, 1]);
    }

    #[test]
    fn check_flags_any_drift() {
        let r = tiny_report();
        let base = ChaosReport::from_json(&r.to_json(None)).unwrap();
        assert!(r.check(&base).is_ok());
        let mut drifted = r.clone();
        drifted.cells[2].bit_errors = 4;
        let err = drifted.check(&base).unwrap_err();
        assert_eq!(err, "train_test/tw/lvp@1/fixed: bit_errors changed 3 -> 4");
        let mut modeless = r;
        modeless.mode = "full".to_owned();
        let err = modeless.check(&base).unwrap_err();
        assert_eq!(err, "baseline mode `quick` does not match run mode `full`");
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
