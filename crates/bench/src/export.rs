//! CSV export of experiment data, for external plotting of the figures.
//!
//! Every function returns CSV text (header + rows); the `repro` binary's
//! `--csv DIR` flag writes the standard set to disk. All evaluations run
//! through the `vpsim-harness` campaign engine, so an [`Exec`] with
//! `jobs > 1` parallelizes the export and still produces byte-identical
//! CSV.

use std::fmt::Write as _;

use vpsec::attacks::AttackCategory;
use vpsec::experiment::ExperimentConfig;
use vpsim_crypto::{leak_exponent, LeakConfig};
use vpsim_harness::{CampaignOutcome, Exec};

use crate::reports;

/// Append a `#`-comment footer when the campaign ran degraded, so a CSV
/// produced by a damaged run carries its own provenance note. Clean runs
/// append nothing and the CSV stays byte-identical.
fn degradation_footer(outcome: &CampaignOutcome, out: &mut String) {
    if let Some(note) = reports::degradation(&outcome.stats) {
        let _ = writeln!(out, "# degraded run: {note}");
    }
}

/// Figure 5/8 data: the four panels of a distribution figure,
/// `panel,channel,predictor,trial,case,cycles`. It runs the campaign the
/// figure's text report runs.
///
/// # Panics
///
/// Panics if the campaign cannot run, or for a category the paper draws
/// no distribution figure for.
#[must_use]
pub fn figure_distributions_csv(
    category: AttackCategory,
    cfg: &ExperimentConfig,
    exec: &Exec,
) -> String {
    let outcome = reports::distribution_campaign(category, cfg)
        .run(exec)
        .unwrap_or_else(|e| panic!("distribution campaign: {e}"));
    let mut out = String::from("panel,channel,predictor,trial,case,cycles\n");
    for (panel, cell) in (1..).zip(outcome.cells()) {
        let Some(e) = cell.evaluation() else {
            continue;
        };
        for (case, obs) in [("mapped", &e.mapped), ("unmapped", &e.unmapped)] {
            for (i, v) in obs.iter().enumerate() {
                let _ = writeln!(out, "{panel},{},{},{i},{case},{v}", e.channel, e.predictor);
            }
        }
    }
    degradation_footer(&outcome, &mut out);
    out
}

/// Table III as CSV: `category,channel,predictor,pvalue,rate_kbps,effective`.
///
/// # Panics
///
/// Panics if the campaign cannot run.
#[must_use]
pub fn table_iii_csv(cfg: &ExperimentConfig, exec: &Exec) -> String {
    let outcome = reports::table_iii_campaign(cfg)
        .run(exec)
        .unwrap_or_else(|e| panic!("table3 campaign: {e}"));
    let mut out = String::from("category,channel,predictor,pvalue,rate_kbps,effective\n");
    // Cells were pushed in the table's row order; unsupported cells have
    // no evaluation and produce no row.
    for cell in outcome.cells() {
        if let Some(e) = cell.evaluation() {
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{:.3},{}",
                e.category,
                e.channel,
                e.predictor,
                e.ttest.p_value,
                e.rate_kbps,
                e.succeeds()
            );
        }
    }
    degradation_footer(&outcome, &mut out);
    out
}

/// The §VI-B window sweeps as CSV: `category,window,pvalue`. It runs
/// the sweep campaign the defense report runs.
///
/// # Panics
///
/// Panics if the campaign cannot run.
#[must_use]
pub fn window_sweep_csv(cfg: &ExperimentConfig, exec: &Exec) -> String {
    let outcome = reports::window_sweep_campaign(cfg)
        .run(exec)
        .unwrap_or_else(|e| panic!("sweep campaign: {e}"));
    let mut out = String::from("category,window,pvalue\n");
    for (cat, windows) in reports::SWEEPS {
        for &s in windows {
            match outcome.try_eval(&reports::sweep_cell(cat, s)) {
                Ok(e) => {
                    let _ = writeln!(out, "{cat},{s},{:.6}", e.ttest.p_value);
                }
                Err(err) => {
                    // Quarantined cell: keep the CSV parseable, note the
                    // loss as a comment row.
                    let _ = writeln!(out, "# {err}");
                }
            }
        }
    }
    degradation_footer(&outcome, &mut out);
    out
}

/// Figure 7 data: `iteration,e_bit,cycles`.
#[must_use]
pub fn figure_7_csv(bits: usize, seed: u64) -> String {
    let r = leak_exponent(
        &reports::figure_7_exponent(bits),
        &LeakConfig {
            seed,
            ..LeakConfig::default()
        },
    );
    let mut out = String::from("iteration,e_bit,cycles\n");
    for (i, (&bit, &obs)) in r.true_bits.iter().zip(&r.observations).enumerate() {
        let _ = writeln!(out, "{i},{},{obs}", u8::from(bit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            trials: 6,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn table_csv_contains_every_supported_cell() {
        let csv = table_iii_csv(&cfg(), &Exec::default());
        // 6 timing-window × 2 predictors + 3 persistent × 2 predictors.
        assert_eq!(csv.lines().count(), 1 + 12 + 6);
        assert!(csv.contains("Spill Over,timing-window,LVP"));
        assert!(!csv.contains("Spill Over,persistent"));
    }

    #[test]
    fn table_csv_is_byte_identical_at_any_thread_count() {
        let serial = table_iii_csv(&cfg(), &Exec::default());
        let parallel = table_iii_csv(
            &cfg(),
            &Exec {
                jobs: 8,
                ..Exec::default()
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn figure_csv_is_byte_identical_at_any_thread_count() {
        let serial = figure_distributions_csv(AttackCategory::TrainTest, &cfg(), &Exec::default());
        let parallel = figure_distributions_csv(
            AttackCategory::TrainTest,
            &cfg(),
            &Exec {
                jobs: 8,
                ..Exec::default()
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_csv_rows() {
        let csv = window_sweep_csv(
            &cfg(),
            &Exec {
                jobs: 2,
                ..Exec::default()
            },
        );
        assert_eq!(csv.lines().count(), 1 + 5 + 8);
        assert!(csv.contains("Train + Test,3,"));
        assert!(csv.contains("Test + Hit,9,"));
    }

    #[test]
    fn figure7_csv_rows() {
        let csv = figure_7_csv(8, 1);
        assert_eq!(csv.lines().count(), 1 + 8);
        assert!(csv.starts_with("iteration,e_bit,cycles\n"));
    }
}
