//! Order statistics and the report every workload run fills in.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even
/// count); `0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; `0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, or `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Work per second over all of a run's timed windows, each of which
/// did `work` (Σ work ÷ Σ window seconds). On a host whose speed
/// switches between states every few seconds this moves smoothly with
/// the share of time spent in each state, where a median of per-window
/// rates jumps from one state's value to the other's.
pub fn rate(work: f64, walls: &[f64]) -> f64 {
    ratio(work * walls.len() as f64, walls.iter().sum())
}

/// The mean time in seconds of `batch` back-to-back set-ups, one
/// `setup_s` sample: a set-up of a few microseconds is too short to time
/// alone. The set-up results are dropped outside the timed window.
pub fn time_setup<T>(batch: usize, mut setup: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let built: Vec<T> = (0..batch).map(|_| setup()).collect();
    let secs = start.elapsed().as_secs_f64() / batch as f64;
    drop(std::hint::black_box(built));
    secs
}

/// What one workload run measured and checked. A run is correct when
/// no check failed and no attempted operation failed.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// A timing reported as p50 and p99 with its sample count.
    pub fn timing(&mut self, name: &str, samples: &[f64]) {
        self.set(format!("{name}.p50"), quantile(samples, 0.50));
        self.set(format!("{name}.p99"), quantile(samples, 0.99));
        self.set(format!("{name}.n"), samples.len() as f64);
    }

    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `table` (name, unit) in order. A
    /// metric the run did not set reads 0: its layer did no work on
    /// this workload.
    ///
    /// # Panics
    ///
    /// Panics if the run set a metric `table` does not name, or a value
    /// is not finite.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        for name in self.values.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(*name).copied().unwrap_or(0.0);
                assert!(value.is_finite(), "metric {name} = {value} is not finite");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.set("jobs_per_s", 1.5);
        assert_eq!(
            r.to_json(&[("jobs_per_s", "jobs/s"), ("serve.submit_ms", "ms")]),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"jobs_per_s\": {\"value\": 1.5, \"unit\": \"jobs/s\"}, \
             \"serve.submit_ms\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "bad".to_owned());
        assert!(!r.correct());
    }
}
