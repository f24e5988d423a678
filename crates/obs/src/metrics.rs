//! The workspace-wide metrics registry: named counter, gauge and
//! histogram families with labelled series, snapshotted into a stable
//! [`Snapshot`] that renders as Prometheus text exposition or JSON.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histo`]) are cheap `Arc` clones —
//! register once, update from any thread. Snapshots are taken under the
//! registry lock and rendered *after* releasing it, so exposition never
//! holds up the hot path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vpsim_json::escaped;
use vpsim_stats::Histogram;

/// The exposition kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// A distribution with cumulative buckets, sum and count.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonic counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (stores `f64` bits atomically).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistoInner {
    hist: Histogram,
    lo: f64,
    hi: f64,
    bins: usize,
    count: u64,
    sum: f64,
}

/// A histogram handle wrapping a [`vpsim_stats::Histogram`] plus exact
/// count/sum tracking (the linear bins only shape the buckets).
#[derive(Debug, Clone)]
pub struct Histo(Arc<Mutex<HistoInner>>);

impl Histo {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let mut inner = self.0.lock().expect("histogram poisoned");
        inner.hist.record(v);
        inner.count += 1;
        inner.sum += v;
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.lock().expect("histogram poisoned").count
    }

    fn snap(&self) -> SeriesValue {
        let inner = self.0.lock().expect("histogram poisoned");
        let width = (inner.hi - inner.lo) / inner.bins as f64;
        // Outliers (`Histogram` folds below-lo and at/above-hi together)
        // count only toward `+Inf` (== `count`) — buckets stay monotone.
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(inner.bins);
        for (i, c) in inner.hist.counts().iter().enumerate() {
            cumulative += c;
            let le = inner.lo + width * (i as f64 + 1.0);
            buckets.push((le, cumulative));
        }
        SeriesValue::Histogram {
            count: inner.count,
            sum: inner.sum,
            buckets,
        }
    }
}

#[derive(Debug)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

/// The metrics registry: a named set of metric families.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        && !name.as_bytes()[0].is_ascii_digit()
}

fn canonical_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Run `with` on family `name`, created with no series if absent.
    fn with_family<R>(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        with: impl FnOnce(&mut Family) -> R,
    ) -> R {
        assert!(
            valid_name(name),
            "invalid metric name {name:?} (want [a-z_][a-z0-9_]*)"
        );
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            kind,
            help: help.to_owned(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} re-registered as {:?} (was {:?})",
            kind,
            family.kind
        );
        with(family)
    }

    /// Declare a family without registering a series: the exposition
    /// carries its `# HELP` and `# TYPE` lines and no samples until a
    /// series is registered.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or kind mismatch.
    pub fn declare(&self, name: &str, help: &str, kind: MetricKind) {
        self.with_family(name, help, kind, |_| ());
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        self.with_family(name, help, kind, |family| {
            let key = canonical_labels(labels);
            match family.series.entry(key).or_insert_with(make) {
                Handle::Counter(c) => Handle::Counter(c.clone()),
                Handle::Gauge(g) => Handle::Gauge(g.clone()),
                Handle::Histo(h) => Handle::Histo(h.clone()),
            }
        })
    }

    /// Register (or re-attach to) a counter series. Re-registering the
    /// same `(name, labels)` returns a handle to the same underlying
    /// value.
    ///
    /// # Panics
    ///
    /// Panics on an invalid family name or a kind mismatch with an
    /// existing family — both programmer errors.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Handle::Counter(Counter::default())
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("registered as counter"),
        }
    }

    /// Register (or re-attach to) a gauge series.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or kind mismatch.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Handle::Gauge(Gauge::default())
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("registered as gauge"),
        }
    }

    /// Register (or re-attach to) a histogram series with `bins` linear
    /// buckets over `[lo, hi)` (outliers count toward `+Inf` only).
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, kind mismatch, `bins == 0` or
    /// `hi <= lo`.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Histo {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Handle::Histo(Histo(Arc::new(Mutex::new(HistoInner {
                hist: Histogram::new(lo, hi, bins),
                lo,
                hi,
                bins,
                count: 0,
                sum: 0.0,
            }))))
        }) {
            Handle::Histo(h) => h,
            _ => unreachable!("registered as histogram"),
        }
    }

    /// A point-in-time copy of every family and series, in stable
    /// (lexicographic) order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let families = self.families.lock().expect("registry poisoned");
        let snapped = families
            .iter()
            .map(|(name, family)| FamilySnap {
                name: name.clone(),
                kind: family.kind,
                help: family.help.clone(),
                series: family
                    .series
                    .iter()
                    .map(|(labels, handle)| SeriesSnap {
                        labels: labels.clone(),
                        value: match handle {
                            Handle::Counter(c) => SeriesValue::Counter(c.get()),
                            Handle::Gauge(g) => SeriesValue::Gauge(g.get()),
                            Handle::Histo(h) => h.snap(),
                        },
                    })
                    .collect(),
            })
            .collect();
        Snapshot { families: snapped }
    }
}

/// One series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnap {
    /// Sorted label pairs (empty for the unlabelled series).
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SeriesValue,
}

/// A sampled metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary.
    Histogram {
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// `(le, cumulative_count)` per bucket edge (excluding `+Inf`).
        buckets: Vec<(f64, u64)>,
    },
}

/// One family in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnap {
    /// Family name.
    pub name: String,
    /// Exposition kind.
    pub kind: MetricKind,
    /// One-line help text.
    pub help: String,
    /// The series, in stable label order.
    pub series: Vec<SeriesSnap>,
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The families, in stable name order.
    pub families: Vec<FamilySnap>,
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escaped(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn label_block_extra(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escaped(v)))
        .collect();
    inner.push(format!("{key}=\"{value}\""));
    format!("{{{}}}", inner.join(","))
}

/// Render an `f64` for exposition via Rust's shortest-roundtrip
/// `Display` — deterministic across hosts (`1` for `1.0`, `0.5`, ...).
fn render_f64(v: f64) -> String {
    format!("{v}")
}

impl Snapshot {
    /// Prometheus text exposition: every family gets exactly one
    /// `# HELP` and one `# TYPE` line, families and series appear in
    /// stable order, histogram series expand to `_bucket`/`_sum`/
    /// `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.token());
            for s in &f.series {
                match &s.value {
                    SeriesValue::Counter(v) => {
                        let _ = writeln!(out, "{}{} {v}", f.name, label_block(&s.labels));
                    }
                    SeriesValue::Gauge(v) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            f.name,
                            label_block(&s.labels),
                            render_f64(*v)
                        );
                    }
                    SeriesValue::Histogram {
                        count,
                        sum,
                        buckets,
                    } => {
                        for (le, cum) in buckets {
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {cum}",
                                f.name,
                                label_block_extra(&s.labels, "le", &render_f64(*le))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {count}",
                            f.name,
                            label_block_extra(&s.labels, "le", "+Inf")
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            f.name,
                            label_block(&s.labels),
                            render_f64(*sum)
                        );
                        let _ = writeln!(out, "{}_count{} {count}", f.name, label_block(&s.labels));
                    }
                }
            }
        }
        out
    }

    /// JSON exposition (one document). Floats are emitted both as IEEE
    /// bit patterns (bit-exact) and human-readable values.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"families\":[");
        for (i, f) in self.families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"help\":\"{}\",\"series\":[",
                escaped(&f.name),
                f.kind.token(),
                escaped(&f.help)
            );
            for (j, s) in f.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (k, (lk, lv)) in s.labels.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", escaped(lk), escaped(lv));
                }
                out.push_str("},");
                match &s.value {
                    SeriesValue::Counter(v) => {
                        let _ = write!(out, "\"value\":{v}");
                    }
                    SeriesValue::Gauge(v) => {
                        let _ = write!(
                            out,
                            "\"value\":{},\"value_bits\":\"{:016x}\"",
                            render_f64(*v),
                            v.to_bits()
                        );
                    }
                    SeriesValue::Histogram {
                        count,
                        sum,
                        buckets,
                    } => {
                        let _ = write!(
                            out,
                            "\"count\":{count},\"sum\":{},\"sum_bits\":\"{:016x}\",\"buckets\":[",
                            render_f64(*sum),
                            sum.to_bits()
                        );
                        for (k, (le, cum)) in buckets.iter().enumerate() {
                            if k > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "[{},{cum}]", render_f64(*le));
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The sum of counter family `name` over all its series (0 when it
    /// has none): a daemon-wide total of per-campaign series.
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        let family = self.families.iter().filter(|f| f.name == name);
        let series = family.flat_map(|f| &f.series);
        series
            .map(|s| match s.value {
                SeriesValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Keep only series carrying the label `key == value`; families
    /// left with no series are dropped.
    #[must_use]
    pub fn filter_label(&self, key: &str, value: &str) -> Snapshot {
        let families = self
            .families
            .iter()
            .filter_map(|f| {
                let series: Vec<SeriesSnap> = f
                    .series
                    .iter()
                    .filter(|s| s.labels.iter().any(|(k, v)| k == key && v == value))
                    .cloned()
                    .collect();
                if series.is_empty() {
                    None
                } else {
                    Some(FamilySnap {
                        name: f.name.clone(),
                        kind: f.kind,
                        help: f.help.clone(),
                        series,
                    })
                }
            })
            .collect();
        Snapshot { families }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("vpsim_jobs_done_total", "jobs done", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = r.counter("vpsim_jobs_done_total", "jobs done", &[]);
        assert_eq!(c2.get(), 5, "re-registration re-attaches");
        let g = r.gauge("vpsim_uptime_seconds", "uptime", &[]);
        g.set(2.5);
        assert!((g.get() - 2.5).abs() < f64::EPSILON);
    }

    #[test]
    fn prometheus_exposition_has_type_lines_and_stable_order() {
        let r = Registry::new();
        r.counter("vpsim_b_total", "b", &[("campaign", "2")]).inc();
        r.counter("vpsim_b_total", "b", &[("campaign", "1")]).add(3);
        r.gauge("vpsim_a", "a", &[]).set(1.0);
        let h = r.histogram("vpsim_c_seconds", "c", &[], 0.0, 1.0, 2);
        h.observe(0.25);
        h.observe(0.75);
        h.observe(9.0); // outlier -> +Inf only
        let text = r.snapshot().to_prometheus();
        let expected = "\
# HELP vpsim_a a
# TYPE vpsim_a gauge
vpsim_a 1
# HELP vpsim_b_total b
# TYPE vpsim_b_total counter
vpsim_b_total{campaign=\"1\"} 3
vpsim_b_total{campaign=\"2\"} 1
# HELP vpsim_c_seconds c
# TYPE vpsim_c_seconds histogram
vpsim_c_seconds_bucket{le=\"0.5\"} 1
vpsim_c_seconds_bucket{le=\"1\"} 2
vpsim_c_seconds_bucket{le=\"+Inf\"} 3
vpsim_c_seconds_sum 10
vpsim_c_seconds_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn filter_label_keeps_only_matching_series() {
        let r = Registry::new();
        r.counter("vpsim_x_total", "x", &[("campaign", "1")]).inc();
        r.counter("vpsim_x_total", "x", &[("campaign", "2")]).inc();
        r.gauge("vpsim_global", "g", &[]).set(1.0);
        let snap = r.snapshot().filter_label("campaign", "1");
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].series.len(), 1);
        assert_eq!(
            snap.families[0].series[0].labels,
            vec![("campaign".to_owned(), "1".to_owned())]
        );
    }

    #[test]
    fn json_exposition_is_valid_json() {
        let r = Registry::new();
        r.counter("vpsim_x_total", "x", &[("campaign", "1")]).inc();
        r.histogram("vpsim_h", "h", &[], 0.0, 1.0, 2).observe(0.1);
        let doc = r.snapshot().to_json();
        let parsed = vpsim_json::parse(&doc).expect("valid JSON");
        let fams = parsed.get("families").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(fams.len(), 2);
    }

    #[test]
    fn declared_families_render_without_samples_and_sum_their_series() {
        let r = Registry::new();
        r.declare("vpsim_x_total", "x", MetricKind::Counter);
        let snap = r.snapshot();
        assert_eq!(
            snap.to_prometheus(),
            "# HELP vpsim_x_total x\n# TYPE vpsim_x_total counter\n"
        );
        assert_eq!(snap.counter_sum("vpsim_x_total"), 0);
        assert!(snap.filter_label("campaign", "1").families.is_empty());
        r.counter("vpsim_x_total", "x", &[("campaign", "1")]).add(2);
        r.counter("vpsim_x_total", "x", &[("campaign", "2")]).add(3);
        assert_eq!(r.snapshot().counter_sum("vpsim_x_total"), 5);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("Bad-Name", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_is_rejected() {
        let r = Registry::new();
        r.counter("vpsim_x", "x", &[]);
        r.gauge("vpsim_x", "x", &[]);
    }
}
