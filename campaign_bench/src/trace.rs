//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (nothing inside the program is instrumented). Each span has a
//! name `<layer>.<operation>`, a start and end relative to the tracer's
//! origin, the span that caused it and a job id. Spans stay in memory
//! and are written out as JSONL when the run ends. A span's self time
//! is its duration minus the durations of its direct children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span on the calling thread; its parent is the innermost
    /// open span.
    pub fn enter(&mut self, name: &'static str, job: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.offset(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
    }

    /// Add a span measured elsewhere (another thread or process), under
    /// an explicit parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            job,
        });
        id
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration in milliseconds of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e3
    }

    /// The share of the time under root spans called `root` that each
    /// part spends in its own spans, children excluded. A part owns the
    /// spans called `<part>` or `<part>.*` that no earlier part owns.
    pub fn split(&self, root: &str, parts: &[&str]) -> Vec<f64> {
        let mut children_ns = vec![0u64; self.spans.len()];
        let mut root_of = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            if let Some(p) = s.parent {
                children_ns[p] += s.dur_ns();
            }
        }
        let mut total = 0u64;
        let mut per_part = vec![0u64; parts.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root_of[i]].name != root {
                continue;
            }
            if s.parent.is_none() {
                total += s.dur_ns();
            }
            let own = s.dur_ns().saturating_sub(children_ns[i]);
            if let Some(p) = parts.iter().position(|p| {
                s.name
                    .strip_prefix(p)
                    .is_some_and(|r| r.is_empty() || r.starts_with('.'))
            }) {
                per_part[p] += own;
            }
        }
        per_part
            .iter()
            .map(|&ns| {
                if total == 0 {
                    0.0
                } else {
                    ns as f64 / total as f64
                }
            })
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("experiment.job", at(0), at(10), None, 0);
        let run = t.record("pipeline.run", at(1), at(7), Some(root), 0);
        t.record("mem.init", at(2), at(4), Some(run), 0);
        t.record("pipeline.run", at(0), at(50), None, 1);
        let split = t.split(
            "experiment.job",
            &["pipeline.run", "experiment", "mem", "pipeline"],
        );
        let expect = [0.4, 0.4, 0.2, 0.0];
        for (got, want) in split.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{split:?}");
        }
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new();
        let a = t.enter("experiment.job", 3);
        let b = t.enter("pipeline.run", 3);
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans[b].parent, Some(a));
        assert_eq!(t.spans[a].parent, None);
        assert_eq!(t.durations_us("pipeline.run").len(), 1);
    }
}
