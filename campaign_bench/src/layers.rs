//! Per-layer counters and timings shared by the traced runs.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use vpsim_harness::{JobObserver, JobRecord};
use vpsim_mem::MemoryStats;
use vpsim_pipeline::RunResult;

use crate::stats::{median, ratio, Report};
use crate::trace::Tracer;

/// What a replayed job's time is split across: the self time of the
/// spans named after each part or `<part>.*`. Machine set-up and
/// tear-down are split from simulation, since the campaign path is
/// set-up bound.
pub const SPLIT_PARTS: [&str; 8] = [
    "experiment",
    "predictor",
    "pipeline.machine_new",
    "pipeline.machine_drop",
    "pipeline.run",
    "mem",
    "isa",
    "crypto",
];

/// Simulator work counted over every `Machine::run` and machine of a
/// replay. Counts repeat exactly for a given seed.
#[derive(Debug, Default)]
pub struct SimCounters {
    pub jobs: u64,
    pub machines: u64,
    runs: u64,
    ticks: u64,
    skipped: u64,
    issue_slots: u64,
    wakeups: u64,
    squashes: u64,
    predicted: u64,
    correct: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
}

impl SimCounters {
    pub fn add_run(&mut self, r: &RunResult) {
        self.runs += 1;
        self.ticks += r.sched.ticks;
        self.skipped += r.sched.skipped_cycles;
        self.issue_slots += r.sched.issue_slots;
        self.wakeups += r.sched.wakeup_broadcasts;
        self.squashes += r.stats.squashes;
        self.predicted += r.stats.predicted_loads;
        self.correct += r.stats.correct_predictions;
    }

    /// Fold in the memory counters of a machine about to be dropped.
    pub fn add_machine(&mut self, m: &MemoryStats) {
        self.machines += 1;
        self.l1_hits += m.l1.hits;
        self.l1_misses += m.l1.misses;
        self.l2_hits += m.l2.hits;
        self.l2_misses += m.l2.misses;
    }

    /// Report the simulator layers: pipeline, memory and predictor
    /// counts from these counters, timings from the tracer's spans.
    pub fn report(&self, tracer: &Tracer, report: &mut Report) {
        let (jobs, runs) = (self.jobs as f64, self.runs as f64);
        report.timing(
            "pipeline.machine_new_us",
            &tracer.durations_us("pipeline.machine_new"),
        );
        report.set(
            "pipeline.machine_drop_us.p50",
            median(&tracer.durations_us("pipeline.machine_drop")),
        );
        report.timing("pipeline.run_us", &tracer.durations_us("pipeline.run"));
        report.set("pipeline.runs_per_job", ratio(runs, jobs));
        report.set("pipeline.ticks_per_run", ratio(self.ticks as f64, runs));
        report.set(
            "pipeline.skip_ratio",
            ratio(self.skipped as f64, (self.ticks + self.skipped) as f64),
        );
        report.set(
            "pipeline.issue_slots_per_run",
            ratio(self.issue_slots as f64, runs),
        );
        report.set("pipeline.wakeups_per_run", ratio(self.wakeups as f64, runs));
        report.set(
            "pipeline.squashes_per_job",
            ratio(self.squashes as f64, jobs),
        );
        report.set(
            "mem.hierarchy_new_us.p50",
            median(&tracer.durations_us("mem.hierarchy_new")),
        );
        report.set(
            "mem.l1_miss_ratio",
            ratio(
                self.l1_misses as f64,
                (self.l1_hits + self.l1_misses) as f64,
            ),
        );
        report.set(
            "mem.l2_miss_ratio",
            ratio(
                self.l2_misses as f64,
                (self.l2_hits + self.l2_misses) as f64,
            ),
        );
        report.set(
            "predictor.accuracy",
            ratio(self.correct as f64, self.predicted as f64),
        );
    }
}

/// Report the self-time split of the job trees rooted at spans called
/// `root`.
pub fn report_split(tracer: &Tracer, root: &str, report: &mut Report) {
    for (part, share) in SPLIT_PARTS.iter().zip(tracer.split(root, &SPLIT_PARTS)) {
        report.set(format!("split.{part}"), share);
    }
}

/// A campaign observer that notes when each job finished and how long
/// its worker ran it.
#[derive(Debug, Default)]
pub struct JobTimes(Mutex<Vec<(Instant, u64)>>);

impl JobObserver for JobTimes {
    fn job_done(&self, rec: &JobRecord, _resumed: bool) {
        self.0
            .lock()
            .expect("job-time log poisoned")
            .push((Instant::now(), rec.wall_nanos));
    }
}

/// One observed campaign run, as pool and fleet metrics need it.
#[derive(Debug)]
pub struct ObservedRun {
    pub wall: Duration,
    /// Σ worker-side `JobRecord::wall_nanos`, in seconds.
    pub busy: f64,
    /// From the last `job_done` to the return of `Campaign::run`.
    pub tail: Duration,
}

impl JobTimes {
    /// Close the run started at `start` and ended at `end`: record a
    /// `harness.campaign` span with one `harness.job` child per job.
    pub fn finish(&self, start: Instant, end: Instant, tracer: &mut Tracer) -> ObservedRun {
        let jobs = self.0.lock().expect("job-time log poisoned");
        let campaign = tracer.record("harness.campaign", start, end, None, 0);
        let mut last = start;
        let mut busy = 0.0;
        for (i, &(done, wall_nanos)) in jobs.iter().enumerate() {
            let began = done
                .checked_sub(Duration::from_nanos(wall_nanos))
                .unwrap_or(start);
            tracer.record("harness.job", began, done, Some(campaign), i as u64);
            last = last.max(done);
            busy += wall_nanos as f64 / 1e9;
        }
        ObservedRun {
            wall: end - start,
            busy,
            tail: end.saturating_duration_since(last),
        }
    }
}
