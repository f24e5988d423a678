//! The run's counter store: every campaign counter is incremented once,
//! in a [`CampaignMetrics`] handle, and every other number is a view of
//! it.
//!
//! A campaign run counts into [`Exec::metrics`](crate::Exec) when the
//! caller passes a store — the daemon registers one per campaign,
//! labelled with its id, in the registry `/metrics` renders — and into a
//! private one otherwise. The outcome's [`CampaignStats`] is what the
//! run added to the store, the progress line is the same difference
//! taken mid-run, and [`CampaignMetrics::is_clean`] is the `--strict`
//! view. This module owns the family table: which `_total` family each
//! counter is, and which [`CampaignStats`] field reads it.

use std::fmt;
use std::time::Duration;

use vpsim_obs::{Counter, Histo, MetricKind, Registry};
use vpsim_pipeline::SchedStats;

/// Declares the family table from one list: [`Count`] and [`COUNTERS`]
/// for the counters, [`Phase`] and [`PHASES`] for the phase histograms
/// (20 linear buckets from 0 s to the given top edge), so a variant and
/// its family cannot drift apart.
macro_rules! families {
    (
        counters { $($count:ident => $family:literal, $help:literal;)* }
        phases { $($phase:ident => $p_family:literal, $p_help:literal, $top:literal;)* }
    ) => {
        /// One campaign counter, indexing [`COUNTERS`].
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Count {
            $($count,)*
        }

        /// Each [`Count`]'s `_total` family and help.
        const COUNTERS: [(&str, &str); [$($family),*].len()] = [$(($family, $help),)*];

        /// One wall-clock phase of a job, indexing [`PHASES`].
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Phase {
            $($phase,)*
        }

        /// Each [`Phase`]'s histogram family, help and top bucket edge.
        const PHASES: [(&str, &str, f64); [$($p_family),*].len()] =
            [$(($p_family, $p_help, $top),)*];
    };
}

families! {
    counters {
        JobsRun => "vpsim_jobs_done_total", "jobs finished by this run (resumed replays excluded)";
        JobsFailed => "vpsim_jobs_failed_total", "jobs failed (panic, deadline or poison)";
        CellsFailed => "vpsim_cells_failed_total", "cells that failed permanently";
        Panics => "vpsim_job_panics_total", "jobs that panicked";
        Cancelled => "vpsim_job_cancellations_total", "attempts cancelled mid-simulation";
        BackoffRetries => "vpsim_job_backoff_retries_total", "cancellations retried after backoff";
        DeadlineFailed => "vpsim_jobs_deadline_failed_total", "jobs failed as timed out";
        TornLines => "vpsim_torn_lines_total", "torn manifest lines recovered on resume";
        IoFaults => "vpsim_io_faults_total", "sink I/O faults degraded around";
        WorkerCrashes => "vpsim_worker_crashes_total", "worker processes that died unexpectedly";
        WorkerRespawns => "vpsim_worker_respawns_total", "worker processes respawned after a death";
        SimCycles => "vpsim_sim_cycles_total", "simulated cycles of the jobs this run finished";
        SchedTicks => "vpsim_sched_ticks_total", "scheduler cycles actually ticked";
        SchedSkipped => "vpsim_sched_skipped_cycles_total", "idle cycles skipped by the clock";
    }
    phases {
        QueueWait => "vpsim_phase_queue_wait_seconds", "worker idle time waiting for a job", 1.0;
        Run => "vpsim_phase_run_seconds", "simulation wall time per attempt", 10.0;
        Sink => "vpsim_phase_sink_seconds", "record persistence and streaming time per job", 0.1;
        Backoff => "vpsim_phase_backoff_seconds", "retry backoff delay per cancelled attempt", 5.0;
    }
}

/// One reading of every counter, in [`Count`] order.
pub(crate) type Counts = [u64; COUNTERS.len()];

/// A campaign's counter store: live handles in a [`Registry`], labelled
/// `campaign="<name>"` so one daemon can expose many campaigns side by
/// side.
///
/// The ledger, the lanes, the manifest and the reduction each count an
/// event once, into the handle it belongs to. The handles are telemetry
/// only and never feed back into results.
#[derive(Debug, Clone)]
pub struct CampaignMetrics {
    counters: [Counter; COUNTERS.len()],
    phases: [Histo; PHASES.len()],
}

impl CampaignMetrics {
    /// Register the campaign's families in `registry`, labelled
    /// `campaign="<name>"`. Re-registering the same campaign name
    /// re-attaches to the same underlying series.
    #[must_use]
    pub fn register(registry: &Registry, campaign: &str) -> CampaignMetrics {
        let l: &[(&str, &str)] = &[("campaign", campaign)];
        CampaignMetrics {
            counters: COUNTERS.map(|(name, help)| registry.counter(name, help, l)),
            phases: PHASES.map(|(name, help, hi)| registry.histogram(name, help, l, 0.0, hi, 20)),
        }
    }

    /// Declare every campaign family in `registry` without a series, so
    /// an exposition taken before any campaign ran still describes them.
    pub fn declare(registry: &Registry) {
        for (name, help) in COUNTERS {
            registry.declare(name, help, MetricKind::Counter);
        }
        for (name, help, _) in PHASES {
            registry.declare(name, help, MetricKind::Histogram);
        }
    }

    pub(crate) fn add(&self, count: Count, n: u64) {
        self.counters[count as usize].add(n);
    }

    pub(crate) fn inc(&self, count: Count) {
        self.add(count, 1);
    }

    pub(crate) fn observe(&self, phase: Phase, wall: Duration) {
        self.phases[phase as usize].observe(wall.as_secs_f64());
    }

    pub(crate) fn read(&self) -> Counts {
        self.counters.each_ref().map(Counter::get)
    }

    /// What the store counted since `before`. The job totals and the
    /// wall time are not counters: they stay zero for the caller to
    /// fill in.
    pub(crate) fn stats_since(&self, before: &Counts) -> CampaignStats {
        let now = self.read();
        let n = |c: Count| now[c as usize] - before[c as usize];
        let d = |c: Count| n(c) as usize;
        CampaignStats {
            jobs_run: d(Count::JobsRun),
            failed_cells: d(Count::CellsFailed),
            panics: d(Count::Panics),
            cancelled: d(Count::Cancelled),
            backoff_retries: d(Count::BackoffRetries),
            deadline_failed: d(Count::DeadlineFailed),
            torn_lines: d(Count::TornLines),
            io_faults: d(Count::IoFaults),
            worker_crashes: d(Count::WorkerCrashes),
            worker_respawns: d(Count::WorkerRespawns),
            sim_cycles: n(Count::SimCycles),
            sched: SchedStats {
                ticks: n(Count::SchedTicks),
                skipped_cycles: n(Count::SchedSkipped),
                ..SchedStats::default()
            },
            ..CampaignStats::default()
        }
    }

    /// Everything counted into the store so far.
    #[must_use]
    pub fn totals(&self) -> CampaignStats {
        self.stats_since(&[0; COUNTERS.len()])
    }

    /// The `--strict` view: [`CampaignStats::is_clean`] over everything
    /// the store counted.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.totals().is_clean()
    }
}

/// One campaign run's counters: what the run added to its store, plus
/// the reduction's job totals, cycles and scheduler counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Jobs in the campaign (sum of trials over supported cells).
    pub jobs_total: usize,
    /// Jobs executed by this run.
    pub jobs_run: usize,
    /// Jobs skipped because the resume manifest already had them.
    pub jobs_resumed: usize,
    /// Cells that failed permanently (a panicked, timed-out or poisoned
    /// job).
    pub failed_cells: usize,
    /// Jobs that panicked.
    pub panics: usize,
    /// Supervisor cancellations delivered (hard-deadline or expiry
    /// trips observed by a running attempt).
    pub cancelled: usize,
    /// Cancelled attempts re-queued with exponential backoff.
    pub backoff_retries: usize,
    /// Jobs that permanently failed as timed out (cancelled on their
    /// final attempt or drained after the campaign expired).
    pub deadline_failed: usize,
    /// Torn manifest lines dropped while resuming (interrupted writes;
    /// the affected jobs re-ran).
    pub torn_lines: usize,
    /// Sink I/O failures observed and degraded around (spilled or
    /// append-only fallback) instead of aborting.
    pub io_faults: usize,
    /// Worker processes that died unexpectedly (crash, abort, kill,
    /// missed heartbeats). Always zero on the thread backend.
    pub worker_crashes: usize,
    /// Worker processes respawned after a death.
    pub worker_respawns: usize,
    /// Wall time of this run.
    pub wall_time: Duration,
    /// Simulated cycles over all completed jobs (resumed included).
    pub sim_cycles: u64,
    /// Scheduler work counters summed over all completed jobs (resumed
    /// included — the manifest rows carry them).
    pub sched: SchedStats,
}

impl CampaignStats {
    /// No failed cell, panic, deadline failure, torn manifest line or
    /// I/O fault was counted. Retried cancellations and contained worker
    /// crashes are operational events, not result defects: a rerun job
    /// recomputes the identical result, and a cell lost to crashes
    /// counts as failed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failed_cells + self.panics + self.deadline_failed + self.torn_lines + self.io_faults
            == 0
    }
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs ({} run, {} resumed) in {:.2?}; {:.1} Mcycles simulated",
            self.jobs_total,
            self.jobs_run,
            self.jobs_resumed,
            self.wall_time,
            self.sim_cycles as f64 / 1e6
        )?;
        let total = self.sched.ticks + self.sched.skipped_cycles;
        if total > 0 {
            write!(
                f,
                " ({:.1}% cycles skipped)",
                self.sched.skipped_cycles as f64 / total as f64 * 100.0
            )?;
        }
        if self.panics > 0 {
            write!(f, "; {} panicked", self.panics)?;
        }
        if self.cancelled + self.backoff_retries + self.deadline_failed > 0 {
            write!(
                f,
                "; {} cancelled ({} backoff-retried, {} deadline-failed)",
                self.cancelled, self.backoff_retries, self.deadline_failed
            )?;
        }
        if self.torn_lines + self.io_faults > 0 {
            write!(
                f,
                "; {} torn line(s) recovered, {} I/O fault(s) degraded",
                self.torn_lines, self.io_faults
            )?;
        }
        if self.worker_crashes + self.worker_respawns > 0 {
            write!(
                f,
                "; {} worker crash(es) contained, {} respawn(s)",
                self.worker_crashes, self.worker_respawns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_metrics_label_every_family_with_the_campaign() {
        let registry = Registry::new();
        let m = CampaignMetrics::register(&registry, "table3");
        m.inc(Count::JobsRun);
        m.add(Count::SimCycles, 1_000);
        m.observe(Phase::Run, Duration::from_millis(500));
        let snap = registry.snapshot();
        // Every family carries the campaign label, so a per-campaign
        // filter keeps everything and a foreign filter keeps nothing.
        assert_eq!(
            snap.filter_label("campaign", "table3").families.len(),
            snap.families.len()
        );
        assert!(snap.filter_label("campaign", "other").families.is_empty());
        // Re-registering re-attaches to the same counters.
        let m2 = CampaignMetrics::register(&registry, "table3");
        assert_eq!(m2.totals().jobs_run, 1);
    }

    #[test]
    fn each_counter_is_one_family_and_reads_back_as_its_stats_field() {
        let registry = Registry::new();
        let m = CampaignMetrics::register(&registry, "c");
        for (i, count) in [Count::Panics, Count::TornLines, Count::WorkerCrashes]
            .into_iter()
            .enumerate()
        {
            m.add(count, i as u64 + 1);
        }
        let before = m.read();
        m.inc(Count::Panics);
        let t = m.totals();
        assert_eq!((t.panics, t.torn_lines, t.worker_crashes), (2, 2, 3));
        assert_eq!(m.stats_since(&before).panics, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_sum("vpsim_job_panics_total"), 2);
        assert_eq!(snap.counter_sum("vpsim_torn_lines_total"), 2);
        // Worker crashes are operational; panics and torn lines are not.
        assert!(!m.is_clean());
        assert!(CampaignMetrics::register(&Registry::new(), "c").is_clean());
        let names: std::collections::BTreeSet<_> = COUNTERS.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), COUNTERS.len(), "one family per counter");
    }

    #[test]
    fn declared_families_have_no_series_until_a_campaign_registers() {
        let registry = Registry::new();
        CampaignMetrics::declare(&registry);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE vpsim_jobs_done_total counter\n"));
        assert!(!text.lines().any(|l| !l.starts_with('#')), "{text}");
        let _ = CampaignMetrics::register(&registry, "1");
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("vpsim_jobs_done_total{campaign=\"1\"} 0\n"));
    }
}
