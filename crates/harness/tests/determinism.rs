//! The engine's contract: results are bitwise-identical at any thread
//! count and across resumed runs — and a crashing job fails its cell
//! without taking the campaign down.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use vpsec::attacks::AttackCategory;
use vpsec::chaos::ChaosConfig;
use vpsec::experiment::{Channel, Evaluation, ExperimentConfig, PredictorKind};
use vpsim_harness::{
    Campaign, CampaignError, CampaignMetrics, CellOutcome, CellSpec, Exec, HarnessError,
};
use vpsim_obs::Registry;

fn cfg(trials: usize) -> ExperimentConfig {
    ExperimentConfig {
        trials,
        ..ExperimentConfig::default()
    }
}

fn small_campaign(name: &str) -> Campaign {
    let mut c = Campaign::new(name);
    c.push(CellSpec::new(
        "train_test/tw/lvp",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        cfg(8),
    ));
    c.push(CellSpec::new(
        "fill_up/tw/none",
        AttackCategory::FillUp,
        Channel::TimingWindow,
        PredictorKind::None,
        cfg(8),
    ));
    // An unsupported cell (Table III "—") rides along.
    c.push(CellSpec::new(
        "spill_over/persistent/lvp",
        AttackCategory::SpillOver,
        Channel::Persistent,
        PredictorKind::Lvp,
        cfg(8),
    ));
    c
}

fn assert_bitwise_eq(a: &Evaluation, b: &Evaluation) {
    assert_eq!(a.mapped, b.mapped);
    assert_eq!(a.unmapped, b.unmapped);
    assert_eq!(a.ttest.p_value.to_bits(), b.ttest.p_value.to_bits());
    assert_eq!(a.rate_kbps.to_bits(), b.rate_kbps.to_bits());
}

/// A unique scratch directory per call; no tempdir crate in the image.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpsim-harness-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn jobs_1_and_jobs_8_are_bitwise_identical() {
    let campaign = small_campaign("det");
    let serial = campaign.run(&Exec::default()).unwrap();
    let parallel = campaign
        .run(&Exec {
            jobs: 8,
            ..Exec::default()
        })
        .unwrap();
    for name in ["train_test/tw/lvp", "fill_up/tw/none"] {
        assert_bitwise_eq(serial.expect_eval(name), parallel.expect_eval(name));
    }
    assert!(matches!(
        parallel.cells()[2].outcome,
        CellOutcome::Unsupported
    ));
    assert_eq!(serial.stats.jobs_total, 16);
    assert_eq!(parallel.stats.jobs_run, 16);
}

#[test]
fn engine_matches_sequential_try_evaluate() {
    let c = cfg(8);
    let direct = vpsec::experiment::try_evaluate(
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        &c,
    )
    .unwrap();
    let mut campaign = Campaign::new("adhoc");
    campaign.push(CellSpec::new(
        "train_test/tw/lvp",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        c,
    ));
    let engine = campaign
        .run(&Exec {
            jobs: 4,
            ..Exec::default()
        })
        .unwrap();
    assert_bitwise_eq(&direct, engine.expect_eval("train_test/tw/lvp"));
}

#[test]
fn resume_skips_completed_jobs_and_preserves_results() {
    let dir = scratch_dir("resume");
    let campaign = small_campaign("resume-test");
    let exec = Exec {
        jobs: 4,
        resume: Some(dir.clone()),
        ..Exec::default()
    };
    let first = campaign.run(&exec).unwrap();
    assert_eq!(first.stats.jobs_run, 16);
    assert_eq!(first.stats.jobs_resumed, 0);

    // Simulate a killed campaign: keep the header and half the job
    // lines, dropping the rest (plus a torn final line).
    let manifest = dir.join("resume-test.jsonl");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = 1 + 8; // header + 8 of the 16 job lines
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&manifest, truncated).unwrap();

    let second = campaign.run(&exec).unwrap();
    assert_eq!(second.stats.jobs_resumed, 8, "torn line must not count");
    assert_eq!(second.stats.jobs_run, 8);
    for name in ["train_test/tw/lvp", "fill_up/tw/none"] {
        assert_bitwise_eq(first.expect_eval(name), second.expect_eval(name));
    }

    // A third run resumes everything and executes nothing.
    let third = campaign.run(&exec).unwrap();
    assert_eq!(third.stats.jobs_resumed, 16);
    assert_eq!(third.stats.jobs_run, 0);
    for name in ["train_test/tw/lvp", "fill_up/tw/none"] {
        assert_bitwise_eq(first.expect_eval(name), third.expect_eval(name));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_from_a_different_campaign_is_rejected() {
    let dir = scratch_dir("mismatch");
    let campaign = small_campaign("fp-test");
    let exec = Exec {
        resume: Some(dir.clone()),
        ..Exec::default()
    };
    campaign.run(&exec).unwrap();

    // Same name, different definition (seed changed) → different
    // fingerprint → refuse to resume.
    let mut other = Campaign::new("fp-test");
    other.push(CellSpec::new(
        "train_test/tw/lvp",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        ExperimentConfig {
            trials: 8,
            seed: 1,
            ..ExperimentConfig::default()
        },
    ));
    match other.run(&exec) {
        Err(HarnessError::ManifestMismatch { .. }) => {}
        other => panic!("expected ManifestMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 4-trial healthy cell and a 4-trial cell whose every job panics.
fn faulty_campaign() -> Campaign {
    let mut campaign = Campaign::new("faulty");
    campaign.push(CellSpec::new(
        "healthy",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        cfg(4),
    ));
    // max_cycles = 1 makes every step program hit the cycle limit, which
    // run_trial treats as a bug and panics on.
    let broken_core = vpsim_pipeline::CoreConfig {
        max_cycles: 1,
        ..vpsim_pipeline::CoreConfig::default()
    };
    campaign.push(CellSpec::new(
        "crashy",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        ExperimentConfig {
            trials: 4,
            core: broken_core,
            ..ExperimentConfig::default()
        },
    ));
    campaign
}

#[test]
fn a_panicking_cell_fails_alone() {
    let campaign = faulty_campaign();
    let outcome = campaign
        .run(&Exec {
            jobs: 4,
            ..Exec::default()
        })
        .unwrap();
    assert!(
        outcome.get("healthy").is_some(),
        "healthy cell must complete"
    );
    match &outcome.cells()[1].outcome {
        CellOutcome::Failed(err) => {
            assert!(err.to_string().contains("panicked"), "{err}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(outcome.stats.panics, 4);
}

#[test]
fn outcome_stats_are_the_run_slice_of_its_store_and_a_panic_reads_dirty() {
    let registry = Registry::new();
    let store = CampaignMetrics::register(&registry, "faulty");
    let outcome = faulty_campaign()
        .run(&Exec {
            jobs: 4,
            metrics: Some(store.clone()),
            ..Exec::default()
        })
        .unwrap();
    let s = &outcome.stats;
    assert_eq!((s.panics, s.failed_cells, s.jobs_run), (4, 1, 4));
    let slice = registry.snapshot().filter_label("campaign", "faulty");
    for (family, stat) in [
        ("vpsim_jobs_done_total", s.jobs_run),
        ("vpsim_cells_failed_total", s.failed_cells),
        ("vpsim_job_panics_total", s.panics),
        ("vpsim_job_cancellations_total", s.cancelled),
        ("vpsim_job_backoff_retries_total", s.backoff_retries),
        ("vpsim_jobs_deadline_failed_total", s.deadline_failed),
        ("vpsim_torn_lines_total", s.torn_lines),
        ("vpsim_io_faults_total", s.io_faults),
        ("vpsim_worker_crashes_total", s.worker_crashes),
        ("vpsim_worker_respawns_total", s.worker_respawns),
    ] {
        assert_eq!(slice.counter_sum(family), stat as u64, "{family}");
    }
    // Nothing resumed, so the reduction's cycles are the store's.
    assert_eq!(slice.counter_sum("vpsim_sim_cycles_total"), s.sim_cycles);
    assert!(!store.is_clean(), "a panicked cell must read dirty");
}

#[test]
fn a_clean_campaign_reads_clean() {
    let store = CampaignMetrics::register(&Registry::new(), "clean");
    let outcome = small_campaign("clean")
        .run(&Exec {
            metrics: Some(store.clone()),
            ..Exec::default()
        })
        .unwrap();
    assert_eq!(
        (outcome.stats.jobs_run, outcome.stats.failed_cells),
        (16, 0)
    );
    assert!(store.is_clean());
}

#[test]
fn runs_sharing_a_store_each_report_their_own_counts() {
    let store = CampaignMetrics::register(&Registry::new(), "shared");
    let exec = Exec {
        jobs: 2,
        metrics: Some(store.clone()),
        ..Exec::default()
    };
    let first = faulty_campaign().run(&exec).unwrap();
    let second = small_campaign("shared").run(&exec).unwrap();
    let (a, b) = (&first.stats, &second.stats);
    assert_eq!((a.jobs_run, a.panics, a.failed_cells), (4, 4, 1));
    assert_eq!((b.jobs_run, b.panics, b.failed_cells), (16, 0, 0));
    let total = store.totals();
    assert_eq!(
        (total.jobs_run, total.panics, total.failed_cells),
        (20, 4, 1)
    );
    assert_eq!(total.sim_cycles, a.sim_cycles + b.sim_cycles);
    assert!(!store.is_clean(), "the first run's panics stay counted");
}

#[test]
fn try_eval_quarantines_one_bad_cell() {
    let mut campaign = Campaign::new("quarantine-typed");
    campaign.push(CellSpec::new(
        "healthy",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        cfg(4),
    ));
    campaign.push(CellSpec::new(
        "dash",
        AttackCategory::SpillOver,
        Channel::Persistent,
        PredictorKind::Lvp,
        cfg(4),
    ));
    campaign.push(CellSpec::new(
        "crashy",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        ExperimentConfig {
            trials: 4,
            core: vpsim_pipeline::CoreConfig {
                max_cycles: 1,
                ..vpsim_pipeline::CoreConfig::default()
            },
            ..ExperimentConfig::default()
        },
    ));
    let outcome = campaign.run(&Exec::default()).unwrap();
    assert!(outcome.try_eval("healthy").is_ok());
    assert!(matches!(
        outcome.try_eval("dash"),
        Err(CampaignError::Unsupported { .. })
    ));
    assert!(matches!(
        outcome.try_eval("crashy"),
        Err(CampaignError::Failed { .. })
    ));
    assert!(matches!(
        outcome.try_eval("nonexistent"),
        Err(CampaignError::NoSuchCell { .. })
    ));
    // The typed errors render cleanly.
    let msg = outcome.try_eval("crashy").unwrap_err().to_string();
    assert!(msg.contains("crashy") && msg.contains("panicked"), "{msg}");
}

#[test]
fn chaos_campaign_is_bit_reproducible_across_kill_and_resume() {
    let chaos_cfg = ExperimentConfig {
        trials: 8,
        chaos: ChaosConfig::level(2),
        ..ExperimentConfig::default()
    };
    let mut campaign = Campaign::new("chaos-resume");
    campaign.push(CellSpec::new(
        "train_test/tw/lvp/chaos2",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        chaos_cfg.clone(),
    ));
    campaign.push(CellSpec::new(
        "fill_up/tw/lvp/chaos2",
        AttackCategory::FillUp,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        chaos_cfg,
    ));

    // Uninterrupted parallel baseline (no manifest).
    let baseline = campaign
        .run(&Exec {
            jobs: 4,
            ..Exec::default()
        })
        .unwrap();

    // Killed-and-resumed run: drop half the manifest plus a torn tail.
    let dir = scratch_dir("chaos-resume");
    let exec = Exec {
        jobs: 4,
        resume: Some(dir.clone()),
        ..Exec::default()
    };
    campaign.run(&exec).unwrap();
    let manifest = dir.join("chaos-resume.jsonl");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut truncated = lines[..1 + 8].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[9][..lines[9].len() / 2]);
    std::fs::write(&manifest, truncated).unwrap();
    let resumed = campaign.run(&exec).unwrap();
    assert_eq!(resumed.stats.jobs_resumed, 8);

    for name in ["train_test/tw/lvp/chaos2", "fill_up/tw/lvp/chaos2"] {
        assert_bitwise_eq(baseline.expect_eval(name), resumed.expect_eval(name));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_config_changes_the_fingerprint() {
    let plain = small_campaign("fp-chaos");
    let mut chaotic = Campaign::new("fp-chaos");
    chaotic.push(CellSpec::new(
        "train_test/tw/lvp",
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        ExperimentConfig {
            trials: 8,
            chaos: ChaosConfig::level(1),
            ..ExperimentConfig::default()
        },
    ));
    // A manifest recorded without chaos must never be resumed into a
    // chaotic campaign: the configs differ, so the fingerprints do.
    assert_ne!(plain.fingerprint(), chaotic.fingerprint());
}

#[test]
fn fingerprint_is_sensitive_to_definition_changes() {
    let a = small_campaign("fp");
    let b = small_campaign("fp");
    assert_eq!(a.fingerprint(), b.fingerprint());
    let mut c = small_campaign("fp");
    c.push(CellSpec::new(
        "extra",
        AttackCategory::TestHit,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        cfg(8),
    ));
    assert_ne!(a.fingerprint(), c.fingerprint());
    let d = small_campaign("fp2");
    assert_ne!(a.fingerprint(), d.fingerprint());
}
