//! The evaluation harness: mapped-vs-unmapped timing distributions,
//! Student's-t p-values, and transmission rates (paper §IV-C/D and
//! Table III).
//!
//! Methodology, following the paper: each attack configuration is run for
//! `trials` mapped and `trials` unmapped single-bit trials (100 each by
//! default), every trial on a **machine indistinguishable from a fresh
//! one**, seeded differently so DRAM jitter produces timing
//! *distributions*; Welch's t-test then decides whether the receiver can
//! distinguish the two cases — the attack succeeds iff `p < 0.05`.
//!
//! Each thread keeps the machine of its last trial and
//! [resets](Machine::reset) it for the next one with the same core and
//! memory configuration, which costs only what the last trial touched.

use std::cell::Cell;

use vpsim_chaos::ChaosConfig;
use vpsim_mem::MemoryConfig;
use vpsim_pipeline::{CoreConfig, Machine, RunCtl, RunError, SchedStats};
use vpsim_predictor::{
    DefenseSpec, Fcm, FcmConfig, IndexConfig, Lvp, LvpConfig, NoPredictor, Oracle, Stride,
    StrideConfig, ValuePredictor, Vtage, VtageConfig,
};
use vpsim_stats::{welch_t_test, TTestResult, TransmissionRate};

use crate::attacks::{build_trial, AttackCategory, AttackSetup, Trial};

/// The covert channel used by the encode/decode steps (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Directly time the trigger access and its dependents.
    TimingWindow,
    /// Flush+Reload through the cache (persists across context switches).
    Persistent,
    /// Contention channels (e.g. execution ports); modelled in the
    /// taxonomy but not implemented as a PoC (the paper evaluates the
    /// timing-window and persistent channels in Table III).
    Volatile,
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Channel::TimingWindow => write!(f, "timing-window"),
            Channel::Persistent => write!(f, "persistent"),
            Channel::Volatile => write!(f, "volatile"),
        }
    }
}

/// Which value predictor the machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// No value predictor — the paper's "no VP" baseline.
    None,
    /// The baseline (non-secure) last-value predictor.
    Lvp,
    /// The simplified VTAGE.
    Vtage,
    /// LVP restricted to the target load ("oracle", §IV-C).
    OracleLvp,
    /// VTAGE restricted to the target load — the paper's oracle VTAGE.
    OracleVtage,
    /// 2-delta stride predictor (ablation extension).
    Stride,
    /// Two-level finite context method predictor (ablation extension).
    Fcm,
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PredictorKind::None => "no VP",
            PredictorKind::Lvp => "LVP",
            PredictorKind::Vtage => "VTAGE",
            PredictorKind::OracleLvp => "oracle LVP",
            PredictorKind::OracleVtage => "oracle VTAGE",
            PredictorKind::Stride => "stride",
            PredictorKind::Fcm => "FCM",
        };
        write!(f, "{s}")
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Trials per distribution (the paper uses 100).
    pub trials: usize,
    /// Master seed; each trial derives its own.
    pub seed: u64,
    /// Defenses to apply (A/R wrap the predictor; D configures the core).
    pub defense: DefenseSpec,
    /// Attack addresses/slots/values.
    pub setup: AttackSetup,
    /// Memory-system configuration (jitter on by default: distributions,
    /// not constants).
    pub mem: MemoryConfig,
    /// Core configuration (D-type is OR-ed in from `defense`).
    pub core: CoreConfig,
    /// Predictor index formation. The default (PC-based, no pid) matches
    /// the paper's PoCs; setting `use_pid` reproduces the threat model's
    /// footnote 5 (pid indexing stops cross-process aliasing unless the
    /// parties share a library, but internal-interference attacks
    /// survive).
    pub index: IndexConfig,
    /// Run a third-party "background" program between attack steps,
    /// polluting caches, TLB and predictor state with its own loads —
    /// a robustness stressor absent from the paper's clean gem5 runs.
    pub background_noise: bool,
    /// Fault/noise-injection plane ([`ChaosConfig::off`] by default).
    /// The chaos stream is seeded from the machine seed, so the mapped
    /// and unmapped arm of a paired trial see the *same* noise
    /// (common-mode, like DRAM jitter) and the paired design survives.
    pub chaos: ChaosConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            trials: 100,
            seed: 0xDAC_2021,
            defense: DefenseSpec::none(),
            setup: AttackSetup::default(),
            mem: MemoryConfig::default(),
            core: CoreConfig::default(),
            index: IndexConfig::default(),
            background_noise: false,
            chaos: ChaosConfig::off(),
        }
    }
}

/// Salt mixed into the machine seed to derive the chaos-plane seed, so
/// the chaos streams are decorrelated from the DRAM-jitter stream that
/// shares the same machine seed.
const CHAOS_SEED_SALT: u64 = 0xc4a0_5eed_0bad_f00d;

/// Defense-seed salts: of [`run_trial`] and a pair's mapped arm, and of
/// a pair's unmapped arm. The arms share the *machine* seed (so DRAM
/// jitter cancels), but the R-type defense draw must be independent per
/// arm — sharing it anti-correlates the two samples and makes Welch's
/// test anti-conservative on defended configurations.
const DEFENSE_SEED_SALT: u64 = 0x5ee3;
const UNMAPPED_DEFENSE_SEED_SALT: u64 = 0x0def_5eed;

/// A trial was abandoned because its
/// [`CancelToken`](vpsim_pipeline::CancelToken) was tripped
/// mid-run (hard job deadline, campaign budget). Interruption is a
/// supervision event, not a result: the trial produced no observation
/// and may be retried with identical seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial interrupted by cooperative cancellation")
    }
}

impl std::error::Error for Interrupted {}

/// The observation extracted from one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// The receiver's timing observation, in cycles.
    pub observed: f64,
    /// Total cycles consumed by all steps (for the transmission rate).
    pub total_cycles: u64,
    /// Scheduler work counters merged across every step run (including
    /// background noise). Diagnostic only — excluded from golden-trace
    /// digests, surfaced through campaign rows and `/metrics`.
    pub sched: SchedStats,
}

fn build_predictor(
    kind: PredictorKind,
    setup: &AttackSetup,
    defense: &DefenseSpec,
    index: IndexConfig,
    seed: u64,
) -> Box<dyn ValuePredictor> {
    let lvp_config = LvpConfig {
        index,
        confidence_threshold: setup.confidence,
        ..LvpConfig::default()
    };
    let vtage_config = VtageConfig {
        index,
        confidence_threshold: setup.confidence,
        ..VtageConfig::default()
    };
    match kind {
        PredictorKind::None => Box::new(NoPredictor::new()),
        PredictorKind::Lvp => defense.apply(Lvp::new(lvp_config), index, seed),
        PredictorKind::Vtage => defense.apply(Vtage::new(vtage_config), index, seed),
        PredictorKind::OracleLvp => defense.apply(
            Oracle::new(Lvp::new(lvp_config), [setup.target_pc()]),
            index,
            seed,
        ),
        PredictorKind::OracleVtage => defense.apply(
            Oracle::new(Vtage::new(vtage_config), [setup.target_pc()]),
            index,
            seed,
        ),
        PredictorKind::Stride => defense.apply(
            Stride::new(StrideConfig {
                index,
                confidence_threshold: setup.confidence,
                ..StrideConfig::default()
            }),
            index,
            seed,
        ),
        PredictorKind::Fcm => defense.apply(
            Fcm::new(FcmConfig {
                index,
                confidence_threshold: setup.confidence,
                ..FcmConfig::default()
            }),
            index,
            seed,
        ),
    }
}

/// Execute one trial on a machine indistinguishable from a fresh one and
/// extract the observation.
///
/// # Panics
///
/// Panics if a step program fails to run (cycle-limit or fetch errors
/// indicate a malformed generator, which is a bug).
#[must_use]
pub fn run_trial(
    trial: &Trial,
    predictor: PredictorKind,
    cfg: &ExperimentConfig,
    seed: u64,
) -> TrialOutcome {
    let defense_seed = seed ^ DEFENSE_SEED_SALT;
    match run_trial_with(trial, predictor, cfg, seed, defense_seed, RunCtl::default()) {
        Ok(outcome) => outcome,
        Err(Interrupted) => unreachable!("no cancel token was installed"),
    }
}

thread_local! {
    /// This thread's machine, kept from its last trial that returned.
    static MACHINE: Cell<Option<Machine>> = const { Cell::new(None) };
}

/// The one trial body: a machine indistinguishable from a fresh one
/// built from `seed`, the predictor's defense draw from `defense_seed`,
/// and every step run (background noise included) under `ctl`. The
/// token is polled inside each run, so even one hung program is
/// abandoned with bounded latency.
///
/// The machine comes from this thread's slot: the slot's machine is
/// [reset](Machine::reset) when its core and memory configuration
/// match this trial's, and a new one is built otherwise. It goes back
/// to the slot only when the body returns, so a trial that panics drops
/// its machine.
fn run_trial_with(
    trial: &Trial,
    predictor: PredictorKind,
    cfg: &ExperimentConfig,
    seed: u64,
    defense_seed: u64,
    ctl: RunCtl<'_>,
) -> Result<TrialOutcome, Interrupted> {
    let mut core = cfg.core;
    core.delay_side_effects = core.delay_side_effects || cfg.defense.d_type;
    let vp = build_predictor(predictor, &cfg.setup, &cfg.defense, cfg.index, defense_seed);
    let mut machine = match MACHINE.take() {
        Some(mut machine)
            if *machine.core_config() == core && *machine.mem().config() == cfg.mem =>
        {
            machine.reset(vp, seed);
            machine
        }
        _ => Machine::new(core, cfg.mem, vp, seed),
    };
    let outcome = run_steps(&mut machine, trial, cfg, seed, ctl);
    MACHINE.set(Some(machine));
    outcome
}

/// Run `trial`'s steps on `machine`, a machine as new from `seed`.
fn run_steps(
    machine: &mut Machine,
    trial: &Trial,
    cfg: &ExperimentConfig,
    seed: u64,
    mut ctl: RunCtl<'_>,
) -> Result<TrialOutcome, Interrupted> {
    if !cfg.chaos.is_off() {
        machine.set_chaos(&cfg.chaos, seed ^ CHAOS_SEED_SALT);
    }
    for (addr, value) in &trial.memory_init {
        machine.mem_mut().store_value(*addr, *value);
    }
    let noise = cfg.background_noise.then(noise_program);
    let mut total_cycles = 0u64;
    let mut observed = 0.0f64;
    let mut sched = SchedStats::default();
    let mut run = |pid: u32, program: &vpsim_isa::Program, label: &str| {
        machine
            .run_with(pid, program, ctl.reborrow())
            .map_err(|e| match e {
                RunError::Cancelled { .. } => Interrupted,
                e => panic!("step `{label}` failed: {e}"),
            })
    };
    for (i, step) in trial.steps.iter().enumerate() {
        let mut last_window = None;
        for _ in 0..step.repeat {
            let result = run(step.party.pid(), &step.program, step.label)?;
            total_cycles += result.cycles;
            sched.merge(&result.sched);
            last_window = result.timing_window(0);
        }
        if i == trial.observe_step {
            observed = last_window.expect("observed step must contain an rdtsc pair") as f64;
        }
        // A third process gets scheduled between the attack's steps.
        if let Some(noise) = &noise {
            if i + 1 < trial.steps.len() {
                let r = run(3, noise, "background noise")?;
                total_cycles += r.cycles;
                sched.merge(&r.sched);
            }
        }
    }
    Ok(TrialOutcome {
        observed,
        total_cycles,
        sched,
    })
}

/// The background process: sweeps its own working set with flushed
/// loads, dirtying caches, the TLB and the predictor's own entries.
fn noise_program() -> vpsim_isa::Program {
    use vpsim_isa::{ProgramBuilder, Reg};
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, 0x300_000)
        .li(Reg::R2, 0)
        .li(Reg::R3, 16)
        .li(Reg::R4, 320); // prime-ish stride: spreads over sets/pages
    b.label("sweep").unwrap();
    b.flush(Reg::R1, 0)
        .load(Reg::R5, Reg::R1, 0)
        .alu(vpsim_isa::AluOp::Add, Reg::R1, Reg::R1, Reg::R4)
        .addi(Reg::R2, Reg::R2, 1)
        .blt(Reg::R2, Reg::R3, "sweep")
        .halt();
    b.build().expect("noise program is well-formed")
}

/// A full mapped-vs-unmapped evaluation of one attack configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Attack category evaluated.
    pub category: AttackCategory,
    /// Channel used.
    pub channel: Channel,
    /// Predictor configuration.
    pub predictor: PredictorKind,
    /// Defenses active.
    pub defense: DefenseSpec,
    /// Timing observations for the mapped case.
    pub mapped: Vec<f64>,
    /// Timing observations for the unmapped case.
    pub unmapped: Vec<f64>,
    /// Welch's t-test between the two distributions.
    pub ttest: TTestResult,
    /// Estimated covert-channel bandwidth (1 bit per trial).
    pub rate_kbps: f64,
}

impl Evaluation {
    /// Whether the attack succeeds: the paper's `p < 0.05` criterion.
    #[must_use]
    pub fn succeeds(&self) -> bool {
        self.ttest.significant()
    }
}

impl std::fmt::Display for Evaluation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} / {} / {} / defense {}: pvalue = {:.4} ({}), {:.2} Kbps",
            self.category,
            self.channel,
            self.predictor,
            self.defense.label(),
            self.ttest.p_value,
            if self.succeeds() {
                "attack succeeds"
            } else {
                "attack fails"
            },
            self.rate_kbps
        )
    }
}

/// The outcome of one paired trial: the mapped and unmapped arm run on
/// a shared machine seed (so DRAM jitter cancels) with independent
/// defense seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairOutcome {
    /// Outcome of the mapped (secret = 1) arm.
    pub mapped: TrialOutcome,
    /// Outcome of the unmapped (secret = 0) arm.
    pub unmapped: TrialOutcome,
}

impl PairOutcome {
    /// Simulated cycles consumed by both arms together.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.mapped.total_cycles + self.unmapped.total_cycles
    }

    /// Scheduler work counters merged over both arms.
    #[must_use]
    pub fn sched(&self) -> SchedStats {
        let mut s = self.mapped.sched;
        s.merge(&self.unmapped.sched);
        s
    }
}

/// One evaluation cell (category × channel × predictor × config)
/// decomposed into independent paired-trial jobs.
///
/// [`CellPlan::run_pair`] is a pure function of the plan and the trial
/// index — every seed is derived from the coordinates alone, never from
/// execution order or shared state — so pairs may run on any thread in
/// any order. [`CellPlan::finish`] consumes the pairs in trial order and
/// produces an [`Evaluation`] bitwise-identical to the sequential
/// [`try_evaluate`], whatever the execution schedule was.
#[derive(Debug, Clone)]
pub struct CellPlan {
    category: AttackCategory,
    channel: Channel,
    predictor: PredictorKind,
    cfg: ExperimentConfig,
    mapped_trial: Trial,
    unmapped_trial: Trial,
}

impl CellPlan {
    /// Plan the cell, or `None` if the category does not support the
    /// channel (Table III's "—" cells).
    #[must_use]
    pub fn new(
        category: AttackCategory,
        channel: Channel,
        predictor: PredictorKind,
        cfg: &ExperimentConfig,
    ) -> Option<Self> {
        let mapped_trial = build_trial(category, channel, true, &cfg.setup)?;
        let unmapped_trial = build_trial(category, channel, false, &cfg.setup)?;
        Some(CellPlan {
            category,
            channel,
            predictor,
            cfg: cfg.clone(),
            mapped_trial,
            unmapped_trial,
        })
    }

    /// Number of paired trials (= independent jobs) in this cell.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.cfg.trials
    }

    /// The attack category this cell evaluates.
    #[must_use]
    pub fn category(&self) -> AttackCategory {
        self.category
    }

    /// The channel this cell evaluates.
    #[must_use]
    pub fn channel(&self) -> Channel {
        self.channel
    }

    /// The predictor configuration this cell evaluates.
    #[must_use]
    pub fn predictor(&self) -> PredictorKind {
        self.predictor
    }

    /// The experiment configuration the plan was built from.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The machine seed shared by both arms of pair `t` — a pure
    /// function of the master seed and the trial index.
    #[must_use]
    pub fn trial_seed(&self, t: usize) -> u64 {
        self.cfg
            .seed
            .wrapping_add((t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Run paired trial `t`, each arm on a machine indistinguishable from
    /// a fresh one.
    ///
    /// Paired design: the mapped and unmapped trial of each pair share a
    /// machine seed, so jitter affects both identically. Without a value
    /// predictor the two access streams are the same and the
    /// distributions coincide exactly; any separation that remains is
    /// caused by the predictor. The R-type defense draw is still
    /// independent per arm.
    ///
    /// # Panics
    ///
    /// Panics if a step program fails to run (a malformed generator is a
    /// bug).
    #[must_use]
    pub fn run_pair(&self, t: usize) -> PairOutcome {
        match self.run_pair_with(t, RunCtl::default(), RunCtl::default()) {
            Ok(pair) => pair,
            Err(Interrupted) => unreachable!("no cancel token was installed"),
        }
    }

    /// [`CellPlan::run_pair`] with per-arm run controls: the mapped arm
    /// runs under `mapped`, the unmapped arm under `unmapped`. A cancel
    /// token lets the campaign supervisor abandon a hung pair
    /// mid-simulation; a tracer receives its arm's events. Seeds are
    /// unchanged and neither control perturbs a run, so the outcome is
    /// bit-identical to [`CellPlan::run_pair`] for the same `t`, and a
    /// retried pair reproduces the original bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`Interrupted`] when a token is tripped before both arms
    /// complete.
    ///
    /// # Panics
    ///
    /// Panics if a step program fails for any non-cancellation reason.
    pub fn run_pair_with(
        &self,
        t: usize,
        mapped: RunCtl<'_>,
        unmapped: RunCtl<'_>,
    ) -> Result<PairOutcome, Interrupted> {
        let base = self.trial_seed(t);
        let mapped = run_trial_with(
            &self.mapped_trial,
            self.predictor,
            &self.cfg,
            base,
            base ^ DEFENSE_SEED_SALT,
            mapped,
        )?;
        let unmapped = run_trial_with(
            &self.unmapped_trial,
            self.predictor,
            &self.cfg,
            base,
            base ^ UNMAPPED_DEFENSE_SEED_SALT,
            unmapped,
        )?;
        Ok(PairOutcome { mapped, unmapped })
    }

    /// Reduce the pairs — in trial order — into the cell's
    /// [`Evaluation`].
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len()` differs from [`CellPlan::trials`].
    #[must_use]
    pub fn finish(&self, pairs: &[PairOutcome]) -> Evaluation {
        assert_eq!(
            pairs.len(),
            self.cfg.trials,
            "finish() needs exactly one PairOutcome per trial"
        );
        let mapped: Vec<f64> = pairs.iter().map(|p| p.mapped.observed).collect();
        let unmapped: Vec<f64> = pairs.iter().map(|p| p.unmapped.observed).collect();
        let cycle_sum: u64 = pairs.iter().map(PairOutcome::total_cycles).sum();
        let ttest = welch_t_test(&mapped, &unmapped);
        let bits = (2 * self.cfg.trials) as u64;
        let rate_kbps = TransmissionRate::from_total(cycle_sum.max(1), bits).kbps();
        Evaluation {
            category: self.category,
            channel: self.channel,
            predictor: self.predictor,
            defense: self.cfg.defense,
            mapped,
            unmapped,
            ttest,
            rate_kbps,
        }
    }
}

/// Evaluate one attack configuration, if the category supports the
/// channel. Returns `None` for Table III's "—" cells.
#[must_use]
pub fn try_evaluate(
    category: AttackCategory,
    channel: Channel,
    predictor: PredictorKind,
    cfg: &ExperimentConfig,
) -> Option<Evaluation> {
    let plan = CellPlan::new(category, channel, predictor, cfg)?;
    let pairs: Vec<PairOutcome> = (0..plan.trials()).map(|t| plan.run_pair(t)).collect();
    Some(plan.finish(&pairs))
}

/// Evaluate one attack configuration.
///
/// # Panics
///
/// Panics if `category` does not support `channel` (use
/// [`try_evaluate`] to get `None` for the Table III "—" cells instead).
#[must_use]
pub fn evaluate(
    category: AttackCategory,
    channel: Channel,
    predictor: PredictorKind,
    cfg: &ExperimentConfig,
) -> Evaluation {
    try_evaluate(category, channel, predictor, cfg)
        .unwrap_or_else(|| panic!("{category} does not support the {channel} channel"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            trials: 12,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn trial_outcomes_are_deterministic_per_seed() {
        let cfg = quick_cfg();
        let trial = build_trial(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            true,
            &cfg.setup,
        )
        .unwrap();
        let a = run_trial(&trial, PredictorKind::Lvp, &cfg, 99);
        let b = run_trial(&trial, PredictorKind::Lvp, &cfg, 99);
        assert_eq!(a, b);
        // Different seeds draw different jitter: at least one nearby seed
        // must produce a different outcome.
        let any_differs = (100..110u64).any(|s| {
            let c = run_trial(&trial, PredictorKind::Lvp, &cfg, s);
            c.observed != a.observed || c.total_cycles != a.total_cycles
        });
        assert!(any_differs, "jitter must vary across seeds");
    }

    #[test]
    fn train_test_leaks_with_lvp_but_not_without() {
        let cfg = quick_cfg();
        let with = evaluate(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            PredictorKind::Lvp,
            &cfg,
        );
        assert!(with.succeeds(), "LVP: {}", with.ttest);
        let without = evaluate(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            PredictorKind::None,
            &cfg,
        );
        assert!(!without.succeeds(), "no VP: {}", without.ttest);
    }

    #[test]
    fn unsupported_cells_are_none() {
        let cfg = quick_cfg();
        assert!(try_evaluate(
            AttackCategory::SpillOver,
            Channel::Persistent,
            PredictorKind::Lvp,
            &cfg
        )
        .is_none());
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn evaluate_panics_on_unsupported() {
        let cfg = quick_cfg();
        let _ = evaluate(
            AttackCategory::TrainHit,
            Channel::Persistent,
            PredictorKind::Lvp,
            &cfg,
        );
    }

    #[test]
    fn cell_plan_is_schedule_invariant() {
        let cfg = quick_cfg();
        let plan = CellPlan::new(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            PredictorKind::Lvp,
            &cfg,
        )
        .unwrap();
        // Run the pairs in reverse order, then reduce in trial order: the
        // result must match the sequential evaluation exactly.
        let mut pairs: Vec<PairOutcome> =
            (0..plan.trials()).rev().map(|t| plan.run_pair(t)).collect();
        pairs.reverse();
        let parallel = plan.finish(&pairs);
        let serial = evaluate(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            PredictorKind::Lvp,
            &cfg,
        );
        assert_eq!(parallel.mapped, serial.mapped);
        assert_eq!(parallel.unmapped, serial.unmapped);
        assert_eq!(
            parallel.ttest.p_value.to_bits(),
            serial.ttest.p_value.to_bits()
        );
        assert_eq!(parallel.rate_kbps.to_bits(), serial.rate_kbps.to_bits());
    }

    #[test]
    fn supervised_pair_matches_unsupervised_and_interrupts_cleanly() {
        use vpsim_obs::{RingRecorder, TraceSink};
        use vpsim_pipeline::CancelToken;

        fn ctl<'a>(
            cancel: Option<&'a CancelToken>,
            ring: Option<&'a mut RingRecorder>,
        ) -> RunCtl<'a> {
            RunCtl {
                cancel,
                tracer: ring.map(|r| r as &mut dyn TraceSink),
            }
        }
        let cfg = quick_cfg();
        let plan = CellPlan::new(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            PredictorKind::Lvp,
            &cfg,
        )
        .unwrap();
        let plain = plan.run_pair(3);
        let token = CancelToken::new();
        // A token per arm, a ring per arm, and both. Observations are
        // whole cycle counts, so `==` on the outcome is bit identity.
        for (cancel, traced) in [(true, false), (false, true), (true, true)] {
            let cancel = cancel.then_some(&token);
            let (mut m_ring, mut u_ring) = (RingRecorder::new(64), RingRecorder::new(64));
            let pair = plan
                .run_pair_with(
                    3,
                    ctl(cancel, traced.then_some(&mut m_ring)),
                    ctl(cancel, traced.then_some(&mut u_ring)),
                )
                .unwrap();
            assert_eq!(
                plain,
                pair,
                "untripped token and tracers must be result-neutral (token {}, traced {traced})",
                cancel.is_some()
            );
            if traced {
                assert!(m_ring.seen() > 0, "the mapped arm's ring saw no events");
                assert!(u_ring.seen() > 0, "the unmapped arm's ring saw no events");
            }
        }
        token.cancel();
        for traced in [false, true] {
            let (mut m_ring, mut u_ring) = (RingRecorder::new(64), RingRecorder::new(64));
            assert_eq!(
                plan.run_pair_with(
                    3,
                    ctl(Some(&token), traced.then_some(&mut m_ring)),
                    ctl(Some(&token), traced.then_some(&mut u_ring)),
                ),
                Err(Interrupted),
                "a tripped token must abandon the pair (traced {traced})"
            );
        }
    }

    #[test]
    fn an_aborted_trial_leaves_nothing_behind() {
        use vpsim_isa::{Inst, Program};
        use vpsim_pipeline::CancelToken;

        let cfg = quick_cfg();
        let plan = CellPlan::new(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            PredictorKind::Lvp,
            &cfg,
        )
        .unwrap();
        let t = 3;
        let fresh = std::thread::scope(|s| s.spawn(|| plan.run_pair(t)).join().unwrap());
        // The earlier steps dirty this thread's machine, then the last
        // one runs past its end and the trial panics.
        let mut broken = build_trial(
            AttackCategory::TrainTest,
            Channel::TimingWindow,
            true,
            &cfg.setup,
        )
        .unwrap();
        let last = broken.steps.last_mut().unwrap();
        let mut insts: Vec<Inst> = last.program.iter().map(|(_, inst)| inst).collect();
        assert_eq!(insts.pop(), Some(Inst::Halt));
        last.program = Program::from_insts(insts);
        let panic = std::panic::catch_unwind(|| run_trial(&broken, PredictorKind::Lvp, &cfg, 7))
            .expect_err("the last step must fail");
        let message = panic.downcast_ref::<String>().unwrap();
        assert!(message.contains("ran past the end"), "{message}");
        assert_eq!(plan.run_pair(t), fresh, "after a panicked trial");
        // A pair interrupted before its first cycle.
        let token = CancelToken::new();
        token.cancel();
        let ctl = || RunCtl {
            cancel: Some(&token),
            tracer: None,
        };
        assert_eq!(plan.run_pair_with(t, ctl(), ctl()), Err(Interrupted));
        assert_eq!(plan.run_pair(t), fresh, "after an interrupted pair");
    }

    #[test]
    fn a_kept_machine_sheds_and_rearms_chaos() {
        // Chaos is not part of the slot key: trials with and without it
        // share this thread's machine.
        let plain_cfg = quick_cfg();
        let chaos_cfg = ExperimentConfig {
            chaos: ChaosConfig::level(4),
            ..quick_cfg()
        };
        let [plain, chaotic] = [&plain_cfg, &chaos_cfg].map(|cfg| {
            CellPlan::new(
                AttackCategory::TrainTest,
                Channel::TimingWindow,
                PredictorKind::Lvp,
                cfg,
            )
            .unwrap()
        });
        let trials = plain.trials();
        let pairs = |plan: &CellPlan| (0..trials).map(|t| plan.run_pair(t)).collect::<Vec<_>>();
        let fresh =
            std::thread::scope(|s| s.spawn(|| (pairs(&plain), pairs(&chaotic))).join().unwrap());
        assert_ne!(fresh.0, fresh.1, "chaos must change the pairs");
        assert_eq!(pairs(&plain), fresh.0);
        assert_eq!(pairs(&chaotic), fresh.1, "chaos re-armed");
        assert_eq!(pairs(&plain), fresh.0, "chaos removed");
    }

    #[test]
    fn rate_is_positive_and_plausible() {
        let cfg = quick_cfg();
        let e = evaluate(
            AttackCategory::FillUp,
            Channel::TimingWindow,
            PredictorKind::Lvp,
            &cfg,
        );
        assert!(e.rate_kbps > 0.1, "rate = {}", e.rate_kbps);
        assert!(e.rate_kbps < 100_000.0);
    }
}
