//! Table/figure report generators.
//!
//! Function names map one-to-one onto the paper's evaluation artefacts:
//!
//! | paper | function |
//! |---|---|
//! | Table I (actions) | [`table_i`] |
//! | Table II (12 attack variants) | [`table_ii`] |
//! | Table III (attack evaluation) | [`table_iii`] |
//! | Figure 2 (channel taxonomy) | [`figure_2`] |
//! | Figure 3 (Train+Test PoC) | [`figure_3`] |
//! | Figure 4 (Test+Hit PoC) | [`figure_4`] |
//! | Figure 5 (Train+Test distributions) | [`figure_5`] |
//! | Figure 7 (RSA exponent leak) | [`figure_7`] |
//! | Figure 8 (Test+Hit distributions) | [`figure_8`] |
//! | §VI-B (defenses) | [`defense_report`] |
//! | design-choice ablations | [`ablation_report`] |

use std::fmt::Write as _;

use vpsec::attacks::{build_trial, AttackCategory, AttackSetup};
use vpsec::covert::CovertConfig;
use vpsec::experiment::{run_trial, Channel, Evaluation, ExperimentConfig, PredictorKind};
use vpsec::model::enumerate;
use vpsec::receiver::{transmit, ReceiverConfig};
use vpsec::{defense, taxonomy};
use vpsim_crypto::{leak_exponent, LeakConfig, Mpi};
use vpsim_harness::{Campaign, CampaignOutcome, CampaignStats, CellSpec, Exec};
use vpsim_predictor::{DefenseSpec, IndexConfig, LoadContext, Lvp, LvpConfig, ValuePredictor};

// `IndexConfig` is used both for the index-truncation ablation and the
// pid-indexing experiment below.
use vpsim_stats::Histogram;

/// Default experiment configuration with the given trial count.
#[must_use]
pub fn config(trials: usize) -> ExperimentConfig {
    ExperimentConfig {
        trials,
        ..ExperimentConfig::default()
    }
}

fn verdict(p: f64) -> &'static str {
    if p < vpsim_stats::SIGNIFICANCE {
        "EFFECTIVE (red)"
    } else {
        "not effective (black)"
    }
}

/// The counts that make a run degraded ([`CampaignStats::is_clean`]) as
/// one line, or `None` for a clean run. The line carries no wall-clock
/// field, so a degraded report is still a function of its inputs.
pub(crate) fn degradation(s: &CampaignStats) -> Option<String> {
    (!s.is_clean()).then(|| {
        format!(
            "{} failed cell(s), {} panic(s), {} deadline failure(s), \
             {} torn line(s) recovered, {} I/O fault(s)",
            s.failed_cells, s.panics, s.deadline_failed, s.torn_lines, s.io_faults
        )
    })
}

/// Append the one-line supervision note when the campaign ran degraded.
/// Clean runs add nothing, so golden report texts are unchanged.
fn supervision_note(outcome: &CampaignOutcome, out: &mut String) {
    if let Some(note) = degradation(&outcome.stats) {
        let _ = writeln!(out, "  [supervision] {note}");
    }
}

/// Fetch a cell's evaluation, or append a one-line quarantine note to the
/// report and return `None` — one failed cell degrades its own row, not
/// the whole report.
fn eval_or_quarantine<'a>(
    outcome: &'a CampaignOutcome,
    name: &str,
    out: &mut String,
) -> Option<&'a Evaluation> {
    match outcome.try_eval(name) {
        Ok(e) => Some(e),
        Err(err) => {
            let _ = writeln!(out, "    [quarantined] {err}");
            None
        }
    }
}

/// Table I: the action vocabulary of the attack model.
#[must_use]
pub fn table_i() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I: possible actions for each step of value predictor attacks\n"
    );
    let rows = [
        ("S^KD, S^KI", "Sender accesses data (resp. index) that it knows."),
        ("R^KD, R^KI", "Receiver accesses data (resp. index) that it knows."),
        (
            "S^SD', S^SD''",
            "Sender accesses secret data the receiver tries to learn (two possibly different secrets).",
        ),
        (
            "S^SI', S^SI''",
            "Sender accesses a secret-dependent index the receiver tries to learn.",
        ),
        ("—", "Step not used (modify step only)."),
    ];
    for (action, desc) in rows {
        let _ = writeln!(out, "  {action:<14} {desc}");
    }
    out
}

/// Table II: the 576 → 12 enumeration, with each survivor's category.
#[must_use]
pub fn table_ii() -> String {
    let e = enumerate();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II: {} step combinations explored, {} effective attacks\n",
        e.total_combinations,
        e.effective.len()
    );
    let _ = writeln!(
        out,
        "  {:<10} {:<10} {:<10} Category",
        "Step 1", "Step 2", "Step 3"
    );
    let _ = writeln!(
        out,
        "  {:<10} {:<10} {:<10}",
        "(Train)", "(Modify)", "(Trigger)"
    );
    for p in &e.effective {
        let _ = writeln!(
            out,
            "  {:<10} {:<10} {:<10} {}",
            p.train.to_string(),
            p.modify.to_string(),
            p.trigger.to_string(),
            p.category().expect("survivor classifies")
        );
    }
    let _ = writeln!(out, "\n  rejection histogram:");
    for (rule, n) in e.rejection_histogram() {
        if n > 0 {
            let _ = writeln!(out, "    {n:>4}  {rule}");
        }
    }
    out
}

/// Build the Table III campaign: every category × channel, without and
/// with the value predictor. Shared by the text report and the CSV
/// export so both reduce the exact same job set.
#[must_use]
pub fn table_iii_campaign(cfg: &ExperimentConfig) -> Campaign {
    let mut campaign = Campaign::new("table3");
    for cat in AttackCategory::ALL {
        for channel in [Channel::TimingWindow, Channel::Persistent] {
            for kind in [PredictorKind::None, PredictorKind::Lvp] {
                campaign.push(CellSpec::new(
                    format!("{cat}|{channel}|{kind}"),
                    cat,
                    channel,
                    kind,
                    cfg.clone(),
                ));
            }
        }
    }
    campaign
}

/// Table III: p-values and transmission rates for every category ×
/// channel, without and with the value predictor.
///
/// # Panics
///
/// Panics if the campaign cannot run (unusable resume directory or a
/// failing job).
#[must_use]
pub fn table_iii(trials: usize, exec: &Exec) -> String {
    let outcome = table_iii_campaign(&config(trials))
        .run(exec)
        .unwrap_or_else(|e| panic!("table3 campaign: {e}"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III: value predictor attack evaluation ({} trials/distribution)\n",
        trials
    );
    let _ = writeln!(
        out,
        "  {:<15} | {:<12} {:<26} | {:<12} {:<26}",
        "Attack Category", "TW no VP", "TW with VP (rate)", "P no VP", "P with VP (rate)"
    );
    let cell = |e: Option<&Evaluation>| -> String {
        match e {
            None => "—".to_owned(),
            Some(e) => format!("{:.4}", e.ttest.p_value),
        }
    };
    let cell_rate = |e: Option<&Evaluation>| -> String {
        match e {
            None => "—".to_owned(),
            Some(e) => format!(
                "{:.4} ({:.2}Kbps) {}",
                e.ttest.p_value,
                e.rate_kbps,
                if e.succeeds() { "*" } else { "" }
            ),
        }
    };
    for cat in AttackCategory::ALL {
        let get =
            |channel: Channel, kind: PredictorKind| outcome.get(&format!("{cat}|{channel}|{kind}"));
        let _ = writeln!(
            out,
            "  {:<15} | {:<12} {:<26} | {:<12} {:<26}",
            cat.to_string(),
            cell(get(Channel::TimingWindow, PredictorKind::None)),
            cell_rate(get(Channel::TimingWindow, PredictorKind::Lvp)),
            cell(get(Channel::Persistent, PredictorKind::None)),
            cell_rate(get(Channel::Persistent, PredictorKind::Lvp)),
        );
    }
    let _ = writeln!(
        out,
        "\n  (* = attack effective, p < 0.05; — = channel unsupported)"
    );
    supervision_note(&outcome, &mut out);
    out
}

/// Figure 2: the taxonomy of timing-window channels.
#[must_use]
pub fn figure_2() -> String {
    taxonomy::render()
}

/// Render an LVP entry-state table like the paper's Figure 3/4 VPS
/// diagrams: `index | confidence | usefulness | value | VHist`.
fn vps_state(vp: &Lvp, contexts: &[(&str, LoadContext)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "      {:<8} {:>10} {:>10} {:>8}  VHist",
        "index", "confidence", "usefulness", "value"
    );
    for (label, ctx) in contexts {
        match vp.entry_view(ctx) {
            Some(e) => {
                let _ = writeln!(
                    out,
                    "      {:<8} {:>10} {:>10} {:>8}  {:?}   <- {label}",
                    format!("{:#x}", e.index),
                    e.confidence,
                    e.usefulness,
                    e.value,
                    e.vhist
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "      (no entry)                                    <- {label}"
                );
            }
        }
    }
    out
}

/// The Figure 3-style predictor-state evolution for Train+Test: drive an
/// LVP through the train / modify / trigger protocol at the model level
/// and show the VPS entry after each step, for secret = 1 (modify maps
/// to the trained index) and secret = 0 (it does not).
fn train_test_state_diagram(setup: &AttackSetup) -> String {
    let mut out =
        String::from("  VPS state evolution (LVP entries, as in the Figure 3 diagrams):\n\n");
    for (label, mapped) in [
        ("secret = 1 (mapped)", true),
        ("secret = 0 (unmapped)", false),
    ] {
        let mut vp = Lvp::new(LvpConfig {
            confidence_threshold: setup.confidence,
            ..LvpConfig::default()
        });
        let known = LoadContext {
            pc: setup.target_pc(),
            addr: setup.known_addr,
            pid: 2,
        };
        let secret_pc = if mapped {
            setup.target_slot
        } else {
            setup.alt_slot
        } as u64
            * 4;
        let secret = LoadContext {
            pc: secret_pc,
            addr: setup.secret1_addr,
            pid: 1,
        };
        let watch = [("known index", known), ("secret index", secret)];
        let _ = writeln!(out, "    {label}:");
        for _ in 0..setup.confidence {
            vp.train(&known, setup.known_value, None);
        }
        let _ = writeln!(
            out,
            "    after 1) train (receiver, {}x known):",
            setup.confidence
        );
        out.push_str(&vps_state(&vp, &watch));
        for _ in 0..setup.confidence {
            let p = vp.lookup(&secret).map(|p| p.value);
            vp.train(&secret, setup.known_value + 1, p);
        }
        let _ = writeln!(
            out,
            "    after 2) modify (sender, {}x secret):",
            setup.confidence
        );
        out.push_str(&vps_state(&vp, &watch));
        let trigger = vp.lookup(&known);
        let outcome = match trigger {
            Some(p) if p.value == setup.known_value => "correct prediction (fast)",
            Some(_) => "misprediction (slow: squash + reissue)",
            None => "no prediction (slow: full miss)",
        };
        let _ = writeln!(out, "    3) trigger at the known index -> {outcome}\n");
    }
    out
}

fn poc_walkthrough(category: AttackCategory, trials: usize) -> String {
    let cfg = config(trials.max(4));
    let setup = AttackSetup::default();
    let mut out = String::new();
    for mapped in [true, false] {
        let label = if mapped {
            "mapped (secret = 1)"
        } else {
            "unmapped (secret = 0)"
        };
        let trial = build_trial(category, Channel::TimingWindow, mapped, &setup)
            .expect("timing trial exists");
        let _ = writeln!(out, "--- {label} ---");
        for step in &trial.steps {
            let _ = writeln!(
                out,
                "  step `{}` by {:?} × {}:",
                step.label, step.party, step.repeat
            );
            for line in step.program.disassemble().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        let o = run_trial(&trial, PredictorKind::Lvp, &cfg, 7);
        let _ = writeln!(out, "  observed trigger window: {} cycles\n", o.observed);
    }
    out
}

/// Figure 3: the Train+Test proof of concept, with program listings and
/// the observed trigger timings for both secret values.
#[must_use]
pub fn figure_3(trials: usize) -> String {
    let mut out = String::from("Figure 3: Train + Test proof of concept\n\n");
    out.push_str(&train_test_state_diagram(&AttackSetup::default()));
    out.push_str(&poc_walkthrough(AttackCategory::TrainTest, trials));
    out
}

/// Figure 4: the Test+Hit proof of concept.
#[must_use]
pub fn figure_4(trials: usize) -> String {
    let mut out = String::from("Figure 4: Test + Hit proof of concept\n\n");
    out.push_str(&poc_walkthrough(AttackCategory::TestHit, trials));
    out
}

/// One panel of a Figure 5/8-style distribution plot.
fn panel(title: &str, e: &Evaluation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {title}  pvalue = {:.4}  [{}]",
        e.ttest.p_value,
        verdict(e.ttest.p_value)
    );
    let hi = e
        .mapped
        .iter()
        .chain(&e.unmapped)
        .fold(0.0f64, |m, &x| m.max(x))
        .max(600.0)
        + 1.0;
    let mut mapped = Histogram::new(0.0, hi, 24);
    mapped.record_all(&e.mapped);
    let mut unmapped = Histogram::new(0.0, hi, 24);
    unmapped.record_all(&e.unmapped);
    let _ = writeln!(out, "    cycles |  mapped | unmapped");
    for i in 0..24 {
        let m = mapped.counts()[i];
        let u = unmapped.counts()[i];
        if m > 0 || u > 0 {
            let _ = writeln!(
                out,
                "    {:>6.0} | {:>7} | {:>8}  {}{}",
                mapped.bin_center(i),
                m,
                u,
                "#".repeat(m as usize * 40 / e.mapped.len().max(1)),
                "-".repeat(u as usize * 40 / e.unmapped.len().max(1)),
            );
        }
    }
    out
}

/// The four panels of a Figure 5/8-style distribution plot.
const PANELS: [(&str, Channel, PredictorKind); 4] = [
    (
        "(1) Timing-Window Channel (no VP)",
        Channel::TimingWindow,
        PredictorKind::None,
    ),
    (
        "(2) Timing-Window Channel (LVP)",
        Channel::TimingWindow,
        PredictorKind::Lvp,
    ),
    (
        "(3) Persistent Channel (no VP)",
        Channel::Persistent,
        PredictorKind::None,
    ),
    (
        "(4) Persistent Channel (LVP)",
        Channel::Persistent,
        PredictorKind::Lvp,
    ),
];

/// Build a distribution figure's campaign, one cell per [`PANELS`]
/// entry: `fig5` for Train+Test, `fig8` for Test+Hit. Shared by the
/// text report and the CSV export so both reduce the same jobs.
///
/// # Panics
///
/// Panics for a category the paper draws no distribution figure for.
pub(crate) fn distribution_campaign(category: AttackCategory, cfg: &ExperimentConfig) -> Campaign {
    let name = match category {
        AttackCategory::TrainTest => "fig5",
        AttackCategory::TestHit => "fig8",
        other => panic!("the paper draws no distribution figure for {other}"),
    };
    let mut campaign = Campaign::new(name);
    for (title, channel, kind) in PANELS {
        campaign.push(CellSpec::new(title, category, channel, kind, cfg.clone()));
    }
    campaign
}

fn distribution_figure(name: &str, category: AttackCategory, trials: usize, exec: &Exec) -> String {
    let mut out = format!(
        "{name}: timing distributions, {trials} trials per case\n(mapped = '#', unmapped = '-')\n\n"
    );
    let outcome = distribution_campaign(category, &config(trials))
        .run(exec)
        .unwrap_or_else(|e| panic!("distribution campaign: {e}"));
    for (title, _, _) in PANELS {
        match outcome.try_eval(title) {
            Ok(e) => {
                out.push_str(&panel(title, e));
                out.push('\n');
            }
            Err(err) => {
                let _ = writeln!(out, "{title}\n    [quarantined] {err}\n");
            }
        }
    }
    supervision_note(&outcome, &mut out);
    out
}

/// Figure 5: Train+Test timing distributions over the timing-window and
/// persistent channels, with and without the value predictor.
#[must_use]
pub fn figure_5(trials: usize, exec: &Exec) -> String {
    distribution_figure(
        "Figure 5 (Train + Test)",
        AttackCategory::TrainTest,
        trials,
        exec,
    )
}

/// Figure 8: the same four panels for Test+Hit.
#[must_use]
pub fn figure_8(trials: usize, exec: &Exec) -> String {
    distribution_figure(
        "Figure 8 (Test + Hit)",
        AttackCategory::TestHit,
        trials,
        exec,
    )
}

/// The Figure 7 secret exponent: a fixed `bits`-bit "key" with an MSB
/// of 1 and an alternating-ish bit pattern below it.
pub(crate) fn figure_7_exponent(bits: usize) -> Mpi {
    let mut exponent = Mpi::one();
    for i in 0..bits.saturating_sub(1) {
        exponent = exponent.shl_bits(1);
        if (i * 7 + 3) % 5 < 2 {
            exponent = exponent.add(&Mpi::one());
        }
    }
    exponent
}

/// Figure 7: the receiver's per-iteration observations while the victim
/// runs the Figure 6 modular exponentiation, plus the recovery rate over
/// repeated runs (the paper reports 95.7% over 60 runs at 9.65 Kbps).
#[must_use]
pub fn figure_7(bits: usize, runs: usize) -> String {
    let mut out = format!(
        "Figure 7: RSA exponent-bit leak through the value predictor\n\
         ({bits}-bit secret exponent, {runs} runs)\n\n"
    );
    let exponent = figure_7_exponent(bits);
    let mut total_correct = 0usize;
    let mut total_bits = 0usize;
    let mut first_series = None;
    let mut rate_sum = 0.0;
    for run in 0..runs {
        let cfg = LeakConfig {
            seed: 0x965 + run as u64,
            ..LeakConfig::default()
        };
        let r = leak_exponent(&exponent, &cfg);
        total_correct += r
            .true_bits
            .iter()
            .zip(&r.recovered_bits)
            .filter(|(a, b)| a == b)
            .count();
        total_bits += r.true_bits.len();
        rate_sum += r.rate_kbps();
        if first_series.is_none() {
            first_series = Some(r);
        }
    }
    let r = first_series.expect("at least one run");
    let _ = writeln!(
        out,
        "  iteration | e_bit | observed cycles (threshold {:.0})",
        r.threshold
    );
    for (i, (&bit, &obs)) in r.true_bits.iter().zip(&r.observations).enumerate() {
        let _ = writeln!(
            out,
            "  {:>9} |   {}   | {:>6.0} {}",
            i,
            u8::from(bit),
            obs,
            if bit { "●" } else { "·" }
        );
    }
    let _ = writeln!(
        out,
        "\n  success rate: {:.1}% over {} bit transmissions ({} runs)",
        100.0 * total_correct as f64 / total_bits.max(1) as f64,
        total_bits,
        runs
    );
    let _ = writeln!(
        out,
        "  transmission rate: {:.2} Kbps",
        rate_sum / runs.max(1) as f64
    );
    out
}

pub(crate) const SWEEPS: [(AttackCategory, &[u64]); 2] = [
    (AttackCategory::TrainTest, &[1, 2, 3, 4, 5]),
    (AttackCategory::TestHit, &[1, 3, 5, 7, 8, 9, 10, 11]),
];

/// Build the §VI-B R-type window sweep campaign: each [`SWEEPS`] window
/// against its category on the timing-window channel with the LVP.
/// Shared by the text report and the CSV export.
pub(crate) fn window_sweep_campaign(base: &ExperimentConfig) -> Campaign {
    let mut campaign = Campaign::new("window_sweep");
    for (cat, windows) in SWEEPS {
        for &s in windows {
            let cfg = ExperimentConfig {
                defense: DefenseSpec {
                    r_type: Some(s),
                    ..DefenseSpec::none()
                },
                ..base.clone()
            };
            campaign.push(CellSpec::new(
                sweep_cell(cat, s),
                cat,
                Channel::TimingWindow,
                PredictorKind::Lvp,
                cfg,
            ));
        }
    }
    campaign
}

/// The window sweep's cell for window `s` against `cat`.
pub(crate) fn sweep_cell(cat: AttackCategory, s: u64) -> String {
    format!("{cat}|{s}")
}

/// Build the §VI-B defense-matrix campaign: the standard A/D/R defenses
/// (R window 9) against every category and channel with the LVP.
#[must_use]
pub fn defense_campaign(base: &ExperimentConfig) -> Campaign {
    let mut campaign = Campaign::new("defenses");
    for cat in AttackCategory::ALL {
        for channel in [Channel::TimingWindow, Channel::Persistent] {
            for defense in defense::standard_defenses(9) {
                let cfg = ExperimentConfig {
                    defense,
                    ..base.clone()
                };
                campaign.push(CellSpec::new(
                    format!("matrix|{cat}|{channel}|{}", defense.label()),
                    cat,
                    channel,
                    PredictorKind::Lvp,
                    cfg,
                ));
            }
        }
    }
    campaign
}

/// §VI-B: the defense evaluation — the R-type window sweeps whose
/// thresholds the paper reports (3 for Train+Test, 9 for Test+Hit) plus
/// an A/D/R matrix per attack.
///
/// # Panics
///
/// Panics if a campaign cannot run.
#[must_use]
pub fn defense_report(trials: usize, exec: &Exec) -> String {
    let cfg = config(trials);
    let sweeps = window_sweep_campaign(&cfg)
        .run(exec)
        .unwrap_or_else(|e| panic!("window sweep campaign: {e}"));
    let matrix = defense_campaign(&cfg)
        .run(exec)
        .unwrap_or_else(|e| panic!("defense campaign: {e}"));
    let mut out = String::from("Defense evaluation (paper §VI-B)\n\n");
    for (cat, windows) in SWEEPS {
        let _ = writeln!(out, "  R-type window sweep, {cat} (timing-window):");
        let sweep: Vec<(u64, f64)> = windows
            .iter()
            .filter_map(|&s| {
                eval_or_quarantine(&sweeps, &sweep_cell(cat, s), &mut out)
                    .map(|e| (s, e.ttest.p_value))
            })
            .collect();
        for (s, p) in &sweep {
            let _ = writeln!(out, "    S = {s:>2}: pvalue = {p:.4}  [{}]", verdict(*p));
        }
        let _ = writeln!(
            out,
            "    minimal secure window: {}\n",
            defense::minimal_secure_window(&sweep)
                .map_or("none in sweep".to_owned(), |s| s.to_string())
        );
    }
    // Defense matrix per category over both channels.
    let _ = writeln!(out, "  defense matrix (R window 9):");
    for cat in AttackCategory::ALL {
        for channel in [Channel::TimingWindow, Channel::Persistent] {
            let rows: Vec<(DefenseSpec, &Evaluation)> = defense::standard_defenses(9)
                .into_iter()
                .filter_map(|d| {
                    matrix
                        .get(&format!("matrix|{cat}|{channel}|{}", d.label()))
                        .map(|e| (d, e))
                })
                .collect();
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(out, "    {cat} / {channel}:");
            for (defense, e) in rows {
                let _ = writeln!(
                    out,
                    "      {:<10} pvalue = {:.4}  [{}]",
                    defense.label(),
                    e.ttest.p_value,
                    if e.succeeds() {
                        "still leaks"
                    } else {
                        "defended"
                    }
                );
            }
        }
    }
    supervision_note(&sweeps, &mut out);
    supervision_note(&matrix, &mut out);
    out
}

/// Prediction coverage of an LVP under index truncation: a synthetic
/// many-load workload shows how fewer index bits introduce conflicts and
/// reduce the prediction rate (paper §I-A).
#[must_use]
pub fn index_bits_ablation(num_pcs: usize, rounds: usize) -> Vec<(Option<u32>, f64)> {
    [None, Some(16), Some(10), Some(8), Some(6)]
        .into_iter()
        .map(|bits| {
            let mut vp = Lvp::new(LvpConfig {
                index: IndexConfig {
                    index_bits: bits,
                    ..IndexConfig::default()
                },
                capacity: 1 << 16,
                ..LvpConfig::default()
            });
            let mut lookups = 0u64;
            let mut predicted = 0u64;
            let warmup = LvpConfig::default().confidence_threshold as usize;
            for round in 0..warmup + rounds {
                for pc in 0..num_pcs {
                    let ctx = LoadContext {
                        pc: (pc as u64) * 4,
                        addr: 0x1000 + (pc as u64) * 8,
                        pid: 0,
                    };
                    if round >= warmup {
                        lookups += 1;
                        let p = vp.lookup(&ctx);
                        if p.is_some() {
                            predicted += 1;
                        }
                        vp.train(&ctx, pc as u64 ^ 0xabcd, p.map(|p| p.value));
                    } else {
                        vp.train(&ctx, pc as u64 ^ 0xabcd, None);
                    }
                }
            }
            (bits, predicted as f64 / lookups.max(1) as f64)
        })
        .collect()
}

const ABLATION_CONFIDENCES: [u32; 5] = [1, 2, 3, 5, 8];
const ABLATION_JITTERS: [u64; 5] = [0, 12, 50, 120, 250];
const ABLATION_KINDS: [PredictorKind; 5] = [
    PredictorKind::Lvp,
    PredictorKind::Vtage,
    PredictorKind::OracleLvp,
    PredictorKind::OracleVtage,
    PredictorKind::Stride,
];

/// Build the ablation campaign: confidence-threshold, DRAM-jitter,
/// prefetcher, pid-indexing and predictor-type sweeps as one job pool.
#[must_use]
pub fn ablation_campaign(trials: usize) -> Campaign {
    let mut campaign = Campaign::new("ablations");
    let tt = AttackCategory::TrainTest;
    let tw = Channel::TimingWindow;
    for confidence in ABLATION_CONFIDENCES {
        let cfg = ExperimentConfig {
            trials,
            setup: AttackSetup {
                confidence,
                ..AttackSetup::default()
            },
            ..ExperimentConfig::default()
        };
        campaign.push(CellSpec::new(
            format!("confidence|{confidence}"),
            tt,
            tw,
            PredictorKind::Lvp,
            cfg,
        ));
    }
    for jitter in ABLATION_JITTERS {
        let mem = vpsim_mem::MemoryConfig {
            dram_jitter: jitter,
            ..vpsim_mem::MemoryConfig::default()
        };
        let cfg = ExperimentConfig {
            trials,
            mem,
            ..ExperimentConfig::default()
        };
        campaign.push(CellSpec::new(
            format!("jitter|{jitter}"),
            tt,
            tw,
            PredictorKind::Lvp,
            cfg,
        ));
    }
    let prefetch_mem = vpsim_mem::MemoryConfig {
        prefetch: vpsim_mem::PrefetchKind::NextLine,
        ..vpsim_mem::MemoryConfig::default()
    };
    for kind in [PredictorKind::None, PredictorKind::Lvp] {
        let cfg = ExperimentConfig {
            trials,
            mem: prefetch_mem,
            ..ExperimentConfig::default()
        };
        campaign.push(CellSpec::new(format!("prefetch|{kind}"), tt, tw, kind, cfg));
    }
    let pid_cfg = ExperimentConfig {
        trials,
        index: IndexConfig {
            use_pid: true,
            ..IndexConfig::default()
        },
        ..ExperimentConfig::default()
    };
    campaign.push(CellSpec::new(
        "pid|cross",
        tt,
        tw,
        PredictorKind::Lvp,
        pid_cfg.clone(),
    ));
    campaign.push(CellSpec::new(
        "pid|internal",
        AttackCategory::FillUp,
        tw,
        PredictorKind::Lvp,
        pid_cfg,
    ));
    for kind in ABLATION_KINDS {
        for cat in [tt, AttackCategory::TestHit] {
            campaign.push(CellSpec::new(
                format!("kind|{kind}|{cat}"),
                cat,
                tw,
                kind,
                config(trials),
            ));
        }
    }
    let fcm_cfg = ExperimentConfig {
        trials,
        setup: AttackSetup {
            extra_training: 8,
            ..AttackSetup::default()
        },
        ..ExperimentConfig::default()
    };
    campaign.push(CellSpec::new(
        "fcm|deep",
        tt,
        tw,
        PredictorKind::Fcm,
        fcm_cfg,
    ));
    campaign
}

/// The ablation report: index truncation, confidence threshold, and
/// predictor type (LVP vs VTAGE vs stride vs oracle — §IV-D3).
///
/// # Panics
///
/// Panics if the campaign cannot run.
#[must_use]
pub fn ablation_report(trials: usize, exec: &Exec) -> String {
    let outcome = ablation_campaign(trials)
        .run(exec)
        .unwrap_or_else(|e| panic!("ablation campaign: {e}"));
    let mut out = String::from("Design-choice ablations\n\n");
    // 1. Index truncation (predictor-level).
    let _ = writeln!(
        out,
        "  index bits vs prediction coverage (256 loads, constant values):"
    );
    for (bits, coverage) in index_bits_ablation(256, 6) {
        let _ = writeln!(
            out,
            "    {:>5} bits: {:.1}% of lookups predicted",
            bits.map_or("full".to_owned(), |b| b.to_string()),
            coverage * 100.0
        );
    }
    // 2. Confidence threshold vs attack effectiveness.
    let _ = writeln!(out, "\n  confidence threshold vs Train+Test leak:");
    for confidence in ABLATION_CONFIDENCES {
        let Some(e) = eval_or_quarantine(&outcome, &format!("confidence|{confidence}"), &mut out)
        else {
            continue;
        };
        let _ = writeln!(
            out,
            "    confidence {confidence}: pvalue = {:.4} [{}], {:.2} Kbps",
            e.ttest.p_value,
            verdict(e.ttest.p_value),
            e.rate_kbps
        );
    }
    // 2a. noise robustness: attacks survive realistic DRAM jitter; the
    // covert channel's bit-error rate degrades gracefully.
    let _ = writeln!(
        out,
        "\n  DRAM jitter vs Train+Test leak and Fill Up covert BER:"
    );
    for jitter in ABLATION_JITTERS {
        let mem = vpsim_mem::MemoryConfig {
            dram_jitter: jitter,
            ..vpsim_mem::MemoryConfig::default()
        };
        let Some(e) = eval_or_quarantine(&outcome, &format!("jitter|{jitter}"), &mut out) else {
            continue;
        };
        let covert_cfg = CovertConfig {
            experiment: ExperimentConfig {
                mem,
                ..ExperimentConfig::default()
            },
            calibration: 6,
            ..CovertConfig::default()
        };
        let msg = transmit(b"DAC21", &ReceiverConfig::fixed(covert_cfg)).expect("supported");
        let _ = writeln!(
            out,
            "    jitter ±{jitter:>3}: pvalue = {:.4} [{}], covert BER = {:.1}%",
            e.ttest.p_value,
            verdict(e.ttest.p_value),
            msg.bit_errors as f64 / msg.bits() as f64 * 100.0
        );
    }

    // 2a'. prefetcher contrast (§I-B): prefetchers have no "no
    // prediction" timing case; enabling one neither creates the VP
    // channels nor masks them.
    let _ = writeln!(
        out,
        "\n  next-line prefetcher vs the VP channel (§I-B contrast):"
    );
    if let Some(no_vp) = eval_or_quarantine(&outcome, "prefetch|no VP", &mut out) {
        let _ = writeln!(
            out,
            "    prefetcher on, no VP: pvalue = {:.4} [{}] (a prefetcher alone opens no VP channel)",
            no_vp.ttest.p_value,
            verdict(no_vp.ttest.p_value)
        );
    }
    if let Some(lvp) = eval_or_quarantine(&outcome, "prefetch|LVP", &mut out) {
        let _ = writeln!(
            out,
            "    prefetcher on, LVP:   pvalue = {:.4} [{}] (and it does not mask the leak)",
            lvp.ttest.p_value,
            verdict(lvp.ttest.p_value)
        );
    }

    // 2b. pid-aware indexing (threat model, footnote 5): pid indexing
    // stops cross-process aliasing but not the sender-internal attacks.
    let _ = writeln!(out, "\n  pid-indexed predictor (threat-model footnote 5):");
    if let Some(cross) = eval_or_quarantine(&outcome, "pid|cross", &mut out) {
        let _ = writeln!(
            out,
            "    cross-process Train+Test: pvalue = {:.4} [{}] (indexes no longer alias)",
            cross.ttest.p_value,
            verdict(cross.ttest.p_value)
        );
    }
    if let Some(internal) = eval_or_quarantine(&outcome, "pid|internal", &mut out) {
        let _ = writeln!(
            out,
            "    sender-internal Fill Up:  pvalue = {:.4} [{}] (pid does not eliminate attacks)",
            internal.ttest.p_value,
            verdict(internal.ttest.p_value)
        );
    }

    // 3. Predictor type (paper §IV-D3: LVP and VTAGE both leak).
    let _ = writeln!(
        out,
        "\n  predictor type vs leak (Train+Test & Test+Hit, timing-window):"
    );
    for kind in ABLATION_KINDS {
        let tt = eval_or_quarantine(
            &outcome,
            &format!("kind|{kind}|{}", AttackCategory::TrainTest),
            &mut out,
        );
        let th = eval_or_quarantine(
            &outcome,
            &format!("kind|{kind}|{}", AttackCategory::TestHit),
            &mut out,
        );
        let (Some(tt), Some(th)) = (tt, th) else {
            continue;
        };
        let _ = writeln!(
            out,
            "    {:<13} Train+Test p = {:.4} [{}], Test+Hit p = {:.4} [{}]",
            kind.to_string(),
            tt.ttest.p_value,
            verdict(tt.ttest.p_value),
            th.ttest.p_value,
            verdict(th.ttest.p_value),
        );
    }
    // The FCM's context must stabilise before it predicts: the attacker
    // simply trains `history_depth` extra times (higher attack cost,
    // same leak).
    if let Some(tt) = eval_or_quarantine(&outcome, "fcm|deep", &mut out) {
        let _ = writeln!(
            out,
            "    {:<13} Train+Test p = {:.4} [{}] (with 8 extra training accesses)",
            "FCM",
            tt.ttest.p_value,
            verdict(tt.ttest.p_value),
        );
    }
    supervision_note(&outcome, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 10;

    #[test]
    fn table_i_lists_all_actions() {
        let t = table_i();
        for a in ["S^KD", "R^KI", "S^SD'", "S^SI'", "—"] {
            assert!(t.contains(a), "missing {a}");
        }
    }

    #[test]
    fn table_ii_has_twelve_rows_and_576_total() {
        let t = table_ii();
        assert!(t.contains("576 step combinations"));
        assert!(t.contains("12 effective attacks"));
        assert!(t.contains("Spill Over"));
        assert!(t.contains("Modify + Test"));
    }

    #[test]
    fn figure_2_mentions_new_channel() {
        assert!(figure_2().contains("no prediction vs. correct prediction"));
    }

    #[test]
    fn figure_3_shows_programs_and_timings() {
        let f = figure_3(4);
        assert!(f.contains("Train + Test"));
        assert!(f.contains("ld "));
        assert!(f.contains("observed trigger window"));
    }

    #[test]
    fn figure_5_has_four_panels_with_expected_verdicts() {
        let f = figure_5(T, &Exec::default());
        assert_eq!(f.matches("pvalue").count(), 4);
        assert_eq!(f.matches("EFFECTIVE").count(), 2, "{f}");
        assert_eq!(f.matches("not effective").count(), 2, "{f}");
    }

    #[test]
    fn table_iii_reports_every_category() {
        let t = table_iii(T, &Exec::default());
        for cat in AttackCategory::ALL {
            assert!(t.contains(&cat.to_string()), "{cat} missing");
        }
        assert!(t.contains('—'), "unsupported persistent cells render as —");
    }

    #[test]
    fn table_iii_is_identical_at_any_thread_count() {
        let serial = table_iii(T, &Exec::default());
        let parallel = table_iii(
            T,
            &Exec {
                jobs: 4,
                ..Exec::default()
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn the_degradation_note_is_a_function_of_the_counts() {
        let stats = |wall_ms| CampaignStats {
            jobs_total: 36,
            jobs_run: 1,
            jobs_resumed: 35,
            torn_lines: 1,
            wall_time: std::time::Duration::from_millis(wall_ms),
            ..CampaignStats::default()
        };
        let (fast, slow) = (stats(3), stats(3_000));
        assert_ne!(fast, slow);
        assert_eq!(degradation(&fast), degradation(&slow));
        assert!(degradation(&fast).is_some_and(|n| n.contains("1 torn line(s) recovered")));
        assert_eq!(degradation(&CampaignStats::default()), None);
    }

    #[test]
    fn index_bits_ablation_monotone_decreasing() {
        let results = index_bits_ablation(256, 4);
        let full = results[0].1;
        let tiny = results.last().unwrap().1;
        assert!(
            full > 0.9,
            "full index should predict nearly always: {full}"
        );
        assert!(
            tiny < full,
            "truncation must reduce coverage: {tiny} vs {full}"
        );
    }

    #[test]
    fn figure_7_reports_success_and_rate() {
        let f = figure_7(8, 1);
        assert!(f.contains("success rate"));
        assert!(f.contains("transmission rate"));
        assert!(f.contains("iteration"));
    }

    #[test]
    fn defense_report_has_both_sweeps_and_matrix() {
        let d = defense_report(8, &Exec::default());
        assert!(d.contains("R-type window sweep, Train + Test"));
        assert!(d.contains("R-type window sweep, Test + Hit"));
        assert!(d.contains("minimal secure window"));
        assert!(d.contains("defense matrix"));
        assert!(d.contains("A+R(9)+D"));
    }

    #[test]
    fn ablation_report_sections_present() {
        let a = ablation_report(
            6,
            &Exec {
                jobs: 2,
                ..Exec::default()
            },
        );
        for section in [
            "index bits vs prediction coverage",
            "confidence threshold",
            "DRAM jitter",
            "next-line prefetcher",
            "pid-indexed predictor",
            "predictor type vs leak",
        ] {
            assert!(a.contains(section), "missing section: {section}");
        }
    }
}
