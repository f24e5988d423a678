//! `rsa_leak` — Figure 7: leak a seeded 1024-bit RSA exponent bit by
//! bit through the value predictor, leaks back to back on one thread.

use std::time::{Duration, Instant};

use vpsec::attacks::{train_program, trigger_timing};
use vpsim_crypto::victim::iteration_program;
use vpsim_crypto::{leak_exponent, LeakConfig, LeakResult, Mpi};
use vpsim_mem::MemoryHierarchy;
use vpsim_pipeline::{Machine, RunResult};
use vpsim_predictor::{Lvp, LvpConfig};
use vpsim_rng::SmallRng;

use crate::layers::{report_split, SimCounters};
use crate::stats::{median, rate, ratio, time_setup, Report};
use crate::trace::Tracer;

/// Exponent length; Figure 7 leaks an RSA private exponent.
pub const BITS: usize = 1024;

/// Timed leaks per run, however short `--seconds` is.
const MIN_LEAKS: usize = 3;

/// Leaks the traced run replays: each records some 6,300 spans, and the
/// per-leak counts repeat exactly.
const REPLAYED_LEAKS: usize = 8;

/// The victim's data addresses and the `tp` pointer value, as
/// `vpsim_crypto::victim` lays them out.
const SQR_ADDR: u64 = 0x41000;
const MUL_ADDR: u64 = 0x42000;
const TP_ADDR: u64 = 0x43000;
const TP_VALUE: u64 = 0x4040;

/// A random `BITS`-bit exponent with its most significant bit set.
pub fn exponent(seed: u64) -> Mpi {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut limbs: Vec<u64> = (0..BITS / 64).map(|_| rng.next_u64()).collect();
    *limbs.last_mut().expect("the exponent has limbs") |= 1 << 63;
    Mpi::from_limbs(limbs)
}

fn config(leak_seed: u64) -> LeakConfig {
    LeakConfig {
        seed: leak_seed,
        ..LeakConfig::default()
    }
}

/// Check one leak: every bit recovered, and the same simulated cycles
/// as the first leak of the run.
fn check_leak(r: &LeakResult, e: &Mpi, cycles: &mut Option<u64>, report: &mut Report) {
    let wrong = r
        .true_bits
        .iter()
        .zip(&r.recovered_bits)
        .filter(|(a, b)| a != b)
        .count();
    report.attempted += r.true_bits.len() as u64;
    report.failed += wrong as u64;
    report.check(wrong == 0, || {
        format!(
            "{wrong} of {} exponent bits recovered wrongly",
            r.true_bits.len()
        )
    });
    report.check(r.true_bits == e.bits_msb_first(), || {
        "leak_exponent reported other true bits than the exponent's".to_owned()
    });
    let first = *cycles.get_or_insert(r.total_cycles);
    report.check(r.total_cycles == first, || {
        format!(
            "a leak simulated {} cycles, the run's first {first}",
            r.total_cycles
        )
    });
}

/// The end-to-end run: leaks back to back for `budget`.
pub fn run(
    exponent_seed: u64,
    leak_seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let e = exponent(exponent_seed);
    report.check(e.bit_len() == BITS, || {
        format!("exponent has {} bits", e.bit_len())
    });
    let cfg = config(leak_seed);
    let mut cycles = None;
    let (mut walls, mut setup) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_LEAKS || start.elapsed() < budget {
        // Set-up samples spread over the run see the same host as the
        // leaks.
        setup.push(time_setup(1024, || exponent(exponent_seed)));
        let t = Instant::now();
        let r = leak_exponent(&e, &cfg);
        walls.push(t.elapsed().as_secs_f64());
        check_leak(&r, &e, &mut cycles, report);
    }
    let sim_cycles = cycles.unwrap_or(0) as f64;
    report.set("jobs_per_s", rate(1.0, &walls));
    report.set("bits_per_s", rate(BITS as f64, &walls));
    report.set("sim_cycles_per_s", rate(sim_cycles, &walls));
    report.set("setup_s", median(&setup));
    eprintln!(
        "rsa_leak: {} leaks of {BITS} bits, {sim_cycles} sim cycles each",
        walls.len()
    );
    Ok(())
}

/// The traced run: untraced leaks alternated with replays of the same
/// leak through the public calls `leak_exponent` makes, each replay
/// checked against the leak bit for bit, for `budget` or
/// [`REPLAYED_LEAKS`] pairs, whichever ends first.
pub fn run_traced(
    exponent_seed: u64,
    leak_seed: u64,
    budget: Duration,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let e = exponent(exponent_seed);
    let cfg = config(leak_seed);
    assert!(
        cfg.chaos.is_off() && cfg.recalibrate_every == 0,
        "the replay covers the fixed-threshold receiver without chaos"
    );
    let mut sim = SimCounters::default();
    let mut cycles = None;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while off.is_empty() || (off.len() < REPLAYED_LEAKS && start.elapsed() < budget) {
        let t = Instant::now();
        let r = leak_exponent(&e, &cfg);
        off.push(t.elapsed().as_secs_f64());
        check_leak(&r, &e, &mut cycles, report);
        let job = sim.jobs;
        let mut seeds = Vec::new();
        let t = Instant::now();
        let replayed = Replay {
            cfg: &cfg,
            tracer: &mut *tracer,
            sim: &mut sim,
            seeds: &mut seeds,
            job,
        }
        .leak(&e);
        on.push(t.elapsed().as_secs_f64());
        // Outside the leak's span tree: leak_exponent builds no bare
        // hierarchies.
        for seed in seeds {
            let span = tracer.enter("mem.hierarchy_new", job);
            let hierarchy = MemoryHierarchy::new(cfg.mem, seed);
            tracer.exit(span);
            drop(hierarchy);
        }
        sim.jobs += 1;
        report.check(same_leak(&r, &replayed), || {
            "the replayed leak differs from leak_exponent".to_owned()
        });
    }
    sim.report(tracer, report);
    report_split(tracer, "crypto.leak", report);
    report.set(
        "isa.program_build_us.p50",
        median(&tracer.durations_us("isa.program_build")),
    );
    let machines = ratio(sim.machines as f64, sim.jobs as f64);
    report.set("crypto.machines_per_leak", machines);
    report.set(
        "crypto.setup_share",
        ratio(
            machines * median(&tracer.durations_us("pipeline.machine_new")),
            median(&off) * 1e6,
        ),
    );
    let (off, on) = (rate(1.0, &off), rate(1.0, &on));
    report.set("trace.overhead_pct", 100.0 * ratio(off - on, off));
    Ok(())
}

fn same_leak(a: &LeakResult, b: &LeakResult) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.recovered_bits == b.recovered_bits
        && bits(&a.observations) == bits(&b.observations)
        && a.threshold.to_bits() == b.threshold.to_bits()
        && a.total_cycles == b.total_cycles
}

/// `leak_exponent` rebuilt from the public calls it makes, with a span
/// around each.
struct Replay<'a> {
    cfg: &'a LeakConfig,
    tracer: &'a mut Tracer,
    sim: &'a mut SimCounters,
    /// The seed of every machine built, in order.
    seeds: &'a mut Vec<u64>,
    job: u64,
}

impl Replay<'_> {
    fn leak(mut self, exponent: &Mpi) -> LeakResult {
        let root = self.tracer.enter("crypto.leak", self.job);
        let true_bits = exponent.bits_msb_first();
        let seed = self.cfg.seed;
        let mut machine = self.machine(seed);
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for i in 0..self.cfg.calibration_runs as u64 {
            let mut cal = self.machine(seed ^ (0xca11 + i));
            fast.push(self.observe(&mut cal, false));
            self.discard(cal);
            let mut cal = self.machine(seed ^ (0xca22 + i));
            slow.push(self.observe(&mut cal, true));
            self.discard(cal);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let threshold = (mean(&fast) + mean(&slow)) / 2.0;
        let mut observations = Vec::with_capacity(true_bits.len());
        let mut recovered_bits = Vec::with_capacity(true_bits.len());
        let mut total_cycles = 0u64;
        for &bit in &true_bits {
            let obs = self.observe(&mut machine, bit);
            observations.push(obs);
            recovered_bits.push(obs > threshold);
            total_cycles += obs as u64;
        }
        self.discard(machine);
        // The per-bit protocol overhead leak_exponent measures once on
        // a probe machine.
        let mut probe = self.machine(seed ^ 0xbead);
        let cfg = self.cfg;
        let setup = &cfg.setup;
        let span = self.tracer.enter("isa.program_build", self.job);
        let train = train_program(setup, setup.target_slot, setup.known_addr);
        let victim = iteration_program(true, setup);
        self.tracer.exit(span);
        let mut overhead = 0u64;
        for _ in 0..setup.confidence {
            overhead += self.run(&mut probe, 2, &train).cycles;
        }
        overhead += self.run(&mut probe, 1, &victim).cycles;
        self.discard(probe);
        total_cycles += overhead * true_bits.len() as u64;
        self.tracer.exit(root);
        LeakResult {
            true_bits,
            recovered_bits,
            observations,
            threshold,
            total_cycles,
        }
    }

    fn machine(&mut self, seed: u64) -> Machine {
        self.seeds.push(seed);
        let span = self.tracer.enter("pipeline.machine_new", self.job);
        let lvp = Lvp::new(LvpConfig {
            confidence_threshold: self.cfg.setup.confidence,
            ..LvpConfig::default()
        });
        let mut machine = Machine::new(self.cfg.core, self.cfg.mem, Box::new(lvp), seed);
        let init = self.tracer.enter("mem.init", self.job);
        let m = machine.mem_mut();
        m.store_value(SQR_ADDR, 0x5051);
        m.store_value(MUL_ADDR, 0x6061);
        m.store_value(TP_ADDR, TP_VALUE);
        m.store_value(self.cfg.setup.known_addr, self.cfg.setup.known_value);
        self.tracer.exit(init);
        self.tracer.exit(span);
        machine
    }

    fn discard(&mut self, machine: Machine) {
        self.sim.add_machine(&machine.mem().stats());
        let span = self.tracer.enter("pipeline.machine_drop", self.job);
        drop(machine);
        self.tracer.exit(span);
    }

    fn run(&mut self, machine: &mut Machine, pid: u32, program: &vpsim_isa::Program) -> RunResult {
        let span = self.tracer.enter("pipeline.run", self.job);
        let result = machine.run(pid, program);
        self.tracer.exit(span);
        let r = result.expect("leak programs run to completion");
        self.sim.add_run(&r);
        r
    }

    /// Train the predictor at the `tp` slot, run one victim iteration,
    /// time the trigger.
    fn observe(&mut self, machine: &mut Machine, bit: bool) -> f64 {
        let cfg = self.cfg;
        let setup = &cfg.setup;
        let span = self.tracer.enter("isa.program_build", self.job);
        let train = train_program(setup, setup.target_slot, setup.known_addr);
        let victim = iteration_program(bit, setup);
        let trigger = trigger_timing(
            setup,
            setup.target_slot,
            setup.known_addr,
            &[setup.known_value, TP_VALUE],
        );
        self.tracer.exit(span);
        for _ in 0..setup.confidence {
            self.run(machine, 2, &train);
        }
        self.run(machine, 1, &victim);
        self.run(machine, 2, &trigger).timing_windows()[0] as f64
    }
}
