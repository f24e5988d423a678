//! The simulator-side victim and the Figure 7 exponent-bit leak.
//!
//! The functional crypto lives in [`Mpi::powm`](crate::Mpi::powm); this
//! module reproduces its *microarchitectural access pattern* as simulator
//! programs. Per square-and-multiply iteration the victim performs the
//! square-related and (unconditional) multiply-related loads, and — only
//! when the exponent bit is 1 — the **pointer-swap load** of `tp`
//! (Figure 6 lines 16-19) at a fixed program counter. That conditional
//! load is the leak: a receiver that aliases the `tp` PC in the value
//! predictor (Train+Test style) observes whether each iteration disturbed
//! its trained entry, recovering the exponent bit by bit (Figure 7).

use vpsec::attacks::{train_program, trigger_timing, AttackSetup};
use vpsec::receiver::Threshold;
use vpsim_chaos::ChaosConfig;
use vpsim_isa::{Program, ProgramBuilder, Reg};
use vpsim_mem::MemoryConfig;
use vpsim_pipeline::{CoreConfig, Machine};
use vpsim_predictor::{Lvp, LvpConfig};
use vpsim_stats::TransmissionRate;

use crate::Mpi;

/// Address of the victim's square-phase working data.
const SQR_ADDR: u64 = 0x41000;
/// Address of the victim's multiply-phase working data.
const MUL_ADDR: u64 = 0x42000;
/// Address of the `tp` pointer storage the conditional swap loads.
const TP_ADDR: u64 = 0x43000;
/// Value stored at `TP_ADDR` (a pointer value; only needs to differ from
/// the receiver's training data for the interference to be visible).
const TP_VALUE: u64 = 0x4040;

/// One square-and-multiply iteration as a simulator program.
///
/// The program always performs the square and the unconditional multiply
/// loads (the FLUSH+RELOAD hardening); iff `bit` it additionally executes
/// the conditional `tp` pointer-swap load, padded to
/// [`AttackSetup::target_slot`] so it aliases the attacker's predictor
/// entry. When `bit` is false the slot is occupied by a `nop`, keeping
/// both variants the same length (no trivially observable size
/// difference).
#[must_use]
pub fn iteration_program(bit: bool, setup: &AttackSetup) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R1, SQR_ADDR)
        .li(Reg::R2, MUL_ADDR)
        .li(Reg::R3, TP_ADDR)
        // _gcry_mpih_sqr_n_basecase(xp, rp): square-phase load.
        .load(Reg::R4, Reg::R1, 0)
        // _gcry_mpih_mul(xp, rp): the unconditional multiply's load.
        .load(Reg::R5, Reg::R2, 0)
        // The tp access misses naturally (its line is cold/evicted
        // between iterations); model that with an explicit flush.
        .flush(Reg::R3, 0)
        .fence();
    let here = b.here().0 as usize;
    assert!(
        here <= setup.target_slot,
        "victim preamble overruns the slot"
    );
    b.nops(setup.target_slot - here);
    if bit {
        // if (e_bit_is1) { tp = rp; ... } — the conditional swap load.
        b.load(Reg::R6, Reg::R3, 0);
    } else {
        b.nops(1);
    }
    b.fence().halt();
    b.build().expect("victim iteration program is well-formed")
}

/// Configuration of the exponent-leak experiment.
#[derive(Debug, Clone)]
pub struct LeakConfig {
    /// Attack addressing/slot parameters (shared with the receiver).
    pub setup: AttackSetup,
    /// Memory system (jitter on by default, as in the paper's runs).
    pub mem: MemoryConfig,
    /// Core configuration.
    pub core: CoreConfig,
    /// Master seed.
    pub seed: u64,
    /// Calibration probes per class used to fix the decision threshold
    /// (0 runs one, like 1).
    pub calibration_runs: usize,
    /// Fault/noise-injection plane applied to every machine
    /// ([`ChaosConfig::off`] by default).
    pub chaos: ChaosConfig,
    /// Self-calibration: exponent bits between in-band probe pairs that
    /// re-centre the decision threshold. `0` keeps the one-time
    /// fixed-threshold receiver of the paper's Figure 7 run.
    pub recalibrate_every: usize,
}

impl Default for LeakConfig {
    fn default() -> Self {
        LeakConfig {
            setup: AttackSetup::default(),
            mem: MemoryConfig::default(),
            core: CoreConfig::default(),
            seed: 0x9_65,
            calibration_runs: 8,
            chaos: ChaosConfig::off(),
            recalibrate_every: 0,
        }
    }
}

/// The result of leaking one exponent.
#[derive(Debug, Clone)]
pub struct LeakResult {
    /// Ground-truth bits, most significant first.
    pub true_bits: Vec<bool>,
    /// Bits recovered by the receiver.
    pub recovered_bits: Vec<bool>,
    /// Per-iteration receiver observations (cycles) — the Figure 7
    /// series.
    pub observations: Vec<f64>,
    /// The calibrated decision threshold.
    pub threshold: f64,
    /// Total simulated cycles spent.
    pub total_cycles: u64,
}

impl LeakResult {
    /// Fraction of bits recovered correctly (the paper reports 95.7%
    /// over 60 runs).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.true_bits.is_empty() {
            return 0.0;
        }
        let correct = self
            .true_bits
            .iter()
            .zip(&self.recovered_bits)
            .filter(|(a, b)| a == b)
            .count();
        correct as f64 / self.true_bits.len() as f64
    }

    /// Estimated leak bandwidth (bits recovered per simulated second).
    #[must_use]
    pub fn rate_kbps(&self) -> f64 {
        if self.true_bits.is_empty() || self.total_cycles == 0 {
            return 0.0;
        }
        TransmissionRate::from_total(self.total_cycles, self.true_bits.len() as u64).kbps()
    }
}

fn fresh_machine(cfg: &LeakConfig, seed: u64) -> Machine {
    let lvp = Lvp::new(LvpConfig {
        confidence_threshold: cfg.setup.confidence,
        ..LvpConfig::default()
    });
    let mut machine = Machine::new(cfg.core, cfg.mem, Box::new(lvp), seed);
    if !cfg.chaos.is_off() {
        machine.set_chaos(&cfg.chaos, seed ^ 0xc4a0_5eed_0bad_f00d);
    }
    let m = machine.mem_mut();
    m.store_value(SQR_ADDR, 0x5051);
    m.store_value(MUL_ADDR, 0x6061);
    m.store_value(TP_ADDR, TP_VALUE);
    m.store_value(cfg.setup.known_addr, cfg.setup.known_value);
    machine
}

/// The receiver's and the victim's programs. They depend only on the
/// attack setup, so a leak assembles them once.
struct Programs {
    /// Trains the predictor at the `tp` slot with known data.
    train: Program,
    /// The victim's iteration for a 0 bit and for a 1 bit.
    victims: [Program; 2],
    /// Times the receiver's trigger load.
    trigger: Program,
    /// Training runs per observation.
    confidence: u32,
}

impl Programs {
    fn new(setup: &AttackSetup) -> Programs {
        Programs {
            train: train_program(setup, setup.target_slot, setup.known_addr),
            victims: [false, true].map(|bit| iteration_program(bit, setup)),
            trigger: trigger_timing(
                setup,
                setup.target_slot,
                setup.known_addr,
                &[setup.known_value, TP_VALUE],
            ),
            confidence: setup.confidence,
        }
    }

    /// One receiver observation: train the predictor at the `tp` slot
    /// with known data, let the victim run one iteration, then time the
    /// trigger.
    fn observe(&self, machine: &mut Machine, bit: bool) -> f64 {
        for _ in 0..self.confidence {
            machine.run(2, &self.train).expect("receiver training runs");
        }
        machine
            .run(1, &self.victims[usize::from(bit)])
            .expect("victim iteration runs");
        let r = machine
            .run(2, &self.trigger)
            .expect("receiver trigger runs");
        r.timing_window(0).expect("the trigger times one window") as f64
    }

    /// One known `(mapped, unmapped)` probe pair, each on a fresh
    /// machine: the 0-bit iteration (unmapped, fast) runs first, then
    /// the 1-bit one (its `tp` load maps to the receiver's entry and
    /// reads slow).
    fn probe_pair(&self, cfg: &LeakConfig, mapped_seed: u64, unmapped_seed: u64) -> (f64, f64) {
        let unmapped = self.observe(&mut fresh_machine(cfg, unmapped_seed), false);
        let mapped = self.observe(&mut fresh_machine(cfg, mapped_seed), true);
        (mapped, unmapped)
    }
}

/// Recover the bits of `exponent` through the value-predictor side
/// channel, reproducing the Figure 7 experiment: for every exponent bit
/// the receiver observes one timing; bits where the victim executed the
/// conditional `tp` load read slow (predictor entry disturbed), bits
/// where it did not read fast.
#[must_use]
pub fn leak_exponent(exponent: &Mpi, cfg: &LeakConfig) -> LeakResult {
    let true_bits = exponent.bits_msb_first();
    let programs = Programs::new(&cfg.setup);
    let mut machine = fresh_machine(cfg, cfg.seed);
    let mut total_cycles = 0u64;

    // Calibration: observe known 0-bits and 1-bits to fix the threshold
    // (the receiver can always run the victim code on its own inputs).
    let mut threshold = Threshold::calibrate(cfg.calibration_runs, |i| {
        let i = i as u64;
        programs.probe_pair(cfg, cfg.seed ^ (0xca22 + i), cfg.seed ^ (0xca11 + i))
    });

    let mut observations = Vec::with_capacity(true_bits.len());
    let mut recovered_bits = Vec::with_capacity(true_bits.len());
    for (bit_idx, &bit) in true_bits.iter().enumerate() {
        // Self-calibration: every `recalibrate_every` bits the receiver
        // re-runs one known probe pair and blends it into its threshold,
        // tracking noise-induced drift.
        if Threshold::recalibrates_before(bit_idx, cfg.recalibrate_every) {
            let salt = (bit_idx / cfg.recalibrate_every) as u64 * 0x9e37;
            let (m, u) =
                programs.probe_pair(cfg, cfg.seed ^ (0xca44 + salt), cfg.seed ^ (0xca33 + salt));
            threshold.blend(Threshold::calibrate(1, |_| (m, u)));
            total_cycles += (m + u) as u64;
        }
        let obs = programs.observe(&mut machine, bit);
        // Account the cycles of the full step sequence approximately via
        // the machine's committed work: use the observation plus the
        // training/victim overhead measured below.
        observations.push(obs);
        recovered_bits.push(obs > threshold.value);
        total_cycles += obs as u64;
    }
    // total_cycles above only counts the observation windows; add the
    // per-bit protocol overhead (training + victim runs) with a direct
    // measurement for an honest bandwidth estimate.
    let mut probe = fresh_machine(cfg, cfg.seed ^ 0xbead);
    let mut overhead = 0u64;
    for _ in 0..programs.confidence {
        overhead += probe.run(2, &programs.train).expect("probe run").cycles;
    }
    overhead += probe
        .run(1, &programs.victims[1])
        .expect("probe victim run")
        .cycles;
    total_cycles += overhead * true_bits.len() as u64;

    LeakResult {
        true_bits,
        recovered_bits,
        observations,
        threshold: threshold.value,
        total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_isa::Inst;

    #[test]
    fn iteration_programs_have_same_length() {
        let setup = AttackSetup::default();
        let one = iteration_program(true, &setup);
        let zero = iteration_program(false, &setup);
        assert_eq!(one.len(), zero.len(), "no trivial length channel");
    }

    #[test]
    fn conditional_load_sits_at_target_slot() {
        let setup = AttackSetup::default();
        let one = iteration_program(true, &setup);
        let tp_load = one
            .iter()
            .find(|(pc, i)| i.is_load() && pc.0 as usize == setup.target_slot);
        assert!(tp_load.is_some(), "tp load at the aliased slot");
        let zero = iteration_program(false, &setup);
        assert!(
            matches!(
                zero.fetch(vpsim_isa::Pc(setup.target_slot as u32)),
                Some(Inst::Nop)
            ),
            "bit 0 has no load at the slot"
        );
    }

    #[test]
    fn single_bit_classification() {
        let cfg = LeakConfig {
            calibration_runs: 4,
            ..LeakConfig::default()
        };
        let r = leak_exponent(&Mpi::from_u64(0b10), &cfg);
        assert_eq!(r.true_bits, vec![true, false]);
        assert_eq!(
            r.recovered_bits, r.true_bits,
            "observations: {:?}",
            r.observations
        );
    }

    #[test]
    fn leaks_a_byte_exactly() {
        let cfg = LeakConfig {
            calibration_runs: 4,
            ..LeakConfig::default()
        };
        let r = leak_exponent(&Mpi::from_u64(0b1011_0101), &cfg);
        assert_eq!(r.success_rate(), 1.0, "observations: {:?}", r.observations);
        assert!(r.rate_kbps() > 0.0);
    }

    #[test]
    fn zero_calibration_leaks_like_one() {
        let leak = |calibration_runs| {
            let cfg = LeakConfig {
                calibration_runs,
                ..LeakConfig::default()
            };
            leak_exponent(&Mpi::from_u64(0b1011_0101), &cfg)
        };
        let (zero, one) = (leak(0), leak(1));
        assert_eq!(zero.threshold.to_bits(), one.threshold.to_bits());
        assert_eq!(zero.recovered_bits, one.recovered_bits);
        // Observations are whole cycle counts: `==` is bit identity.
        assert_eq!(zero.observations, one.observations);
        assert_eq!(zero.total_cycles, one.total_cycles);
    }

    #[test]
    fn recalibrating_leak_is_pinned_under_noise() {
        // In-band recalibration under chaos, pinned bit for bit: the
        // threshold after three blends, the bits and the cycle count.
        let cfg = LeakConfig {
            chaos: ChaosConfig::level(2),
            recalibrate_every: 2,
            ..LeakConfig::default()
        };
        let r = leak_exponent(&Mpi::from_u64(0b1011_0101), &cfg);
        assert_eq!(r.threshold.to_bits(), 362.835_937_5_f64.to_bits());
        assert_eq!(r.recovered_bits, r.true_bits);
        assert_eq!(r.total_cycles, 14_619);
    }
}
