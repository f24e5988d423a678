//! Attack receivers: decoding strategies layered on the covert-channel
//! physical layer of [`crate::covert`], all deciding against one
//! [`Threshold`] (the RSA exponent leak of `vpsim-crypto` shares it).
//!
//! The baseline receiver ([`ReceiverKind::Fixed`]) is the one the paper
//! implicitly assumes: calibrate a decision threshold once on a clean
//! channel, then decode every bit with a single trial against that fixed
//! threshold. On a noiseless machine that is optimal — the two symbol
//! distributions are separated by far more than the DRAM jitter.
//!
//! Under the fault-injection plane ([`vpsim_chaos`]) the assumption
//! breaks: interfering evictions and spurious squashes fatten both
//! distributions, predictor perturbation flips individual symbols
//! outright, and injected latency shifts the operating point away from
//! the calibrated threshold. [`ReceiverKind::SelfCalibrating`] recovers
//! robustness with three classical channel-coding moves:
//!
//! 1. **in-band recalibration** — every `recalibrate_every` data bits
//!    the receiver transmits a known mapped/unmapped probe pair and
//!    nudges its threshold toward the observed midpoint, tracking drift;
//! 2. **repetition coding** — each data bit is sent `repetitions` times
//!    and decoded by majority vote, converting symbol-flip probability
//!    `p` into roughly `p²`-order error;
//! 3. **bounded retry** — when a trial lands inside the inconclusive
//!    margin around the threshold it is not counted as a vote; up to
//!    `max_retries` extra trials are spent to replace such votes.
//!
//! Both receivers are pure functions of their configuration: every trial
//! seed derives from the bit index and repetition counter alone, so a
//! transmission is bit-reproducible under the harness's resume logic.

use vpsim_stats::TransmissionRate;

use crate::attacks::Trial;
use crate::covert::{trials_for, CovertConfig};
use crate::experiment::run_trial;

/// The decoding strategy a receiver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReceiverKind {
    /// One-time clean calibration, one trial per bit, fixed threshold.
    Fixed,
    /// In-band recalibration + repetition voting + bounded retry.
    SelfCalibrating,
}

impl std::fmt::Display for ReceiverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReceiverKind::Fixed => write!(f, "fixed"),
            ReceiverKind::SelfCalibrating => write!(f, "selfcal"),
        }
    }
}

/// Configuration of a receiver on top of a covert channel.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// The physical layer: category, channel, predictor, machine.
    pub covert: CovertConfig,
    /// Decoding strategy.
    pub kind: ReceiverKind,
    /// Self-calibrating: data bits between in-band probe pairs.
    pub recalibrate_every: usize,
    /// Self-calibrating: trials per data bit (odd; majority vote).
    pub repetitions: usize,
    /// Self-calibrating: extra trials allowed per bit to replace
    /// inconclusive votes.
    pub max_retries: usize,
    /// Self-calibrating: half-width of the inconclusive band as a
    /// fraction of the calibrated symbol separation.
    pub margin: f64,
}

impl ReceiverConfig {
    /// The paper-style baseline receiver over `covert`.
    #[must_use]
    pub fn fixed(covert: CovertConfig) -> ReceiverConfig {
        ReceiverConfig {
            covert,
            kind: ReceiverKind::Fixed,
            recalibrate_every: 0,
            repetitions: 1,
            max_retries: 0,
            margin: 0.0,
        }
    }

    /// The robust self-calibrating receiver over `covert`.
    #[must_use]
    pub fn self_calibrating(covert: CovertConfig) -> ReceiverConfig {
        ReceiverConfig {
            covert,
            kind: ReceiverKind::SelfCalibrating,
            recalibrate_every: 8,
            repetitions: 3,
            max_retries: 2,
            margin: 0.25,
        }
    }
}

/// The outcome of one received transmission.
#[derive(Debug, Clone)]
pub struct ReceiveResult {
    /// Bits the sender encoded (MSB-first per byte).
    pub sent: Vec<u8>,
    /// Bits the receiver decoded.
    pub received: Vec<u8>,
    /// Bits whose decoded value differed from the sent value.
    pub bit_errors: usize,
    /// Decision threshold after the last (re)calibration, in cycles.
    pub threshold: f64,
    /// Trials spent on data bits (repetitions and retries included).
    pub data_trials: usize,
    /// Trials spent on calibration and in-band probes.
    pub probe_trials: usize,
    /// In-band recalibrations performed.
    pub recalibrations: usize,
    /// Retry trials spent on inconclusive votes.
    pub retries: usize,
    /// Total simulated cycles, including probe overhead.
    pub total_cycles: u64,
}

impl ReceiveResult {
    /// Bits transmitted.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.sent.len() * 8
    }

    /// Fraction of bits decoded correctly, in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.bits() == 0 {
            return 1.0;
        }
        1.0 - self.bit_errors as f64 / self.bits() as f64
    }

    /// Achieved bandwidth in Kbps at the nominal clock, over
    /// `total_cycles` (probes count toward the rate).
    #[must_use]
    pub fn kbps(&self) -> f64 {
        if self.bits() == 0 || self.total_cycles == 0 {
            return 0.0;
        }
        TransmissionRate::from_total(self.total_cycles, self.bits() as u64).kbps()
    }
}

/// Per-trial seeds: a pure function of the receiver's coordinates, so a
/// transmission never depends on execution history.
fn bit_seed(base: u64, bit: usize, rep: usize) -> u64 {
    base.wrapping_add((bit as u64).wrapping_mul(0x9e37_79b9))
        .wrapping_add((rep as u64).wrapping_mul(0x1000_0000_01b3))
}

fn probe_seed(base: u64, round: usize, i: usize) -> u64 {
    base ^ (0xca1 + (round * 64 + i) as u64 * 0x9e37)
}

/// A receiver's decision threshold. Like the Flush+Reload receiver of
/// Spectre, one timing threshold separates the two symbols: it sits
/// halfway between their mean calibration timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Threshold {
    /// Decision threshold in cycles: observations above it read slow.
    pub value: f64,
    /// Distance between the two symbols' mean timings, in cycles.
    pub separation: f64,
}

impl Threshold {
    /// Average `pairs` known `(mapped, unmapped)` probe pairs, where
    /// `probe(i)` times pair `i`. An empty set has no mean, so at least
    /// one pair runs.
    #[must_use]
    pub fn calibrate(pairs: usize, mut probe: impl FnMut(usize) -> (f64, f64)) -> Threshold {
        let pairs = pairs.max(1);
        let (mut mapped, mut unmapped) = (0.0, 0.0);
        for i in 0..pairs {
            let (m, u) = probe(i);
            mapped += m;
            unmapped += u;
        }
        let (mapped, unmapped) = (mapped / pairs as f64, unmapped / pairs as f64);
        Threshold {
            value: (mapped + unmapped) / 2.0,
            separation: (mapped - unmapped).abs(),
        }
    }

    /// Move halfway toward an in-band `probe`, so one noisy probe pair
    /// cannot wreck the threshold.
    pub fn blend(&mut self, probe: Threshold) {
        self.value = 0.5 * self.value + 0.5 * probe.value;
        self.separation = 0.5 * self.separation + 0.5 * probe.separation;
    }

    /// Whether a self-calibrating receiver runs an in-band probe pair
    /// before data bit `bit`: every `every` bits, never before the first
    /// (`every == 0` never recalibrates).
    #[must_use]
    pub fn recalibrates_before(bit: usize, every: usize) -> bool {
        every > 0 && bit > 0 && bit.is_multiple_of(every)
    }
}

/// Transmit `message` through the configured attack and decode it with
/// the configured receiver. Returns `None` if the category does not
/// support the channel (Table III's "—" cells).
#[must_use]
pub fn transmit(message: &[u8], cfg: &ReceiverConfig) -> Option<ReceiveResult> {
    let trials = trials_for(&cfg.covert)?;
    let covert = &cfg.covert;
    let base = covert.experiment.seed;
    let mut probe_trials = 0usize;
    let mut probe_cycles = 0u64;

    let run = |trial: &Trial, seed| run_trial(trial, covert.predictor, &covert.experiment, seed);
    let mut probe_round = |round: usize, pairs: usize| {
        Threshold::calibrate(pairs, |i| {
            let seed = probe_seed(base, round, i);
            let m = run(&trials.mapped, seed);
            let u = run(&trials.unmapped, seed ^ 0xff);
            probe_cycles += m.total_cycles + u.total_cycles;
            probe_trials += 2;
            (m.observed, u.observed)
        })
    };

    // Both receivers calibrate once on known symbols.
    let mut threshold = probe_round(0, covert.calibration);

    let mut received = vec![0u8; message.len()];
    let mut bit_errors = 0usize;
    let mut data_trials = 0usize;
    let mut recalibrations = 0usize;
    let mut retries = 0usize;
    let mut total_cycles = 0u64;

    let selfcal = cfg.kind == ReceiverKind::SelfCalibrating;
    let repetitions = if selfcal { cfg.repetitions.max(1) } else { 1 };
    let every = if selfcal { cfg.recalibrate_every } else { 0 };

    for (byte_idx, &byte) in message.iter().enumerate() {
        for bit_idx in 0..8 {
            let global_bit = byte_idx * 8 + bit_idx;

            // In-band recalibration: a single known probe pair, blended
            // into the running threshold.
            if Threshold::recalibrates_before(global_bit, every) {
                threshold.blend(probe_round(global_bit / every, 1));
                recalibrations += 1;
            }

            let bit = (byte >> (7 - bit_idx)) & 1 == 1;
            let trial = if bit {
                &trials.mapped
            } else {
                &trials.unmapped
            };

            let mut ones = 0usize;
            let mut zeros = 0usize;
            let mut last_decoded = false;
            let budget = repetitions + if selfcal { cfg.max_retries } else { 0 };
            for rep in 0..budget {
                if ones + zeros >= repetitions && ones != zeros {
                    break;
                }
                let outcome = run(trial, bit_seed(base, global_bit, rep));
                total_cycles += outcome.total_cycles;
                data_trials += 1;
                if rep >= repetitions {
                    retries += 1;
                }
                let decoded = (outcome.observed > threshold.value) == trials.mapped_is_slow;
                last_decoded = decoded;
                // Inconclusive trials (too close to the threshold) are
                // not counted as votes while retry budget remains; the
                // final look votes regardless.
                let conclusive = !selfcal
                    || (outcome.observed - threshold.value).abs()
                        >= cfg.margin * threshold.separation / 2.0;
                if conclusive || rep + 1 == budget {
                    if decoded {
                        ones += 1;
                    } else {
                        zeros += 1;
                    }
                }
            }
            let decoded = match ones.cmp(&zeros) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => last_decoded,
            };
            if decoded {
                received[byte_idx] |= 1 << (7 - bit_idx);
            }
            if decoded != bit {
                bit_errors += 1;
            }
        }
    }

    Some(ReceiveResult {
        sent: message.to_vec(),
        received,
        bit_errors,
        threshold: threshold.value,
        data_trials,
        probe_trials,
        recalibrations,
        retries,
        total_cycles: total_cycles + probe_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::AttackCategory;
    use crate::experiment::{Channel, PredictorKind};
    use vpsim_chaos::ChaosConfig;

    fn covert(category: AttackCategory, channel: Channel) -> CovertConfig {
        CovertConfig {
            category,
            channel,
            calibration: 4,
            ..CovertConfig::default()
        }
    }

    fn fixed(message: &[u8], cfg: CovertConfig) -> ReceiveResult {
        transmit(message, &ReceiverConfig::fixed(cfg)).expect("supported")
    }

    #[test]
    fn threshold_calibrates_blends_and_schedules() {
        let mut t = Threshold::calibrate(2, |i| ([300.0, 320.0][i], [200.0, 220.0][i]));
        assert_eq!((t.value, t.separation), (260.0, 100.0));
        // A probe at 280 with separation 60 moves the threshold halfway.
        t.blend(Threshold::calibrate(1, |_| (310.0, 250.0)));
        assert_eq!((t.value, t.separation), (270.0, 80.0));
        let probe = |_| (330.0, 270.0);
        let one = Threshold::calibrate(1, probe);
        assert_eq!(Threshold::calibrate(0, probe), one);
        let schedule: Vec<usize> = (0..20)
            .filter(|&bit| Threshold::recalibrates_before(bit, 8))
            .collect();
        assert_eq!(schedule, [8, 16]);
        assert!(!(0..20).any(|bit| Threshold::recalibrates_before(bit, 0)));
    }

    #[test]
    fn both_receivers_are_exact_on_a_clean_channel() {
        let cfg = covert(AttackCategory::FillUp, Channel::TimingWindow);
        let fixed = fixed(b"VP", cfg.clone());
        assert_eq!(fixed.received, b"VP", "fixed errors: {}", fixed.bit_errors);
        let selfcal = transmit(b"VP", &ReceiverConfig::self_calibrating(cfg)).expect("supported");
        assert_eq!(
            selfcal.received, b"VP",
            "selfcal errors: {}",
            selfcal.bit_errors
        );
        assert!(selfcal.recalibrations > 0, "probes must run");
    }

    #[test]
    fn train_test_transmits_with_inverted_polarity() {
        // Train+Test's mapped case is the *slow* one (misprediction).
        let r = fixed(
            &[0b1010_0110],
            covert(AttackCategory::TrainTest, Channel::TimingWindow),
        );
        assert_eq!(r.received, vec![0b1010_0110], "errors: {}", r.bit_errors);
    }

    #[test]
    fn persistent_channel_decodes() {
        let cfg = covert(AttackCategory::TestHit, Channel::Persistent);
        let r = transmit(&[0x5a], &ReceiverConfig::self_calibrating(cfg)).expect("supported");
        assert_eq!(r.received, vec![0x5a], "errors: {}", r.bit_errors);
    }

    #[test]
    fn unsupported_cell_is_none() {
        let cfg = covert(AttackCategory::SpillOver, Channel::Persistent);
        assert!(transmit(b"x", &ReceiverConfig::fixed(cfg)).is_none());
    }

    #[test]
    fn no_vp_scrambles_the_message() {
        let cfg = CovertConfig {
            predictor: PredictorKind::None,
            ..covert(AttackCategory::FillUp, Channel::TimingWindow)
        };
        let r = fixed(&[0xff, 0x00, 0xaa], cfg);
        // Without a predictor the two symbols are indistinguishable:
        // around half the bits decode wrong.
        assert!(
            r.accuracy() < 0.8,
            "no-VP transmission should be near-random: accuracy = {}",
            r.accuracy()
        );
    }

    #[test]
    fn zero_calibration_decodes_like_one() {
        let send = |calibration| {
            let cfg = CovertConfig {
                calibration,
                ..covert(AttackCategory::TrainTest, Channel::TimingWindow)
            };
            fixed(&[0b1010_0110, 0x5a], cfg)
        };
        let (zero, one) = (send(0), send(1));
        assert_eq!(zero.threshold.to_bits(), one.threshold.to_bits());
        assert_eq!(zero.received, one.received);
        assert_eq!(zero.bit_errors, one.bit_errors);
        assert_eq!(zero.probe_trials, 2);
        assert_eq!(zero.total_cycles, one.total_cycles);
    }

    #[test]
    fn empty_message_is_fine() {
        let r = fixed(b"", covert(AttackCategory::FillUp, Channel::TimingWindow));
        assert_eq!(r.bits(), 0);
        assert_eq!(r.bit_errors, 0);
        assert_eq!(r.accuracy(), 1.0);
        assert!(r.total_cycles > 0, "calibration still ran");
        assert_eq!(r.kbps(), 0.0);
    }

    #[test]
    fn transmissions_are_deterministic() {
        let mut cfg = covert(AttackCategory::TrainTest, Channel::TimingWindow);
        cfg.experiment.chaos = ChaosConfig::level(2);
        let rcfg = ReceiverConfig::self_calibrating(cfg);
        let a = transmit(b"det", &rcfg).expect("supported");
        let b = transmit(b"det", &rcfg).expect("supported");
        assert_eq!(a.received, b.received);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
    }

    #[test]
    fn selfcal_beats_fixed_under_heavy_noise() {
        let mut cfg = covert(AttackCategory::FillUp, Channel::TimingWindow);
        cfg.experiment.chaos = ChaosConfig::level(3);
        let msg = [0xa5, 0x3c, 0x96, 0x0f];
        let fixed = fixed(&msg, cfg.clone());
        let selfcal = transmit(&msg, &ReceiverConfig::self_calibrating(cfg)).unwrap();
        assert!(
            selfcal.accuracy() >= fixed.accuracy(),
            "selfcal {} must be at least fixed {}",
            selfcal.accuracy(),
            fixed.accuracy()
        );
    }
}
