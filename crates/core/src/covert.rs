//! Covert-channel messaging: use any attack category as a real
//! transmission primitive.
//!
//! Table III characterises each attack by a *transmission rate* — the
//! attacks are covert channels sending one bit per trial (the sender
//! encodes a bit by choosing whether its access maps to the receiver's
//! reference). This module completes that framing: it calibrates a
//! decision threshold, transmits an actual byte string bit by bit, and
//! reports the bit-error rate and achieved bandwidth.

use vpsim_stats::TransmissionRate;

use crate::attacks::{build_trial, AttackCategory, Trial};
use crate::experiment::{run_trial, Channel, ExperimentConfig, PredictorKind};

/// Configuration of a covert transmission.
#[derive(Debug, Clone)]
pub struct CovertConfig {
    /// The attack category used as the physical layer.
    pub category: AttackCategory,
    /// The channel (timing-window or persistent).
    pub channel: Channel,
    /// The predictor on the machine.
    pub predictor: PredictorKind,
    /// Trial/machine parameters.
    pub experiment: ExperimentConfig,
    /// Calibration trials per symbol class used to set the threshold
    /// (0 runs one, like 1).
    pub calibration: usize,
}

impl Default for CovertConfig {
    fn default() -> Self {
        CovertConfig {
            category: AttackCategory::FillUp,
            channel: Channel::TimingWindow,
            predictor: PredictorKind::Lvp,
            experiment: ExperimentConfig::default(),
            calibration: 8,
        }
    }
}

/// The outcome of one covert transmission.
#[derive(Debug, Clone)]
pub struct CovertResult {
    /// Bytes the sender encoded.
    pub sent: Vec<u8>,
    /// Bytes the receiver decoded.
    pub received: Vec<u8>,
    /// Calibrated decision threshold (cycles).
    pub threshold: f64,
    /// Bits whose decoded value differed from the sent value.
    pub bit_errors: usize,
    /// Total simulated cycles spent transmitting (excluding calibration).
    pub total_cycles: u64,
}

impl CovertResult {
    /// Bits transmitted.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.sent.len() * 8
    }

    /// Bit-error rate in `[0, 1]`.
    #[must_use]
    pub fn ber(&self) -> f64 {
        if self.bits() == 0 {
            return 0.0;
        }
        self.bit_errors as f64 / self.bits() as f64
    }

    /// Achieved bandwidth in Kbps at the nominal clock.
    #[must_use]
    pub fn kbps(&self) -> f64 {
        if self.bits() == 0 || self.total_cycles == 0 {
            return 0.0;
        }
        TransmissionRate::from_total(self.total_cycles, self.bits() as u64).kbps()
    }
}

pub(crate) struct Channel2Trials {
    pub(crate) mapped: Trial,
    pub(crate) unmapped: Trial,
    /// Whether the mapped symbol reads *slower* than the unmapped one
    /// (depends on the category's outcome pair).
    pub(crate) mapped_is_slow: bool,
}

pub(crate) fn trials_for(cfg: &CovertConfig) -> Option<Channel2Trials> {
    let mapped = build_trial(cfg.category, cfg.channel, true, &cfg.experiment.setup)?;
    let unmapped = build_trial(cfg.category, cfg.channel, false, &cfg.experiment.setup)?;
    // For the timing-window channel, categories whose mapped case is a
    // misprediction read slow; correct-prediction mapped cases read
    // fast. For the persistent channel mapped is always the cache *hit*
    // (fast).
    let mapped_is_slow = cfg.channel == Channel::TimingWindow
        && matches!(
            cfg.category.outcomes().mapped,
            crate::model::Outcome::Misprediction | crate::model::Outcome::NoPrediction
        );
    Some(Channel2Trials {
        mapped,
        unmapped,
        mapped_is_slow,
    })
}

/// Transmit `message` through the configured attack, one bit per trial
/// (bit 1 ⇒ the sender's access maps; bit 0 ⇒ it does not). Returns
/// `None` if the category does not support the channel.
#[must_use]
pub fn transmit(message: &[u8], cfg: &CovertConfig) -> Option<CovertResult> {
    let trials = trials_for(cfg)?;
    // Calibration: known symbols fix the decision threshold. An empty
    // set has no mean, so at least one pair runs (as in the receiver).
    let calibration = cfg.calibration.max(1);
    let mut mapped_obs = Vec::with_capacity(calibration);
    let mut unmapped_obs = Vec::with_capacity(calibration);
    for i in 0..calibration {
        let seed = cfg.experiment.seed ^ (0xca1 + i as u64 * 0x9e37);
        mapped_obs.push(run_trial(&trials.mapped, cfg.predictor, &cfg.experiment, seed).observed);
        unmapped_obs.push(
            run_trial(
                &trials.unmapped,
                cfg.predictor,
                &cfg.experiment,
                seed ^ 0xff,
            )
            .observed,
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let threshold = (mean(&mapped_obs) + mean(&unmapped_obs)) / 2.0;

    // Transmission.
    let mut received = vec![0u8; message.len()];
    let mut bit_errors = 0usize;
    let mut total_cycles = 0u64;
    for (byte_idx, &byte) in message.iter().enumerate() {
        for bit_idx in 0..8 {
            let bit = (byte >> (7 - bit_idx)) & 1 == 1;
            let seed = cfg
                .experiment
                .seed
                .wrapping_add(((byte_idx * 8 + bit_idx) as u64).wrapping_mul(0x9e37_79b9));
            let trial = if bit {
                &trials.mapped
            } else {
                &trials.unmapped
            };
            let outcome = run_trial(trial, cfg.predictor, &cfg.experiment, seed);
            total_cycles += outcome.total_cycles;
            let slow = outcome.observed > threshold;
            let decoded = if cfg.channel == Channel::Persistent {
                // Persistent: mapped = hit = fast.
                !slow
            } else if trials.mapped_is_slow {
                slow
            } else {
                !slow
            };
            if decoded {
                received[byte_idx] |= 1 << (7 - bit_idx);
            }
            if decoded != bit {
                bit_errors += 1;
            }
        }
    }
    Some(CovertResult {
        sent: message.to_vec(),
        received,
        threshold,
        bit_errors,
        total_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(category: AttackCategory, channel: Channel) -> CovertConfig {
        CovertConfig {
            category,
            channel,
            calibration: 4,
            ..CovertConfig::default()
        }
    }

    #[test]
    fn fill_up_transmits_a_message_exactly() {
        let cfg = quick(AttackCategory::FillUp, Channel::TimingWindow);
        let r = transmit(b"VP", &cfg).expect("supported");
        assert_eq!(r.received, b"VP", "errors: {}", r.bit_errors);
        assert_eq!(r.ber(), 0.0);
        assert!(r.kbps() > 0.0);
    }

    #[test]
    fn train_test_transmits_with_inverted_polarity() {
        // Train+Test's mapped case is the *slow* one (misprediction).
        let cfg = quick(AttackCategory::TrainTest, Channel::TimingWindow);
        let r = transmit(&[0b1010_0110], &cfg).expect("supported");
        assert_eq!(r.received, vec![0b1010_0110], "errors: {}", r.bit_errors);
    }

    #[test]
    fn persistent_channel_transmits() {
        let cfg = quick(AttackCategory::TestHit, Channel::Persistent);
        let r = transmit(&[0x5a], &cfg).expect("supported");
        assert_eq!(r.received, vec![0x5a], "errors: {}", r.bit_errors);
    }

    #[test]
    fn unsupported_channel_returns_none() {
        let cfg = quick(AttackCategory::SpillOver, Channel::Persistent);
        assert!(transmit(b"x", &cfg).is_none());
    }

    #[test]
    fn no_vp_scrambles_the_message() {
        let cfg = CovertConfig {
            predictor: PredictorKind::None,
            ..quick(AttackCategory::FillUp, Channel::TimingWindow)
        };
        let r = transmit(&[0xff, 0x00, 0xaa], &cfg).expect("supported");
        // Without a predictor the two symbols are indistinguishable:
        // around half the bits decode wrong.
        assert!(
            r.ber() > 0.2,
            "no-VP transmission should be near-random: ber = {}",
            r.ber()
        );
    }

    #[test]
    fn zero_calibration_decodes_like_one() {
        let send = |calibration| {
            let cfg = CovertConfig {
                calibration,
                ..quick(AttackCategory::TrainTest, Channel::TimingWindow)
            };
            transmit(&[0b1010_0110, 0x5a], &cfg).expect("supported")
        };
        let (zero, one) = (send(0), send(1));
        assert_eq!(zero.threshold.to_bits(), one.threshold.to_bits());
        assert_eq!(zero.received, one.received);
        assert_eq!(zero.bit_errors, one.bit_errors);
        assert_eq!(zero.total_cycles, one.total_cycles);
    }

    #[test]
    fn empty_message_is_fine() {
        let cfg = quick(AttackCategory::FillUp, Channel::TimingWindow);
        let r = transmit(b"", &cfg).expect("supported");
        assert_eq!(r.bits(), 0);
        assert_eq!(r.ber(), 0.0);
        assert_eq!(r.kbps(), 0.0);
    }
}
