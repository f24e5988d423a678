//! The covert channel's physical layer: any attack category as a
//! one-bit-per-trial transmission primitive.
//!
//! Table III characterises each attack by a *transmission rate* — the
//! attacks are covert channels sending one bit per trial (the sender
//! encodes a bit by choosing whether its access maps to the receiver's
//! reference). This module fixes what goes over the wire: the attack
//! cell, the machine, and the two symbols' trials with the timing
//! polarity that tells them apart. Decoding is the receivers' job
//! ([`crate::receiver`]).

use crate::attacks::{build_trial, AttackCategory, Trial};
use crate::experiment::{Channel, ExperimentConfig, PredictorKind};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{transmit, ReceiverConfig};

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
        let r = transmit(b"VP", &ReceiverConfig::fixed(cfg)).expect("supported");
        assert_eq!(r.received, b"VP", "errors: {}", r.bit_errors);
        assert_eq!(r.accuracy(), 1.0);
        assert!(r.kbps() > 0.0);
    }

    #[test]
    fn persistent_channel_transmits() {
        // Persistent: the mapped symbol is the cache hit, so it reads fast.
        let cfg = quick(AttackCategory::TestHit, Channel::Persistent);
        assert!(!trials_for(&cfg).expect("supported").mapped_is_slow);
        let r = transmit(&[0x5a], &ReceiverConfig::fixed(cfg)).expect("supported");
        assert_eq!(r.received, vec![0x5a], "errors: {}", r.bit_errors);
    }

    #[test]
    fn unsupported_channel_returns_none() {
        let cfg = quick(AttackCategory::SpillOver, Channel::Persistent);
        assert!(trials_for(&cfg).is_none());
    }
}
