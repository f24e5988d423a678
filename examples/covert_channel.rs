//! Covert messaging through the value predictor: send a real byte
//! string one bit per attack trial, through two different attack
//! categories and both channels, and watch it fail without a predictor.
//! Each line uses the paper's fixed-threshold receiver; its Kbps counts
//! the calibration trials too.
//!
//! ```sh
//! cargo run --release -p vpsec --example covert_channel [message]
//! ```

use vpsec::attacks::AttackCategory;
use vpsec::covert::CovertConfig;
use vpsec::experiment::{Channel, PredictorKind};
use vpsec::receiver::{transmit, ReceiverConfig};

fn show(label: &str, cfg: &CovertConfig, message: &[u8]) {
    match transmit(message, &ReceiverConfig::fixed(cfg.clone())) {
        None => println!("{label:<40} unsupported channel"),
        Some(r) => {
            let text: String = r
                .received
                .iter()
                .map(|&b| {
                    if b.is_ascii_graphic() || b == b' ' {
                        b as char
                    } else {
                        '?'
                    }
                })
                .collect();
            println!(
                "{label:<40} \"{text}\"  BER {:>5.1}%  {:>8.1} Kbps",
                100.0 * (1.0 - r.accuracy()),
                r.kbps()
            );
        }
    }
}

fn main() {
    let message = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "value prediction leaks".to_owned());
    let message = message.as_bytes();
    println!(
        "sending {:?} ({} bits per configuration)\n",
        String::from_utf8_lossy(message),
        message.len() * 8
    );

    let base = CovertConfig::default();
    show(
        "Fill Up / timing-window / LVP",
        &CovertConfig {
            category: AttackCategory::FillUp,
            channel: Channel::TimingWindow,
            ..base.clone()
        },
        message,
    );
    show(
        "Train+Test / timing-window / LVP",
        &CovertConfig {
            category: AttackCategory::TrainTest,
            channel: Channel::TimingWindow,
            ..base.clone()
        },
        message,
    );
    show(
        "Test+Hit / persistent / LVP",
        &CovertConfig {
            category: AttackCategory::TestHit,
            channel: Channel::Persistent,
            ..base.clone()
        },
        message,
    );
    show(
        "Test+Hit / persistent / oracle VTAGE",
        &CovertConfig {
            category: AttackCategory::TestHit,
            channel: Channel::Persistent,
            predictor: PredictorKind::OracleVtage,
            ..base.clone()
        },
        message,
    );
    show(
        "Fill Up / timing-window / NO predictor",
        &CovertConfig {
            category: AttackCategory::FillUp,
            channel: Channel::TimingWindow,
            predictor: PredictorKind::None,
            ..base
        },
        message,
    );
    println!("\nWith a value predictor the message survives; without one the");
    println!("two symbols are indistinguishable and the text turns to noise.");
}
