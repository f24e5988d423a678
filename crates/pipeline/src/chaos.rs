//! The predictor injector at the VPS's two call sites: the executor's
//! one lookup and its trainings, both through its port. Each helper
//! returns the trace event of the fault it injected, which the executor
//! emits at the current cycle.

use vpsim_chaos::PredChaos;
use vpsim_obs::TraceEvent;
use vpsim_predictor::Predicted;

/// Let predictor chaos act on `prediction`, the stack's answer to the
/// lookup of the load at byte address `pc`: decay may suppress it, and
/// a surviving one may have one bit flipped. Chaos draws only after the
/// stack's lookup and only when it predicted, so the stack's state and
/// statistics evolve as they would without chaos.
pub(crate) fn perturb(
    chaos: &mut PredChaos,
    pc: u64,
    prediction: Option<Predicted>,
) -> (Option<Predicted>, Option<TraceEvent>) {
    let Some(p) = prediction else {
        return (None, None);
    };
    if chaos.decay_fires() {
        return (None, Some(TraceEvent::PredDecay { pc }));
    }
    let value = chaos.perturb_value(p.value);
    if value == p.value {
        return (prediction, None);
    }
    let flip = TraceEvent::PredFlip {
        pc,
        original: p.value,
        perturbed: value,
    };
    (Some(Predicted { value, ..p }), Some(flip))
}

/// The trace event of a training of the load at byte address `pc` that
/// predictor chaos drops, if it does: the stack is then not trained.
pub(crate) fn drop_train(chaos: &mut PredChaos, pc: u64) -> Option<TraceEvent> {
    chaos
        .drop_train_fires()
        .then_some(TraceEvent::PredDropTrain { pc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_chaos::{ChaosEvents, PredChaosConfig};
    use vpsim_predictor::{LoadContext, Lvp, LvpConfig, ValuePredictor};

    fn ctx() -> LoadContext {
        LoadContext {
            pc: 0x40,
            addr: 0x1000,
            pid: 0,
        }
    }

    fn trained_lvp() -> Lvp {
        let mut vp = Lvp::new(LvpConfig::default());
        for _ in 0..4 {
            vp.lookup(&ctx());
            vp.train(&ctx(), 7, None);
        }
        vp
    }

    /// Fifty lookups of one load, each trained with the value the
    /// pipeline forwarded, as the executor's port runs them.
    fn drive(
        vp: &mut dyn ValuePredictor,
        mut chaos: Option<&mut PredChaos>,
    ) -> (Vec<Option<Predicted>>, Vec<TraceEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        for _ in 0..50 {
            let mut p = vp.lookup(&ctx());
            if let Some(ch) = chaos.as_deref_mut() {
                let (perturbed, fault) = perturb(ch, ctx().pc, p);
                p = perturbed;
                events.extend(fault);
            }
            out.push(p);
            let dropped = chaos.as_deref_mut().and_then(|ch| drop_train(ch, ctx().pc));
            if dropped.is_none() {
                vp.train(&ctx(), 7, p.map(|p| p.value));
            }
            events.extend(dropped);
        }
        (out, events)
    }

    #[test]
    fn off_wrapper_is_transparent() {
        let mut bare = trained_lvp();
        let mut seen = trained_lvp();
        let mut ch = PredChaos::new(PredChaosConfig::off(), 5);
        let (bare_out, _) = drive(&mut bare, None);
        let (out, events) = drive(&mut seen, Some(&mut ch));
        assert_eq!(out, bare_out);
        assert!(out.iter().all(Option::is_some), "the trained LVP predicts");
        assert!(events.is_empty(), "an off injector injects nothing");
        assert_eq!(seen.stats(), bare.stats());
        assert_eq!(*ch.events(), ChaosEvents::default());
    }

    #[test]
    fn chaos_stream_is_deterministic() {
        let run = |seed: u64| {
            let mut vp = trained_lvp();
            let mut ch = PredChaos::new(
                PredChaosConfig {
                    decay_prob: 0.3,
                    flip_prob: 0.3,
                    drop_train_prob: 0.3,
                },
                seed,
            );
            let (out, events) = drive(&mut vp, Some(&mut ch));
            (out, events, *ch.events(), vp.stats())
        };
        let first = run(9);
        assert_eq!(run(9), first);
        assert_ne!(run(10), first);
        let (_, events, counters, _) = first;
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        assert_eq!(count("pred_decay"), counters.predictions_decayed);
        assert_eq!(count("pred_flip"), counters.values_flipped);
        assert_eq!(count("pred_drop_train"), counters.trainings_dropped);
        assert!(counters.total() > 0, "faults fire at 0.3");
    }
}
