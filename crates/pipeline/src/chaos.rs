//! The predictor injector at the VPS's two call sites: the executor's
//! one lookup and its trainings. Each helper calls the stack and returns
//! the trace event of the fault it injected, which the executor emits at
//! the current cycle.

use vpsim_chaos::PredChaos;
use vpsim_obs::TraceEvent;
use vpsim_predictor::{LoadContext, Predicted, ValuePredictor};

/// Look `ctx` up in the stack, then let predictor chaos act on a
/// prediction it made: decay may suppress it, and a surviving one may
/// have one bit flipped. The stack's lookup runs first and chaos draws
/// only when it predicted, so the stack's state and statistics evolve
/// as they would without chaos.
pub(crate) fn lookup(
    vp: &mut dyn ValuePredictor,
    chaos: Option<&mut PredChaos>,
    ctx: &LoadContext,
) -> (Option<Predicted>, Option<TraceEvent>) {
    let prediction = vp.lookup(ctx);
    let (Some(p), Some(ch)) = (prediction, chaos) else {
        return (prediction, None);
    };
    let pc = ctx.pc;
    if ch.decay_fires() {
        return (None, Some(TraceEvent::PredDecay { pc }));
    }
    let value = ch.perturb_value(p.value);
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

/// Train the stack, unless predictor chaos drops the update.
pub(crate) fn train(
    vp: &mut dyn ValuePredictor,
    chaos: Option<&mut PredChaos>,
    ctx: &LoadContext,
    actual: u64,
    prediction: Option<u64>,
) -> Option<TraceEvent> {
    if let Some(ch) = chaos {
        if ch.drop_train_fires() {
            return Some(TraceEvent::PredDropTrain { pc: ctx.pc });
        }
    }
    vp.train(ctx, actual, prediction);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_chaos::{ChaosEvents, PredChaosConfig};
    use vpsim_predictor::{Lvp, LvpConfig};

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
    /// pipeline forwarded, as the executor's call sites run them.
    fn drive(
        vp: &mut dyn ValuePredictor,
        mut chaos: Option<&mut PredChaos>,
    ) -> (Vec<Option<Predicted>>, Vec<TraceEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        for _ in 0..50 {
            let (p, fault) = lookup(vp, chaos.as_deref_mut(), &ctx());
            events.extend(fault);
            out.push(p);
            let fault = train(vp, chaos.as_deref_mut(), &ctx(), 7, p.map(|p| p.value));
            events.extend(fault);
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
