//! The [`Machine`]: persistent microarchitectural state shared across
//! program runs.
//!
//! Sender and receiver programs execute on the *same* machine (time
//! multiplexed, as in the paper's threat model), so value-predictor and
//! cache state trained by one program is observable by the next — the
//! substrate every attack in the paper builds on.

use vpsim_chaos::{ChaosConfig, ChaosEvents, MemChaos, PipeChaos, PredChaos};
use vpsim_isa::Program;
use vpsim_mem::{MemoryConfig, MemoryHierarchy};
use vpsim_obs::TraceSink;
use vpsim_predictor::ValuePredictor;

use crate::cancel::CancelToken;
use crate::config::CoreConfig;
use crate::executor::{ExecState, Executor};
use crate::result::{RunError, RunResult};

/// Per-run controls of [`Machine::run_with`]: neither changes what a
/// run computes. [`RunCtl::default`] is a plain run, which is what
/// [`Machine::run`] does.
#[derive(Default)]
pub struct RunCtl<'a> {
    /// Cooperative kill flag, polled at scheduler loop boundaries: once
    /// it is tripped the run returns [`RunError::Cancelled`] promptly.
    /// An untripped token never perturbs a run — the poll is a pure
    /// read, so supervised results stay bit-identical to unsupervised
    /// ones.
    pub cancel: Option<&'a CancelToken>,
    /// Event-trace sink: every pipeline, memory-hierarchy and predictor
    /// event is cycle-stamped into it. Tracing is purely observational
    /// — the result is bit-identical to an untraced run of the same
    /// program on the same machine state.
    pub tracer: Option<&'a mut dyn TraceSink>,
}

impl RunCtl<'_> {
    /// A shorter-lived copy of these controls (same token, same sink),
    /// to hand one control value to each of several runs in turn.
    pub fn reborrow(&mut self) -> RunCtl<'_> {
        RunCtl {
            cancel: self.cancel,
            tracer: self
                .tracer
                .as_deref_mut()
                .map(|sink| sink as &mut dyn TraceSink),
        }
    }
}

/// A simulated core plus its persistent memory system and VPS.
#[derive(Debug)]
pub struct Machine {
    core: CoreConfig,
    mem: MemoryHierarchy,
    predictor: Box<dyn ValuePredictor>,
    /// The pipeline and predictor injectors, lent to each run; memory
    /// chaos lives in the hierarchy.
    pipe_chaos: Option<PipeChaos>,
    pred_chaos: Option<PredChaos>,
    /// The executor's buffers, lent to each run (which clears them
    /// first) so warm runs do not allocate them again.
    exec: ExecState,
}

impl Machine {
    /// Build a machine. `seed` drives all randomness (DRAM jitter and any
    /// randomised replacement); two machines with identical configs and
    /// seeds behave identically.
    #[must_use]
    pub fn new(
        core: CoreConfig,
        mem_config: MemoryConfig,
        predictor: Box<dyn ValuePredictor>,
        seed: u64,
    ) -> Machine {
        if let Err(e) = core.validate() {
            panic!("invalid core configuration: {e}");
        }
        Machine {
            core,
            mem: MemoryHierarchy::new(mem_config, seed),
            predictor,
            pipe_chaos: None,
            pred_chaos: None,
            exec: ExecState::default(),
        }
    }

    /// Put the machine back in the state [`Machine::new`] builds from
    /// its configurations, `predictor` and `seed`: the memory hierarchy
    /// is [reset](MemoryHierarchy::reset) (empty caches, TLB and memory,
    /// zeroed statistics, jitter and random-replacement streams
    /// reseeded from `seed`), `predictor` replaces the current one, and
    /// the memory, pipeline and predictor injectors are dropped, so the
    /// machine runs without chaos until
    /// [`set_chaos`](Machine::set_chaos) arms it again. Every run clears
    /// the executor state itself. Costs time proportional to what the
    /// runs since the last reset touched.
    pub fn reset(&mut self, predictor: Box<dyn ValuePredictor>, seed: u64) {
        self.mem.reset(seed);
        self.predictor = predictor;
        self.pipe_chaos = None;
        self.pred_chaos = None;
    }

    /// Install the fault/noise-injection plane on this machine: the
    /// memory injector in the hierarchy, and the pipeline and predictor
    /// injectors, which every run lends to the executor. Each draws from
    /// its own domain-tagged stream derived from `seed`. A domain whose
    /// config is off installs nothing, so with [`ChaosConfig::off`] (or
    /// any all-off config) the machine stays bit-identical to one that
    /// never saw this call.
    ///
    /// Installing replaces any engine already installed in that domain,
    /// so arming twice is arming once with the second call's seed. The
    /// predictor injector acts on the calls the pipeline makes to the
    /// predictor, so it applies to whatever stack the machine holds.
    pub fn set_chaos(&mut self, cfg: &ChaosConfig, seed: u64) {
        if !cfg.mem.is_off() {
            self.mem.set_chaos(Some(MemChaos::new(cfg.mem, seed)));
        }
        if !cfg.pipeline.is_off() {
            self.pipe_chaos = Some(PipeChaos::new(cfg.pipeline, seed));
        }
        if !cfg.predictor.is_off() {
            self.pred_chaos = Some(PredChaos::new(cfg.predictor, seed));
        }
    }

    /// The chaos event log: the events the installed memory, pipeline
    /// and predictor injectors have injected, merged (all-zero when none
    /// is installed).
    #[must_use]
    pub fn chaos_events(&self) -> ChaosEvents {
        let mut events = self.mem.chaos_events();
        if let Some(ch) = &self.pipe_chaos {
            events.merge(ch.events());
        }
        if let Some(ch) = &self.pred_chaos {
            events.merge(ch.events());
        }
        events
    }

    /// Run `program` as process `pid` to completion. Cache, TLB, memory
    /// and predictor state persist into subsequent runs.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] when the program exceeds the cycle budget
    /// or control flow escapes the instruction stream.
    pub fn run(&mut self, pid: u32, program: &Program) -> Result<RunResult, RunError> {
        self.run_with(pid, program, RunCtl::default())
    }

    /// [`Machine::run`] under the per-run controls `ctl`: a cancel token
    /// and a trace sink, each optional.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`], plus [`RunError::Cancelled`] when the
    /// token is tripped before the program halts.
    pub fn run_with(
        &mut self,
        pid: u32,
        program: &Program,
        ctl: RunCtl<'_>,
    ) -> Result<RunResult, RunError> {
        let RunCtl { cancel, tracer } = ctl;
        // Shorten the sink's trait-object lifetime to this call's borrows.
        let tracer = tracer.map(|sink| sink as &mut dyn TraceSink);
        // The hierarchy buffers its events for this call only: its
        // tracing is switched off again (dropping a partial buffer) on
        // every return path.
        let traced = tracer.is_some();
        if traced {
            self.mem.set_tracing(true);
        }
        let result = Executor::new(
            self.core,
            program,
            pid,
            &mut self.mem,
            self.predictor.as_mut(),
            &mut self.exec,
            self.pipe_chaos.as_mut(),
            self.pred_chaos.as_mut(),
            cancel,
            tracer,
        )
        .run();
        if traced {
            self.mem.set_tracing(false);
        }
        result
    }

    /// The core configuration.
    #[must_use]
    pub fn core_config(&self) -> &CoreConfig {
        &self.core
    }

    /// Mutable access to the memory hierarchy (experiment setup:
    /// pre-loading secrets, probing cache state between runs).
    pub fn mem_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// Read-only access to the memory hierarchy.
    #[must_use]
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// The value predictor (for statistics and diagnostics).
    #[must_use]
    pub fn predictor(&self) -> &dyn ValuePredictor {
        self.predictor.as_ref()
    }

    /// Invalidate caches and TLB, keeping memory contents and predictor
    /// state (a cold microarchitectural start between trials).
    pub fn cold_caches(&mut self) {
        self.mem.cold_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_chaos::PredChaosConfig;
    use vpsim_isa::{ProgramBuilder, Reg};
    use vpsim_obs::{RingRecorder, TraceEvent};
    use vpsim_predictor::{Lvp, LvpConfig, NoPredictor};

    fn machine(vp: Box<dyn ValuePredictor>) -> Machine {
        Machine::new(CoreConfig::default(), MemoryConfig::deterministic(), vp, 7)
    }

    #[test]
    fn state_persists_across_runs() {
        let mut m = machine(Box::new(Lvp::new(LvpConfig::default())));
        m.mem_mut().store_value(0x1000, 42);
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x1000).load(Reg::R2, Reg::R1, 0).halt();
        let p = b.build().unwrap();
        let first = m.run(0, &p).unwrap();
        assert_eq!(first.regs.read(Reg::R2), 42);
        // Second run hits in cache: faster.
        let second = m.run(0, &p).unwrap();
        assert!(second.cycles < first.cycles, "warm run must be faster");
    }

    #[test]
    fn chaos_level_zero_machine_is_bit_identical() {
        let program = {
            let mut b = ProgramBuilder::new();
            b.li(Reg::R1, 0x1000).load(Reg::R2, Reg::R1, 0).halt();
            b.build().unwrap()
        };
        let mut plain = machine(Box::new(Lvp::new(LvpConfig::default())));
        let mut zeroed = machine(Box::new(Lvp::new(LvpConfig::default())));
        zeroed.set_chaos(&ChaosConfig::level(0), 99);
        for _ in 0..4 {
            let a = plain.run(1, &program).unwrap();
            let b = zeroed.run(1, &program).unwrap();
            assert_eq!(a, b, "level 0 must not perturb anything");
        }
        assert_eq!(zeroed.chaos_events(), ChaosEvents::default());
    }

    #[test]
    fn chaos_runs_are_seed_deterministic() {
        let program = {
            let mut b = ProgramBuilder::new();
            b.li(Reg::R1, 0x1000);
            for i in 0..16 {
                b.load(Reg::R2, Reg::R1, i * 64);
            }
            b.halt();
            b.build().unwrap()
        };
        let run = |seed: u64| {
            let mut m = machine(Box::new(Lvp::new(LvpConfig::default())));
            m.set_chaos(&ChaosConfig::level(3), seed);
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(m.run(1, &program).unwrap());
            }
            (out, m.chaos_events())
        };
        assert_eq!(run(11), run(11), "same chaos seed, same behaviour");
        assert_ne!(run(11), run(12), "chaos seed must matter at level 3");
    }

    /// A long spin loop: counts to `n` with a backward branch.
    fn spin_program(n: u64) -> vpsim_isa::Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0).li(Reg::R2, n);
        b.label("spin").unwrap();
        b.addi(Reg::R1, Reg::R1, 1)
            .blt(Reg::R1, Reg::R2, "spin")
            .halt();
        b.build().unwrap()
    }

    #[test]
    fn untripped_token_is_result_neutral() {
        let program = spin_program(500);
        let mut plain = machine(Box::new(Lvp::new(LvpConfig::default())));
        let mut supervised = machine(Box::new(Lvp::new(LvpConfig::default())));
        let token = CancelToken::new();
        for _ in 0..3 {
            let a = plain.run(1, &program).unwrap();
            let ctl = RunCtl {
                cancel: Some(&token),
                tracer: None,
            };
            let b = supervised.run_with(1, &program, ctl).unwrap();
            assert_eq!(a, b, "an untripped token must not perturb the run");
        }
    }

    #[test]
    fn tripped_token_cancels_a_hung_run_promptly() {
        use std::time::{Duration, Instant};
        // A run that would spin for a very long time without help.
        let program = spin_program(u64::MAX / 2);
        let core = CoreConfig {
            max_cycles: vpsim_mem::Cycles::MAX,
            ..CoreConfig::default()
        };
        let mut m = Machine::new(
            core,
            MemoryConfig::deterministic(),
            Box::new(NoPredictor::new()),
            7,
        );
        let token = CancelToken::new();
        let remote = token.clone();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.cancel();
        });
        let started = Instant::now();
        let ctl = RunCtl {
            cancel: Some(&token),
            tracer: None,
        };
        let err = m.run_with(0, &program, ctl).unwrap_err();
        killer.join().expect("killer thread");
        assert!(
            matches!(err, RunError::Cancelled { .. }),
            "expected Cancelled, got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancellation must have bounded latency"
        );
    }

    #[test]
    fn pre_tripped_token_cancels_at_cycle_zero() {
        let mut m = machine(Box::new(NoPredictor::new()));
        let token = CancelToken::new();
        token.cancel();
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1).halt();
        let ctl = RunCtl {
            cancel: Some(&token),
            tracer: None,
        };
        let err = m.run_with(0, &b.build().unwrap(), ctl).unwrap_err();
        assert_eq!(err, RunError::Cancelled { at_cycle: 0 });
    }

    #[test]
    fn traced_run_is_bit_identical_and_captures_pipeline_events() {
        let program = {
            let mut b = ProgramBuilder::new();
            b.li(Reg::R1, 0x1000);
            for i in 0..8 {
                b.load(Reg::R2, Reg::R1, i * 64);
            }
            // Re-run the same loads so the LVP trains and predicts.
            for i in 0..8 {
                b.flush(Reg::R1, i * 64);
            }
            for i in 0..8 {
                b.load(Reg::R2, Reg::R1, i * 64);
            }
            b.halt();
            b.build().unwrap()
        };
        let mut plain = machine(Box::new(Lvp::new(LvpConfig::default())));
        let mut traced = machine(Box::new(Lvp::new(LvpConfig::default())));
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..3 {
            let mut sink = vpsim_obs::RingRecorder::new(1 << 14);
            let a = plain.run(1, &program).unwrap();
            let ctl = RunCtl {
                cancel: None,
                tracer: Some(&mut sink),
            };
            let b = traced.run_with(1, &program, ctl).unwrap();
            assert_eq!(a, b, "tracing must never perturb a run");
            assert_eq!(sink.dropped(), 0, "ring sized for the whole trace");
            // Cycle stamps are monotone within a run (events stream in
            // schedule order; each run restarts the clock).
            let cycles: Vec<u64> = sink.events().map(|(c, _)| *c).collect();
            assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
            kinds.extend(sink.events().map(|(_, e)| e.kind()));
        }
        for kind in [
            "fetch",
            "issue",
            "commit",
            "mem_access",
            "line_flush",
            "train",
        ] {
            assert!(kinds.contains(kind), "expected {kind} events in trace");
        }
    }

    /// 200 passes of a flush and a load of one word: every load misses
    /// the L1 and asks the predictor, and the LVP, which needs three
    /// observations, predicts from the fourth pass on.
    fn flush_load_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x1000).li(Reg::R3, 0).li(Reg::R4, 200);
        b.label("loop").unwrap();
        b.flush(Reg::R1, 0)
            .load(Reg::R2, Reg::R1, 0)
            .addi(Reg::R3, Reg::R3, 1)
            .blt(Reg::R3, Reg::R4, "loop")
            .halt();
        b.build().unwrap()
    }

    /// An LVP machine with only the predictor injectors armed, on chaos
    /// seed 9.
    fn predictor_chaos_machine(predictor: PredChaosConfig) -> Machine {
        let mut m = machine(Box::new(Lvp::new(LvpConfig::default())));
        m.mem_mut().store_value(0x1000, 42);
        let cfg = ChaosConfig {
            predictor,
            ..ChaosConfig::off()
        };
        m.set_chaos(&cfg, 9);
        m
    }

    /// One traced run of [`flush_load_loop`].
    fn traced_loop_run(m: &mut Machine) -> (RunResult, Vec<TraceEvent>) {
        let mut sink = RingRecorder::new(1 << 16);
        let ctl = RunCtl {
            cancel: None,
            tracer: Some(&mut sink),
        };
        let result = m.run_with(1, &flush_load_loop(), ctl).unwrap();
        assert_eq!(sink.dropped(), 0, "ring sized for the whole trace");
        (result, sink.events().map(|(_, e)| *e).collect())
    }

    #[test]
    fn set_chaos_twice_equals_once_with_the_second_seed() {
        let mut cfg = ChaosConfig::level(2);
        cfg.predictor = PredChaosConfig {
            decay_prob: 0.2,
            flip_prob: 0.25,
            drop_train_prob: 0.3,
        };
        let run = |seeds: &[u64]| {
            let mut m = machine(Box::new(Lvp::new(LvpConfig::default())));
            m.mem_mut().store_value(0x1000, 42);
            for &seed in seeds {
                m.set_chaos(&cfg, seed);
            }
            let results: Vec<RunResult> = (0..2)
                .map(|_| m.run(1, &flush_load_loop()).unwrap())
                .collect();
            (results, m.chaos_events())
        };
        let (results, events) = run(&[11, 12]);
        assert!(events.predictions_decayed > 0 && events.trainings_dropped > 0);
        assert_eq!((results, events), run(&[12]), "every domain is re-armed");
    }

    #[test]
    fn predictor_decay_suppresses_every_prediction() {
        let mut m = predictor_chaos_machine(PredChaosConfig {
            decay_prob: 1.0,
            ..PredChaosConfig::off()
        });
        let r = m.run(1, &flush_load_loop()).unwrap();
        assert_eq!(r.stats.predicted_loads, 0);
        let predictions = m.predictor().stats().predictions;
        assert_eq!(predictions, 197, "the stack still predicted");
        assert_eq!(m.chaos_events().predictions_decayed, predictions);
    }

    #[test]
    fn predictor_flips_change_one_bit_and_mispredict() {
        let mut m = predictor_chaos_machine(PredChaosConfig {
            flip_prob: 1.0,
            ..PredChaosConfig::off()
        });
        let (r, events) = traced_loop_run(&mut m);
        assert_eq!(r.stats.predicted_loads, 197);
        assert_eq!(r.stats.mispredictions, r.stats.predicted_loads);
        assert_eq!(m.chaos_events().values_flipped, r.stats.predicted_loads);
        let mut flips = 0;
        for event in events {
            if let TraceEvent::PredFlip {
                original,
                perturbed,
                ..
            } = event
            {
                assert_eq!((original ^ perturbed).count_ones(), 1, "one flipped bit");
                flips += 1;
            }
        }
        assert_eq!(flips, r.stats.predicted_loads);
    }

    #[test]
    fn predictor_dropped_trainings_stall_learning() {
        let mut m = predictor_chaos_machine(PredChaosConfig {
            drop_train_prob: 1.0,
            ..PredChaosConfig::off()
        });
        let r = m.run(1, &flush_load_loop()).unwrap();
        assert_eq!(r.stats.vps_lookups, 200);
        assert_eq!(m.predictor().stats().trainings, 0);
        assert_eq!(m.chaos_events().trainings_dropped, r.stats.vps_lookups);
        assert_eq!(r.stats.predicted_loads, 0);
        assert_eq!(m.predictor().stats().predictions, 0);
    }

    #[test]
    fn traced_dropped_trainings_record_no_train_events() {
        let mut m = predictor_chaos_machine(PredChaosConfig {
            drop_train_prob: 1.0,
            ..PredChaosConfig::off()
        });
        let (r, events) = traced_loop_run(&mut m);
        let count = |kind| events.iter().filter(|e| e.kind() == kind).count() as u64;
        assert_eq!(count("train"), 0, "no training reached the predictor");
        assert_eq!(count("pred_drop_train"), r.stats.vps_lookups);
    }

    #[test]
    fn predictor_chaos_events_are_traced_without_changing_the_run() {
        let cfg = PredChaosConfig {
            decay_prob: 0.3,
            flip_prob: 0.3,
            drop_train_prob: 0.3,
        };
        let mut plain = predictor_chaos_machine(cfg);
        let mut traced = predictor_chaos_machine(cfg);
        let untraced = plain.run(1, &flush_load_loop()).unwrap();
        let (result, events) = traced_loop_run(&mut traced);
        assert_eq!(result, untraced, "tracing must not perturb chaos");
        let counters = traced.chaos_events();
        assert_eq!(counters, plain.chaos_events());
        let count = |kind| events.iter().filter(|e| e.kind() == kind).count() as u64;
        assert!(counters.predictions_decayed > 0);
        assert!(counters.values_flipped > 0);
        assert!(counters.trainings_dropped > 0);
        assert_eq!(count("pred_decay"), counters.predictions_decayed);
        assert_eq!(count("pred_flip"), counters.values_flipped);
        assert_eq!(count("pred_drop_train"), counters.trainings_dropped);
        assert_eq!(count("train"), traced.predictor().stats().trainings);
    }

    #[test]
    fn cold_caches_restores_miss_timing() {
        let mut m = machine(Box::new(NoPredictor::new()));
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x1000).load(Reg::R2, Reg::R1, 0).halt();
        let p = b.build().unwrap();
        let cold = m.run(0, &p).unwrap().cycles;
        let warm = m.run(0, &p).unwrap().cycles;
        m.cold_caches();
        let cold_again = m.run(0, &p).unwrap().cycles;
        assert!(warm < cold);
        assert_eq!(cold, cold_again);
    }
}
