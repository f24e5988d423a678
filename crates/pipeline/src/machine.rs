//! The [`Machine`]: persistent microarchitectural state shared across
//! program runs.
//!
//! Sender and receiver programs execute on the *same* machine (time
//! multiplexed, as in the paper's threat model), so value-predictor and
//! cache state trained by one program is observable by the next — the
//! substrate every attack in the paper builds on.

use vpsim_chaos::{ChaosConfig, ChaosEvents, MemChaos, PipeChaos};
use vpsim_isa::Program;
use vpsim_mem::{MemoryConfig, MemoryHierarchy};
use vpsim_obs::TraceSink;
use vpsim_predictor::{ChaoticPredictor, NoPredictor, ValuePredictor};

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
    chaos: Option<PipeChaos>,
    /// Whether a [`ChaoticPredictor`] wrapper has been installed (guards
    /// against double wrapping on repeated `set_chaos` calls).
    pred_chaos_installed: bool,
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
            chaos: None,
            pred_chaos_installed: false,
            exec: ExecState::default(),
        }
    }

    /// Install the fault/noise-injection plane on this machine: memory,
    /// pipeline and predictor injectors, each on its own domain-tagged
    /// stream derived from `seed`. With [`ChaosConfig::off`] (or any
    /// all-off config) nothing is installed and the machine stays
    /// bit-identical to one that never saw this call.
    ///
    /// Install once, right after construction, before the first run —
    /// the predictor injector wraps the current predictor stack.
    pub fn set_chaos(&mut self, cfg: &ChaosConfig, seed: u64) {
        if !cfg.mem.is_off() {
            self.mem.set_chaos(Some(MemChaos::new(cfg.mem, seed)));
        }
        if !cfg.pipeline.is_off() {
            self.chaos = Some(PipeChaos::new(cfg.pipeline, seed));
        }
        if !cfg.predictor.is_off() && !self.pred_chaos_installed {
            let inner = std::mem::replace(&mut self.predictor, Box::new(NoPredictor::new()));
            self.predictor = Box::new(ChaoticPredictor::new(inner, cfg.predictor, seed));
            self.pred_chaos_installed = true;
        }
    }

    /// The chaos event log: injected events across all three domains
    /// since the plane was installed (all-zero when it never was).
    #[must_use]
    pub fn chaos_events(&self) -> ChaosEvents {
        let mut events = self.mem.chaos_events();
        if let Some(ch) = &self.chaos {
            events.merge(ch.events());
        }
        if let Some(pred_events) = self.predictor.chaos_events() {
            events.merge(&pred_events);
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
        // Component-side tracing is on for this call only: it is switched
        // off again (dropping partial buffers) on every return path.
        let traced = tracer.is_some();
        if traced {
            self.mem.set_tracing(true);
            self.predictor.set_tracing(true);
        }
        let result = Executor::new(
            self.core,
            program,
            pid,
            &mut self.mem,
            self.predictor.as_mut(),
            &mut self.exec,
            self.chaos.as_mut(),
            cancel,
            tracer,
        )
        .run();
        if traced {
            self.mem.set_tracing(false);
            self.predictor.set_tracing(false);
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

    /// Reset the predictor state (a fresh VPS, as between trial groups).
    pub fn reset_predictor(&mut self) {
        self.predictor.reset();
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
    use vpsim_isa::{ProgramBuilder, Reg};
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
