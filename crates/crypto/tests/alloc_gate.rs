//! Allocation gate for the warm paths: the Figure 7 leak's train,
//! victim and trigger programs, run again and again on one warm
//! machine, allocate nothing but the trigger's `rdtsc` vector;
//! `Machine::reset` on a warm machine allocates nothing; and a Table III
//! paired trial on a thread that already keeps a machine allocates a
//! pinned count, below that of the same pair on a thread that keeps
//! none.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running on other threads cannot pollute the count. Its `unsafe` lives
//! in this test crate only; every library keeps `forbid(unsafe_code)`.
//! Unlike a wall-clock gate, a count cannot flake.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vpsec::attacks::{train_program, trigger_timing};
use vpsec::experiment::CellPlan;
use vpsec::{AttackCategory, Channel, ExperimentConfig, PredictorKind};
use vpsim_crypto::victim::iteration_program;
use vpsim_crypto::LeakConfig;
use vpsim_pipeline::Machine;
use vpsim_predictor::{Lvp, LvpConfig, ValuePredictor};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The victim's data addresses and the `tp` pointer value, as
/// `vpsim_crypto::victim` lays them out.
const SQR_ADDR: u64 = 0x41000;
const MUL_ADDR: u64 = 0x42000;
const TP_ADDR: u64 = 0x43000;
const TP_VALUE: u64 = 0x4040;

const WARM_UP: usize = 40;
const ITERATIONS: usize = 1024;

/// The leak's predictor.
fn lvp(cfg: &LeakConfig) -> Box<dyn ValuePredictor> {
    Box::new(Lvp::new(LvpConfig {
        confidence_threshold: cfg.setup.confidence,
        ..LvpConfig::default()
    }))
}

/// Store the victim's and the receiver's data, as the leak does on
/// every machine it builds.
fn store_leak_data(machine: &mut Machine, cfg: &LeakConfig) {
    let m = machine.mem_mut();
    m.store_value(SQR_ADDR, 0x5051);
    m.store_value(MUL_ADDR, 0x6061);
    m.store_value(TP_ADDR, TP_VALUE);
    m.store_value(cfg.setup.known_addr, cfg.setup.known_value);
}

#[test]
fn warm_leak_runs_allocate_only_the_trigger_timing_vector() {
    let cfg = LeakConfig::default();
    let setup = &cfg.setup;
    let mut machine = Machine::new(cfg.core, cfg.mem, lvp(&cfg), cfg.seed);
    store_leak_data(&mut machine, &cfg);
    let train = train_program(setup, setup.target_slot, setup.known_addr);
    let victims = [false, true].map(|bit| iteration_program(bit, setup));
    let dep_candidates = [setup.known_value, TP_VALUE];
    let trigger = trigger_timing(setup, setup.target_slot, setup.known_addr, &dep_candidates);

    // Allocations of one bit's train, victim and trigger runs, and the
    // number of each run.
    let mut observe = |bit: usize| {
        let mut counts = [(0u64, 0u64); 3];
        for _ in 0..setup.confidence {
            counts[0].0 += allocations(|| drop(machine.run(2, &train).expect("train halts")));
            counts[0].1 += 1;
        }
        counts[1] = (
            allocations(|| drop(machine.run(1, &victims[bit]).expect("victim halts"))),
            1,
        );
        counts[2] = (
            allocations(|| drop(machine.run(2, &trigger).expect("trigger halts"))),
            1,
        );
        counts
    };
    for i in 0..WARM_UP {
        observe(i % 2);
    }
    let mut totals = [(0u64, 0u64); 3];
    for i in 0..ITERATIONS {
        for (total, (allocs, runs)) in totals.iter_mut().zip(observe(i % 2)) {
            *total = (total.0 + allocs, total.1 + runs);
        }
    }
    let [train, victim, trigger] = totals;
    assert_eq!(train, (0, (ITERATIONS * setup.confidence as usize) as u64));
    assert_eq!(victim, (0, ITERATIONS as u64));
    assert_eq!(trigger, (ITERATIONS as u64, ITERATIONS as u64));
}

#[test]
fn resetting_a_warm_machine_allocates_nothing() {
    let cfg = LeakConfig::default();
    let setup = &cfg.setup;
    let train = train_program(setup, setup.target_slot, setup.known_addr);
    let victim = iteration_program(true, setup);
    let mut machine = Machine::new(cfg.core, cfg.mem, lvp(&cfg), cfg.seed);
    for round in 0..4u64 {
        store_leak_data(&mut machine, &cfg);
        for _ in 0..setup.confidence {
            machine.run(2, &train).expect("train halts");
        }
        machine.run(1, &victim).expect("victim halts");
        // The replacement predictor is built outside the count: the
        // reset itself only restores what the runs touched.
        let predictor = lvp(&cfg);
        let allocs = allocations(|| machine.reset(predictor, cfg.seed ^ round));
        assert_eq!(allocs, 0, "reset {round} allocated");
    }
}

/// Allocations of one warm Table III paired trial: the Train+Test
/// timing-window LVP cell's pair 5, on a thread whose machine slot has
/// run that cell's earlier pairs.
const WARM_PAIR_ALLOCATIONS: u64 = 15;

#[test]
fn a_warm_paired_trial_allocates_less_than_a_cold_one() {
    let cfg = ExperimentConfig {
        trials: 8,
        ..ExperimentConfig::default()
    };
    let plan = CellPlan::new(
        AttackCategory::TrainTest,
        Channel::TimingWindow,
        PredictorKind::Lvp,
        &cfg,
    )
    .expect("Train+Test supports the timing-window channel");
    // A new thread's slot is empty: the first pair builds its machine.
    let (cold, warm) = std::thread::scope(|s| {
        s.spawn(|| {
            let cold = allocations(|| {
                let _ = plan.run_pair(5);
            });
            for t in 0..5 {
                let _ = plan.run_pair(t);
            }
            let warm = allocations(|| {
                let _ = plan.run_pair(5);
            });
            (cold, warm)
        })
        .join()
        .expect("pair thread")
    });
    assert_eq!(warm, WARM_PAIR_ALLOCATIONS, "cold pair: {cold}");
    assert!(warm < cold, "warm {warm} vs cold {cold}");
}
