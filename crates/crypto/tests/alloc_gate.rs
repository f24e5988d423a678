//! Allocation gate for the executor's warm path: the Figure 7 leak's
//! train, victim and trigger programs, run again and again on one warm
//! machine, allocate nothing but the trigger's `rdtsc` vector.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running on other threads cannot pollute the count. Its `unsafe` lives
//! in this test crate only; every library keeps `forbid(unsafe_code)`.
//! Unlike a wall-clock gate, a count cannot flake.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vpsec::attacks::{train_program, trigger_timing};
use vpsim_crypto::victim::iteration_program;
use vpsim_crypto::LeakConfig;
use vpsim_pipeline::Machine;
use vpsim_predictor::{Lvp, LvpConfig};

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

#[test]
fn warm_leak_runs_allocate_only_the_trigger_timing_vector() {
    let cfg = LeakConfig::default();
    let setup = &cfg.setup;
    let lvp = Lvp::new(LvpConfig {
        confidence_threshold: setup.confidence,
        ..LvpConfig::default()
    });
    let mut machine = Machine::new(cfg.core, cfg.mem, Box::new(lvp), cfg.seed);
    let m = machine.mem_mut();
    m.store_value(SQR_ADDR, 0x5051);
    m.store_value(MUL_ADDR, 0x6061);
    m.store_value(TP_ADDR, TP_VALUE);
    m.store_value(setup.known_addr, setup.known_value);
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
