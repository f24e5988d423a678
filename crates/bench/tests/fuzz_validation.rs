//! Hand-rolled fuzz suite for the user-input surfaces: malformed
//! configurations and malformed programs must come back as typed `Err`s
//! — never a panic. The generator is `vpsim-rng`'s `SmallRng` with fixed
//! seeds, so every "random" case is reproducible; a failure message
//! names the iteration that crashed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vpsec::experiment::{PairOutcome, TrialOutcome};
use vpsim_harness::JobRecord;
use vpsim_isa::{AluOp, BranchCond, ProgramBuilder, Reg};
use vpsim_mem::{CacheGeometry, MemoryConfig, MemoryHierarchy, ReplacementKind};
use vpsim_pipeline::CoreConfig;
use vpsim_rng::SmallRng;

const ITERATIONS: usize = 400;

/// Run `f`, converting a panic into a test failure naming the case.
fn must_not_panic<T>(case: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| panic!("{case}: panicked on malformed input instead of returning Err"))
}

fn fuzz_geometry(rng: &mut SmallRng) -> CacheGeometry {
    CacheGeometry {
        sets: *rng.choose(&[0, 1, 3, 63, 64, 65, 512, usize::MAX / 2]),
        ways: rng.gen_range(0..4usize),
        line_bytes: *rng.choose(&[0, 1, 4, 7, 8, 64, 100, 1 << 62]),
        hit_latency: rng.gen_range(0..32u64),
        replacement: *rng.choose(&[
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Random,
        ]),
    }
}

/// Validate `cfg` and, when it is accepted, build a hierarchy from it:
/// front ends validate first and then construct, so nothing `validate`
/// accepts may panic. Returns whether `validate` rejected it.
fn validate_then_build(case: &str, cfg: MemoryConfig, seed: u64) -> bool {
    match must_not_panic(case, || cfg.validate()) {
        Ok(()) => {
            must_not_panic(case, || MemoryHierarchy::new(cfg, seed));
            false
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(
                !msg.is_empty() && !msg.contains('\n'),
                "{case}: error must render as one clean line, got {msg:?}"
            );
            true
        }
    }
}

#[test]
fn malformed_memory_configs_error_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xf022_0001);
    // Fully fuzzed configs are almost never valid, so a second stream
    // fuzzes only the L2 geometry of the default config (line size
    // kept): `validate` accepts a good share of those, and each one
    // accepted gets built.
    let mut near_rng = SmallRng::seed_from_u64(0xf022_0011);
    let mut rejected = 0usize;
    let mut near_rejected = 0usize;
    for i in 0..ITERATIONS {
        let cfg = MemoryConfig {
            l1: fuzz_geometry(&mut rng),
            l2: fuzz_geometry(&mut rng),
            dram_latency: rng.gen_range(0..400u64),
            dram_jitter: rng.gen_range(0..64u64),
            page_bytes: *rng.choose(&[0, 1, 9, 4096, 1000, 1 << 40]),
            tlb_entries: rng.gen_range(0..3usize),
            tlb_hit_latency: rng.gen_range(0..4u64),
            page_walk_latency: rng.gen_range(0..64u64),
            prefetch: MemoryConfig::default().prefetch,
        };
        let case = format!("mem config #{i} ({cfg:?})");
        rejected += usize::from(validate_then_build(&case, cfg, i as u64));
        let default = MemoryConfig::default();
        let near = MemoryConfig {
            l2: CacheGeometry {
                line_bytes: default.l2.line_bytes,
                ..fuzz_geometry(&mut near_rng)
            },
            ..default
        };
        let case = format!("near-valid mem config #{i} ({near:?})");
        near_rejected += usize::from(validate_then_build(&case, near, i as u64));
    }
    assert!(
        rejected > ITERATIONS / 2,
        "the generator should produce mostly-invalid configs (rejected {rejected})"
    );
    assert!(
        near_rejected < ITERATIONS * 9 / 10,
        "near-valid configs should often be accepted and built (rejected {near_rejected})"
    );
}

#[test]
fn malformed_core_configs_error_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xf022_0002);
    let mut rejected = 0usize;
    for i in 0..ITERATIONS {
        let cfg = CoreConfig {
            fetch_width: rng.gen_range(0..3usize),
            issue_width: rng.gen_range(0..3usize),
            commit_width: rng.gen_range(0..3usize),
            rob_entries: rng.gen_range(0..5usize),
            alu_latency: rng.gen_range(0..4u64),
            mul_latency: rng.gen_range(0..8u64),
            squash_penalty: rng.gen_range(0..16u64),
            branch_prediction: rng.gen_bool(0.5),
            forward_latency: rng.gen_range(0..4u64),
            max_cycles: *rng.choose(&[0, 1, 1000, 50_000_000]),
            delay_side_effects: rng.gen_bool(0.5),
            record_commit_trace: rng.gen_bool(0.5),
        };
        let case = format!("core config #{i} ({cfg:?})");
        let result = must_not_panic(&case, || cfg.validate());
        if let Err(e) = result {
            rejected += 1;
            let msg = e.to_string();
            assert!(
                !msg.is_empty() && !msg.contains('\n'),
                "{case}: error must render as one clean line, got {msg:?}"
            );
        }
    }
    assert!(rejected > ITERATIONS / 2, "rejected only {rejected}");
}

#[test]
fn malformed_programs_error_never_panic() {
    let regs = [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6];
    let labels = ["a", "b", "ghost", "a"]; // "a" twice → duplicate chances
    let mut rng = SmallRng::seed_from_u64(0xf022_0003);
    let mut rejected = 0usize;
    for i in 0..ITERATIONS {
        let mut b = ProgramBuilder::new();
        let mut label_failed = false;
        for _ in 0..rng.gen_range(0..12usize) {
            match rng.gen_range(0..8u32) {
                0 => {
                    b.li(*rng.choose(&regs), rng.next_u64());
                }
                1 => {
                    b.load(*rng.choose(&regs), *rng.choose(&regs), 0);
                }
                2 => {
                    b.alu(
                        AluOp::Add,
                        *rng.choose(&regs),
                        *rng.choose(&regs),
                        *rng.choose(&regs),
                    );
                }
                3 => {
                    // Possibly-duplicate label definition: an Err here is
                    // valid rejection, not a crash.
                    let label = *rng.choose(&labels);
                    if b.label(label).is_err() {
                        label_failed = true;
                    }
                }
                4 => {
                    // Branch to a label that may never be defined.
                    let label = *rng.choose(&labels);
                    b.branch(
                        BranchCond::Eq,
                        *rng.choose(&regs),
                        *rng.choose(&regs),
                        label,
                    );
                }
                5 => {
                    let label = *rng.choose(&labels);
                    b.jump(label);
                }
                6 => {
                    b.nops(rng.gen_range(0..3usize));
                }
                _ => {
                    // Sometimes a halt mid-program; often no halt at all.
                    if rng.gen_bool(0.3) {
                        b.halt();
                    }
                }
            }
        }
        let case = format!("program #{i}");
        let result = must_not_panic(&case, || b.build());
        if label_failed || result.is_err() {
            rejected += 1;
        }
        if let Err(e) = result {
            let msg = e.to_string();
            assert!(
                !msg.is_empty() && !msg.contains('\n'),
                "{case}: error must render as one clean line, got {msg:?}"
            );
        }
    }
    assert!(
        rejected > ITERATIONS / 4,
        "the generator should hit undefined labels / missing halts often (rejected {rejected})"
    );
}

/// A manifest record with fully random contents — including `f64` bit
/// patterns that decode to NaN, infinities and subnormals, which the
/// hex encoding must carry bit-exactly.
fn fuzz_record(rng: &mut SmallRng) -> JobRecord {
    let observed = |rng: &mut SmallRng| match rng.gen_range(0..4u32) {
        0 => f64::from_bits(rng.next_u64()),
        1 => f64::NAN,
        2 => f64::INFINITY,
        _ => rng.gen_f64() * 1e6,
    };
    let sched = |rng: &mut SmallRng| vpsim_pipeline::SchedStats {
        ticks: rng.next_u64(),
        skipped_cycles: rng.next_u64(),
        completion_events: rng.next_u64(),
        wakeup_broadcasts: rng.next_u64(),
        verify_events: rng.next_u64(),
        issue_slots: rng.next_u64(),
        dispatched: rng.next_u64(),
    };
    JobRecord {
        cell: rng.gen_range(0..1_000_000usize),
        trial: rng.gen_range(0..1_000_000usize),
        pair: PairOutcome {
            mapped: TrialOutcome {
                observed: observed(rng),
                total_cycles: rng.next_u64(),
                sched: sched(rng),
            },
            unmapped: TrialOutcome {
                observed: observed(rng),
                total_cycles: rng.next_u64(),
                sched: sched(rng),
            },
        },
        wall_nanos: rng.next_u64(),
        attempts: rng.gen_range(1..100u64) as u32,
    }
}

#[test]
fn job_record_lines_round_trip_bit_exactly() {
    let mut rng = SmallRng::seed_from_u64(0xf022_0004);
    for i in 0..ITERATIONS {
        let rec = fuzz_record(&mut rng);
        let line = rec.to_line();
        let case = format!("record #{i} ({line})");
        let back = must_not_panic(&case, || JobRecord::parse(&line))
            .unwrap_or_else(|| panic!("{case}: writer output must always parse"));
        // Compare re-serialized lines: string equality is bit-exact for
        // the f64 payloads (NaN != NaN under float comparison).
        assert_eq!(back.to_line(), line, "{case}: lossy round-trip");
    }
}

#[test]
fn truncated_job_record_lines_are_rejected_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xf022_0005);
    for i in 0..ITERATIONS {
        let line = fuzz_record(&mut rng).to_line();
        // Every strict prefix models a torn tail from a killed writer;
        // all of them must be cleanly rejected (the line is ASCII, so
        // any byte offset is a char boundary).
        let cut = rng.gen_range(0..line.len());
        let torn = &line[..cut];
        let case = format!("torn line #{i} (cut at {cut}: {torn:?})");
        let parsed = must_not_panic(&case, || JobRecord::parse(torn));
        assert!(
            parsed.is_none(),
            "{case}: a torn line must never be accepted"
        );
    }
}

#[test]
fn adversarial_job_record_lines_never_panic_or_false_accept() {
    let mut rng = SmallRng::seed_from_u64(0xf022_0006);
    let keys = [
        "cell", "trial", "m_obs", "m_cyc", "u_obs", "u_cyc", "wall_ns", "attempts",
    ];
    for i in 0..ITERATIONS {
        let line = fuzz_record(&mut rng).to_line();
        let (mutated, must_reject) = match rng.gen_range(0..7u32) {
            // Bad hex in an observation field.
            0 => (line.replacen("\"m_obs\":\"", "\"m_obs\":\"zz", 1), true),
            // A numeric field replaced by garbage.
            1 => {
                let key = *rng.choose(&keys[..2]);
                (
                    line.replacen(&format!("\"{key}\":"), &format!("\"{key}\":x"), 1),
                    true,
                )
            }
            // A signed number: Rust's parser would take `+7`, JSON not.
            5 => {
                let key = *rng.choose(&["cell", "trial", "m_cyc", "wall_ns"]);
                (
                    line.replacen(&format!("\"{key}\":"), &format!("\"{key}\":+"), 1),
                    true,
                )
            }
            // A signed hex observation.
            6 => (line.replacen("\"u_obs\":\"", "\"u_obs\":\"+", 1), true),
            // A field removed entirely.
            2 => {
                let key = *rng.choose(&keys);
                (line.replacen(&format!("\"{key}\""), "\"gone\"", 1), true)
            }
            // Duplicate key prepended: the parser must stay
            // deterministic (first occurrence wins), not crash.
            3 => (
                format!("{{\"cell\":7,{}", line.trim_start_matches('{')),
                false,
            ),
            // Random bytes spliced into the middle.
            _ => {
                let at = rng.gen_range(1..line.len());
                let mut m = String::new();
                m.push_str(&line[..at]);
                m.push_str("\u{1}\"\\");
                m.push_str(&line[at..]);
                (m, false)
            }
        };
        let case = format!("adversarial line #{i} ({mutated:?})");
        let parsed = must_not_panic(&case, || JobRecord::parse(&mutated));
        if must_reject {
            assert!(
                parsed.is_none(),
                "{case}: malformed line must be rejected, got {parsed:?}"
            );
        } else {
            // Accept or reject, but deterministically: parsing twice
            // must agree (compare via the bit-exact line form).
            let again = JobRecord::parse(&mutated);
            assert_eq!(
                parsed.map(JobRecord::to_line),
                again.map(JobRecord::to_line),
                "{case}: parse must be deterministic"
            );
        }
    }
}

#[test]
fn chaos_levels_saturate_never_panic() {
    for l in 0..=u8::MAX {
        let cfg = must_not_panic(&format!("chaos level {l}"), || {
            vpsec::chaos::ChaosConfig::level(l)
        });
        assert_eq!(cfg.is_off(), l == 0, "only level 0 is the off plane");
    }
}
