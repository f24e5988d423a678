#!/usr/bin/env sh
# The full offline quality gate: formatting, lints (warnings are
# errors), release build, and the complete test suite. No network or
# registry access is required — the workspace has no external
# dependencies.
set -eux

cd "$(dirname "$0")"

cargo fmt --all --check
# `--locked`: a root Cargo.lock that no longer matches the manifests
# fails here instead of being rewritten silently. Clippy is the first
# step that resolves the workspace.
cargo clippy --locked --workspace --all-targets -- -D warnings
# Rustdoc: a deleted or renamed public item must not leave a broken
# intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --workspace --release --locked
# Build the test binaries first, so the time limit covers only the run:
# the suite takes 23-32 s on a 2-core host, and a hang fails CI at 300 s
# instead of stalling it.
cargo test --workspace --quiet --no-run
timeout 300 cargo test --workspace --quiet

# Perf smoke: rerun the quick executor-benchmark matrix and compare
# against the committed baseline. Fails on any drift in simulated
# cycles or scheduler counters (the event-driven scheduler must stay
# cycle-exact; the golden-trace suite above checks the same property
# per-instruction) or on a >2x wall-clock regression.
cargo run --release -p vpsim-bench --bin bench_pipeline -- \
    --quick --check BENCH_pipeline.quick.json

# Tracing-overhead smoke: the same quick matrix with event tracing
# enabled must stay cycle-exact against the *untraced* baseline (trace
# neutrality: recording events may not perturb simulation) and inside
# the same wall-clock slowdown gate (tracing stays cheap).
cargo run --release -p vpsim-bench --bin bench_pipeline -- \
    --quick --traced --check BENCH_pipeline.quick.json

# The full matrix (under a second) runs each kernel four times as long
# as the quick one, and its cycles and scheduler counters must match
# the committed baseline exactly too; its `constant_table` keeps the
# 64-entry ROB full of consumers waiting for wakeup.
cargo run --release -p vpsim-bench --bin bench_pipeline -- \
    --check BENCH_pipeline.json

# Trace-determinism smoke: `repro --trace` is a pure function of
# (traced zoo, trials, seeds) — invocations at different worker counts
# must dump byte-identical JSONL.
TRACE_TMP="$(mktemp -d)"
./target/release/repro --trace "$TRACE_TMP/a.jsonl" --trials 2 --jobs 1 > /dev/null
./target/release/repro --trace "$TRACE_TMP/b.jsonl" --trials 2 --jobs 4 > /dev/null
cmp "$TRACE_TMP/a.jsonl" "$TRACE_TMP/b.jsonl"
rm -rf "$TRACE_TMP"

# CSV-determinism smoke: the per-trial Table III CSVs are a pure
# function of (trials, seeds) too — one worker and two workers must
# write byte-identical directories. `--strict` fails either run if its
# counter store records a failed cell, panic, timeout, torn line or I/O
# fault.
CSV_TMP="$(mktemp -d)"
./target/release/repro --csv "$CSV_TMP/a" --table 3 --trials 40 --jobs 1 --strict > /dev/null
./target/release/repro --csv "$CSV_TMP/b" --table 3 --trials 40 --jobs 2 --strict > /dev/null
diff -r "$CSV_TMP/a" "$CSV_TMP/b"
rm -rf "$CSV_TMP"

# Machine-reuse smoke: each thread keeps its last trial's machine and
# resets it when the next trial has the same core and memory
# configuration, or builds a new one when it has not. The defense
# matrix (D-type delays side effects) and the ablations (DRAM jitter,
# the next-line prefetcher) change that configuration between cells,
# so one worker and two workers switch machines at different points;
# their reports must still be byte-identical.
SLOT_TMP="$(mktemp -d)"
./target/release/repro --defenses --ablations --trials 100 --jobs 1 --strict > "$SLOT_TMP/a.txt"
./target/release/repro --defenses --ablations --trials 100 --jobs 2 --strict > "$SLOT_TMP/b.txt"
cmp "$SLOT_TMP/a.txt" "$SLOT_TMP/b.txt"
rm -rf "$SLOT_TMP"

# Robustness smoke: the quick chaos sweep (12 attack variants + RSA x
# noise levels 0-4 x both receivers) is fully seeded, so every cell
# must match the committed baseline bit for bit. The full sweep is the
# artifact EXPERIMENTS.md quotes; it is just as deterministic and takes
# a few seconds, so it is checked too.
cargo run --release -p vpsim-bench --bin bench_chaos -- \
    --quick --check BENCH_chaos.quick.json
cargo run --release -p vpsim-bench --bin bench_chaos -- \
    --check BENCH_chaos.json

# Fuzz: malformed configs/programs must return typed errors, not panic,
# and manifest record lines must round-trip bit-exactly while torn or
# adversarial lines are rejected.
cargo test --release -q -p vpsim-bench --test fuzz_validation

# Examples: clippy above only compiles them. Build each one in
# examples/ and run it with its default arguments; it must exit 0.
cargo build --release --examples -p vpsec -p vpsim-crypto
for example in examples/*.rs; do
    "./target/release/examples/$(basename "$example" .rs)" > /dev/null
done

# Repeat loop: the torture binary (kill/resume at >=20 seeded
# interruption points, hostile sink-I/O fault plans, hung cells
# cancelled within their deadlines, SIGKILLed/poisoned/wedged fleet
# workers, zombie sweep) and the whole serve integration binary
# (slowloris, 503 shedding, shutdown and restart) run 10 times back to
# back, each under a 120 s timeout. A hang or a flake on any run fails
# CI: every path must converge bit-identically, every time.
for _ in $(seq 1 10); do
    timeout 120 cargo test --release -q -p vpsim-harness --test torture
done
for _ in $(seq 1 10); do
    timeout 120 cargo test --release -q -p vpsim-serve --test serve_integration
done

# Serve smoke: boot a real daemon on an ephemeral port, submit two
# campaigns, stream one to completion, check progress and metrics,
# cancel the other mid-flight, and shut down cleanly.
SERVE_STATE="$(mktemp -d)"
SERVE_LOG="$SERVE_STATE/daemon.out"
./target/release/repro serve --port 0 --state "$SERVE_STATE/state" \
    --runners 2 --jobs 2 > "$SERVE_LOG" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVE_STATE"' EXIT
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SERVE_LOG" && break
    sleep 0.1
done
SERVE_ADDR="$(sed -n 's/.*listening on //p' "$SERVE_LOG" | head -1)"
printf '%s' '{"name":"ci-smoke","trials":20,"seed":7,"cells":[{"category":"train_test","channel":"timing_window","predictor":"lvp"}]}' \
    > "$SERVE_STATE/smoke.json"
./target/release/repro submit --addr "$SERVE_ADDR" --spec "$SERVE_STATE/smoke.json"
printf '%s' '{"name":"ci-doomed","trials":50000,"seed":7,"cells":[{"category":"train_test","channel":"timing_window","predictor":"lvp"}]}' \
    > "$SERVE_STATE/doomed.json"
./target/release/repro submit --addr "$SERVE_ADDR" --spec "$SERVE_STATE/doomed.json"
./target/release/repro watch --addr "$SERVE_ADDR" --id 1 | grep -q '"state":"done"'
./target/release/repro query --addr "$SERVE_ADDR" --id 1 | grep -q '"state":"done"'
./target/release/repro query --addr "$SERVE_ADDR" | grep -q 'ci-doomed'
./target/release/repro cancel --addr "$SERVE_ADDR" --id 2
./target/release/repro query --addr "$SERVE_ADDR" --id 2 | grep -q '"state":"cancelled"'
./target/release/repro metrics --addr "$SERVE_ADDR" | grep -q 'vpsim_jobs_done_total{campaign="1"} 20'
./target/release/repro shutdown --addr "$SERVE_ADDR"
wait "$SERVE_PID"
trap - EXIT
rm -rf "$SERVE_STATE"

# Fleet smoke: a campaign on the process-isolated backend must survive
# one of its workers being SIGKILLed mid-run — exit 0 with result lines
# byte-identical to the thread backend.
FLEET_TMP="$(mktemp -d)"
trap 'rm -rf "$FLEET_TMP"' EXIT
printf '%s' '{"name":"ci-fleet","trials":40,"seed":7,"cells":[{"category":"train_test","channel":"timing_window","predictor":"lvp"}]}' \
    > "$FLEET_TMP/spec.json"
./target/release/repro run --spec "$FLEET_TMP/spec.json" --isolate thread \
    > "$FLEET_TMP/thread.out"
./target/release/repro run --spec "$FLEET_TMP/spec.json" --isolate process --workers 2 \
    > "$FLEET_TMP/fleet.out" &
FLEET_PID=$!
WORKER_PID=""
for _ in $(seq 1 100); do
    WORKER_PID="$(pgrep -o -f 'release/repro --worker-loop' 2>/dev/null || true)"
    [ -n "$WORKER_PID" ] && break
    sleep 0.05
done
[ -n "$WORKER_PID" ] && kill -9 "$WORKER_PID" 2>/dev/null || true
wait "$FLEET_PID"
cmp "$FLEET_TMP/thread.out" "$FLEET_TMP/fleet.out"
trap - EXIT
rm -rf "$FLEET_TMP"

# Benchmark smoke: campaign_bench is its own workspace, so nothing above
# compiles it. Build and test it, then run every workload briefly and
# table3 and rsa_leak once traced; each run exits nonzero when an output
# check fails (bit-exact campaigns, every RSA bit recovered, and in the
# traced runs every replayed job equal to CellPlan::run_pair and every
# replayed leak equal to leak_exponent's, bit for bit).
cargo test --release -q --manifest-path campaign_bench/Cargo.toml
cargo run --quiet --release --manifest-path campaign_bench/Cargo.toml -- \
    --workload all --seconds 1 --trace 0 > /dev/null
cargo run --quiet --release --manifest-path campaign_bench/Cargo.toml -- \
    --workload table3 --seconds 1 --trace 1 > /dev/null
cargo run --quiet --release --manifest-path campaign_bench/Cargo.toml -- \
    --workload rsa_leak --seconds 1 --trace 1 > /dev/null

echo "ci: all checks passed"
