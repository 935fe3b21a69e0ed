#!/usr/bin/env bash
# Full CI gate: release build, the whole workspace test suite, and
# clippy with warnings promoted to errors. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo build --release --benches
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# The paper-workload benchmark is its own crate outside the workspace:
# its parity suite proves the benchmark's guest programs still match
# the library runners, and its determinism suite that runs repeat bit
# for bit. A simulator change that breaks either fails here rather
# than in a benchmark run.
cargo test -q --release --offline --manifest-path paperbench/Cargo.toml

# Smoke-run the bench harness (1 sample) and gate the cheap, stable
# benches against the committed baseline: a >30% regression of the
# interpreter or the 1-NxP migration path fails CI loudly, and any
# drift in the deterministic fig_isa_matrix per-ISA-pair migration
# cost fails exactly (1 sample is enough — simulated time is exact).
tmp_bench="$(mktemp -t flick-bench-XXXXXX.json)"
trap 'rm -f "$tmp_bench"' EXIT
cargo bench -p flick-bench --bench simulator -- --samples 1 --json "$tmp_bench"
cargo run --release -p flick-bench --bin bench_gate -- BENCH_simulator.json "$tmp_bench"

# Block-lane differential smoke: the chaining suite proves step vs
# block vs chained engines bit-identical (timing, stats, faults) in
# release across all three ISAs, every fuel cutoff, SMC rewriting a
# chained successor mid-loop, and CR3 reloads between quanta.
cargo test -q --release --test blocks
echo "block chaining differential: ok"

# Topology smoke matrix: every topology's concurrent workload must run
# to completion, including a 3-ISA heterogeneous column (x64 host +
# rv64/arm64/rv64 accelerators — ISA-aware placement must route every
# call). tests/determinism.rs pins the simulated timelines; this drives
# the example end to end at each configuration. A zero core count is a
# usage error (exit 1), never a panic.
for topo in "1 1" "2 2" "4 4"; do
    cargo run --release --example topology -- $topo > /dev/null
done
cargo run --release --example topology -- 1 3 --isas rv64,arm64 > /dev/null
set +e
cargo run -q --release --example topology -- 0 2 > /dev/null 2>&1
zero_exit=$?
set -e
test "$zero_exit" -eq 1
echo "topology smoke matrix: 4 configurations ok, zero-core topology rejected"

# Failover chaos smoke: the dedicated suite soaks 12 seeds of combined
# link + device chaos in release (crash/hang/unplug/rejoin must be
# result-invisible with a balanced task census), then the example
# drives 8 more seeds end to end — it asserts its results against a
# fault-free twin internally.
cargo test -q --release --test failover
for seed in 1 2 3 4 5 6 7 8; do
    cargo run --release --example failover -- "$seed" > /dev/null
done
echo "failover chaos smoke: 8 seeds ok"

# Timeline-export smoke: a 2x2 observability run must emit a non-empty
# Chrome-trace JSON file (the example itself validates the JSON), and
# a heterogeneous run must name its Perfetto tracks by ISA.
tmp_trace="$(mktemp -t flick-timeline-XXXXXX.json)"
trap 'rm -f "$tmp_bench" "$tmp_trace"' EXIT
cargo run --release --example timeline -- 2 2 "$tmp_trace"
test -s "$tmp_trace"
cargo run --release --example timeline -- 1 2 "$tmp_trace" --isas rv64,arm64
grep -q 'nxp1 (arm64)' "$tmp_trace"
test -s "$tmp_trace"

# Serving-scenario smoke: the open-loop multi-tenant example must carry
# its load point end to end at two seeds (the dedicated suite in
# tests/serving.rs proves the sweep replays bit-identically; this
# drives the example binary itself), and the saturated fleet's Perfetto
# export must be non-empty (the example validates the JSON before
# writing).
for seed in 7 99; do
    cargo run --release --example serving -- --seed "$seed" > /dev/null
done
cargo run --release --example serving -- --timeline "$tmp_trace" > /dev/null
test -s "$tmp_trace"
echo "serving smoke: 2 seeds ok"
