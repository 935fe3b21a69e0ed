//! CI bench-regression gate: compares a fresh bench JSON against the
//! committed baseline (`BENCH_simulator.json`) and fails loudly when a
//! gated benchmark regressed.
//!
//! Three kinds of gates:
//!
//! - **Wall-clock** (`mean_ns`): only benches cheap enough to be stable
//!   at 1 sample — `interpret` (the pure step-loop ceiling the block
//!   engine owns), `interpret_hotloop` (the back-edge-dominated
//!   chaining best case), `migration_throughput_1nxp` (the end-to-end
//!   descriptor path), and `migration_throughput_degraded` (the same
//!   fleet with one NxP crashed mid-run). A 1-sample smoke run is
//!   noisy, so the threshold is generous (30%): this catches "the fast
//!   path fell off a cliff", not 2% drift.
//! - **ISA matrix** (`sim_round_trip_ns`): the `fig_isa_matrix_*`
//!   family reports *simulated* migration round-trip cost per ordered
//!   ISA pair. Simulated time is deterministic, so these are compared
//!   exactly: any drift means the cross-ISA call path's timing
//!   semantics changed and must be an intentional, re-recorded change.
//! - **Tail latency** (`goodput_rps` / `p99_ns`): the
//!   `fig_tail_latency_*` serving sweep. Also deterministic, but gated
//!   at the generous threshold rather than exactly: small intentional
//!   scheduler or timing tweaks legitimately move queueing delay a
//!   little, and the gate's job is to catch a collapsed drain rate or
//!   an exploded tail, not to force a re-record for every nudge.
//!   Goodput regresses downward, p99 regresses upward.
//!
//! Usage: `bench_gate <baseline.json> <current.json>`

use std::process::ExitCode;

/// Benchmarks gated on wall-clock `mean_ns`.
const GATED: [&str; 4] = [
    "interpret",
    "interpret_hotloop",
    "migration_throughput_1nxp",
    "migration_throughput_degraded",
];

/// Benchmarks gated exactly on deterministic `sim_round_trip_ns`.
const ISA_MATRIX: [&str; 6] = [
    "fig_isa_matrix_x64_rv64",
    "fig_isa_matrix_x64_arm64",
    "fig_isa_matrix_rv64_x64",
    "fig_isa_matrix_rv64_arm64",
    "fig_isa_matrix_arm64_x64",
    "fig_isa_matrix_arm64_rv64",
];

/// The serving tail-latency sweep, gated on simulated `goodput_rps`
/// (lower is worse) and `p99_ns` (higher is worse).
const TAIL_LATENCY: [&str; 5] = [
    "fig_tail_latency_25k",
    "fig_tail_latency_50k",
    "fig_tail_latency_100k",
    "fig_tail_latency_200k",
    "fig_tail_latency_400k",
];

/// Maximum tolerated wall-clock growth over the baseline.
const MAX_REGRESSION: f64 = 0.30;

/// Extracts numeric `field` from the bench entry whose name is exactly
/// `name` in the flat JSON the harness emits. Dependency-free by
/// design: the match is on the `"name": "<name>"` key so that
/// `interpret` does not collide with `interpret_100k_instructions`.
fn bench_field(json: &str, name: &str, field: &str) -> Option<u64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    field_in(line, field)
}

fn field_in(line: &str, field: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{field}\": ")).nth(1)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn mean_ns(json: &str, name: &str) -> Option<u64> {
    bench_field(json, name, "mean_ns")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_gate <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    }
    let baseline = std::fs::read_to_string(&args[1])
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", args[1]));
    let current = std::fs::read_to_string(&args[2])
        .unwrap_or_else(|e| panic!("cannot read current {}: {e}", args[2]));

    let mut failed = false;
    for name in GATED {
        let base = mean_ns(&baseline, name)
            .unwrap_or_else(|| panic!("baseline has no mean_ns for {name}"));
        let cur = mean_ns(&current, name)
            .unwrap_or_else(|| panic!("current run has no mean_ns for {name}"));
        let ratio = cur as f64 / base as f64;
        let verdict = if ratio > 1.0 + MAX_REGRESSION {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {name}: baseline {base}ns, current {cur}ns ({:+.1}%) {verdict}",
            (ratio - 1.0) * 100.0
        );
    }

    // ISA matrix: deterministic simulated cost, compared exactly.
    for name in ISA_MATRIX {
        let base = bench_field(&baseline, name, "sim_round_trip_ns")
            .unwrap_or_else(|| panic!("baseline has no sim_round_trip_ns for {name}"));
        let cur = bench_field(&current, name, "sim_round_trip_ns")
            .unwrap_or_else(|| panic!("current run has no sim_round_trip_ns for {name}"));
        if base == cur {
            println!("bench_gate: {name}: {cur}ns simulated round trip, exact match");
        } else {
            failed = true;
            println!(
                "bench_gate: {name}: simulated round trip changed \
                 {base}ns -> {cur}ns CHANGED"
            );
        }
    }

    // Tail-latency serving sweep: goodput must not collapse, p99 must
    // not explode. Both directions use the same generous threshold.
    for name in TAIL_LATENCY {
        let base_good = bench_field(&baseline, name, "goodput_rps")
            .unwrap_or_else(|| panic!("baseline has no goodput_rps for {name}"));
        let cur_good = bench_field(&current, name, "goodput_rps")
            .unwrap_or_else(|| panic!("current run has no goodput_rps for {name}"));
        let good_ratio = cur_good as f64 / base_good as f64;
        let good_verdict = if good_ratio < 1.0 - MAX_REGRESSION {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {name}: goodput baseline {base_good}rps, current {cur_good}rps \
             ({:+.1}%) {good_verdict}",
            (good_ratio - 1.0) * 100.0
        );
        let base_p99 = bench_field(&baseline, name, "p99_ns")
            .unwrap_or_else(|| panic!("baseline has no p99_ns for {name}"));
        let cur_p99 = bench_field(&current, name, "p99_ns")
            .unwrap_or_else(|| panic!("current run has no p99_ns for {name}"));
        let p99_ratio = cur_p99 as f64 / base_p99 as f64;
        let p99_verdict = if p99_ratio > 1.0 + MAX_REGRESSION {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {name}: p99 baseline {base_p99}ns, current {cur_p99}ns \
             ({:+.1}%) {p99_verdict}",
            (p99_ratio - 1.0) * 100.0
        );
    }

    if failed {
        eprintln!(
            "bench_gate: FAIL — a gated benchmark regressed more than {:.0}% or an \
             ISA-pair's simulated migration cost drifted (re-measure with \
             scripts/bench.sh and update BENCH_simulator.json only if the change \
             is intended)",
            MAX_REGRESSION * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench_gate: all gated benchmarks within {:.0}%; ISA matrix exact; \
         tail-latency sweep within bounds",
        MAX_REGRESSION * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{bench_field, mean_ns};

    const SAMPLE: &str = r#"{
  "samples": 1,
  "benches": [
    {"name": "interpret_100k_instructions", "mean_ns": 1198760, "best_ns": 1031501},
    {"name": "interpret", "mean_ns": 1127794, "best_ns": 1049135},
    {"name": "migration_throughput_1nxp", "mean_ns": 8400840, "best_ns": 6940299},
    {"name": "fig_isa_matrix_rv64_arm64", "mean_ns": 120000, "best_ns": 110000, "sim_round_trip_ns": 41250},
    {"name": "fig_tail_latency_100k", "mean_ns": 17000000, "best_ns": 16000000, "offered_rps": 100000, "goodput_rps": 65852, "p50_ns": 943156, "p99_ns": 2742964, "p999_ns": 2965975, "admission_rejects": 181}
  ]
}"#;

    #[test]
    fn exact_name_does_not_match_prefixed_bench() {
        assert_eq!(mean_ns(SAMPLE, "interpret"), Some(1127794));
        assert_eq!(mean_ns(SAMPLE, "interpret_100k_instructions"), Some(1198760));
        assert_eq!(mean_ns(SAMPLE, "migration_throughput_1nxp"), Some(8400840));
        assert_eq!(mean_ns(SAMPLE, "missing"), None);
    }

    #[test]
    fn extracts_named_fields() {
        assert_eq!(
            bench_field(SAMPLE, "fig_isa_matrix_rv64_arm64", "sim_round_trip_ns"),
            Some(41250)
        );
        assert_eq!(bench_field(SAMPLE, "interpret", "sim_round_trip_ns"), None);
        assert_eq!(
            bench_field(SAMPLE, "fig_tail_latency_100k", "goodput_rps"),
            Some(65852)
        );
        assert_eq!(
            bench_field(SAMPLE, "fig_tail_latency_100k", "p99_ns"),
            Some(2742964)
        );
        assert_eq!(
            bench_field(SAMPLE, "fig_tail_latency_100k", "admission_rejects"),
            Some(181)
        );
    }
}
