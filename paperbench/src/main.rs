//! `paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats set-up, run and output check of one workload until
//! `--seconds` have passed, then prints the metrics as the last line of
//! standard output, one JSON object. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced repetitions,
//! reports the per-layer metrics and writes the host spans to
//! `paperbench/out/`. Exits non-zero when any output check fails.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use flick_sim::{Histogram, Stats};
use paperbench::trace::Tracer;
use paperbench::yardstick::{self, OPS_PER_REF_SECOND};
use paperbench::{run_rep, Rep, Sizes, Workload, SLO_LIMIT_PS};

/// Fewest repetitions a run measures, whatever `--seconds` says: the
/// reported host times are medians over repetitions.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            eprintln!("usage: paperbench --workload <kv_scan|bfs_rmat|serve_50k|serve_overload> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("paperbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain = Vec::new();
    // Yardstick speed right after each untraced repetition.
    let mut yard = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    while plain.len() < MIN_REPS || start.elapsed() < budget {
        let rep = run_rep(w, &Sizes::BENCH, args.seed, &mut untraced).map_err(|e| e.to_string())?;
        plain.push(rep);
        yard.push(yardstick::ops_per_second());
        if args.trace {
            tracer.set_run(traced.len() as u32);
            let rep =
                run_rep(w, &Sizes::BENCH, args.seed, &mut tracer).map_err(|e| e.to_string())?;
            traced.push(rep);
        }
    }

    // Every repetition ran the same inputs, traced or not: its simulated
    // record and chaining tallies must repeat bit for bit.
    let first = &plain[0];
    let mut errors: Vec<String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|r| r.errors.clone())
        .collect();
    let mut diverged = 0;
    for (i, r) in plain.iter().chain(&traced).enumerate() {
        if r.sim != first.sim || r.chain != first.chain {
            diverged += 1;
            errors.push(format!("repetition {i} diverged from the first"));
        }
    }
    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 =
        plain.iter().chain(&traced).map(|r| r.failed).sum::<u64>() + diverged * first.attempted;
    let failed = failed.min(attempted);
    let correct = errors.is_empty() && failed == 0;
    for e in &errors {
        eprintln!("paperbench: check failed: {e}");
    }

    let metrics = if args.trace {
        let m = per_layer(&plain, &yard, &traced, &tracer, attempted, failed);
        let dir = std::path::Path::new("paperbench/out");
        let path = dir.join(format!("{}-seed{}.spans.json", w.name(), args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# host spans: {}", path.display());
        m
    } else {
        end_to_end(w, &plain, &yard)?
    };
    println!(
        "# workload {} seed {} repetitions {}{} | {}",
        w.name(),
        args.seed,
        plain.len(),
        if args.trace {
            " (+ as many traced)"
        } else {
            ""
        },
        recorder()
    );
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

type Metric = (&'static str, f64, &'static str);

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile, as `ServingReport::latency_quantile`.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Host seconds of each repetition's run phase, and the same in
/// reference seconds (see [`yardstick`]).
fn run_seconds(reps: &[Rep], yard: &[f64]) -> (Vec<f64>, Vec<f64>) {
    reps.iter()
        .zip(yard)
        .map(|(r, y)| (r.run_s, r.run_s * y / OPS_PER_REF_SECOND))
        .unzip()
}

fn end_to_end(w: Workload, reps: &[Rep], yard: &[f64]) -> Result<Vec<Metric>, String> {
    let sim = &reps[0].sim;
    let mut lat = sim.latencies_ps.clone();
    lat.sort_unstable();
    let ops = lat.len() as f64;
    // Completed operations per simulated second: serving requests over
    // the span up to the last completion, or closed-loop operations back
    // to back.
    let window_ps = if w.is_serving() {
        sim.run_ps as f64
    } else {
        lat.iter().sum::<u64>() as f64
    };
    let p99 = quantile(&lat, 0.99);
    let beyond_p99 = lat.iter().filter(|&&l| l > p99).count();
    println!(
        "# sim_p99_us from {} samples, {beyond_p99} beyond it (simulated time)",
        lat.len()
    );
    let insts = sim.instructions() as f64;
    let sim_us = sim.sim_time_ps as f64 * 1e-6;
    let (host_s, ref_s) = run_seconds(reps, yard);
    println!(
        "# host time: {:.0} inst/s, {:.0} sim_us/s; yardstick {:.0} op/s",
        median(host_s.iter().map(|s| insts / s).collect()),
        median(host_s.iter().map(|s| sim_us / s).collect()),
        median(yard.to_vec())
    );
    Ok(vec![
        (
            "sim_inst_per_ref_s",
            median(ref_s.iter().map(|s| insts / s).collect()),
            "inst/ref_s",
        ),
        (
            "sim_us_per_ref_s",
            median(ref_s.iter().map(|s| sim_us / s).collect()),
            "sim_us/ref_s",
        ),
        (
            "setup_s",
            median(reps.iter().map(|r| r.setup_s).collect()),
            "s",
        ),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ("sim_run_ms", sim.run_ps as f64 * 1e-9, "sim_ms"),
        ("sim_p50_us", quantile(&lat, 0.50) as f64 * 1e-6, "sim_us"),
        ("sim_p99_us", p99 as f64 * 1e-6, "sim_us"),
        ("sim_goodput_rps", ops / (window_ps * 1e-12), "op/sim_s"),
    ])
}

/// Share of operations slower than the latency limit, with operations
/// that never completed counted as misses (simulated time).
fn slo_miss_frac(rep: &Rep) -> f64 {
    let lat = &rep.sim.latencies_ps;
    let slow = lat.iter().filter(|&&l| l > SLO_LIMIT_PS).count();
    let ops = lat.len().max(rep.attempted as usize);
    (slow + ops - lat.len()) as f64 / ops as f64
}

/// Simulated-stage quantile in microseconds; zero when the workload
/// never recorded the stage.
fn hist_us(h: Option<&Histogram>, q: f64) -> f64 {
    h.map_or(0.0, |h| h.quantile(q) as f64 * 1e-6)
}

/// Merges the per-NxP histograms whose names start with `prefix`.
fn merged(obs: &Stats, prefix: &str) -> Histogram {
    let mut h = Histogram::default();
    for (_, part) in obs.hists().filter(|(k, _)| k.starts_with(prefix)) {
        h.merge(part);
    }
    h
}

fn per_layer(
    plain: &[Rep],
    yard: &[f64],
    traced: &[Rep],
    tracer: &Tracer,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let sim = &traced[0].sim;
    let chain = traced[0].chain;
    let obs = &traced[0].obs;
    let layer = |name: &str| {
        median(
            (0..traced.len() as u32)
                .map(|run| tracer.total_secs(run, name))
                .collect(),
        )
    };
    let run_s = layer("core.run");
    let untraced_run_s = median(plain.iter().map(|r| r.run_s).collect());
    let ops = sim.latencies_ps.len().max(1) as f64;
    let c = |k: &str| sim.get(k) as f64;
    let loads = c("loads") + c("nxp_loads");
    let transfers = (chain.chain_hits + chain.chain_breaks).max(1) as f64;
    let mut out: Vec<Metric> = vec![
        ("workloads.datagen_s", layer("workloads.datagen"), "s"),
        ("toolchain.build_s", layer("toolchain.build"), "s"),
        ("core.load_s", layer("core.load"), "s"),
        ("core.stage_s", layer("core.stage"), "s"),
        ("core.machine_build_s", layer("core.machine_build"), "s"),
        ("core.run_s", run_s, "s"),
        (
            "core.host_ns_per_inst",
            run_s * 1e9 / sim.instructions().max(1) as f64,
            "ns/inst",
        ),
        (
            "core.host_ns_per_migration",
            run_s * 1e9 / sim.crossings().max(1) as f64,
            "ns/crossing",
        ),
        ("core.host_us_per_request", run_s * 1e6 / ops, "us/op"),
        ("cpu.host_insts", c("instructions"), "count"),
        ("cpu.nxp_insts", c("nxp_instructions"), "count"),
        ("cpu.chain_hits", chain.chain_hits as f64, "count"),
        ("cpu.chain_patches", chain.chain_patches as f64, "count"),
        ("cpu.chain_breaks", chain.chain_breaks as f64, "count"),
        (
            "cpu.block_fallback_steps",
            chain.block_fallback_steps as f64,
            "count",
        ),
        (
            "cpu.chain_hit_ratio",
            chain.chain_hits as f64 / transfers,
            "ratio",
        ),
        ("cpu.itlb_misses", c("itlb_misses"), "count"),
        ("cpu.dtlb_misses", c("dtlb_misses"), "count"),
        ("cpu.icache_misses", c("icache_misses"), "count"),
        ("cpu.nxp_itlb_misses", c("nxp_itlb_misses"), "count"),
        ("cpu.nxp_dtlb_misses", c("nxp_dtlb_misses"), "count"),
        ("cpu.nxp_icache_misses", c("nxp_icache_misses"), "count"),
        ("mem.loads", loads, "count"),
        ("mem.stores", c("stores") + c("nxp_stores"), "count"),
        (
            "mem.dcache_miss_ratio",
            (c("dcache_misses") + c("nxp_dcache_misses")) / loads.max(1.0),
            "ratio",
        ),
        ("paging.walks", c("walks"), "count"),
        ("paging.nxp_walks", c("nxp_walks"), "count"),
        (
            "core.migrations_host_to_nxp",
            c("migrations_host_to_nxp"),
            "count",
        ),
        (
            "core.returns_nxp_to_host",
            c("returns_nxp_to_host"),
            "count",
        ),
        (
            "core.migrations_nxp_to_host",
            c("migrations_nxp_to_host"),
            "count",
        ),
        (
            "core.returns_host_to_nxp",
            c("returns_host_to_nxp"),
            "count",
        ),
        ("os.nx_faults", c("nx_faults"), "count"),
        ("pcie.retransmits", c("retransmits"), "count"),
        ("pcie.crc_rejects", c("crc_rejects"), "count"),
        ("core.admission_rejects", c("admission_rejects"), "count"),
        ("core.degraded_calls", c("degraded_calls"), "count"),
        ("os.spurious_wakeups", c("spurious_wakeups"), "count"),
    ];
    for (name, key) in SEGMENTS {
        let h = obs.hist(key);
        out.push((name[0], hist_us(h, 0.50), "sim_us"));
        out.push((name[1], hist_us(h, 0.99), "sim_us"));
    }
    out.extend([
        (
            "core.qdepth_h2n_p99",
            merged(obs, "qdepth:h2n:").quantile(0.99) as f64,
            "count",
        ),
        (
            "core.qdepth_n2h_p99",
            merged(obs, "qdepth:n2h:").quantile(0.99) as f64,
            "count",
        ),
        (
            "bench.trace_overhead",
            run_s / untraced_run_s - 1.0,
            "ratio",
        ),
        (
            "bench.failed_frac",
            failed as f64 / attempted as f64,
            "ratio",
        ),
        ("serve.slo_miss_frac", slo_miss_frac(&traced[0]), "ratio"),
        ("bench.yardstick_ops_per_s", median(yard.to_vec()), "op/s"),
    ]);
    out
}

/// Simulated migration stages: metric names (p50, p99) and the
/// observability histogram they read.
const SEGMENTS: [([&str; 2], &str); 7] = [
    (
        [
            "core.seg.nx_fault_to_desc_pack_p50_us",
            "core.seg.nx_fault_to_desc_pack_p99_us",
        ],
        "seg:nx-fault->desc-pack",
    ),
    (
        [
            "core.seg.desc_pack_to_dma_submit_p50_us",
            "core.seg.desc_pack_to_dma_submit_p99_us",
        ],
        "seg:desc-pack->dma-submit",
    ),
    (
        [
            "core.seg.dma_submit_to_nxp_dispatch_p50_us",
            "core.seg.dma_submit_to_nxp_dispatch_p99_us",
        ],
        "seg:dma-submit->nxp-dispatch",
    ),
    (
        [
            "core.seg.nxp_dispatch_to_nxp_submit_p50_us",
            "core.seg.nxp_dispatch_to_nxp_submit_p99_us",
        ],
        "seg:nxp-dispatch->nxp-submit",
    ),
    (
        [
            "core.seg.nxp_submit_to_msi_p50_us",
            "core.seg.nxp_submit_to_msi_p99_us",
        ],
        "seg:nxp-submit->msi",
    ),
    (
        [
            "core.seg.msi_to_woken_p50_us",
            "core.seg.msi_to_woken_p99_us",
        ],
        "seg:msi->woken",
    ),
    (
        ["core.span_total_p50_us", "core.span_total_p99_us"],
        "span:total",
    ),
];

/// Peak resident memory of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Host the numbers come from: core count and CPU model.
fn recorder() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("recorder nproc={nproc} cpu=\"{cpu}\"")
}
