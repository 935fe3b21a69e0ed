//! Wall-clock benchmarks of the simulator itself: how fast the
//! reproduction executes, orthogonal to the simulated times the
//! experiment binaries report.
//!
//! Self-timing harness (`harness = false`): each workload runs a few
//! warm-up iterations, then reports mean wall-clock per iteration over
//! a sample count settable with `--samples N` (default 10). With
//! `--json PATH` the results (per-bench ns/op plus instructions/sec
//! where the bench retires a known instruction count) are also written
//! as JSON — `scripts/bench.sh` uses this to track the perf trajectory
//! in `BENCH_simulator.json` across PRs. Run with `cargo bench`.

use flick::{Machine, Topology};
use flick_cpu::{Core, CoreConfig, MemEnv, StopReason};
use flick_isa::{abi, FuncBuilder, Isa, IsaId, TargetIsa};
use flick_mem::{PhysAddr, PhysMem, VirtAddr};
use flick_paging::{flags, AddressSpace, BumpFrameAlloc};
use flick_sim::{DeviceEvent, DeviceFaultKind, FaultPlan, Picos, TraceConfig};
use flick_toolchain::ProgramBuilder;
use flick_workloads::chase::{run_chase, ChaseConfig, ChaseMode};
use flick_workloads::graph::rmat;
use flick_workloads::serving::{run_serving_scenario, summarize, ServingScenario, ServingSummary};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn quiet() -> Machine {
    Machine::builder()
        .trace(TraceConfig {
            enabled: false,
            capacity: 0,
        })
        .build()
}

/// One bench's timing, plus the simulated instructions it retires per
/// iteration when that is well-defined (for instructions/sec).
struct BenchResult {
    name: &'static str,
    mean: Duration,
    best: Duration,
    samples: u32,
    insts_per_iter: Option<u64>,
    /// Simulated migration calls per simulated second, for benches
    /// that measure the machine's migration throughput at a given
    /// topology (deterministic — a property of the simulation, not of
    /// wall clock).
    sim_calls_per_sec: Option<f64>,
    /// Simulated cost of one migration round trip, for the
    /// `fig_isa_matrix` family (deterministic — the bench gate compares
    /// it exactly, so any ISA-pair timing change fails CI explicitly).
    sim_round_trip_ns: Option<u64>,
    /// Simulated serving summary at one offered load, for the
    /// `fig_tail_latency` family (deterministic — the bench gate
    /// watches goodput and p99 so a queueing or admission regression
    /// fails CI, while `mean_ns` keeps tracking simulator wall cost).
    tail: Option<ServingSummary>,
}

impl BenchResult {
    fn insts_per_sec(&self) -> Option<f64> {
        let insts = self.insts_per_iter? as f64;
        Some(insts / self.mean.as_secs_f64())
    }
}

/// Times `f` over `samples` iterations after `WARMUP` unrecorded ones;
/// returns `(mean, best)`.
fn time_loop(samples: u32, mut f: impl FnMut()) -> (Duration, Duration) {
    const WARMUP: u32 = 2;
    for _ in 0..WARMUP {
        f();
    }
    let mut total = Duration::ZERO;
    let mut best = Duration::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        total += dt;
        best = best.min(dt);
    }
    (total / samples, best)
}

/// Times `f` over `samples` iterations after the warm-up ones.
fn bench(
    name: &'static str,
    samples: u32,
    insts_per_iter: Option<u64>,
    f: impl FnMut(),
) -> BenchResult {
    let (mean, best) = time_loop(samples, f);
    let r = BenchResult {
        name,
        mean,
        best,
        samples,
        insts_per_iter,
        sim_calls_per_sec: None,
        sim_round_trip_ns: None,
        tail: None,
    };
    let n = r.samples;
    match r.insts_per_sec() {
        Some(ips) => println!(
            "{name:<32} mean {mean:>12.3?}  best {best:>12.3?}  ({:.2} M inst/s, n={n})",
            ips / 1e6
        ),
        None => println!("{name:<32} mean {mean:>12.3?}  best {best:>12.3?}  (n={n})"),
    }
    r
}

/// Simulating one migration round trip (machinery cost).
fn bench_migration_round_trip(samples: u32) -> BenchResult {
    bench("simulate_32_round_trips", samples, None, || {
        let mut m = quiet();
        let mut p = ProgramBuilder::new("bench");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        let lp = main.new_label();
        main.li(abi::S1, 32);
        main.bind(lp);
        main.call("nxp_nop");
        main.addi(abi::S1, abi::S1, -1);
        main.bne(abi::S1, abi::ZERO, lp);
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_nop", TargetIsa::Nxp);
        f.ret();
        p.func(f.finish());
        let pid = m.load_program(&mut p).unwrap();
        black_box(m.run(pid).unwrap().sim_time);
    })
}

/// Process count / calls-per-process / spin length of the migration
/// throughput fleet workload.
const TPUT_PROCS: i64 = 8;
const TPUT_CALLS: i64 = 8;
const TPUT_SPIN: i64 = 2_000;

/// One throughput-fleet process: `TPUT_CALLS` NxP spin calls, exiting
/// with `TPUT_CALLS * TPUT_SPIN + tag`.
fn tput_program(tag: i64) -> ProgramBuilder {
    let mut p = ProgramBuilder::new("tput");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    let lp = main.new_label();
    main.li(abi::S1, TPUT_CALLS);
    main.li(abi::S2, 0);
    main.bind(lp);
    main.li(abi::A0, TPUT_SPIN);
    main.call("nxp_spin");
    main.add(abi::S2, abi::S2, abi::A0);
    main.addi(abi::S1, abi::S1, -1);
    main.bne(abi::S1, abi::ZERO, lp);
    main.li(abi::T0, tag);
    main.add(abi::A0, abi::S2, abi::T0);
    main.call("flick_exit");
    p.func(main.finish());
    let mut f = FuncBuilder::new("nxp_spin", TargetIsa::Nxp);
    let sl = f.new_label();
    let done = f.new_label();
    f.li(abi::T0, 0);
    f.bind(sl);
    f.bge(abi::T0, abi::A0, done);
    f.addi(abi::T0, abi::T0, 1);
    f.jmp(sl);
    f.bind(done);
    f.mv(abi::A0, abi::T0);
    f.ret();
    p.func(f.finish());
    p
}

/// Runs the throughput fleet on `hosts` host cores × `nxps` NxPs,
/// under an optional fault plan; returns the simulated finish time.
fn run_tput_fleet_at(hosts: usize, nxps: usize, plan: Option<FaultPlan>) -> Picos {
    let mut b = Machine::builder()
        .trace(TraceConfig {
            enabled: false,
            capacity: 0,
        })
        .topology(Topology::new(hosts, nxps));
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    let mut m = b.build();
    let mut pids = Vec::new();
    for tag in 0..TPUT_PROCS {
        pids.push(m.load_program(&mut tput_program(tag)).unwrap());
    }
    m.run_concurrent(&pids, u64::MAX / 2).unwrap();
    m.host_now()
}

/// The 2-host variant of the throughput fleet.
fn run_tput_fleet(nxps: usize, plan: Option<FaultPlan>) -> Picos {
    run_tput_fleet_at(2, nxps, plan)
}

/// Migration throughput at a topology: 8 processes × 8 NxP calls over
/// `hosts` host cores and a varying NxP count. The wall-clock number
/// tracks simulator cost; the attached `sim_calls_per_sec` is the
/// paper-side result — simulated calls/sec must scale with the NxP
/// count.
fn bench_migration_throughput(
    samples: u32,
    hosts: usize,
    nxps: usize,
    name: &'static str,
) -> BenchResult {
    let sim_elapsed = run_tput_fleet_at(hosts, nxps, None);
    let calls = (TPUT_PROCS * TPUT_CALLS) as f64;
    let sim_cps = calls / (sim_elapsed.as_nanos_f64() * 1e-9);
    let mut r = bench(name, samples, None, || {
        black_box(run_tput_fleet_at(hosts, nxps, None));
    });
    r.sim_calls_per_sec = Some(sim_cps);
    println!("{:<32} {sim_cps:>12.0} simulated calls/sec", "");
    r
}

/// Migration throughput through a failure: the 2×2 fleet workload with
/// NxP 1 crashed (no rejoin) at the fault-free half-way mark. Exercises
/// death detection, channel quiescing, and re-placement on the
/// survivor — the wall-clock cost of the failover path is what the
/// bench gate watches.
fn bench_migration_throughput_degraded(samples: u32) -> BenchResult {
    let horizon = run_tput_fleet(2, None);
    let mid = Picos::from_nanos(horizon.as_nanos() / 2);
    let plan = || {
        FaultPlan::none().with_device_event(DeviceEvent {
            nxp: 1,
            kind: DeviceFaultKind::Crash,
            at: mid,
            rejoin_at: None,
        })
    };
    let sim_elapsed = run_tput_fleet(2, Some(plan()));
    let calls = (TPUT_PROCS * TPUT_CALLS) as f64;
    let sim_cps = calls / (sim_elapsed.as_nanos_f64() * 1e-9);
    let mut r = bench("migration_throughput_degraded", samples, None, || {
        black_box(run_tput_fleet(2, Some(plan())));
    });
    println!("{:<32} {sim_cps:>12.0} simulated calls/sec (one NxP down)", "");
    r.sim_calls_per_sec = Some(sim_cps);
    r
}

/// The `fig_isa_matrix` family: migration round-trip cost for every
/// ordered ISA pair on a 3-ISA fleet (x64 host + rv64 NxP + arm64 NxP).
/// `(bench name, caller placement, callee placement)`.
const ISA_PAIRS: [(&str, TargetIsa, TargetIsa); 6] = [
    ("fig_isa_matrix_x64_rv64", TargetIsa::Host, TargetIsa::Nxp),
    ("fig_isa_matrix_x64_arm64", TargetIsa::Host, TargetIsa::Arm64),
    ("fig_isa_matrix_rv64_x64", TargetIsa::Nxp, TargetIsa::Host),
    ("fig_isa_matrix_rv64_arm64", TargetIsa::Nxp, TargetIsa::Arm64),
    ("fig_isa_matrix_arm64_x64", TargetIsa::Arm64, TargetIsa::Host),
    ("fig_isa_matrix_arm64_rv64", TargetIsa::Arm64, TargetIsa::Nxp),
];

/// A program whose steady state is `calls` round trips from a function
/// placed on `from` to a leaf placed on `to` (the setup legs that get
/// the thread onto `from` in the first place cancel out when two call
/// counts are differenced).
fn isa_pair_program(from: TargetIsa, to: TargetIsa, calls: i64) -> ProgramBuilder {
    let mut p = ProgramBuilder::new("pair");
    if from == TargetIsa::Host {
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        let lp = main.new_label();
        main.li(abi::S1, calls);
        main.bind(lp);
        main.call("leg");
        main.addi(abi::S1, abi::S1, -1);
        main.bne(abi::S1, abi::ZERO, lp);
        main.call("flick_exit");
        p.func(main.finish());
    } else {
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.li(abi::A0, calls);
        main.call("entry");
        main.call("flick_exit");
        p.func(main.finish());
        let mut entry = FuncBuilder::new("entry", from);
        entry.prologue(16, &[abi::S1]);
        entry.mv(abi::S1, abi::A0);
        let lp = entry.new_label();
        let done = entry.new_label();
        entry.bind(lp);
        entry.beq(abi::S1, abi::ZERO, done);
        entry.call("leg");
        entry.addi(abi::S1, abi::S1, -1);
        entry.jmp(lp);
        entry.bind(done);
        entry.epilogue(16, &[abi::S1]);
        p.func(entry.finish());
    }
    let mut leg = FuncBuilder::new("leg", to);
    leg.addi(abi::A0, abi::A0, 1);
    leg.ret();
    p.func(leg.finish());
    p
}

/// Simulated finish time of the pair workload at a call count.
fn isa_pair_sim_time(from: TargetIsa, to: TargetIsa, calls: i64) -> Picos {
    let mut m = Machine::builder()
        .trace(TraceConfig {
            enabled: false,
            capacity: 0,
        })
        .topology(Topology::new(1, 2))
        .nxp_isas(vec![IsaId::Rv64, IsaId::Arm64])
        .build();
    let pid = m.load_program(&mut isa_pair_program(from, to, calls)).unwrap();
    m.run(pid).unwrap();
    m.host_now()
}

/// One ordered ISA pair of the matrix: the simulated per-round-trip
/// cost (two call counts differenced, so process startup and the legs
/// that place the caller cancel), plus the usual wall-clock timing of
/// simulating the workload.
fn bench_isa_pair(samples: u32, name: &'static str, from: TargetIsa, to: TargetIsa) -> BenchResult {
    const LO: i64 = 4;
    const HI: i64 = 36;
    let lo = isa_pair_sim_time(from, to, LO);
    let hi = isa_pair_sim_time(from, to, HI);
    let per_trip =
        (hi.as_nanos_f64() - lo.as_nanos_f64()) / (HI - LO) as f64;
    let mut r = bench(name, samples, None, || {
        black_box(isa_pair_sim_time(from, to, HI));
    });
    r.sim_round_trip_ns = Some(per_trip.round() as u64);
    println!("{:<32} {per_trip:>12.0} ns simulated round trip", "");
    r
}

/// The whole ordered-pair matrix, plus a readable summary grid.
fn bench_isa_matrix(samples: u32) -> Vec<BenchResult> {
    let results: Vec<BenchResult> = ISA_PAIRS
        .iter()
        .map(|&(name, from, to)| bench_isa_pair(samples, name, from, to))
        .collect();
    println!("\nfig_isa_matrix: simulated migration round trip (ns), caller -> callee");
    println!("{:>8} {:>10} {:>10} {:>10}", "", "x64", "rv64", "arm64");
    for from in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
        let cell = |to: TargetIsa| -> String {
            ISA_PAIRS
                .iter()
                .zip(&results)
                .find(|((_, f, t), _)| *f == from && *t == to)
                .and_then(|(_, r)| r.sim_round_trip_ns)
                .map(|ns| ns.to_string())
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>8} {:>10} {:>10} {:>10}",
            from.isa().name(),
            cell(TargetIsa::Host),
            cell(TargetIsa::Nxp),
            cell(TargetIsa::Arm64)
        );
    }
    println!();
    results
}

/// The `fig_tail_latency` family: the datacenter-serving scenario — 32
/// tenant processes, 400 open-loop Poisson requests — at a sweep of
/// offered loads on the default 2-host × 4-NxP heterogeneous fleet
/// (rv64/arm64 alternating). The fleet saturates near 75k completed
/// requests per simulated second, so the sweep brackets the knee: the
/// first two points are below saturation (rejects = 0, flat tail), the
/// last three are past it, where the occupancy admission path rejects
/// at the doorbell and queueing delay dominates p99/p99.9.
/// `(bench name, offered requests per simulated second)`.
const TAIL_LOADS: [(&str, f64); 5] = [
    ("fig_tail_latency_25k", 25_000.0),
    ("fig_tail_latency_50k", 50_000.0),
    ("fig_tail_latency_100k", 100_000.0),
    ("fig_tail_latency_200k", 200_000.0),
    ("fig_tail_latency_400k", 400_000.0),
];

/// The fixed serving scenario the tail-latency sweep varies load over.
fn tail_cfg(offered_rps: f64) -> ServingScenario {
    ServingScenario {
        tenants: 32,
        requests: 400,
        offered_rps,
        ..ServingScenario::default()
    }
}

/// One offered-load point: the deterministic serving summary (goodput,
/// tail quantiles, admission rejects — what the bench gate watches)
/// plus the usual wall-clock timing of simulating the scenario.
fn bench_tail_point(samples: u32, name: &'static str, offered_rps: f64) -> BenchResult {
    let cfg = tail_cfg(offered_rps);
    let report = run_serving_scenario(&cfg).expect("serving scenario");
    let summary = summarize(&cfg, &report);
    let mut r = bench(name, samples, None, || {
        black_box(run_serving_scenario(&cfg).expect("serving scenario").finished_at);
    });
    println!(
        "{:<32} goodput {:>7.0} rps  p50 {:>7} ns  p99 {:>7} ns  p99.9 {:>7} ns  rejects {}",
        "", summary.goodput_rps, summary.p50_ns, summary.p99_ns, summary.p999_ns,
        summary.admission_rejects
    );
    r.tail = Some(summary);
    r
}

/// The whole load sweep, plus a readable saturation table.
fn bench_tail_latency(samples: u32) -> Vec<BenchResult> {
    let results: Vec<BenchResult> = TAIL_LOADS
        .iter()
        .map(|&(name, rps)| bench_tail_point(samples, name, rps))
        .collect();
    println!("\nfig_tail_latency: 32 tenants on 2x4 rv64/arm64, open-loop Poisson");
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "offered", "goodput", "p50_ns", "p99_ns", "p99.9_ns", "rejects"
    );
    for r in &results {
        let t = r.tail.as_ref().unwrap();
        println!(
            "{:>12.0} {:>12.0} {:>10} {:>10} {:>10} {:>8}",
            t.offered_rps, t.goodput_rps, t.p50_ns, t.p99_ns, t.p999_ns, t.admission_rejects
        );
    }
    println!();
    results
}

/// Number of loop iterations in the interpreter benches (4 instructions
/// per iteration).
const INTERP_ITERS: i64 = 25_000;

/// Full-machine interpreter throughput (host core, tight ALU loop,
/// including kernel load/exit overhead).
fn bench_interpreter(samples: u32) -> BenchResult {
    bench(
        "interpret_100k_instructions",
        samples,
        Some(4 * INTERP_ITERS as u64),
        || {
            let mut m = quiet();
            let mut p = ProgramBuilder::new("bench");
            let mut main = FuncBuilder::new("main", TargetIsa::Host);
            let lp = main.new_label();
            main.li(abi::S1, INTERP_ITERS);
            main.bind(lp);
            main.addi(abi::A0, abi::A0, 1);
            main.addi(abi::A1, abi::A1, 2);
            main.addi(abi::S1, abi::S1, -1);
            main.bne(abi::S1, abi::ZERO, lp);
            main.call("flick_exit");
            p.func(main.finish());
            let pid = m.load_program(&mut p).unwrap();
            black_box(m.run(pid).unwrap().exit_code);
        },
    )
}

/// Pure step-loop throughput: a bare `Core` against identity-mapped
/// memory, no machine, kernel, or scheduler in the loop. This is the
/// ceiling the decoded-instruction fast path is chasing.
fn bench_pure_interpret(samples: u32) -> BenchResult {
    // Identity-map the low 16 MiB and plant the loop at 0x40_0000, like
    // the cpu crate's own fixtures.
    let mut mem = PhysMem::new();
    let mut alloc = BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x200_0000));
    let mut aspace = AddressSpace::new(&mut mem, &mut alloc);
    aspace
        .map_range(
            &mut mem,
            &mut alloc,
            VirtAddr(0),
            PhysAddr(0),
            16 << 20,
            flags::PRESENT | flags::WRITABLE | flags::USER,
        )
        .unwrap();
    let cr3 = aspace.cr3();
    let mut f = FuncBuilder::new("loop", TargetIsa::Host);
    let lp = f.new_label();
    f.li(abi::S1, INTERP_ITERS);
    f.bind(lp);
    f.addi(abi::A0, abi::A0, 1);
    f.addi(abi::A1, abi::A1, 2);
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::ZERO, lp);
    f.halt();
    let enc = Isa::X64.encode(&f.finish()).unwrap();
    mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
    let env = MemEnv::paper_default();

    // Count retired instructions once so instructions/sec is exact.
    let mut probe = Core::new(CoreConfig::host());
    probe.set_cr3(cr3);
    probe.set_pc(VirtAddr(0x40_0000));
    assert_eq!(probe.run(&mut mem, &env, u64::MAX), StopReason::Halt);
    let insts = probe.counters().instructions;

    bench("interpret", samples, Some(insts), move || {
        let mut core = Core::new(CoreConfig::host());
        core.set_cr3(cr3);
        core.set_pc(VirtAddr(0x40_0000));
        black_box(core.run(&mut mem, &env, u64::MAX));
    })
}

/// Chaining best case: a tight loop dominated by taken back-edges —
/// the body is just a cross-register add plus the decrement, so nearly
/// every retired instruction sits on a block boundary. Without block
/// chaining every iteration re-enters top-level dispatch; with it the
/// whole run is one chain/spin entry. The cross-register `add` is
/// deliberate: it keeps the loop out of the affine closed form
/// (DESIGN.md §8), so this bench exercises the *iterating* spin tier
/// — the machinery the `bench_gate` regression gate watches for
/// "chaining fell off".
fn bench_interpret_hotloop(samples: u32) -> BenchResult {
    let mut mem = PhysMem::new();
    let mut alloc = BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x200_0000));
    let mut aspace = AddressSpace::new(&mut mem, &mut alloc);
    aspace
        .map_range(
            &mut mem,
            &mut alloc,
            VirtAddr(0),
            PhysAddr(0),
            16 << 20,
            flags::PRESENT | flags::WRITABLE | flags::USER,
        )
        .unwrap();
    let cr3 = aspace.cr3();
    let mut f = FuncBuilder::new("hotloop", TargetIsa::Host);
    let lp = f.new_label();
    f.li(abi::S1, 4 * INTERP_ITERS);
    f.bind(lp);
    f.add(abi::A0, abi::A0, abi::A1);
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::ZERO, lp);
    f.halt();
    let enc = Isa::X64.encode(&f.finish()).unwrap();
    mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);
    let env = MemEnv::paper_default();

    let mut probe = Core::new(CoreConfig::host());
    probe.set_cr3(cr3);
    probe.set_pc(VirtAddr(0x40_0000));
    assert_eq!(probe.run(&mut mem, &env, u64::MAX), StopReason::Halt);
    let insts = probe.counters().instructions;

    bench("interpret_hotloop", samples, Some(insts), move || {
        let mut core = Core::new(CoreConfig::host());
        core.set_cr3(cr3);
        core.set_pc(VirtAddr(0x40_0000));
        black_box(core.run(&mut mem, &env, u64::MAX));
    })
}

/// Pointer-chase workload end to end (Fig. 5 inner loop).
fn bench_pointer_chase(samples: u32) -> BenchResult {
    bench("chase_256_nodes_8_calls", samples, None, || {
        let cfg = ChaseConfig {
            calls: 8,
            ..ChaseConfig::frequent(256, ChaseMode::Flick)
        };
        black_box(run_chase(&cfg).unwrap().per_call);
    })
}

/// Graph generation throughput (Table IV staging).
fn bench_graph_generation(samples: u32) -> BenchResult {
    bench("rmat_64k_edges", samples, None, || {
        black_box(rmat(8_192, 65_536, 42).e());
    })
}

/// Renders results as JSON (no serializer dependency; the shape is flat
/// enough to format by hand).
fn to_json(samples: u32, results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let mut extra = match (r.insts_per_iter, r.insts_per_sec()) {
            (Some(n), Some(ips)) => format!(
                ", \"instructions_per_iter\": {n}, \"instructions_per_sec\": {ips:.0}"
            ),
            _ => String::new(),
        };
        if let Some(cps) = r.sim_calls_per_sec {
            extra.push_str(&format!(", \"sim_calls_per_sec\": {cps:.0}"));
        }
        if let Some(ns) = r.sim_round_trip_ns {
            extra.push_str(&format!(", \"sim_round_trip_ns\": {ns}"));
        }
        if let Some(t) = &r.tail {
            extra.push_str(&format!(
                ", \"offered_rps\": {:.0}, \"goodput_rps\": {:.0}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"p999_ns\": {}, \"admission_rejects\": {}",
                t.offered_rps, t.goodput_rps, t.p50_ns, t.p99_ns, t.p999_ns,
                t.admission_rejects
            ));
        }
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {}, \"best_ns\": {}{}}}{}\n",
            r.name,
            r.mean.as_nanos(),
            r.best.as_nanos(),
            extra,
            sep
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut samples: u32 = 10;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--samples needs a positive integer");
            }
            "--json" => {
                json_path = Some(args.next().expect("--json needs a path"));
            }
            // `cargo bench` passes --bench through to the harness.
            "--bench" => {}
            other => panic!("unknown argument: {other}"),
        }
    }
    let mut results = vec![
        bench_migration_round_trip(samples),
        bench_interpreter(samples),
        bench_pure_interpret(samples),
        bench_interpret_hotloop(samples),
        bench_pointer_chase(samples),
        bench_graph_generation(samples),
        bench_migration_throughput(samples, 2, 1, "migration_throughput_1nxp"),
        bench_migration_throughput(samples, 2, 2, "migration_throughput_2nxp"),
        bench_migration_throughput(samples, 2, 4, "migration_throughput_4nxp"),
        bench_migration_throughput(samples, 2, 8, "migration_throughput_8nxp"),
        bench_migration_throughput(samples, 4, 16, "migration_throughput_16nxp"),
        bench_migration_throughput_degraded(samples),
    ];
    results.extend(bench_isa_matrix(samples));
    results.extend(bench_tail_latency(samples));
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(samples, &results)).expect("write json");
        println!("wrote {path}");
    }
}
