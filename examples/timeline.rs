//! Migration observability end to end: run a fleet on an N×M machine
//! with span recording on, print the latency breakdown (where does the
//! ~1.8 µs of a cross-ISA call go?), and export the whole run as a
//! Perfetto/Chrome trace you can open in <https://ui.perfetto.dev> —
//! one track per simulated core, one async slice per migration, so a
//! 2×2 run visibly shows migrations in flight *concurrently*.
//!
//! Run with: `cargo run --release --example timeline -- 2 2`
//! (arguments are `<host_cores> <nxp_cores> [out.json]`, default 2 2
//! flick-timeline.json, core counts at least 1; add `--isas rv64,arm64` for a heterogeneous
//! accelerator fleet — each Perfetto track is then named with its
//! core's ISA, e.g. `nxp1 (arm64)`), then load the JSON in
//! ui.perfetto.dev or `chrome://tracing`.

use flick::{chrome_trace_named, validate_json, Machine, SpanStage, Topology};
use flick_isa::{abi, FuncBuilder, IsaId, TargetIsa};
use flick_toolchain::ProgramBuilder;

/// A process that ships `calls` chunks of accelerator work, cycling
/// over the fleet's distinct ISAs, tagged per process.
fn worker(isas: &[IsaId], calls: i64, spin: i64, tag: i64) -> ProgramBuilder {
    let mut p = ProgramBuilder::new("worker");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    let lp = main.new_label();
    main.li(abi::S1, calls);
    main.li(abi::S2, 0);
    main.bind(lp);
    for isa in isas {
        main.li(abi::A0, spin);
        main.call(&format!("work_{}", isa.name()));
        main.add(abi::S2, abi::S2, abi::A0);
    }
    main.addi(abi::S1, abi::S1, -1);
    main.bne(abi::S1, abi::ZERO, lp);
    main.li(abi::T0, tag);
    main.add(abi::A0, abi::S2, abi::T0);
    main.call("flick_exit");
    p.func(main.finish());
    for isa in isas {
        let target = if *isa == IsaId::Arm64 { TargetIsa::Arm64 } else { TargetIsa::Nxp };
        let mut f = FuncBuilder::new(format!("work_{}", isa.name()), target);
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
    }
    p
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut isas = vec![IsaId::Rv64];
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "--isas" {
            let v = raw.next().ok_or("--isas needs a comma-separated list")?;
            isas = v
                .split(',')
                .map(|name| {
                    IsaId::from_name(name)
                        .filter(|i| i.descriptor().nx_text)
                        .ok_or_else(|| format!("unknown accelerator ISA: {name}"))
                })
                .collect::<Result<_, _>>()?;
        } else {
            positional.push(a);
        }
    }
    let mut args = positional.into_iter();
    let hosts: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(2);
    let nxps: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(2);
    let out_path = args.next().unwrap_or_else(|| "flick-timeline.json".into());
    if hosts == 0 || nxps == 0 {
        return Err(format!("need at least one host core and one NxP, got {hosts}x{nxps}").into());
    }
    let topo = Topology::new(hosts, nxps);
    let slots: Vec<IsaId> = (0..nxps).map(|i| isas[i % isas.len()]).collect();
    let mut fleet_isas: Vec<IsaId> = Vec::new();
    for isa in &slots {
        if !fleet_isas.contains(isa) {
            fleet_isas.push(*isa);
        }
    }

    let mut m = Machine::builder()
        .topology(topo)
        .nxp_isas(slots)
        .observability(true)
        .build();
    let (procs, calls, spin) = (4, 6, 3_000);
    let mut pids = Vec::new();
    for tag in 0..procs {
        pids.push(m.load_program(&mut worker(&fleet_isas, calls, spin, tag * 100_000))?);
    }
    m.run_concurrent(&pids, u64::MAX / 2)?;

    println!("topology {topo}: {procs} processes x {calls} NxP calls each\n");

    // Per-segment latency breakdown across every completed migration.
    println!("migration latency breakdown (all times in ns):");
    let stages = [
        SpanStage::NxFault,
        SpanStage::DescPack,
        SpanStage::DmaSubmit,
        SpanStage::NxpDispatch,
        SpanStage::NxpSubmit,
        SpanStage::MsiDelivery,
        SpanStage::Woken,
    ];
    for w in stages.windows(2) {
        let key = format!("seg:{}->{}", w[0].label(), w[1].label());
        if let Some(h) = m.observability_stats().hist(&key) {
            println!(
                "  {:<24} n={:<4} p50={:>9.1} p90={:>9.1} p99={:>9.1} max={:>9.1}",
                key,
                h.count(),
                h.p50() as f64 / 1e3,
                h.p90() as f64 / 1e3,
                h.p99() as f64 / 1e3,
                h.max() as f64 / 1e3,
            );
        }
    }
    if let Some(h) = m.observability_stats().hist("span:total") {
        println!(
            "  {:<24} n={:<4} p50={:>9.1} p90={:>9.1} p99={:>9.1} max={:>9.1}",
            "span:total",
            h.count(),
            h.p50() as f64 / 1e3,
            h.p90() as f64 / 1e3,
            h.p99() as f64 / 1e3,
            h.max() as f64 / 1e3,
        );
    }

    println!("\ndescriptor-channel queue depth (bursts in ring at kick):");
    for (name, h) in m.observability_stats().hists() {
        if name.starts_with("qdepth:") {
            println!("  {:<24} n={:<4} p50={} max={}", name, h.count(), h.p50(), h.max());
        }
    }

    // How concurrent was the run? Count span pairs in flight together.
    let spans = m.spans();
    let mut overlapping = 0usize;
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if a.pid != b.pid && a.overlaps(b) {
                overlapping += 1;
            }
        }
    }
    println!(
        "\n{} migrations completed, {overlapping} cross-process pairs overlapped in flight",
        spans.len()
    );

    // Export and sanity-check the Perfetto/Chrome trace. Track names
    // carry each core's ISA (from its descriptor) so heterogeneous
    // timelines stay readable.
    let json = chrome_trace_named(m.trace(), spans, m.track_namer());
    validate_json(&json).map_err(|at| format!("export is not valid JSON (byte {at})"))?;
    std::fs::write(&out_path, &json)?;
    println!(
        "\nwrote {} ({} bytes) — open it in https://ui.perfetto.dev or chrome://tracing",
        out_path,
        json.len()
    );
    Ok(())
}
