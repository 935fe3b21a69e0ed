//! Topology-generic machine: N host cores × M NxP cores, with an
//! optional heterogeneous accelerator fleet.
//!
//! The paper's NxPs are many-core devices, so migration *throughput*
//! under concurrency is the number that matters at scale. This example
//! builds a machine at the topology you ask for, runs a small fleet of
//! NxP-heavy processes concurrently, and prints where the work landed
//! (per-core instruction counts, each labelled with its ISA) plus the
//! simulated finish time — wider topologies finish the same fleet
//! sooner.
//!
//! Run with: `cargo run --release --example topology -- 2 2`
//! (arguments are `<host_cores> <nxp_cores>`, default 2 2, each at
//! least 1; add `--isas rv64,arm64` to assign accelerator ISAs per NxP
//! slot, cycling when the list is shorter
//! than the slot count — workers then ship work to every ISA in the
//! fleet and ISA-aware placement routes each call to a matching core)

use flick::{Machine, Topology};
use flick_isa::{abi, FuncBuilder, IsaId, TargetIsa};
use flick_toolchain::ProgramBuilder;

/// Builder target placing a function on an accelerator ISA.
fn accel_target(isa: IsaId) -> TargetIsa {
    match isa {
        IsaId::Arm64 => TargetIsa::Arm64,
        _ => TargetIsa::Nxp,
    }
}

/// A process that ships `rounds` rounds of work — one call per distinct
/// accelerator ISA in the fleet per round — and exits with a
/// tag-derived code so results are distinguishable.
fn worker(isas: &[IsaId], rounds: i64, spin: i64, tag: i64) -> ProgramBuilder {
    let mut p = ProgramBuilder::new("worker");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    let lp = main.new_label();
    main.li(abi::S1, rounds);
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
        let mut f = FuncBuilder::new(format!("work_{}", isa.name()), accel_target(*isa));
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

/// Positional arguments and accelerator ISA list.
type Args = (Vec<String>, Vec<IsaId>);

/// Parses `--isas a,b,...` out of the argument list, returning the
/// remaining positional arguments and the accelerator ISA list.
fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut positional = Vec::new();
    let mut isas = vec![IsaId::Rv64];
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--isas" {
            let v = args.next().ok_or("--isas needs a comma-separated list")?;
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
    Ok((positional, isas))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (positional, isas) = parse_args()?;
    let mut args = positional.into_iter();
    let hosts: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(2);
    let nxps: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(2);
    if hosts == 0 || nxps == 0 {
        return Err(format!("need at least one host core and one NxP, got {hosts}x{nxps}").into());
    }
    let topo = Topology::new(hosts, nxps);
    // Assign the requested ISAs across the NxP slots, cycling.
    let slots: Vec<IsaId> = (0..nxps).map(|i| isas[i % isas.len()]).collect();
    // Each worker round calls each *distinct* ISA once, in slot order.
    let mut fleet_isas: Vec<IsaId> = Vec::new();
    for isa in &slots {
        if !fleet_isas.contains(isa) {
            fleet_isas.push(*isa);
        }
    }

    let mut m = Machine::builder()
        .topology(topo)
        .nxp_isas(slots.clone())
        .build();
    let (procs, rounds, spin) = (4, 6, 3_000);
    let mut pids = Vec::new();
    for tag in 0..procs {
        pids.push(m.load_program(&mut worker(&fleet_isas, rounds, spin, tag * 100_000))?);
    }
    let outcomes = m.run_concurrent(&pids, u64::MAX / 2)?;

    let fleet: Vec<&str> = slots.iter().map(|i| i.name()).collect();
    println!(
        "topology {topo} [{}]: {procs} processes x {rounds} rounds x {} call(s)\n",
        fleet.join(","),
        fleet_isas.len()
    );
    for (pid, outcome) in &outcomes {
        println!(
            "  pid {pid}: exit {:>6}  done at {}",
            outcome.exit_code,
            outcome.sim_time
        );
    }
    println!("\nwhere the instructions ran:");
    for (core, stats) in m.per_core_stats() {
        let insts = stats.get("instructions");
        if insts > 0 {
            let label = m.core_label(core);
            println!("  {label:<14} {insts:>9} instructions");
        }
    }
    let ch = m.chain_stats();
    println!(
        "\nblock-lane chaining (host-side): {} hits, {} patches, {} breaks, {} fallback steps",
        ch.chain_hits, ch.chain_patches, ch.chain_breaks, ch.block_fallback_steps
    );
    println!("\nall {procs} processes done at {}", m.host_now());
    println!("(re-run with different core counts to watch the finish time move)");
    Ok(())
}
