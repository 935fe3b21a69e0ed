//! Pre-refactor golden digests for the ISA-descriptor refactor.
//!
//! The descriptor refactor (third ISA, N-way fleets) must not move a
//! single observable bit of the existing two-ISA machine: exit codes,
//! simulated clocks, stats, the full event trace with core tags,
//! per-core stats and observability spans. These digests were captured
//! on the pre-refactor tree over 1×1 and 2×2 x64/rv64 fleets — clean
//! plus eight chaos+device-chaos seeds.
//!
//! To re-capture after an *intentional* timing change, run with
//! `FLICK_GOLDEN_PRINT=1` and paste the printed table:
//! `FLICK_GOLDEN_PRINT=1 cargo test --test isa_goldens -- --nocapture`

use flick::{Machine, Outcome, Topology};
use flick_isa::{abi, FuncBuilder, TargetIsa};
use flick_sim::{FaultPlan, TraceConfig};
use flick_toolchain::ProgramBuilder;
use std::fmt::Write as _;

/// Same worker program as tests/determinism.rs: `calls` chunks of spin
/// work shipped to the NxP, exiting with `calls * spin + tag`.
fn worker(calls: i64, spin: i64, tag: i64) -> ProgramBuilder {
    let mut p = ProgramBuilder::new("worker");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    let lp = main.new_label();
    main.li(abi::S1, calls);
    main.li(abi::S2, 0);
    main.bind(lp);
    main.li(abi::A0, spin);
    main.call("nxp_work");
    main.add(abi::S2, abi::S2, abi::A0);
    main.addi(abi::S1, abi::S1, -1);
    main.bne(abi::S1, abi::ZERO, lp);
    main.li(abi::T0, tag);
    main.add(abi::A0, abi::S2, abi::T0);
    main.call("flick_exit");
    p.func(main.finish());
    let mut f = FuncBuilder::new("nxp_work", TargetIsa::Nxp);
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

/// Serializes every observable surface into one string (the
/// determinism-test fingerprint).
fn fingerprint(m: &Machine, done: &[(u64, Outcome)]) -> String {
    let mut s = String::new();
    for (pid, o) in done {
        let _ = writeln!(
            s,
            "pid {pid} exit {} at {:?} stats {:?}",
            o.exit_code, o.sim_time, o.stats
        );
    }
    let _ = writeln!(s, "host_now {:?}", m.host_now());
    let _ = writeln!(s, "machine_stats {:?}", m.stats());
    let _ = writeln!(s, "fault_counts {:?}", m.fault_counts());
    for (core, st) in m.per_core_stats() {
        let _ = writeln!(s, "core {core} {st:?}");
    }
    let _ = writeln!(s, "trace_len {} dropped {}", m.trace().len(), m.trace().dropped());
    for ((t, e), tag) in m.trace().events().iter().zip(m.trace().core_tags()) {
        let _ = writeln!(s, "{t:?} {tag:?} {e:?}");
    }
    for sp in m.spans() {
        let _ = writeln!(s, "span {sp:?}");
    }
    s
}

/// FNV-1a 64 over the fingerprint text.
fn digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_fleet(topo: Topology, procs: i64, plan: Option<FaultPlan>) -> String {
    let mut b = Machine::builder()
        .topology(topo)
        .observability(true)
        .trace(TraceConfig {
            enabled: true,
            capacity: 1 << 20,
        });
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    let mut m = b.build();
    let mut pids = Vec::new();
    for tag in 0..procs {
        pids.push(m.load_program(&mut worker(6, 2_000, tag * 100_000)).unwrap());
    }
    let done = m.run_concurrent(&pids, u64::MAX / 2).unwrap();
    fingerprint(&m, &done)
}

/// Fault-free finish time, used to bound the device-chaos horizon.
fn horizon(topo: Topology, procs: i64) -> flick_sim::Picos {
    let mut m = Machine::builder().topology(topo).build();
    let mut pids = Vec::new();
    for tag in 0..procs {
        pids.push(m.load_program(&mut worker(6, 2_000, tag * 100_000)).unwrap());
    }
    m.run_concurrent(&pids, u64::MAX / 2).unwrap();
    m.host_now()
}

/// One golden digest per (topology, plan); seed 0 = clean run.
fn golden_digest(hosts: usize, nxps: usize, procs: i64, seed: u64) -> u64 {
    let topo = Topology::new(hosts, nxps);
    let plan = if seed == 0 {
        None
    } else {
        let h = horizon(topo, procs);
        Some(FaultPlan::chaos(seed).with_device_events(FaultPlan::device_chaos(seed, 3, h)))
    };
    digest(&run_fleet(topo, procs, plan))
}

/// Pinned digests, captured on the pre-refactor tree. Chaos-seed rows
/// (seed > 0) were re-captured after the wake-up path switched from
/// due-time MSI scanning to exact-instant claiming
/// ([`flick_pcie::InterruptController::take_vector_at`]): the old scan
/// let a waiter consume a neighbour's earlier interrupt when several
/// threads were suspended on one channel, and these digests had pinned
/// that misdelivery. Clean rows (seed 0) are untouched by the fix.
/// Rows: (hosts, nxps, procs, seed, digest).
const GOLDENS: &[(usize, usize, i64, u64, u64)] = &[
    (1, 1, 3, 0, 0x8f3702d38d011ffb),
    (1, 1, 3, 1, 0xd8167aebe215a507),
    (1, 1, 3, 2, 0x0d1ed9b6eaf62764),
    (1, 1, 3, 3, 0xafbc50be6f8648dd),
    (1, 1, 3, 4, 0x2e079c33188cda84),
    (1, 1, 3, 5, 0x50dc20f0ae597bdf),
    (1, 1, 3, 6, 0x49cb19e8e31eea75),
    (1, 1, 3, 7, 0x3103433bd519eec0),
    (1, 1, 3, 8, 0x891c6f09ec830bd9),
    (2, 2, 4, 0, 0xc109327af365062e),
    (2, 2, 4, 1, 0x593526437662a0d4),
    (2, 2, 4, 2, 0x6cf0c57dd1504292),
    (2, 2, 4, 3, 0xfccf09227701ca5b),
    (2, 2, 4, 4, 0xb5b4dff4850661a4),
    (2, 2, 4, 5, 0x970d2f510e02220d),
    (2, 2, 4, 6, 0xf44975d81dd546c7),
    (2, 2, 4, 7, 0x017330a4674ee48d),
    (2, 2, 4, 8, 0x6c880d8ca29a5aa8),
];

#[test]
fn two_isa_fleet_digests_are_pinned() {
    let print = std::env::var("FLICK_GOLDEN_PRINT").is_ok();
    for &(hosts, nxps, procs, seed, want) in GOLDENS {
        let got = golden_digest(hosts, nxps, procs, seed);
        if print {
            println!("    ({hosts}, {nxps}, {procs}, {seed}, {got:#018x}),");
        } else {
            assert_eq!(
                got, want,
                "{hosts}x{nxps} seed={seed}: golden digest moved \
                 ({got:#018x} != pinned {want:#018x})"
            );
        }
    }
}
