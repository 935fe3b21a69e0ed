//! Run-to-run determinism of the full machine timeline.
//!
//! The contract is absolute: the merged timeline — exit codes,
//! simulated clocks, counters, the full event trace with core tags,
//! per-core stats, and observability spans — must replay bit for bit
//! from one run to the next, with or without chaos/failover plans
//! active. These tests run clean fleets and eight seeded
//! chaos+device-chaos schedules twice each and check both runs against
//! pinned digests (the FNV-1a fingerprint digest of
//! `tests/isa_goldens.rs`), so a change that moves the timeline the
//! same way in both runs still fails here.

use flick::{Machine, Outcome, Topology};
use flick_isa::{abi, FuncBuilder, TargetIsa};
use flick_sim::{FaultPlan, TraceConfig};
use flick_toolchain::ProgramBuilder;
use std::fmt::Write as _;

/// A process that ships `calls` chunks of spin work to the NxP and
/// exits with `calls * spin + tag`. The NxP function is pure, so
/// at-least-once re-execution after a device death is harmless.
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

/// Serializes every observable the machine exposes into one string:
/// any divergence between runs shows up as a text diff.
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

/// Builds a machine, runs `procs` workers concurrently, fingerprints.
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

/// FNV-1a 64 over the fingerprint text (the `tests/isa_goldens.rs`
/// digest).
fn digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Asserts two fingerprints match, pointing at the first diverging
/// line rather than dumping megabytes of trace.
fn assert_same(label: &str, want: &str, got: &str) {
    if want == got {
        return;
    }
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "{label}: first divergence at fingerprint line {i}");
    }
    panic!(
        "{label}: fingerprints differ in length ({} vs {} lines)",
        want.lines().count(),
        got.lines().count()
    );
}

/// Pinned digests. Rows: (hosts, nxps, procs, seed, digest); seed 0 is
/// the clean run, seeds 1–8 layer link chaos and seeded device
/// deaths/rejoins over the 2×3 fleet.
const GOLDENS: &[(usize, usize, i64, u64, u64)] = &[
    (1, 1, 3, 0, 0x8f3702d38d011ffb),
    (2, 2, 4, 0, 0xc109327af365062e),
    (4, 4, 8, 0, 0xa3540431f73f64bf),
    (2, 3, 4, 1, 0x080f7872935d9e64),
    (2, 3, 4, 2, 0x906ad81235405b0b),
    (2, 3, 4, 3, 0x2985cf9faa3dedd8),
    (2, 3, 4, 4, 0x487f3692c5f4a4af),
    (2, 3, 4, 5, 0x0fe4f2805dc8947a),
    (2, 3, 4, 6, 0x51db62b78de5304a),
    (2, 3, 4, 7, 0x3bf614a5bb89f480),
    (2, 3, 4, 8, 0x28cabdd4cb21b3ea),
];

/// Runs the pinned configuration twice: the second run must replay the
/// first exactly, and both must match the pinned digest.
fn replay_matches_golden(hosts: usize, nxps: usize, procs: i64, seed: u64) {
    let &(.., want) = GOLDENS
        .iter()
        .find(|g| (g.0, g.1, g.2, g.3) == (hosts, nxps, procs, seed))
        .expect("configuration has a pinned digest");
    let topo = Topology::new(hosts, nxps);
    let plan = (seed != 0).then(|| {
        // Fault-free twin bounds the device-chaos horizon (same recipe
        // as the failover example and tests).
        let mut m = Machine::builder().topology(topo).build();
        let mut pids = Vec::new();
        for tag in 0..procs {
            pids.push(m.load_program(&mut worker(6, 2_000, tag * 100_000)).unwrap());
        }
        m.run_concurrent(&pids, u64::MAX / 2).unwrap();
        let horizon = m.host_now();
        FaultPlan::chaos(seed).with_device_events(FaultPlan::device_chaos(seed, 3, horizon))
    });
    let label = format!("{hosts}x{nxps} seed={seed}");
    let base = run_fleet(topo, procs, plan.clone());
    let again = run_fleet(topo, procs, plan);
    assert_same(&format!("{label} repeat"), &base, &again);
    let got = digest(&base);
    assert_eq!(
        got, want,
        "{label}: golden digest moved ({got:#018x} != pinned {want:#018x})"
    );
}

#[test]
fn clean_fleet_replays_and_matches_golden_1x1() {
    replay_matches_golden(1, 1, 3, 0);
}

#[test]
fn clean_fleet_replays_and_matches_golden_2x2() {
    replay_matches_golden(2, 2, 4, 0);
}

#[test]
fn wide_fleet_replays_and_matches_golden_4x4() {
    replay_matches_golden(4, 4, 8, 0);
}

#[test]
fn chaos_and_failover_seed_sweep_replays_and_matches_goldens() {
    // Link chaos + seeded device deaths/rejoins layered together, the
    // harshest replay surface the machine has.
    for seed in 1..=8u64 {
        replay_matches_golden(2, 3, 4, seed);
    }
}
