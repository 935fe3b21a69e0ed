//! N-way heterogeneous fleet tests: a third (arm64-like) ISA joins the
//! classic x64 host + rv64 NxP pair, and threads migrate between every
//! ordered ISA pair — host→rv64, host→arm64, and the cross-accelerator
//! bounces rv64→arm64 / arm64→rv64 that park one frame while another
//! runs on a different core kind.

use flick::{Machine, Topology};
use flick_isa::{abi, FuncBuilder, IsaId, TargetIsa};
use flick_sim::{Event, TraceConfig};
use flick_toolchain::ProgramBuilder;

/// A 1×2 fleet with one rv64 and one arm64 NxP.
fn hetero_machine() -> Machine {
    Machine::builder()
        .topology(Topology::new(1, 2))
        .nxp_isas(vec![IsaId::Rv64, IsaId::Arm64])
        .trace(TraceConfig {
            enabled: true,
            capacity: 1 << 16,
        })
        .build()
}

/// The four-leg program: plain calls onto each accelerator ISA plus a
/// nested cross-accelerator call in each direction.
fn build_pairs_program(p: &mut ProgramBuilder) {
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    main.li(abi::S1, 0);
    // x64 → rv64 → x64.
    main.li(abi::A0, 10);
    main.call("rv_compute");
    main.add(abi::S1, abi::S1, abi::A0);
    // x64 → arm64 → x64.
    main.li(abi::A0, 20);
    main.call("arm_compute");
    main.add(abi::S1, abi::S1, abi::A0);
    // rv64 → arm64 (nested bounce through the host).
    main.li(abi::A0, 3);
    main.call("rv_calls_arm");
    main.add(abi::S1, abi::S1, abi::A0);
    // arm64 → rv64 (nested bounce, other direction).
    main.li(abi::A0, 4);
    main.call("arm_calls_rv");
    main.add(abi::S1, abi::S1, abi::A0);
    main.mv(abi::A0, abi::S1);
    main.call("flick_exit");
    p.func(main.finish());

    let mut f = FuncBuilder::new("rv_compute", TargetIsa::Nxp);
    f.slli(abi::T0, abi::A0, 1);
    f.addi(abi::A0, abi::T0, 1); // 2x + 1
    f.ret();
    p.func(f.finish());

    let mut f = FuncBuilder::new("arm_compute", TargetIsa::Arm64);
    f.addi(abi::A0, abi::A0, 5); // x + 5
    f.ret();
    p.func(f.finish());

    let mut f = FuncBuilder::new("rv_calls_arm", TargetIsa::Nxp);
    f.prologue(16, &[]);
    f.call("arm_leaf");
    f.addi(abi::A0, abi::A0, 100);
    f.epilogue(16, &[]);
    p.func(f.finish());

    let mut f = FuncBuilder::new("arm_leaf", TargetIsa::Arm64);
    f.li(abi::T0, 3);
    f.mul(abi::A0, abi::A0, abi::T0); // 3x
    f.ret();
    p.func(f.finish());

    let mut f = FuncBuilder::new("arm_calls_rv", TargetIsa::Arm64);
    f.prologue(16, &[]);
    f.call("rv_leaf");
    f.addi(abi::A0, abi::A0, 200);
    f.epilogue(16, &[]);
    p.func(f.finish());

    let mut f = FuncBuilder::new("rv_leaf", TargetIsa::Nxp);
    f.addi(abi::A0, abi::A0, 7); // x + 7
    f.ret();
    p.func(f.finish());
}

#[test]
fn three_isa_fleet_migrates_between_every_ordered_pair() {
    let mut p = ProgramBuilder::new("pairs");
    build_pairs_program(&mut p);
    let mut m = hetero_machine();
    let pid = m.load_program(&mut p).unwrap();
    let out = m.run(pid).unwrap();
    // rv_compute(10)=21, arm_compute(20)=25,
    // rv_calls_arm(3)=3*3+100=109, arm_calls_rv(4)=4+7+200=211.
    assert_eq!(out.exit_code, 21 + 25 + 109 + 211);
    // Four host→accelerator calls plus one per nested bounce.
    assert_eq!(out.stats.get("migrations_host_to_nxp"), 6);
    assert_eq!(out.stats.get("returns_nxp_to_host"), 6);
    // Each nested call escalates off its accelerator exactly once.
    assert_eq!(out.stats.get("migrations_nxp_to_host"), 2);
    assert_eq!(out.stats.get("nxp_exec_faults"), 2);
    // Both accelerators faulted an NX trigger at some point.
    let nxp_side_faults = m.trace().count(|e| {
        matches!(
            e,
            Event::NxFault {
                side: flick_sim::trace::Side::Nxp,
                ..
            }
        )
    });
    assert_eq!(nxp_side_faults, 2);
}

#[test]
fn placement_routes_each_call_to_its_isa() {
    // With RoundRobin placement over a [rv64, arm64] fleet, ISA-aware
    // placement must still land every call on the one matching slot.
    let mut p = ProgramBuilder::new("routed");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    main.li(abi::S1, 0);
    for _ in 0..3 {
        main.li(abi::A0, 1);
        main.call("rv_inc");
        main.add(abi::S1, abi::S1, abi::A0);
        main.li(abi::A0, 1);
        main.call("arm_dec");
        main.add(abi::S1, abi::S1, abi::A0);
    }
    main.mv(abi::A0, abi::S1);
    main.call("flick_exit");
    p.func(main.finish());
    let mut f = FuncBuilder::new("rv_inc", TargetIsa::Nxp);
    f.addi(abi::A0, abi::A0, 1);
    f.ret();
    p.func(f.finish());
    let mut f = FuncBuilder::new("arm_dec", TargetIsa::Arm64);
    f.addi(abi::A0, abi::A0, -1);
    f.ret();
    p.func(f.finish());

    let mut m = hetero_machine();
    let pid = m.load_program(&mut p).unwrap();
    let out = m.run(pid).unwrap();
    // 3 × (2 + 0): every rv_inc must have run on the rv64 core and
    // every arm_dec on the arm64 core, or the run would have faulted.
    assert_eq!(out.exit_code, 6);
    assert_eq!(out.stats.get("migrations_host_to_nxp"), 6);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut p = ProgramBuilder::new("pairs");
        build_pairs_program(&mut p);
        let mut m = hetero_machine();
        let pid = m.load_program(&mut p).unwrap();
        let out = m.run(pid).unwrap();
        (out.exit_code, out.sim_time, m.trace().len())
    };
    assert_eq!(run(), run());
}

/// Satellite regression: a mid-migration wrong-ISA fetch must raise
/// exactly the §IV-B2 exec exception (`NxViolation` — the page is NX
/// with a foreign ISA tag), not fall through to a decode error.
#[test]
fn wrong_isa_fetch_mid_migration_raises_nx_violation() {
    use flick_cpu::{Core, CoreConfig, Exception, InstFaultKind, MemEnv, StopReason};
    use flick_mem::{PhysAddr, PhysMem, VirtAddr};
    use flick_paging::{flags, AddressSpace, BumpFrameAlloc};

    let mut mem = PhysMem::new();
    let mut alloc = BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x300_0000));
    let mut asp = AddressSpace::new(&mut mem, &mut alloc);
    asp.map_range(
        &mut mem,
        &mut alloc,
        VirtAddr(0),
        PhysAddr(0),
        8 << 20,
        flags::PRESENT | flags::WRITABLE | flags::USER,
    )
    .unwrap();
    // Arm64 text page: NX + arm64 ISA tag, exactly as the loader maps
    // `.text.arm`.
    asp.protect(
        &mut mem,
        VirtAddr(0x40_0000),
        0x1000,
        flags::NX | flags::isa_tag_bits(IsaId::Arm64.tag() + 1),
        0,
    )
    .unwrap();
    let mut f = FuncBuilder::new("a", TargetIsa::Arm64);
    f.li(abi::A0, 1);
    f.halt();
    let enc = IsaId::Arm64.encode(&f.finish()).unwrap();
    mem.write_bytes(PhysAddr(0x40_0000), &enc.bytes);

    // An rv64 core (as if the thread were still mid-migration on the
    // wrong accelerator) must trap NxViolation at the first fetch…
    let mut rv = Core::new(CoreConfig::accel(IsaId::Rv64));
    rv.set_cr3(asp.cr3());
    rv.set_pc(VirtAddr(0x40_0000));
    let env = MemEnv::paper_default();
    assert_eq!(
        rv.run(&mut mem, &env, 100),
        StopReason::Fault(Exception::InstFault {
            va: VirtAddr(0x40_0000),
            kind: InstFaultKind::NxViolation,
        })
    );
    // …and the host must trap the same way (NX page), not decode.
    let mut host = Core::new(CoreConfig::host());
    host.set_cr3(asp.cr3());
    host.set_pc(VirtAddr(0x40_0000));
    assert_eq!(
        host.run(&mut mem, &env, 100),
        StopReason::Fault(Exception::InstFault {
            va: VirtAddr(0x40_0000),
            kind: InstFaultKind::NxViolation,
        })
    );
    // An arm64 core accepts the page.
    let mut arm = Core::new(CoreConfig::accel(IsaId::Arm64));
    arm.set_cr3(asp.cr3());
    arm.set_pc(VirtAddr(0x40_0000));
    assert_eq!(arm.run(&mut mem, &env, 100), StopReason::Halt);
    assert_eq!(arm.reg(abi::A0), 1);
}

/// Untagged (tag-0) and stale-tag call targets place by **best fit**
/// over the fleet's ISA descriptors — highest nominal ALU throughput
/// (clock over ALU CPI) wins, ties break to the lower tag, and the
/// choice ignores slot order.
#[test]
fn best_fit_placement_follows_descriptor_throughput() {
    use flick::best_fit_accel_isa;
    // Single-ISA fleets are their own best fit.
    assert_eq!(best_fit_accel_isa(&[IsaId::Rv64]), IsaId::Rv64);
    assert_eq!(best_fit_accel_isa(&[IsaId::Arm64]), IsaId::Arm64);
    // arm64 (1 GHz / CPI 1) outruns rv64 (200 MHz / CPI 1) — it wins
    // whatever slot it sits in and however often rv64 is duplicated.
    assert_eq!(best_fit_accel_isa(&[IsaId::Rv64, IsaId::Arm64]), IsaId::Arm64);
    assert_eq!(best_fit_accel_isa(&[IsaId::Arm64, IsaId::Rv64]), IsaId::Arm64);
    assert_eq!(
        best_fit_accel_isa(&[IsaId::Rv64, IsaId::Rv64, IsaId::Arm64, IsaId::Rv64]),
        IsaId::Arm64
    );
    // Host-encoding entries are not accelerator targets and are
    // skipped; an empty or all-host fleet keeps the classic rv64
    // default of the two-ISA machine.
    assert_eq!(best_fit_accel_isa(&[IsaId::X64, IsaId::Rv64]), IsaId::Rv64);
    assert_eq!(best_fit_accel_isa(&[]), IsaId::Rv64);
    assert_eq!(best_fit_accel_isa(&[IsaId::X64]), IsaId::Rv64);
    // Deterministic: same multiset in, same answer out, every time.
    let fleet = [IsaId::Arm64, IsaId::Rv64, IsaId::Arm64];
    assert_eq!(best_fit_accel_isa(&fleet), best_fit_accel_isa(&fleet));
}

/// The same program computes the same results whatever the fleet's ISA
/// mix — rv64-only, arm64-assisted, or arm64-heavy.
#[test]
fn fleet_mix_is_result_invariant() {
    let run = |isas: Vec<IsaId>| {
        let mut p = ProgramBuilder::new("pairs");
        build_pairs_program(&mut p);
        let mut m = Machine::builder()
            .topology(Topology::new(1, isas.len()))
            .nxp_isas(isas)
            .build();
        let pid = m.load_program(&mut p).unwrap();
        m.run(pid).unwrap().exit_code
    };
    let a = run(vec![IsaId::Rv64, IsaId::Arm64]);
    let b = run(vec![IsaId::Arm64, IsaId::Rv64]);
    let c = run(vec![IsaId::Rv64, IsaId::Arm64, IsaId::Rv64, IsaId::Arm64]);
    assert_eq!(a, 21 + 25 + 109 + 211);
    assert_eq!(a, b);
    assert_eq!(a, c);
}
