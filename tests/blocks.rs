//! Differential proof that the basic-block execution engine is a pure
//! host-side optimization at the **core** level: a `Core` with the fast
//! path disabled steps one instruction at a time through the full
//! fetch→translate→decode→execute path; with it enabled the core
//! replays decoded superblocks, follows patched successor links between
//! them (and spins batched self-loop iterations) without returning to
//! top-level dispatch. Both engines must agree bit-for-bit on the
//! simulated clock, cycle count, every counter, the PC, all registers
//! and the stop reason — for random programs, at every fuel cutoff,
//! across faults raised mid-block, self-modifying text (including text
//! a live chain points at), page-spanning instructions and TLB/CR3
//! invalidations, on all three ISAs.
//!
//! Cases are generated from the repo's own deterministic [`Xoshiro256`]
//! so every run explores the same inputs — a failure reproduces by
//! rerunning the test, no external shrinker required. (The machine-level
//! twin of this suite lives in `tests/fastpath.rs`.)

use flick_cpu::{Core, CoreConfig, CoreCounters, MemEnv, StopReason};
use flick_isa::inst::AluOp;
use flick_isa::{abi, FuncBuilder, Inst, Isa, MemSize, Reg, TargetIsa};
use flick_mem::{PhysAddr, PhysMem, VirtAddr};
use flick_paging::{flags, AddressSpace, BumpFrameAlloc};
use flick_sim::{Picos, Xoshiro256};

const TEXT: u64 = 0x40_0000;

fn isa_of(target: TargetIsa) -> Isa {
    target.isa()
}

/// Identity-maps the low 16 MiB, plants `bytes` at [`TEXT`], and marks
/// the text range NX when the NxP core will run it (inverted
/// convention, as in the cpu crate's own fixtures).
fn fixture(target: TargetIsa, bytes: &[u8]) -> (PhysMem, PhysAddr) {
    let mut mem = PhysMem::new();
    let mut alloc = BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x300_0000));
    let mut asp = AddressSpace::new(&mut mem, &mut alloc);
    asp.map_range(
        &mut mem,
        &mut alloc,
        VirtAddr(0),
        PhysAddr(0),
        16 << 20,
        flags::PRESENT | flags::WRITABLE | flags::USER,
    )
    .unwrap();
    if target != TargetIsa::Host {
        asp.protect(&mut mem, VirtAddr(TEXT), 0x10_0000, flags::NX, 0)
            .unwrap();
    }
    let cr3 = asp.cr3();
    mem.write_bytes(PhysAddr(TEXT), bytes);
    (mem, cr3)
}

/// The engine variants every differential runs, as the `fast_path`
/// setting: the chained block engine (the production default) and the
/// pure step path, which is the reference.
const ENGINES: [bool; 2] = [true, false];

fn core_for(target: TargetIsa, fast_path: bool, cr3: PhysAddr) -> Core {
    let mut cfg = if target == TargetIsa::Host {
        CoreConfig::host()
    } else {
        CoreConfig::accel(target)
    };
    cfg.fast_path = fast_path;
    let mut core = Core::new(cfg);
    core.set_cr3(cr3);
    core.set_pc(VirtAddr(TEXT));
    // Seed every register with an address inside the identity map so
    // random loads/stores sometimes land on mapped memory and sometimes
    // (with large random offsets) fault — both outcomes must match.
    for r in 1..32u8 {
        core.set_reg(Reg(r), 0x2000 * r as u64);
    }
    core.set_reg(abi::SP, 0xF0_0000);
    core
}

/// Everything the simulation can observe about a core after a run.
#[derive(Debug, PartialEq, Eq)]
struct Snap {
    stop: StopReason,
    pc: u64,
    regs: [u64; 32],
    now: Picos,
    cycles: u64,
    counters: CoreCounters,
}

fn snap(stop: StopReason, core: &Core) -> Snap {
    Snap {
        stop,
        pc: core.pc().0,
        regs: std::array::from_fn(|i| core.reg(Reg(i as u8))),
        now: core.clock().now(),
        cycles: core.clock().cycles().count(),
        counters: *core.counters(),
    }
}

/// Runs `bytes` on both engine variants with the given fuel and asserts
/// the snapshots are identical; returns one of them for further checks.
fn diff_run(target: TargetIsa, bytes: &[u8], fuel: u64, label: &str) -> Snap {
    let [blocks, step] = ENGINES.map(|engine| {
        let (mut mem, cr3) = fixture(target, bytes);
        let mut core = core_for(target, engine, cr3);
        let stop = core.run(&mut mem, &MemEnv::paper_default(), fuel);
        snap(stop, &core)
    });
    assert_eq!(blocks, step, "{label}: block vs step diverged at fuel {fuel}");
    blocks
}

const ALL_ALU: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Divu,
    AluOp::Remu,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
];

const ALL_SIZES: [MemSize; 4] = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];

/// One random instruction. Memory offsets are small half the time (so
/// they hit the identity map) and fully random otherwise (so they
/// fault); terminators appear with low probability so most programs
/// contain several multi-instruction blocks.
fn arb_inst(rng: &mut Xoshiro256) -> Inst {
    let reg = |rng: &mut Xoshiro256| Reg(rng.gen_range(0, 32) as u8);
    let alu = |rng: &mut Xoshiro256| ALL_ALU[rng.gen_range(0, ALL_ALU.len() as u64) as usize];
    let size = |rng: &mut Xoshiro256| ALL_SIZES[rng.gen_range(0, 4) as usize];
    let off = |rng: &mut Xoshiro256| {
        if rng.gen_bool(0.5) {
            rng.gen_range(0, 0x1000) as i32
        } else {
            rng.next_u64() as i32
        }
    };
    match rng.gen_range(0, 16) {
        0..=3 => Inst::Alu {
            op: alu(rng),
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        4..=7 => Inst::AluImm {
            op: alu(rng),
            rd: reg(rng),
            rs1: reg(rng),
            imm: rng.next_u64() as i32,
        },
        8..=9 => Inst::Li {
            rd: reg(rng),
            imm: rng.next_u64() as i64,
        },
        10..=11 => Inst::Ld {
            rd: reg(rng),
            base: reg(rng),
            off: off(rng),
            size: size(rng),
        },
        12..=13 => Inst::St {
            rs: reg(rng),
            base: reg(rng),
            off: off(rng),
            size: size(rng),
        },
        14 => match rng.gen_range(0, 4) {
            0 => Inst::Jalr {
                rd: reg(rng),
                rs1: reg(rng),
                off: off(rng),
            },
            1 => Inst::Ecall {
                service: rng.next_u64() as u16,
            },
            2 => Inst::Ret,
            _ => Inst::Halt,
        },
        _ => Inst::Nop,
    }
}

fn encode(target: TargetIsa, insts: &[Inst]) -> Vec<u8> {
    let mut f = FuncBuilder::new("t", target);
    for i in insts {
        f.push(*i);
    }
    isa_of(target).encode(&f.finish()).unwrap().bytes
}

/// Random programs, all three ISAs, several fuel cutoffs each —
/// including cutoffs that land mid-block and past the program's
/// natural stop.
#[test]
fn random_programs_step_vs_block_identical() {
    let mut rng = Xoshiro256::seeded(0xb10c_0001);
    for case in 0..48 {
        let n = rng.gen_range(1, 48);
        for target in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
            let insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng)).collect();
            let bytes = encode(target, &insts);
            let extra = rng.gen_range(1, n + 1);
            for fuel in [0, 1, 2, 3, n / 2, n - 1, n, n + extra, 10_000] {
                diff_run(target, &bytes, fuel, &format!("random case {case} {target:?}"));
            }
        }
    }
}

/// Emits one loop shape; `halt` follows the loop.
type LoopShape = fn(&mut FuncBuilder);

/// Self-loop shapes the block lane and its spin tier must replay
/// bit-identically, each with the fuel at which it halts (`None`: it
/// never halts within the swept fuel).
const LOOP_SHAPES: [(&str, LoopShape, Option<u64>); 5] = [
    // The bench interpreter loop: 4-instruction blocks ending in a
    // taken branch. 1 li + 12 iterations of 4 + halt.
    ("countdown", countdown_loop, Some(50)),
    // The `interpret_hotloop` body: a cross-register add plus the
    // decrement. 1 li + 12 iterations of 3 + halt.
    ("cross-register", cross_register_loop, Some(38)),
    // `addi n, n, 1; bne n, r0` from -12 up to the wrap to zero.
    ("up-counting", up_counting_loop, Some(38)),
    // A countdown entered with its counter at 0: wraps first, so only
    // fuel ever ends it.
    ("zero-entry countdown", zero_entry_loop, None),
    // A body long enough to cross an I-cache line on every ISA, so each
    // iteration charges the I-cache. 1 li + 3 iterations of 22 + halt.
    ("line-crossing", line_crossing_loop, Some(68)),
];

fn countdown_loop(f: &mut FuncBuilder) {
    let lp = f.new_label();
    f.li(abi::S1, 12);
    f.bind(lp);
    f.addi(abi::A0, abi::A0, 1);
    f.addi(abi::A1, abi::A1, 2);
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::ZERO, lp);
}

fn cross_register_loop(f: &mut FuncBuilder) {
    let lp = f.new_label();
    f.li(abi::S1, 12);
    f.bind(lp);
    f.add(abi::A0, abi::A0, abi::A1);
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::ZERO, lp);
}

fn up_counting_loop(f: &mut FuncBuilder) {
    let lp = f.new_label();
    f.li(abi::S1, -12);
    f.bind(lp);
    f.addi(abi::A0, abi::A0, 1);
    f.addi(abi::S1, abi::S1, 1);
    f.bne(abi::S1, abi::ZERO, lp);
}

fn zero_entry_loop(f: &mut FuncBuilder) {
    let lp = f.new_label();
    f.li(abi::S1, 0);
    f.bind(lp);
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::ZERO, lp);
}

/// Instructions in [`line_crossing_loop`]'s body before the decrement:
/// at 4 bytes or more each, the body spans more than one 64-byte line.
const LONG_BODY: i32 = 20;

fn line_crossing_loop(f: &mut FuncBuilder) {
    let lp = f.new_label();
    f.li(abi::S1, 3);
    f.bind(lp);
    for i in 0..LONG_BODY {
        f.addi(abi::A0, abi::A1, i);
    }
    f.addi(abi::S1, abi::S1, -1);
    f.bne(abi::S1, abi::ZERO, lp);
}

/// Every [`LOOP_SHAPES`] entry at **every** fuel cutoff: fuel must
/// expire on exactly the same instruction whether or not that
/// instruction sits mid-block or mid-spin-batch. Two large budgets on
/// top let the spin tier run long batches.
#[test]
fn tight_loop_identical_at_every_fuel_cutoff() {
    for (name, shape, halts_at) in LOOP_SHAPES {
        for target in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
            let mut f = FuncBuilder::new("t", target);
            shape(&mut f);
            f.halt();
            let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;
            let last = halts_at.unwrap_or(60) + 10;
            let mut halted = None;
            for fuel in (0..=last).chain([1_000, 10_007]) {
                let s = diff_run(target, &bytes, fuel, name);
                if s.stop == StopReason::Halt && halted.is_none() {
                    halted = Some(fuel);
                }
            }
            assert_eq!(halted, halts_at, "{name} {target:?}: loop retired a wrong count");
        }
    }
}

/// Lays out the self-modifying-text program. `patch` is the 8-byte
/// payload the store writes over the instruction at `victim_off`; both
/// depend on the encoding, so [`smc_program`] iterates to a fixpoint.
fn smc_insts(patch: u64, victim_off: i32) -> Vec<Inst> {
    vec![
        Inst::Li {
            rd: abi::T0,
            imm: TEXT as i64,
        },
        Inst::Li {
            rd: abi::T1,
            imm: patch as i64,
        },
        Inst::St {
            rs: abi::T1,
            base: abi::T0,
            off: victim_off,
            size: MemSize::B8,
        },
        // The victim and its tail: decoded into the same block as the
        // store. A block engine that kept replaying the stale decode
        // would retire these adds; the real text now halts first.
        Inst::AluImm {
            op: AluOp::Add,
            rd: abi::A0,
            rs1: abi::A0,
            imm: 1,
        },
        Inst::AluImm {
            op: AluOp::Add,
            rd: abi::A0,
            rs1: abi::A0,
            imm: 2,
        },
        Inst::Halt,
    ]
}

/// Per-instruction byte offsets of an encoded stream.
fn offsets(isa: Isa, bytes: &[u8]) -> Vec<usize> {
    let mut offs = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        offs.push(off);
        let (_, len) = isa.decode(&bytes[off..]).unwrap();
        off += len;
    }
    offs
}

/// Builds the host-ISA SMC program: a store inside a straight-line
/// block overwrites the very next instruction with a `halt`. Immediate
/// values feed back into instruction lengths on x86-64, so iterate the
/// layout until it stabilises.
fn smc_program() -> (Vec<u8>, i32) {
    let halt = encode(TargetIsa::Host, &[Inst::Halt]);
    assert!(halt.len() <= 8, "halt encoding must fit the 8-byte patch");
    let mut patch = 0u64;
    let mut victim_off = 0i32;
    for _round in 0..8 {
        let bytes = encode(TargetIsa::Host, &smc_insts(patch, victim_off));
        let offs = offsets(Isa::X64, &bytes);
        let new_off = offs[3] as i32; // first add = the victim
        // Patch = halt's encoding, padded with the victim's original
        // tail bytes so the 8-byte store clobbers nothing it shouldn't.
        let mut p = [0u8; 8];
        p.copy_from_slice(&bytes[offs[3]..offs[3] + 8]);
        p[..halt.len()].copy_from_slice(&halt);
        let new_patch = u64::from_le_bytes(p);
        if new_off == victim_off && new_patch == patch {
            return (bytes, victim_off);
        }
        victim_off = new_off;
        patch = new_patch;
    }
    panic!("smc layout did not converge");
}

/// Self-modifying text mid-block: the store retires, the block aborts,
/// and the freshly written `halt` executes — never the stale adds.
#[test]
fn self_modifying_text_mid_block_identical() {
    let (bytes, _) = smc_program();
    for fuel in 0..=8 {
        let s = diff_run(TargetIsa::Host, &bytes, fuel, "smc");
        if s.stop == StopReason::Halt {
            // li, li, st, then the patched-in halt: the adds are gone.
            assert_eq!(s.regs[abi::A0.0 as usize], 0x2000 * abi::A0.0 as u64);
            assert_eq!(s.counters.instructions, 4);
        }
    }
    assert_eq!(
        diff_run(TargetIsa::Host, &bytes, 100, "smc full").stop,
        StopReason::Halt
    );
}

/// Builds the chained-SMC program for `target`: a loop whose body
/// stores an 8-byte patch over the loop's *fall-through successor*
/// (the first instruction after the backward branch), turning
/// `addi a1, a1, 2` into `addi a1, a1, 7`. The loop block and its
/// fall-through are exactly the shape the chain lane links, so every
/// iteration's store hits text a live chain points at. Immediates feed
/// back into the layout (and the patch payload contains the victim's
/// tail bytes), so iterate to a fixpoint like [`smc_program`].
fn chained_smc_program(target: TargetIsa) -> Vec<u8> {
    let new_inst = encode(
        target,
        &[Inst::AluImm {
            op: AluOp::Add,
            rd: abi::A1,
            rs1: abi::A1,
            imm: 7,
        }],
    );
    assert!(new_inst.len() <= 8, "patched add must fit the 8-byte store");
    let mut patch = 0u64;
    let mut victim_off = 0i32;
    for _round in 0..8 {
        let mut f = FuncBuilder::new("t", target);
        let lp = f.new_label();
        f.li(abi::T0, TEXT as i64);
        f.li(abi::T1, patch as i64);
        f.li(abi::S1, 6);
        f.bind(lp);
        f.addi(abi::A0, abi::A0, 1);
        f.push(Inst::St {
            rs: abi::T1,
            base: abi::T0,
            off: victim_off,
            size: MemSize::B8,
        });
        f.addi(abi::S1, abi::S1, -1);
        f.bne(abi::S1, abi::ZERO, lp);
        f.addi(abi::A1, abi::A1, 2);
        f.halt();
        let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;
        let offs = offsets(isa_of(target), &bytes);
        let new_off = offs[offs.len() - 2] as i32; // the victim add
        let mut p = [0u8; 8];
        let have = (bytes.len() - new_off as usize).min(8);
        p[..have].copy_from_slice(&bytes[new_off as usize..new_off as usize + have]);
        p[..new_inst.len()].copy_from_slice(&new_inst);
        let new_patch = u64::from_le_bytes(p);
        if new_off == victim_off && new_patch == patch {
            return bytes;
        }
        victim_off = new_off;
        patch = new_patch;
    }
    panic!("chained smc layout did not converge");
}

/// Self-modifying text aimed at a **chained successor**: every loop
/// iteration stores over the first instruction of the loop's
/// fall-through block, so a live chain repeatedly points at text that
/// just changed. Each store bumps the text generation, which must
/// break the chain and drop the decode — on loop exit the *patched*
/// fall-through executes, never the stale one, at every fuel cutoff,
/// on all three ISAs.
#[test]
fn smc_rewriting_chained_successor_identical() {
    for target in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
        let bytes = chained_smc_program(target);
        let full = diff_run(target, &bytes, u64::MAX, "chained smc full");
        assert_eq!(full.stop, StopReason::Halt, "{target:?}");
        // Six loop iterations, then the patched `addi a1, a1, 7`.
        assert_eq!(
            full.regs[abi::A0.0 as usize],
            0x2000 * abi::A0.0 as u64 + 6,
            "{target:?}: loop iterations"
        );
        assert_eq!(
            full.regs[abi::A1.0 as usize],
            0x2000 * abi::A1.0 as u64 + 7,
            "{target:?}: patched successor must execute"
        );
        for fuel in 0..40 {
            diff_run(target, &bytes, fuel, "chained smc");
        }
    }
}

/// A straight-line run long enough that one x86-64 instruction straddles
/// the 0x1000 page boundary: blocks must end at the boundary and the
/// spanning instruction must replay identically through the step path.
#[test]
fn page_spanning_instruction_identical() {
    let mut insts = Vec::new();
    for k in 0..1500 {
        insts.push(Inst::AluImm {
            op: AluOp::Add,
            rd: abi::A0,
            rs1: abi::A0,
            imm: 1 + (k & 0x3f),
        });
    }
    insts.push(Inst::Halt);
    let bytes = encode(TargetIsa::Host, &insts);
    assert!(bytes.len() > 0x1000, "program must cross the page boundary");
    let offs = offsets(Isa::X64, &bytes);
    let spanning = offs
        .iter()
        .position(|&o| o < 0x1000 && {
            let (_, len) = Isa::X64.decode(&bytes[o..]).unwrap();
            o + len > 0x1000
        })
        .expect("an instruction must straddle the boundary") as u64;
    for fuel in spanning.saturating_sub(3)..=spanning + 3 {
        diff_run(TargetIsa::Host, &bytes, fuel, "page-spanning");
    }
    diff_run(TargetIsa::Host, &bytes, u64::MAX, "page-spanning full");
}

/// TLB shootdowns and CR3 reloads between quanta: invalidations must
/// leave the block engine's caches coherent, not just its first run.
#[test]
fn flush_and_cr3_reload_between_quanta_identical() {
    for target in [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64] {
        let mut f = FuncBuilder::new("t", target);
        let lp = f.new_label();
        f.li(abi::S1, 40);
        f.bind(lp);
        f.addi(abi::A0, abi::A0, 3);
        f.ld(abi::T2, abi::SP, -8, MemSize::B8);
        f.addi(abi::S1, abi::S1, -1);
        f.bne(abi::S1, abi::ZERO, lp);
        f.halt();
        let bytes = isa_of(target).encode(&f.finish()).unwrap().bytes;

        let mut cores = Vec::new();
        for engine in ENGINES {
            let (mut mem, cr3) = fixture(target, &bytes);
            let mut core = core_for(target, engine, cr3);
            let env = MemEnv::paper_default();
            let mut stops = Vec::new();
            // Fuel 7 never divides the 4-instruction iteration, so every
            // resume lands at a different block offset; flush/CR3-reload
            // on alternating quanta.
            for quantum in 0..40 {
                stops.push(core.run(&mut mem, &env, 7));
                if *stops.last().unwrap() != StopReason::OutOfFuel {
                    break;
                }
                if quantum % 2 == 0 {
                    core.flush_tlbs();
                } else {
                    core.set_cr3(cr3);
                }
            }
            cores.push((snap(*stops.last().unwrap(), &core), stops));
        }
        let (snap_step, stops_step) = cores.pop().unwrap();
        for (snap_x, stops_x) in cores {
            assert_eq!(stops_x, stops_step, "{target:?}: stop sequence");
            assert_eq!(
                snap_x, snap_step,
                "{target:?}: state after interleaved invalidations"
            );
        }
        assert_eq!(snap_step.stop, StopReason::Halt);
    }
}
