//! Randomised property tests over the core data structures and the
//! machine: encodings, memory, paging, descriptors, graphs, and the
//! migration semantics themselves.
//!
//! Cases are generated from the repo's own deterministic [`Xoshiro256`]
//! so every run explores the same inputs — a failure reproduces by
//! rerunning the test, no external shrinker required.

use flick::{DescKind, MigrationDescriptor};
use flick_isa::{abi, AluOp, FuncBuilder, MemSize, Reg, TargetIsa};
use flick_mem::{PhysAddr, PhysMem, VirtAddr};
use flick_paging::{flags, AddressSpace, BumpFrameAlloc, PageSize};
use flick_sim::Xoshiro256;
use flick_toolchain::ProgramBuilder;
use flick_workloads::graph::rmat;

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

/// One random straight-line instruction (no control flow — control flow
/// needs labels, tested via the builder elsewhere).
fn arb_inst(rng: &mut Xoshiro256) -> flick_isa::Inst {
    let reg = |rng: &mut Xoshiro256| Reg(rng.gen_range(0, 32) as u8);
    let alu = |rng: &mut Xoshiro256| ALL_ALU[rng.gen_range(0, ALL_ALU.len() as u64) as usize];
    let size = |rng: &mut Xoshiro256| ALL_SIZES[rng.gen_range(0, 4) as usize];
    match rng.gen_range(0, 9) {
        0 => flick_isa::Inst::Alu {
            op: alu(rng),
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        1 => flick_isa::Inst::AluImm {
            op: alu(rng),
            rd: reg(rng),
            rs1: reg(rng),
            imm: rng.next_u64() as i32,
        },
        2 => flick_isa::Inst::Li {
            rd: reg(rng),
            imm: rng.next_u64() as i64,
        },
        3 => flick_isa::Inst::Ld {
            rd: reg(rng),
            base: reg(rng),
            off: rng.next_u64() as i32,
            size: size(rng),
        },
        4 => flick_isa::Inst::St {
            rs: reg(rng),
            base: reg(rng),
            off: rng.next_u64() as i32,
            size: size(rng),
        },
        5 => flick_isa::Inst::Jalr {
            rd: reg(rng),
            rs1: reg(rng),
            off: rng.next_u64() as i32,
        },
        6 => flick_isa::Inst::Ecall {
            service: rng.next_u64() as u16,
        },
        7 => flick_isa::Inst::Ret,
        _ => flick_isa::Inst::Nop,
    }
}

#[test]
fn any_instruction_sequence_round_trips_every_registered_isa() {
    let mut rng = Xoshiro256::seeded(0x9cb1);
    for _case in 0..64 {
        let n = rng.gen_range(1, 40) as usize;
        let insts: Vec<_> = (0..n).map(|_| arb_inst(&mut rng)).collect();
        for d in flick_isa::IsaId::all() {
            let isa = d.id;
            let mut f = FuncBuilder::new("f", TargetIsa::Host);
            for i in &insts {
                f.push(*i);
            }
            let enc = isa.encode(&f.finish()).unwrap();
            // decode(encode(func)) == func …
            let mut off = 0usize;
            let mut decoded = Vec::new();
            while off < enc.bytes.len() {
                let (inst, len) = isa.decode(&enc.bytes[off..]).unwrap();
                decoded.push(inst);
                off += len;
            }
            assert_eq!(&decoded, &insts, "{isa} mis-round-tripped");
            // … and encode(decode(bytes)) == bytes: re-encoding the
            // decoded sequence reproduces the wire bytes exactly.
            let mut g = FuncBuilder::new("f", TargetIsa::Host);
            for i in &decoded {
                g.push(*i);
            }
            let re = isa.encode(&g.finish()).unwrap();
            assert_eq!(re.bytes, enc.bytes, "{isa} re-encode diverged");
        }
    }
}

#[test]
fn physmem_read_back_exact() {
    let mut rng = Xoshiro256::seeded(0x9cb2);
    for _case in 0..64 {
        let mut mem = PhysMem::new();
        // Apply writes in order; then the final state of each byte is
        // the last write covering it.
        let mut model = std::collections::HashMap::new();
        let writes = rng.gen_range(1, 20);
        for _ in 0..writes {
            let addr = rng.gen_range(0, 1 << 20);
            let len = rng.gen_range(1, 64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            mem.write_bytes(PhysAddr(addr), &bytes);
            for (i, b) in bytes.iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        for (addr, byte) in model {
            assert_eq!(mem.read_u8(PhysAddr(addr)), byte);
        }
    }
}

#[test]
fn paging_translates_every_mapped_page() {
    let mut rng = Xoshiro256::seeded(0x9cb3);
    for _case in 0..48 {
        let mut pages = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(1, 40) {
            pages.insert(rng.gen_range(0, 512));
        }
        let offset = rng.gen_range(0, 4096);
        let mut mem = PhysMem::new();
        let mut alloc = BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x400_0000));
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        for &p in &pages {
            asp.map(
                &mut mem,
                &mut alloc,
                VirtAddr(0x40_0000 + p * 4096),
                PhysAddr(0x80_0000 + p * 4096),
                PageSize::Size4K,
                flags::PRESENT | flags::USER,
            )
            .unwrap();
        }
        for &p in &pages {
            let va = VirtAddr(0x40_0000 + p * 4096 + offset);
            let t = asp.translate(&mem, va).unwrap();
            assert_eq!(t.pa, PhysAddr(0x80_0000 + p * 4096 + offset));
        }
        // And an unmapped neighbour page faults.
        if let Some(unmapped) = (0u64..512).find(|p| !pages.contains(p)) {
            assert!(asp
                .translate(&mem, VirtAddr(0x40_0000 + unmapped * 4096))
                .is_err());
        }
    }
}

#[test]
fn descriptor_wire_format_total() {
    let mut rng = Xoshiro256::seeded(0x9cb4);
    for _case in 0..256 {
        let d = MigrationDescriptor {
            kind: DescKind::from_tag(rng.gen_range(1, 5)).unwrap(),
            target: rng.next_u64(),
            ret: rng.next_u64(),
            args: std::array::from_fn(|_| rng.next_u64()),
            pid: rng.next_u64(),
            cr3: rng.next_u64(),
            nxp_sp: rng.next_u64(),
            seq: rng.next_u64(),
            span: rng.next_u64(),
        };
        assert_eq!(MigrationDescriptor::from_bytes(&d.to_bytes()), Some(d));
        assert_eq!(
            MigrationDescriptor::from_bytes_checked(&d.to_bytes()),
            Ok(d)
        );
    }
}

#[test]
fn descriptor_checksum_rejects_any_single_byte_flip() {
    let mut rng = Xoshiro256::seeded(0x9cb5);
    for _case in 0..64 {
        let d = MigrationDescriptor {
            kind: DescKind::from_tag(rng.gen_range(1, 5)).unwrap(),
            target: rng.next_u64(),
            ret: rng.next_u64(),
            args: std::array::from_fn(|_| rng.next_u64()),
            pid: rng.next_u64(),
            cr3: rng.next_u64(),
            nxp_sp: rng.next_u64(),
            seq: rng.next_u64(),
            span: rng.next_u64(),
        };
        let mut bytes = d.to_bytes();
        let idx = rng.gen_range(0, bytes.len() as u64) as usize;
        let mut flip = rng.next_u64() as u8;
        if flip == 0 {
            flip = 1;
        }
        bytes[idx] ^= flip;
        assert!(
            MigrationDescriptor::from_bytes_checked(&bytes).is_err(),
            "flip at byte {idx} went undetected"
        );
    }
}

#[test]
fn rmat_always_valid_csr() {
    let mut rng = Xoshiro256::seeded(0x9cb6);
    for _case in 0..24 {
        let v = rng.gen_range(2, 2000);
        let e = rng.gen_range(1, 8000);
        let seed = rng.next_u64();
        let g = rmat(v, e, seed);
        assert_eq!(g.v, v);
        assert_eq!(g.e(), e);
        assert_eq!(*g.row_ptr.last().unwrap(), e);
        for u in 0..v {
            assert!(g.row_ptr[u as usize] <= g.row_ptr[u as usize + 1]);
        }
        for &w in &g.col {
            assert!((w as u64) < v);
        }
    }
}

#[test]
fn rng_range_always_in_bounds() {
    let mut meta = Xoshiro256::seeded(0x9cb7);
    for _case in 0..64 {
        let seed = meta.next_u64();
        let lo = meta.gen_range(0, 1000);
        let span = meta.gen_range(1, 1000);
        let mut rng = Xoshiro256::seeded(seed);
        for _ in 0..100 {
            let x = rng.gen_range(lo, lo + span);
            assert!((lo..lo + span).contains(&x));
        }
    }
}

// ---- machine-level properties ---------------------------------------------

/// Reference semantics of the random cross-ISA pipeline below — the
/// placement (which ISA runs each stage) must never change the value.
fn reference_chain(stages: &[(TargetIsa, u32, u32)], x0: u64) -> u64 {
    stages
        .iter()
        .fold(x0, |x, (_, k, c)| x.wrapping_mul(*k as u64).wrapping_add(*c as u64))
}

/// Random chains of functions with random placements across all three
/// ISAs compute the same value as native Rust, no matter how many times
/// the thread crosses which boundary. Adjacent stages of different
/// accelerator ISAs exercise the nested cross-accelerator bounce.
#[test]
fn random_cross_isa_chain_matches_reference() {
    const TARGETS: [TargetIsa; 3] = [TargetIsa::Host, TargetIsa::Nxp, TargetIsa::Arm64];
    let mut rng = Xoshiro256::seeded(0x9cb8);
    for _case in 0..12 {
        let n = rng.gen_range(1, 6) as usize;
        let stages: Vec<(TargetIsa, u32, u32)> = (0..n)
            .map(|_| {
                (
                    TARGETS[rng.gen_range(0, 3) as usize],
                    rng.gen_range(1, 50) as u32,
                    rng.gen_range(0, 1000) as u32,
                )
            })
            .collect();
        let x0 = rng.gen_range(0, 1_000_000);

        let mut p = ProgramBuilder::new("chain");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.li(abi::A0, x0 as i64);
        main.call("stage0");
        main.call("flick_exit");
        p.func(main.finish());
        for (i, (target, k, c)) in stages.iter().enumerate() {
            let mut f = FuncBuilder::new(format!("stage{i}"), *target);
            f.li(abi::T0, *k as i64);
            f.mul(abi::A0, abi::A0, abi::T0);
            f.addi(abi::A0, abi::A0, *c as i32);
            if i + 1 < stages.len() {
                f.prologue(16, &[]);
                f.call(&format!("stage{}", i + 1));
                f.epilogue(16, &[]);
            } else {
                f.ret();
            }
            p.func(f.finish());
        }
        let mut m = flick::Machine::builder()
            .topology(flick::Topology::new(1, 2))
            .nxp_isas(vec![flick_isa::IsaId::Rv64, flick_isa::IsaId::Arm64])
            .trace(flick_sim::TraceConfig {
                enabled: false,
                capacity: 0,
            })
            .build();
        let pid = m.load_program(&mut p).unwrap();
        let out = m.run(pid).unwrap();
        assert_eq!(
            out.exit_code,
            reference_chain(&stages, x0),
            "stages {stages:?} x0 {x0}"
        );
    }
}
