//! The user-space migration handlers (Listings 1 and 2 of the paper)
//! and the small runtime library, all written in FIR and linked into
//! every Flick application.
//!
//! The handlers are deliberately *reentrant*: every invocation pushes
//! its own frame, so nested bidirectional calls (host→NxP→host→NxP,
//! recursion across the ISA boundary, …) resolve correctly — the
//! property §IV-B highlights.

use crate::services::{self as svc, desc_layout as L};
use flick_isa::{abi, FuncBuilder, MemSize, TargetIsa};
use flick_toolchain::{layout, ProgramBuilder};

/// Linker symbol of the host migration handler.
pub const HOST_HANDLER: &str = "__flick_host_handler";
/// Linker symbol of the NxP migration handler entry (exec-fault
/// redirect target).
pub const NXP_HANDLER: &str = "__flick_nxp_handler";
/// Linker symbol of the NxP handler's while-loop — where the scheduler
/// lands a fresh host→NxP call thread ("the target thread starts
/// execution inside the while() loop", §IV-B1).
pub const NXP_HANDLER_LOOP: &str = "__flick_nxp_handler_loop";

/// Symbol of the accelerator-side migration handler for `isa`. The
/// classic NxP keeps its historical name ([`NXP_HANDLER`]); further
/// ISAs get a name carrying the descriptor name, so an N-way binary
/// links one handler per accelerator ISA it uses.
pub fn nxp_handler_symbol(isa: TargetIsa) -> String {
    if isa == TargetIsa::Nxp {
        NXP_HANDLER.to_string()
    } else {
        format!("__flick_{}_handler", isa.name())
    }
}

/// Symbol of the while-loop entry of `isa`'s migration handler (the
/// scheduler's landing point for fresh host→accelerator call threads).
pub fn nxp_handler_loop_symbol(isa: TargetIsa) -> String {
    if isa == TargetIsa::Nxp {
        NXP_HANDLER_LOOP.to_string()
    } else {
        format!("__flick_{}_handler_loop", isa.name())
    }
}

/// Builds the host migration handler (paper Listing 1).
///
/// Entered via the kernel's return-address hijack with the original
/// call's argument registers intact and `ra` pointing at the original
/// call site, so its final `ret` makes the whole migration transparent.
pub fn host_migration_handler() -> flick_isa::Func {
    let mut f = FuncBuilder::new(HOST_HANDLER, TargetIsa::Host);
    let have_stack = f.new_label();
    let lp = f.new_label();
    let done = f.new_label();

    // Prologue: keep ra and s0; the argument registers must survive
    // untouched until the ioctl reads them.
    f.addi(abi::SP, abi::SP, -32);
    f.st(abi::RA, abi::SP, 0, MemSize::B8);
    f.st(abi::S0, abi::SP, 8, MemSize::B8);
    f.li(abi::S0, layout::DESC_PAGE_VA as i64);

    // if (first_time_migration) allocate_nxp_stack();   (lines 3-4)
    f.ld(abi::T0, abi::S0, L::TCB_NXP_SP as i32, MemSize::B8);
    f.bne(abi::T0, abi::ZERO, have_stack);
    f.ecall(svc::ALLOC_NXP_STACK);
    f.bind(have_stack);

    // prepare_host_to_nxp_call + ioctl_migrate_and_suspend   (lines 5-6)
    f.ecall(svc::MIGRATE_AND_SUSPEND);

    // while (nxp_to_host_call) { ... }                  (lines 7-12)
    f.bind(lp);
    f.ld(abi::T0, abi::S0, L::KIND as i32, MemSize::B8);
    f.li(abi::T1, crate::DescKind::NxpToHostCall.tag() as i64);
    f.bne(abi::T0, abi::T1, done);
    f.ld(abi::T2, abi::S0, L::TARGET as i32, MemSize::B8);
    f.ld(abi::A0, abi::S0, L::ARGS as i32, MemSize::B8);
    f.ld(abi::A1, abi::S0, (L::ARGS + 8) as i32, MemSize::B8);
    f.ld(abi::A2, abi::S0, (L::ARGS + 16) as i32, MemSize::B8);
    f.ld(abi::A3, abi::S0, (L::ARGS + 24) as i32, MemSize::B8);
    f.ld(abi::A4, abi::S0, (L::ARGS + 32) as i32, MemSize::B8);
    f.ld(abi::A5, abi::S0, (L::ARGS + 40) as i32, MemSize::B8);
    f.call_reg(abi::T2); // host_ret = call_target_host_func(args)
    f.st(abi::A0, abi::S0, L::RET as i32, MemSize::B8);
    f.ecall(svc::MIGRATE_RETURN_AND_SUSPEND);
    f.jmp(lp);

    // return nxp_ret;                                   (lines 13-14)
    f.bind(done);
    f.ld(abi::A0, abi::S0, L::RET as i32, MemSize::B8);
    f.ld(abi::RA, abi::SP, 0, MemSize::B8);
    f.ld(abi::S0, abi::SP, 8, MemSize::B8);
    f.addi(abi::SP, abi::SP, 32);
    f.ret();
    f.finish()
}

/// Builds the NxP migration handler (paper Listing 2), exporting the
/// loop entry as [`NXP_HANDLER_LOOP`].
pub fn nxp_migration_handler() -> flick_isa::Func {
    nxp_migration_handler_for(TargetIsa::Nxp)
}

/// Builds the accelerator-side migration handler for any registered
/// NX-text ISA — the same Listing 2 logic, compiled for `isa` and
/// linked under its own symbols. Every accelerator ISA shares the one
/// descriptor-ring protocol; only the encoding differs.
///
/// # Panics
///
/// Panics when `isa` is the host's own encoding.
pub fn nxp_migration_handler_for(isa: TargetIsa) -> flick_isa::Func {
    assert!(
        isa.descriptor().nx_text,
        "{isa} is host text; the host handler is separate"
    );
    let mut f = FuncBuilder::new(nxp_handler_symbol(isa), isa);
    let lp = f.new_label();
    let done = f.new_label();

    // Entered on an exec-fault redirect: an NxP function called a host
    // function. Push a frame; args stay in registers for the runtime.
    f.addi(abi::SP, abi::SP, -32);
    f.st(abi::RA, abi::SP, 0, MemSize::B8);
    f.st(abi::S0, abi::SP, 8, MemSize::B8);
    f.li(abi::S0, layout::NXP_DESC_VA as i64);

    // prepare_nxp_to_host_call + migrate_and_suspend    (lines 3-4)
    f.ecall(svc::NXP_MIGRATE_AND_SUSPEND);

    // while (host_to_nxp_call) { ... }                  (lines 5-10)
    f.export_label(nxp_handler_loop_symbol(isa), lp);
    f.bind(lp);
    f.ld(abi::T0, abi::S0, L::KIND as i32, MemSize::B8);
    f.li(abi::T1, crate::DescKind::HostToNxpCall.tag() as i64);
    f.bne(abi::T0, abi::T1, done);
    f.ld(abi::T2, abi::S0, L::TARGET as i32, MemSize::B8);
    f.ld(abi::A0, abi::S0, L::ARGS as i32, MemSize::B8);
    f.ld(abi::A1, abi::S0, (L::ARGS + 8) as i32, MemSize::B8);
    f.ld(abi::A2, abi::S0, (L::ARGS + 16) as i32, MemSize::B8);
    f.ld(abi::A3, abi::S0, (L::ARGS + 24) as i32, MemSize::B8);
    f.ld(abi::A4, abi::S0, (L::ARGS + 32) as i32, MemSize::B8);
    f.ld(abi::A5, abi::S0, (L::ARGS + 40) as i32, MemSize::B8);
    f.call_reg(abi::T2); // nxp_ret = call_target_nxp_func(args)
    f.st(abi::A0, abi::S0, L::RET as i32, MemSize::B8);
    f.ecall(svc::NXP_RETURN_AND_SWITCH);
    f.jmp(lp);

    // return host_ret;                                  (lines 11-12)
    f.bind(done);
    f.ld(abi::A0, abi::S0, L::RET as i32, MemSize::B8);
    f.ld(abi::RA, abi::SP, 0, MemSize::B8);
    f.ld(abi::S0, abi::SP, 8, MemSize::B8);
    f.addi(abi::SP, abi::SP, 32);
    f.ret();
    f.finish()
}

/// The runtime library: thin `ecall` wrappers, with per-ISA variants of
/// the allocators so that code on either side calls its *local*
/// allocator without crossing the ISA boundary (§III-D's relocated
/// `malloc`).
pub fn runtime_funcs() -> Vec<flick_isa::Func> {
    let mut funcs = Vec::new();

    let wrapper = |name: &str, target: TargetIsa, service: u16| {
        let mut f = FuncBuilder::new(name, target);
        f.ecall(service);
        f.ret();
        f.finish()
    };

    // Host-side library.
    funcs.push({
        let mut f = FuncBuilder::new("flick_exit", TargetIsa::Host);
        f.ecall(svc::EXIT);
        f.halt(); // unreachable; keeps the CFG sane if EXIT ever returns
        f.finish()
    });
    funcs.push(wrapper("flick_print_u64", TargetIsa::Host, svc::PRINT_U64));
    funcs.push(wrapper("flick_print_str", TargetIsa::Host, svc::PRINT_STR));
    funcs.push(wrapper("malloc_host", TargetIsa::Host, svc::ALLOC_HOST));
    funcs.push(wrapper("malloc_nxp", TargetIsa::Host, svc::ALLOC_NXP));
    funcs.push(wrapper("flick_clock_ns", TargetIsa::Host, svc::CLOCK_NS));
    funcs.push(wrapper("flick_sleep_ns", TargetIsa::Host, svc::SLEEP_NS));

    // NxP-side library (same logical calls, local implementations).
    funcs.push(wrapper("nxp_malloc_nxp", TargetIsa::Nxp, svc::ALLOC_NXP));
    funcs.push(wrapper("nxp_clock_ns", TargetIsa::Nxp, svc::CLOCK_NS));

    funcs
}

/// Links the migration handlers and runtime library into a program —
/// the reproduction's analogue of "the migration handler \[is\] linked
/// into the application binary" (§III-B).
///
/// The host handler, the classic NxP handler and the two-ISA runtime
/// are always linked (keeping two-ISA binaries byte-identical to the
/// pre-registry toolchain). If the program already contains functions
/// for further accelerator ISAs, a migration handler and local runtime
/// wrappers for each of those ISAs are linked too.
pub fn add_runtime(p: &mut ProgramBuilder) {
    let mut extra: Vec<TargetIsa> = p
        .funcs()
        .iter()
        .map(|f| f.target)
        .filter(|t| t.descriptor().nx_text && *t != TargetIsa::Nxp)
        .collect();
    extra.sort();
    extra.dedup();

    p.func(host_migration_handler());
    p.func(nxp_migration_handler());
    for f in runtime_funcs() {
        p.func(f);
    }
    for isa in extra {
        p.func(nxp_migration_handler_for(isa));
        for f in accel_runtime_funcs(isa) {
            p.func(f);
        }
    }
}

/// Local runtime wrappers for one extra accelerator ISA, named with the
/// descriptor-name prefix (`arm64_malloc_nxp`, …) per the stdlib
/// convention.
fn accel_runtime_funcs(isa: TargetIsa) -> Vec<flick_isa::Func> {
    let wrapper = |name: String, service: u16| {
        let mut f = FuncBuilder::new(name, isa);
        f.ecall(service);
        f.ret();
        f.finish()
    };
    vec![
        wrapper(format!("{}_malloc_nxp", isa.name()), svc::ALLOC_NXP),
        wrapper(format!("{}_clock_ns", isa.name()), svc::CLOCK_NS),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_isa::Isa;

    #[test]
    fn handlers_encode_for_their_isas() {
        let h = host_migration_handler();
        assert_eq!(h.target, TargetIsa::Host);
        assert!(Isa::X64.encode(&h).is_ok());
        let n = nxp_migration_handler();
        assert_eq!(n.target, TargetIsa::Nxp);
        assert!(Isa::Rv64.encode(&n).is_ok());
    }

    #[test]
    fn nxp_handler_exports_loop_symbol() {
        let n = nxp_migration_handler();
        assert_eq!(n.exports.len(), 1);
        assert_eq!(n.exports[0].0, NXP_HANDLER_LOOP);
    }

    #[test]
    fn runtime_links_into_program() {
        let mut p = ProgramBuilder::new("t");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.call("flick_exit");
        p.func(main.finish());
        add_runtime(&mut p);
        let img = p.build().unwrap();
        for sym in [
            HOST_HANDLER,
            NXP_HANDLER,
            NXP_HANDLER_LOOP,
            "malloc_host",
            "malloc_nxp",
            "nxp_malloc_nxp",
        ] {
            assert!(img.find_symbol(sym).is_some(), "missing {sym}");
        }
        // The loop symbol points inside the NxP handler.
        let entry = img.find_symbol(NXP_HANDLER).unwrap();
        let lp = img.find_symbol(NXP_HANDLER_LOOP).unwrap();
        assert!(lp > entry && lp < entry + 512);
        assert_eq!(lp % 8, 0, "NxP loop entry must be 8-aligned");
    }

    #[test]
    fn handler_symbols_live_in_correct_sections() {
        let mut p = ProgramBuilder::new("t");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.halt();
        p.func(main.finish());
        add_runtime(&mut p);
        let img = p.build().unwrap();
        let host_h = img.find_symbol(HOST_HANDLER).unwrap();
        let nxp_h = img.find_symbol(NXP_HANDLER).unwrap();
        assert_eq!(img.segment_containing(host_h).unwrap().name, ".text");
        assert_eq!(img.segment_containing(nxp_h).unwrap().name, ".text.riscv");
    }
}
