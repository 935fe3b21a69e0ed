//! The guest programs of the three workloads.
//!
//! `flick-workloads` builds these programs privately inside its
//! one-call runners (`run_kvscan`, `run_bfs`, `build_serving_fleet`),
//! which hide machine build, link, load, staging and run behind one
//! call. The benchmark times each of those steps on its own, so it
//! builds the same programs here. `tests/parity.rs` runs them next to
//! the library runners at the same seed and requires identical
//! simulated time, results and migration counts, so a change to either
//! copy shows up as a test failure.

use flick_isa::{abi, FuncBuilder, MemSize, TargetIsa};
use flick_toolchain::{DataDef, ProgramBuilder};
use flick_workloads::kvscan::RECORD_BYTES;
use flick_workloads::serving::kind;

/// Flick-mode near-storage scan (`flick_workloads::kvscan`): the scan
/// runs on the NxP and calls `process_match` on the host per match.
/// Exits with the scan's simulated nanoseconds; the match count lands
/// in `kv_matches`.
pub fn kv_scan() -> ProgramBuilder {
    let mut p = ProgramBuilder::new("kvscan");
    for g in ["kv_base", "kv_n", "kv_lo", "kv_hi", "kv_matches"] {
        p.data(DataDef::bss(g, 8));
    }
    let args = [
        (abi::A0, "kv_base"),
        (abi::A1, "kv_n"),
        (abi::A2, "kv_lo"),
        (abi::A3, "kv_hi"),
    ];

    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    for (reg, sym) in args {
        main.li_sym(abi::T0, sym);
        main.ld(reg, abi::T0, 0, MemSize::B8);
    }
    main.call("flick_clock_ns");
    main.mv(abi::S4, abi::A0);
    // flick_clock_ns clobbered a0: load the arguments again.
    for (reg, sym) in args {
        main.li_sym(abi::T0, sym);
        main.ld(reg, abi::T0, 0, MemSize::B8);
    }
    main.call("scan");
    main.li_sym(abi::T0, "kv_matches");
    main.st(abi::A0, abi::T0, 0, MemSize::B8);
    main.call("flick_clock_ns");
    main.sub(abi::A0, abi::A0, abi::S4);
    main.call("flick_exit");
    p.func(main.finish());

    let saves = [abi::S0, abi::S1, abi::S2, abi::S3, abi::S5];
    let mut f = FuncBuilder::new("scan", TargetIsa::Nxp);
    let lp = f.new_label();
    let skip = f.new_label();
    let done = f.new_label();
    f.prologue(64, &saves);
    f.mv(abi::S0, abi::A0); // cursor
    f.mv(abi::S1, abi::A1); // remaining
    f.mv(abi::S2, abi::A2); // lo
    f.mv(abi::S3, abi::A3); // hi
    f.li(abi::S5, 0); // matches
    f.bind(lp);
    f.beq(abi::S1, abi::ZERO, done);
    f.ld(abi::T0, abi::S0, 0, MemSize::B8);
    f.bltu(abi::T0, abi::S2, skip);
    f.bgeu(abi::T0, abi::S3, skip);
    f.ld(abi::A1, abi::S0, 8, MemSize::B8);
    f.mv(abi::A0, abi::T0);
    f.call("process_match");
    f.addi(abi::S5, abi::S5, 1);
    f.bind(skip);
    f.addi(abi::S0, abi::S0, RECORD_BYTES as i32);
    f.addi(abi::S1, abi::S1, -1);
    f.jmp(lp);
    f.bind(done);
    f.mv(abi::A0, abi::S5);
    f.epilogue(64, &saves);
    p.func(f.finish());

    let mut task = FuncBuilder::new("process_match", TargetIsa::Host);
    task.xor(abi::A0, abi::A0, abi::A1);
    task.ret();
    p.func(task.finish());
    p
}

/// Flick-mode BFS (`flick_workloads::bfs`): the traversal runs on the
/// NxP and calls `vertex_task` on the host per discovered vertex.
/// Exits with the simulated nanoseconds per iteration; the vertices
/// discovered by the last iteration land in `g_count`.
pub fn bfs() -> ProgramBuilder {
    let mut p = ProgramBuilder::new("bfs");
    for g in [
        "g_rowptr",
        "g_col",
        "g_visited",
        "g_queue",
        "g_root",
        "g_iters",
        "g_count",
    ] {
        p.data(DataDef::bss(g, 8));
    }

    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    let lp = main.new_label();
    let done = main.new_label();
    main.li_sym(abi::T0, "g_root");
    main.ld(abi::S3, abi::T0, 0, MemSize::B8);
    main.li_sym(abi::T0, "g_iters");
    main.ld(abi::S1, abi::T0, 0, MemSize::B8);
    main.li(abi::S2, 1); // epoch
    main.call("flick_clock_ns");
    main.mv(abi::S4, abi::A0);
    main.bind(lp);
    main.beq(abi::S1, abi::ZERO, done);
    main.mv(abi::A0, abi::S3);
    main.mv(abi::A1, abi::S2);
    main.call("bfs");
    main.addi(abi::S2, abi::S2, 1);
    main.addi(abi::S1, abi::S1, -1);
    main.jmp(lp);
    main.bind(done);
    main.call("flick_clock_ns");
    main.sub(abi::A0, abi::A0, abi::S4);
    main.li_sym(abi::T0, "g_iters");
    main.ld(abi::T1, abi::T0, 0, MemSize::B8);
    main.divu(abi::A0, abi::A0, abi::T1);
    main.call("flick_exit");
    p.func(main.finish());

    let saves = [
        abi::S0,
        abi::S1,
        abi::S2,
        abi::S3,
        abi::S4,
        abi::S5,
        abi::S6,
        abi::S7,
        abi::S8,
        abi::S9,
    ];
    let mut f = FuncBuilder::new("bfs", TargetIsa::Nxp);
    let vloop = f.new_label();
    let eloop = f.new_label();
    let skip = f.new_label();
    let fin = f.new_label();
    f.prologue(96, &saves);
    f.mv(abi::S0, abi::A1); // epoch
    f.li_sym(abi::T0, "g_rowptr");
    f.ld(abi::S1, abi::T0, 0, MemSize::B8);
    f.li_sym(abi::T0, "g_col");
    f.ld(abi::S2, abi::T0, 0, MemSize::B8);
    f.li_sym(abi::T0, "g_visited");
    f.ld(abi::S3, abi::T0, 0, MemSize::B8);
    f.li_sym(abi::T0, "g_queue");
    f.ld(abi::S4, abi::T0, 0, MemSize::B8);
    f.li(abi::S5, 0); // head
    f.li(abi::S6, 0); // tail

    // visited[root] = epoch; queue[tail++] = root; task(root)
    f.add(abi::T0, abi::S3, abi::A0);
    f.st(abi::S0, abi::T0, 0, MemSize::B1);
    f.slli(abi::T1, abi::S6, 2);
    f.add(abi::T1, abi::S4, abi::T1);
    f.st(abi::A0, abi::T1, 0, MemSize::B4);
    f.addi(abi::S6, abi::S6, 1);
    f.call("vertex_task");
    f.bind(vloop);
    f.bge(abi::S5, abi::S6, fin);
    // u = queue[head++]
    f.slli(abi::T0, abi::S5, 2);
    f.add(abi::T0, abi::S4, abi::T0);
    f.ld(abi::S7, abi::T0, 0, MemSize::B4);
    f.addi(abi::S5, abi::S5, 1);
    // i = rowptr[u]; end = rowptr[u+1]
    f.slli(abi::T0, abi::S7, 3);
    f.add(abi::T0, abi::S1, abi::T0);
    f.ld(abi::S8, abi::T0, 0, MemSize::B8);
    f.ld(abi::S9, abi::T0, 8, MemSize::B8);
    f.bind(eloop);
    f.bge(abi::S8, abi::S9, vloop);
    // v = col[i++]
    f.slli(abi::T0, abi::S8, 2);
    f.add(abi::T0, abi::S2, abi::T0);
    f.ld(abi::T1, abi::T0, 0, MemSize::B4);
    f.addi(abi::S8, abi::S8, 1);
    // if visited[v] == epoch: continue
    f.add(abi::T2, abi::S3, abi::T1);
    f.ld(abi::T3, abi::T2, 0, MemSize::B1);
    f.beq(abi::T3, abi::S0, skip);
    // visited[v] = epoch; queue[tail++] = v; task(v)
    f.st(abi::S0, abi::T2, 0, MemSize::B1);
    f.slli(abi::T0, abi::S6, 2);
    f.add(abi::T0, abi::S4, abi::T0);
    f.st(abi::T1, abi::T0, 0, MemSize::B4);
    f.addi(abi::S6, abi::S6, 1);
    f.mv(abi::A0, abi::T1);
    f.call("vertex_task");
    f.bind(skip);
    f.jmp(eloop);
    f.bind(fin);
    f.li_sym(abi::T0, "g_count");
    f.st(abi::S6, abi::T0, 0, MemSize::B8);
    f.mv(abi::A0, abi::S6);
    f.epilogue(96, &saves);
    p.func(f.finish());

    let mut task = FuncBuilder::new("vertex_task", TargetIsa::Host);
    task.ret();
    p.func(task.finish());
    p
}

/// The serving tenant program (`flick_workloads::serving`): `main`
/// dispatches on the request argument to a null call (rv64, exits 42),
/// a pointer chase (rv64, exits with the nodes visited) or a key-range
/// count (arm64, exits with the matches).
pub fn serving() -> ProgramBuilder {
    let mut p = ProgramBuilder::new("serving");
    for g in [
        "srv_head",
        "srv_kv_base",
        "srv_kv_n",
        "srv_kv_lo",
        "srv_kv_hi",
    ] {
        p.data(DataDef::bss(g, 8));
    }

    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    let do_chase = main.new_label();
    let do_kv = main.new_label();
    main.li(abi::T1, kind::CHASE as i64);
    main.beq(abi::A0, abi::T1, do_chase);
    main.li(abi::T1, kind::KV as i64);
    main.beq(abi::A0, abi::T1, do_kv);
    main.li(abi::A0, 7);
    main.call("req_null");
    main.call("flick_exit");
    main.bind(do_chase);
    main.li_sym(abi::T0, "srv_head");
    main.ld(abi::A0, abi::T0, 0, MemSize::B8);
    main.call("req_chase");
    main.call("flick_exit");
    main.bind(do_kv);
    for (reg, sym) in [
        (abi::A0, "srv_kv_base"),
        (abi::A1, "srv_kv_n"),
        (abi::A2, "srv_kv_lo"),
        (abi::A3, "srv_kv_hi"),
    ] {
        main.li_sym(abi::T0, sym);
        main.ld(reg, abi::T0, 0, MemSize::B8);
    }
    main.call("req_kv");
    main.call("flick_exit");
    p.func(main.finish());

    let mut null = FuncBuilder::new("req_null", TargetIsa::Nxp);
    null.addi(abi::A0, abi::A0, 35);
    null.ret();
    p.func(null.finish());

    let mut chase = FuncBuilder::new("req_chase", TargetIsa::Nxp);
    let top = chase.new_label();
    let out = chase.new_label();
    chase.li(abi::T1, 0);
    chase.bind(top);
    chase.beq(abi::A0, abi::ZERO, out);
    chase.ld(abi::A0, abi::A0, 0, MemSize::B8);
    chase.addi(abi::T1, abi::T1, 1);
    chase.jmp(top);
    chase.bind(out);
    chase.mv(abi::A0, abi::T1);
    chase.ret();
    p.func(chase.finish());

    let mut kv = FuncBuilder::new("req_kv", TargetIsa::Arm64);
    let lp = kv.new_label();
    let skip = kv.new_label();
    let done = kv.new_label();
    kv.li(abi::T1, 0);
    kv.bind(lp);
    kv.beq(abi::A1, abi::ZERO, done);
    kv.ld(abi::T0, abi::A0, 0, MemSize::B8);
    kv.bltu(abi::T0, abi::A2, skip);
    kv.bgeu(abi::T0, abi::A3, skip);
    kv.addi(abi::T1, abi::T1, 1);
    kv.bind(skip);
    kv.addi(abi::A0, abi::A0, RECORD_BYTES as i32);
    kv.addi(abi::A1, abi::A1, -1);
    kv.jmp(lp);
    kv.bind(done);
    kv.mv(abi::A0, abi::T1);
    kv.ret();
    p.func(kv.finish());
    p
}
