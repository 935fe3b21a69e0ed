//! Paper-workload benchmark for the Flick simulator.
//!
//! Each repetition sets up one workload on a fresh [`Machine`], runs it
//! and checks every guest result against a Rust reference. Set-up and
//! run are separate timed calls into the public API of `flick`,
//! `flick-workloads` and `flick-toolchain`, so host time splits into
//! the layers the calls belong to (see [`trace::Tracer`]).

pub mod programs;
pub mod trace;
pub mod yardstick;

use std::collections::VecDeque;

use flick::{handlers, Machine, MachineBuilder, RunError, ServingRequest};
use flick_cpu::ChainCounters;
use flick_mem::VirtAddr;
use flick_sim::{Side, Stats, TraceConfig, Xoshiro256};
use flick_workloads::graph::{self, Graph};
use flick_workloads::kvscan::RECORD_BYTES;
use flick_workloads::serving::{self as srv, kind, ServingScenario};
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: Flick-mode near-storage scan at 0.1% selectivity.
    KvScan,
    /// Closed loop: Flick-mode BFS over a seeded R-MAT graph.
    BfsRmat,
    /// Open loop: 32 tenants, Poisson arrivals below the knee.
    Serve50k,
    /// Open loop: the same fleet at about twice the knee.
    ServeOverload,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KvScan,
        Workload::BfsRmat,
        Workload::Serve50k,
        Workload::ServeOverload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvScan => "kv_scan",
            Workload::BfsRmat => "bfs_rmat",
            Workload::Serve50k => "serve_50k",
            Workload::ServeOverload => "serve_overload",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serving(self) -> bool {
        matches!(self, Workload::Serve50k | Workload::ServeOverload)
    }

    /// Offered load of the serving workloads, requests per simulated
    /// second.
    fn offered_rps(self) -> f64 {
        match self {
            Workload::ServeOverload => 150_000.0,
            _ => 50_000.0,
        }
    }
}

/// Input sizes. [`Sizes::BENCH`] is what the benchmark runs; the tests
/// use [`Sizes::SMALL`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub kv_records: u64,
    pub bfs_vertices: u64,
    pub bfs_iterations: u64,
    pub serve_requests: usize,
}

impl Sizes {
    pub const BENCH: Sizes = Sizes {
        kv_records: 1_000_000,
        bfs_vertices: 1 << 16,
        bfs_iterations: 2,
        serve_requests: 50_000,
    };
    pub const SMALL: Sizes = Sizes {
        kv_records: 20_000,
        bfs_vertices: 512,
        bfs_iterations: 2,
        serve_requests: 300,
    };
}

/// Share of kv records the scan matches, in parts per million.
pub const KV_SELECTIVITY_PPM: u64 = 1_000;
/// Out-edges per vertex of the R-MAT graph.
pub const BFS_EDGES_PER_VERTEX: u64 = 12;
/// Tenant processes of the serving fleet.
pub const SERVE_TENANTS: usize = 32;
/// Simulated latency limit a serving request must meet.
pub const SLO_LIMIT_PS: u64 = 500_000_000;
/// Instruction budget of one closed-loop run (the BFS runner's).
const RUN_FUEL: u64 = 60_000_000_000;

/// The serving scenario a serving workload runs: the library defaults
/// (2 x64 hosts, 4 NxPs alternating rv64/arm64, 40/30/30 mix, Poisson
/// arrivals, ring-occupancy admission) with 32 tenants.
pub fn serving_scenario(w: Workload, sizes: &Sizes, seed: u64) -> ServingScenario {
    ServingScenario {
        tenants: SERVE_TENANTS,
        requests: sizes.serve_requests,
        offered_rps: w.offered_rps(),
        seed,
        ..ServingScenario::default()
    }
}

/// What a run produced on the simulated side. Every field repeats
/// exactly for a given seed, whatever the host and whether tracing is
/// on.
#[derive(Clone, Debug, PartialEq)]
pub struct SimRecord {
    /// Fleet counters of the run (histograms excluded).
    pub counters: Vec<(&'static str, u64)>,
    /// Simulated time the run advanced, picoseconds.
    pub sim_time_ps: u64,
    /// The paper quantity, picoseconds: the scan time, the BFS time per
    /// iteration, or the instant the last serving request completed.
    pub run_ps: u64,
    /// Latency of each operation, picoseconds: every serving request
    /// from its arrival, in completion order; the one scan, or each BFS
    /// iteration (their mean, the only per-iteration time the guest
    /// reports).
    pub latencies_ps: Vec<u64>,
    /// Guest results: the match count, the vertices discovered, or each
    /// serving completion's `(request, exit code)`.
    pub results: Vec<(u64, u64)>,
}

impl SimRecord {
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Instructions retired by host and NxP cores.
    pub fn instructions(&self) -> u64 {
        self.get("instructions") + self.get("nxp_instructions")
    }

    /// Migrations and returns in both directions.
    pub fn crossings(&self) -> u64 {
        [
            "migrations_host_to_nxp",
            "returns_nxp_to_host",
            "migrations_nxp_to_host",
            "returns_host_to_nxp",
        ]
        .iter()
        .map(|k| self.get(k))
        .sum()
    }
}

/// One repetition: set up, run, check.
pub struct Rep {
    /// Host seconds spent setting up (machine build, data generation,
    /// link, load, staging).
    pub setup_s: f64,
    /// Host seconds spent in `Machine::run` / `Machine::run_serving`.
    pub run_s: f64,
    pub sim: SimRecord,
    /// Block-lane chaining tallies (host-side, deterministic).
    pub chain: ChainCounters,
    /// Observability histograms; empty unless the tracer was on.
    pub obs: Stats,
    /// Operations attempted: serving requests, or one closed-loop run.
    pub attempted: u64,
    /// Attempted operations that failed or returned a wrong result.
    pub failed: u64,
    /// What the output checks found wrong.
    pub errors: Vec<String>,
}

/// The inputs a seed generates.
enum Input {
    Kv {
        records: Vec<u8>,
    },
    Bfs {
        graph: Graph,
        root: u64,
    },
    Serve {
        requests: Vec<ServingRequest>,
        chase_slots: Vec<u64>,
        table: Vec<u8>,
    },
}

/// Runs one repetition of `w` at `seed`. With the tracer on, the
/// machine also records its simulated migration spans.
///
/// # Errors
///
/// Propagates simulator errors; wrong guest results are reported in
/// [`Rep::errors`] instead.
pub fn run_rep(w: Workload, sizes: &Sizes, seed: u64, tr: &mut Tracer) -> Result<Rep, RunError> {
    let setup_start = std::time::Instant::now();
    let setup = tr.open("bench.setup");
    let observability = tr.enabled();
    let mut m = tr.span("core.machine_build", || build_machine(w, observability));
    let input = tr.span("workloads.datagen", || gen_input(w, sizes, seed));
    let image = tr.span("toolchain.build", || {
        let mut p = match w {
            Workload::KvScan => programs::kv_scan(),
            Workload::BfsRmat => programs::bfs(),
            _ => programs::serving(),
        };
        handlers::add_runtime(&mut p);
        p.build().map_err(|e| RunError::Build(e.to_string()))
    })?;
    let copies = if w.is_serving() { SERVE_TENANTS } else { 1 };
    let pids = (0..copies)
        .map(|_| tr.span("core.load", || m.load(&image)))
        .collect::<Result<Vec<u64>, _>>()?;
    tr.span("core.stage", || stage(&mut m, &pids, &input, sizes))?;
    tr.close(setup);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let run_start = std::time::Instant::now();
    let ran = tr.span("core.run", || match &input {
        Input::Serve { requests, .. } => m
            .run_serving(
                &pids,
                requests,
                u64::MAX,
                ServingScenario::default().quantum,
            )
            .map(Ran::Serve),
        _ => m.run_with_fuel(pids[0], RUN_FUEL).map(Ran::Closed),
    })?;
    let run_s = run_start.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    let (sim, attempted, failed) = check(&m, &pids, &input, sizes, ran, &mut errors)?;
    let per_core: [u64; 2] = per_core_instructions(&m);
    if per_core != [sim.get("instructions"), sim.get("nxp_instructions")] {
        errors.push(format!(
            "per-core instructions {per_core:?} do not sum to the fleet counters"
        ));
    }
    let failed = if errors.is_empty() {
        failed
    } else {
        failed.max(1)
    };
    Ok(Rep {
        setup_s,
        run_s,
        sim,
        chain: m.chain_stats(),
        obs: m.observability_stats().clone(),
        attempted,
        failed,
        errors,
    })
}

enum Ran {
    Closed(flick::Outcome),
    Serve(flick::ServingReport),
}

fn build_machine(w: Workload, observability: bool) -> Machine {
    let b = MachineBuilder::default()
        .trace(TraceConfig {
            enabled: false,
            capacity: 0,
        })
        .observability(observability);
    if !w.is_serving() {
        return b.build();
    }
    // The fleet `flick_workloads::serving::build_serving_fleet` builds.
    let s = ServingScenario::default();
    b.topology(s.topology)
        .nxp_isas(s.nxp_isas)
        .nxp_placement(s.placement)
        .threads(s.threads)
        .ring_occupancy_admission(s.ring_admission)
        .kernel_config(flick_os::KernelConfig {
            host_stack_bytes: 64 << 10,
            ..Default::default()
        })
        .build()
}

fn gen_input(w: Workload, sizes: &Sizes, seed: u64) -> Input {
    match w {
        Workload::KvScan => {
            // The layout of `flick_workloads::kvscan`: key, value = 7i,
            // 16 bytes of payload; keys uniform in [0, 1e6).
            let mut rng = Xoshiro256::seeded(seed);
            let mut records = Vec::with_capacity((sizes.kv_records * RECORD_BYTES) as usize);
            for i in 0..sizes.kv_records {
                let key = rng.gen_range(0, 1_000_000);
                records.extend_from_slice(&key.to_le_bytes());
                records.extend_from_slice(&(i * 7).to_le_bytes());
                records.extend_from_slice(&[0u8; 16]);
            }
            Input::Kv { records }
        }
        Workload::BfsRmat => {
            let v = sizes.bfs_vertices;
            let graph = graph::rmat(v, v * BFS_EDGES_PER_VERTEX, seed);
            let root = graph.pick_root(seed);
            Input::Bfs { graph, root }
        }
        _ => {
            let requests = srv::gen_requests(&serving_scenario(w, sizes, seed));
            // The data set of `flick_workloads::serving`: a chase list
            // over distinct slots of a slab, then a kv table.
            let mut rng = Xoshiro256::seeded(seed ^ 0xDA7A);
            let slots = SERVE_CHASE_SLAB / 8;
            let mut used = std::collections::HashSet::new();
            let mut chase_slots = Vec::with_capacity(srv::CHASE_NODES as usize);
            while chase_slots.len() < srv::CHASE_NODES as usize {
                let s = rng.gen_range(0, slots);
                if used.insert(s) {
                    chase_slots.push(s);
                }
            }
            let mut table = Vec::with_capacity((srv::KV_RECORDS * RECORD_BYTES) as usize);
            for i in 0..srv::KV_RECORDS {
                let key = rng.gen_range(0, 1_000_000);
                table.extend_from_slice(&key.to_le_bytes());
                table.extend_from_slice(&(i * 3).to_le_bytes());
                table.extend_from_slice(&[0u8; 16]);
            }
            Input::Serve {
                requests,
                chase_slots,
                table,
            }
        }
    }
}

/// Bytes of the serving chase slab.
const SERVE_CHASE_SLAB: u64 = 64 << 10;
/// The serving kv leg counts keys below this bound.
const SERVE_KV_HI: u64 = 100_000;

/// Vertices reachable from `root`: what one BFS iteration discovers.
fn reference_bfs(g: &Graph, root: u64) -> u64 {
    let mut seen = vec![false; g.v as usize];
    let mut queue = VecDeque::from([root]);
    seen[root as usize] = true;
    let mut n = 1;
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbours(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                n += 1;
                queue.push_back(u64::from(v));
            }
        }
    }
    n
}

/// Records among the 32-byte `records` whose key is below `hi`.
fn keys_below(records: &[u8], hi: u64) -> u64 {
    records
        .chunks_exact(RECORD_BYTES as usize)
        .filter(|r| u64::from_le_bytes(r[..8].try_into().expect("8-byte key")) < hi)
        .count() as u64
}

fn write_globals(m: &mut Machine, pid: u64, globals: &[(&str, u64)]) -> Result<(), RunError> {
    for &(sym, val) in globals {
        let va = m
            .symbol(pid, sym)
            .ok_or_else(|| RunError::Build(format!("image lacks `{sym}`")))?;
        m.stage_write(pid, va, &val.to_le_bytes())?;
    }
    Ok(())
}

fn stage(m: &mut Machine, pids: &[u64], input: &Input, sizes: &Sizes) -> Result<(), RunError> {
    match input {
        Input::Kv { records, .. } => {
            let pid = pids[0];
            let base = m.stage_alloc_nxp(pid, records.len() as u64)?;
            m.stage_write(pid, base, records)?;
            write_globals(
                m,
                pid,
                &[
                    ("kv_base", base.as_u64()),
                    ("kv_n", sizes.kv_records),
                    ("kv_lo", 0),
                    ("kv_hi", KV_SELECTIVITY_PPM),
                ],
            )
        }
        Input::Bfs { graph, root, .. } => {
            let pid = pids[0];
            let rowptr_va = m.stage_alloc_nxp(pid, graph.row_ptr.len() as u64 * 8)?;
            let col_va = m.stage_alloc_nxp(pid, graph.col.len() as u64 * 4)?;
            let visited_va = m.stage_alloc_nxp(pid, graph.v)?;
            let queue_va = m.stage_alloc_nxp(pid, graph.v * 4)?;
            let rowptr: Vec<u8> = graph.row_ptr.iter().flat_map(|x| x.to_le_bytes()).collect();
            m.stage_write(pid, rowptr_va, &rowptr)?;
            let col: Vec<u8> = graph.col.iter().flat_map(|x| x.to_le_bytes()).collect();
            m.stage_write(pid, col_va, &col)?;
            write_globals(
                m,
                pid,
                &[
                    ("g_rowptr", rowptr_va.as_u64()),
                    ("g_col", col_va.as_u64()),
                    ("g_visited", visited_va.as_u64()),
                    ("g_queue", queue_va.as_u64()),
                    ("g_root", *root),
                    ("g_iters", sizes.bfs_iterations),
                ],
            )
        }
        Input::Serve {
            chase_slots, table, ..
        } => {
            // Equal allocations in equal order give every tenant the
            // same NxP addresses over the same shared bytes, so tenant 0
            // writes the data set once.
            let mut bases = None;
            for &pid in pids {
                let slab = m.stage_alloc_nxp(pid, SERVE_CHASE_SLAB)?;
                let tab = m.stage_alloc_nxp(pid, table.len() as u64)?;
                if *bases.get_or_insert((slab, tab)) != (slab, tab) {
                    return Err(RunError::Build("tenant NxP heaps diverged".into()));
                }
            }
            let (slab, tab) = bases.ok_or_else(|| RunError::Build("no tenants".into()))?;
            let slot_va = |s: u64| slab.as_u64() + s * 8;
            for (i, &s) in chase_slots.iter().enumerate() {
                let next = chase_slots.get(i + 1).map_or(0, |&n| slot_va(n));
                m.stage_write(pids[0], VirtAddr(slot_va(s)), &next.to_le_bytes())?;
            }
            m.stage_write(pids[0], tab, table)?;
            for &pid in pids {
                write_globals(
                    m,
                    pid,
                    &[
                        ("srv_head", slot_va(chase_slots[0])),
                        ("srv_kv_base", tab.as_u64()),
                        ("srv_kv_n", srv::KV_RECORDS),
                        ("srv_kv_lo", 0),
                        ("srv_kv_hi", SERVE_KV_HI),
                    ],
                )?;
            }
            Ok(())
        }
    }
}

fn read_global(m: &Machine, pid: u64, sym: &str) -> Result<u64, RunError> {
    let va = m
        .symbol(pid, sym)
        .ok_or_else(|| RunError::Build(format!("image lacks `{sym}`")))?;
    let mut buf = [0u8; 8];
    m.stage_read(pid, va, &mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Checks the guest results against the inputs' references; returns
/// the run's simulated record, operations attempted and failed.
fn check(
    m: &Machine,
    pids: &[u64],
    input: &Input,
    sizes: &Sizes,
    ran: Ran,
    errors: &mut Vec<String>,
) -> Result<(SimRecord, u64, u64), RunError> {
    fn expect(errors: &mut Vec<String>, what: &str, got: u64, want: u64) {
        if got != want {
            errors.push(format!("{what}: got {got}, expected {want}"));
        }
    }
    match (input, ran) {
        (Input::Kv { records }, Ran::Closed(out)) => {
            let matches = read_global(m, pids[0], "kv_matches")?;
            let want = keys_below(records, KV_SELECTIVITY_PPM);
            expect(errors, "kv matches", matches, want);
            let migrations = out.stats.get("migrations_nxp_to_host");
            expect(errors, "kv match migrations", migrations, matches);
            let scan_ps = out.exit_code * 1_000;
            let sim = SimRecord {
                counters: out.stats.iter().collect(),
                sim_time_ps: out.sim_time.as_picos(),
                run_ps: scan_ps,
                latencies_ps: vec![scan_ps],
                results: vec![(0, matches)],
            };
            Ok((sim, 1, u64::from(!errors.is_empty())))
        }
        (Input::Bfs { graph, root }, Ran::Closed(out)) => {
            let discovered = read_global(m, pids[0], "g_count")?;
            let want = reference_bfs(graph, *root);
            expect(errors, "bfs discovered", discovered, want);
            let callbacks = out.stats.get("migrations_nxp_to_host");
            expect(
                errors,
                "bfs callbacks",
                callbacks,
                discovered * sizes.bfs_iterations,
            );
            let iter_ps = out.exit_code * 1_000;
            let sim = SimRecord {
                counters: out.stats.iter().collect(),
                sim_time_ps: out.sim_time.as_picos(),
                run_ps: iter_ps,
                latencies_ps: vec![iter_ps; sizes.bfs_iterations as usize],
                results: vec![(0, discovered)],
            };
            Ok((sim, 1, u64::from(!errors.is_empty())))
        }
        (
            Input::Serve {
                requests, table, ..
            },
            Ran::Serve(report),
        ) => {
            let kv_matches = keys_below(table, SERVE_KV_HI);
            let mut done = vec![false; requests.len()];
            let mut failed = 0u64;
            for c in &report.completions {
                let Some(req) = requests.get(c.request) else {
                    errors.push(format!("completion names unknown request {}", c.request));
                    continue;
                };
                let want = match req.arg {
                    kind::NULL => 42,
                    kind::CHASE => srv::CHASE_NODES,
                    _ => kv_matches,
                };
                if done[c.request] || c.exit_code != want || c.tenant != req.tenant {
                    failed += 1;
                    if errors.len() < 8 {
                        errors.push(format!(
                            "request {} (kind {}): exit {}, expected {want}",
                            c.request, req.arg, c.exit_code
                        ));
                    }
                }
                done[c.request] = true;
            }
            let missing = done.iter().filter(|d| !**d).count() as u64;
            expect(
                errors,
                "serving completions",
                report.completions.len() as u64,
                requests.len() as u64,
            );
            let stat = |k| report.stats.get(k);
            expect(
                errors,
                "serving faults injected",
                stat("faults_injected"),
                0,
            );
            expect(errors, "serving crc rejects", stat("crc_rejects"), 0);
            expect(errors, "serving degraded calls", stat("degraded_calls"), 0);
            // The simulated host counts every re-kick of a descriptor as
            // a retransmit, including the re-kick after a ring-occupancy
            // admission reject. With no faults injected, that must be
            // the only kind.
            expect(
                errors,
                "serving retransmits not caused by an admission reject",
                stat("retransmits"),
                stat("admission_rejects"),
            );
            let sim = SimRecord {
                counters: report.stats.iter().collect(),
                sim_time_ps: report.finished_at.as_picos(),
                run_ps: report.finished_at.as_picos(),
                latencies_ps: report
                    .completions
                    .iter()
                    .map(|c| c.latency().as_picos())
                    .collect(),
                results: report
                    .completions
                    .iter()
                    .map(|c| (c.request as u64, c.exit_code))
                    .collect(),
            };
            Ok((sim, requests.len() as u64, failed + missing))
        }
        _ => Err(RunError::Build("run kind does not match the input".into())),
    }
}

/// Instructions retired per side, summed over `per_core_stats`.
fn per_core_instructions(m: &Machine) -> [u64; 2] {
    let mut sums = [0, 0];
    for (core, stats) in m.per_core_stats() {
        match core.side {
            Side::Host => sums[0] += stats.get("instructions"),
            Side::Nxp => sums[1] += stats.get("instructions"),
            Side::Emu => {}
        }
    }
    sums
}
