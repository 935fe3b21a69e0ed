//! The benchmark's guest programs reproduce the `flick-workloads`
//! runners exactly: same simulated time, same results, same migrations.

use flick_workloads::bfs::{run_bfs, BfsConfig, BfsMode};
use flick_workloads::kvscan::{run_kvscan, KvConfig, KvMode};
use flick_workloads::serving::{build_serving_fleet, gen_requests};
use paperbench::trace::Tracer;
use paperbench::{
    run_rep, serving_scenario, Sizes, Workload, BFS_EDGES_PER_VERTEX, KV_SELECTIVITY_PPM,
};

const SEED: u64 = 7;

fn rep(w: Workload) -> paperbench::Rep {
    let rep = run_rep(w, &Sizes::SMALL, SEED, &mut Tracer::new(false)).unwrap();
    assert!(rep.errors.is_empty(), "{:?}", rep.errors);
    rep
}

#[test]
fn kv_scan_matches_run_kvscan() {
    let lib = run_kvscan(&KvConfig {
        records: Sizes::SMALL.kv_records,
        selectivity_ppm: KV_SELECTIVITY_PPM,
        mode: KvMode::Flick,
        seed: SEED,
    })
    .unwrap();
    let sim = rep(Workload::KvScan).sim;
    assert!(lib.matches > 0, "the parity case must migrate");
    assert_eq!(sim.run_ps, lib.scan_time.as_picos());
    assert_eq!(sim.results, vec![(0, lib.matches)]);
    assert_eq!(sim.get("migrations_nxp_to_host"), lib.match_migrations);
}

#[test]
fn bfs_rmat_matches_run_bfs() {
    let s = Sizes::SMALL;
    let graph =
        flick_workloads::graph::rmat(s.bfs_vertices, s.bfs_vertices * BFS_EDGES_PER_VERTEX, SEED);
    let lib = run_bfs(
        &graph,
        &BfsConfig {
            iterations: s.bfs_iterations,
            mode: BfsMode::Flick,
            seed: SEED,
        },
    )
    .unwrap();
    let sim = rep(Workload::BfsRmat).sim;
    assert_eq!(sim.run_ps, lib.per_iteration.as_picos());
    assert_eq!(sim.results, vec![(0, lib.discovered)]);
    assert_eq!(sim.get("migrations_nxp_to_host"), lib.callback_migrations);
}

#[test]
fn serving_matches_build_serving_fleet() {
    for w in [Workload::Serve50k, Workload::ServeOverload] {
        let cfg = serving_scenario(w, &Sizes::SMALL, SEED);
        let (mut m, tenants) = build_serving_fleet(&cfg).unwrap();
        let report = m
            .run_serving(&tenants, &gen_requests(&cfg), u64::MAX, cfg.quantum)
            .unwrap();
        let sim = rep(w).sim;
        assert_eq!(sim.run_ps, report.finished_at.as_picos(), "{w:?}");
        let results: Vec<(u64, u64)> = report
            .completions
            .iter()
            .map(|c| (c.request as u64, c.exit_code))
            .collect();
        assert_eq!(sim.results, results, "{w:?}");
        let latencies: Vec<u64> = report
            .completions
            .iter()
            .map(|c| c.latency().as_picos())
            .collect();
        assert_eq!(sim.latencies_ps, latencies, "{w:?}");
        let counters: Vec<(&str, u64)> = report.stats.iter().collect();
        assert_eq!(sim.counters, counters, "{w:?}");
    }
}
