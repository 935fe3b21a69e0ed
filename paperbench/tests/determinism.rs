//! Seeds fix the inputs and every simulated result; tracing changes
//! none of them.

use paperbench::trace::Tracer;
use paperbench::{run_rep, Rep, Sizes, Workload};

fn rep(w: Workload, seed: u64, traced: bool) -> Rep {
    let rep = run_rep(w, &Sizes::SMALL, seed, &mut Tracer::new(traced)).unwrap();
    assert!(rep.errors.is_empty(), "{w:?} seed {seed}: {:?}", rep.errors);
    assert_eq!(rep.failed, 0, "{w:?} seed {seed}");
    rep
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for w in Workload::ALL {
        let a = rep(w, 1, false);
        let b = rep(w, 1, false);
        assert_eq!(a.sim, b.sim, "{w:?}");
        assert_eq!(a.chain, b.chain, "{w:?}");
        let c = rep(w, 2, false);
        assert_ne!(a.sim, c.sim, "{w:?}: a second seed must change the inputs");
    }
}

#[test]
fn tracing_leaves_simulated_results_unchanged() {
    for w in Workload::ALL {
        let plain = rep(w, 3, false);
        let traced = rep(w, 3, true);
        assert_eq!(plain.sim, traced.sim, "{w:?}");
        assert_eq!(plain.chain, traced.chain, "{w:?}");
        assert!(plain.obs.hists().next().is_none(), "{w:?}");
        assert!(traced.obs.hist("span:total").is_some(), "{w:?}");
    }
}

#[test]
fn traced_run_records_each_layer_span() {
    let mut tr = Tracer::new(true);
    run_rep(Workload::Serve50k, &Sizes::SMALL, 4, &mut tr).unwrap();
    for name in [
        "bench.setup",
        "core.machine_build",
        "workloads.datagen",
        "toolchain.build",
        "core.load",
        "core.stage",
        "core.run",
    ] {
        assert!(tr.spans().iter().any(|s| s.name == name), "no {name} span");
    }
    let loads = tr.spans().iter().filter(|s| s.name == "core.load").count();
    assert_eq!(loads, paperbench::SERVE_TENANTS);
    let setup = tr.spans().iter().position(|s| s.name == "bench.setup");
    assert!(tr
        .spans()
        .iter()
        .filter(|s| s.name == "core.load")
        .all(|s| s.parent == setup));
}
