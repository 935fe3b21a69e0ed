//! The open-loop serving scenario, end to end: seed determinism, overload behaviour of the admission path, and the
//! tenant-serialization invariant.

use flick::NxpPlacement;
use flick_workloads::serving::{
    gen_requests, kind, run_serving_scenario, summarize, ArrivalModel, ServingScenario,
};

fn base() -> ServingScenario {
    ServingScenario {
        tenants: 12,
        requests: 250,
        offered_rps: 30_000.0,
        ..ServingScenario::default()
    }
}

/// The headline determinism claim: the whole load sweep — completion
/// order, every latency, every counter — is bit-identical across
/// reruns: the first run sets the golden, two replays must match it.
#[test]
fn serving_replays_bit_identically_across_reruns() {
    for seed in [1u64, 0xBEEF] {
        let mut golden = None;
        for run in 0..3 {
            let cfg = ServingScenario { seed, ..base() };
            let r = run_serving_scenario(&cfg).unwrap();
            assert_eq!(r.completions.len(), cfg.requests);
            let fingerprint = (
                r.completions.clone(),
                r.finished_at,
                r.stats.get("migrations_host_to_nxp"),
                r.stats.get("admission_rejects"),
                r.stats.get("nx_faults"),
                r.stats.get("retransmits"),
            );
            match &golden {
                None => golden = Some(fingerprint),
                Some(g) => assert_eq!(
                    g, &fingerprint,
                    "seed {seed} run {run} diverged from golden"
                ),
            }
        }
    }
}

/// Bursty arrivals replay bit-identically too (the MMPP generator and
/// the machine share no state, but the schedule feeds queueing
/// decisions everywhere).
#[test]
fn mmpp_serving_is_deterministic() {
    let cfg = ServingScenario {
        arrivals: ArrivalModel::Mmpp {
            burst_factor: 6.0,
            mean_dwell_us: 150.0,
        },
        ..base()
    };
    let a = run_serving_scenario(&cfg).unwrap();
    let b = run_serving_scenario(&cfg).unwrap();
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.finished_at, b.finished_at);
}

/// Offered load far past ring capacity: the occupancy admission path
/// must actually reject at the doorbell, the run must still complete
/// every request (rejects retry or degrade, never vanish), and the
/// whole overloaded run must replay bit-identically.
#[test]
fn overload_rejects_at_admission_and_replays() {
    let cfg = ServingScenario {
        tenants: 24,
        requests: 400,
        offered_rps: 2_000_000.0, // far past the fleet's drain rate
        observability: true,
        ..ServingScenario::default()
    };
    let r = run_serving_scenario(&cfg).unwrap();
    assert_eq!(r.completions.len(), cfg.requests);
    let s = summarize(&cfg, &r);
    assert!(
        s.admission_rejects > 0,
        "overload must hit the admission path, stats: rejects={}",
        s.admission_rejects
    );
    // Queueing delay must dominate the tail relative to an unloaded
    // fleet's round trip (~15 µs): p99.9 at 50x saturation is far out.
    assert!(
        s.p999_ns > s.p50_ns,
        "tail must exceed median: p50={} p999={}",
        s.p50_ns,
        s.p999_ns
    );
    // The h2n queue-depth gauges the observability layer records stay
    // bounded by the ring capacity (admission is what bounds them).
    for (name, h) in r.stats.hists() {
        if name.starts_with("qdepth:h2n:") {
            assert!(
                h.max() <= 4,
                "{name} exceeded ring capacity: max={}",
                h.max()
            );
        }
    }
    // Bit-identical replay of the overloaded run.
    let again = run_serving_scenario(&cfg).unwrap();
    assert_eq!(r.completions, again.completions);
    assert_eq!(
        r.stats.get("admission_rejects"),
        again.stats.get("admission_rejects")
    );
}

/// Without the occupancy knob the doorbell never fills under pure
/// overload (the wall ring drains before each kick) — the knob is what
/// turns offered-load pressure into typed backpressure.
#[test]
fn occupancy_knob_is_what_creates_overload_rejects() {
    let mk = |ring_admission: bool| ServingScenario {
        tenants: 16,
        requests: 250,
        offered_rps: 2_000_000.0,
        ring_admission,
        ..ServingScenario::default()
    };
    let with = run_serving_scenario(&mk(true)).unwrap();
    let without = run_serving_scenario(&mk(false)).unwrap();
    assert!(with.stats.get("admission_rejects") > 0);
    assert_eq!(without.stats.get("admission_rejects"), 0);
    // Both complete the full schedule either way.
    assert_eq!(with.completions.len(), 250);
    assert_eq!(without.completions.len(), 250);
}

/// One tenant, many requests: tenants serialize, so completions are in
/// arrival order and each later request's latency includes its queueing
/// delay (open-loop accounting).
#[test]
fn single_tenant_serializes_in_arrival_order() {
    let cfg = ServingScenario {
        tenants: 1,
        requests: 40,
        offered_rps: 500_000.0, // arrivals much faster than service
        ..ServingScenario::default()
    };
    let r = run_serving_scenario(&cfg).unwrap();
    assert_eq!(r.completions.len(), 40);
    for w in r.completions.windows(2) {
        assert!(
            w[0].request < w[1].request,
            "single tenant must complete FIFO: {:?} then {:?}",
            w[0],
            w[1]
        );
        assert!(w[0].finished <= w[1].finished);
    }
    // The last request queued behind ~39 service times; its latency
    // must dwarf the first's.
    let first = r.completions.first().unwrap().latency();
    let last = r.completions.last().unwrap().latency();
    assert!(
        last > first * 4,
        "queueing delay must accumulate: first={first} last={last}"
    );
}

/// Placement policies and quantum sizes all serve the schedule
/// completely and deterministically; ISA-aware narrowing keeps kv
/// requests on arm64 slots even under least-loaded placement.
#[test]
fn placement_policies_serve_the_same_schedule() {
    for placement in [NxpPlacement::RoundRobin, NxpPlacement::LeastLoaded] {
        for quantum in [5_000u64, 50_000] {
            let cfg = ServingScenario {
                placement,
                quantum,
                ..base()
            };
            let r = run_serving_scenario(&cfg).unwrap();
            assert_eq!(r.completions.len(), cfg.requests, "{placement:?}/{quantum}");
            let reqs = gen_requests(&cfg);
            for c in &r.completions {
                if reqs[c.request].arg == kind::NULL {
                    assert_eq!(c.exit_code, 42);
                }
            }
        }
    }
}
