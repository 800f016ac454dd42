//! Load generator for the `ttw-service` scheduler server.
//!
//! Starts a real server on loopback TCP and drives it with concurrent
//! client threads through three phases:
//!
//! 1. **cold** — every client requests every generated scenario, so each
//!    unique fingerprint solves exactly once and the cache fills.
//! 2. **warm** — every client re-requests every scenario; all of these must
//!    be served from the in-process cache with zero solver nodes.
//! 3. **coalesce** — all clients fire the *same* cold fingerprint
//!    simultaneously; exactly one solve may run, everyone else coalesces
//!    onto the flight (or hits the just-filled cache).
//!
//! `BENCH_service.json` holds what the racing clients cannot reorder, so the
//! file repeats byte for byte and the CI perf-regression job can diff it
//! against the committed copy: requests per phase, `milp_nodes` (total
//! solver nodes across the run) and the service counters. Which of two
//! racing requests hit the cache and which coalesced onto the flight differs
//! run to run, so of [`RACING`] only the two combinations every interleaving
//! agrees on are written. The invariants are assertions that make this
//! program exit non-zero:
//!
//! * `duplicate_solves` (solves beyond one per unique fingerprint) and
//!   `warm_milp_nodes` (solver nodes spent in the warm phase) are **exactly
//!   zero** — the service's coalescing and cache guarantees;
//! * the counters reconcile (`StatsSnapshot::reconciles`).
//!
//! Throughput per phase is printed on stderr; `benchmark/` measures it.

use std::sync::Arc;
use ttw_bench::{timed, Report};
use ttw_service::{
    BackendKind, BudgetCaps, Client, SchedulerService, ServedFrom, ServerHandle, ServiceConfig,
    SynthesizeRequest,
};
use ttw_testkit::{generate, GeneratorConfig, GraphShape, Scenario};

/// Fixed generator seeds for the distinct-scenario workload; every seed in
/// this list generates a feasible 2-mode chain (the bench measures the
/// service, not the solver's failure paths).
const SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Concurrent client connections per phase.
const CLIENTS: usize = 4;
/// Counters split by who wins a race: a request that finds its fingerprint
/// in flight coalesces, one that arrives a moment later hits the cache. A
/// reply's length follows its provenance string and the digits of its
/// `service_micros`, so no byte count repeats either. Of an entry's memory
/// hits the first decoded one records the request and later ones repeat it,
/// unless two first hits race, so `repeat_hits` does not repeat.
const RACING: [&str; 6] = [
    "coalesced",
    "cache_hits",
    "cache_mem_hits",
    "cache_misses",
    "reply_bytes",
    "repeat_hits",
];

fn request_for(scenario: &Scenario) -> SynthesizeRequest {
    SynthesizeRequest {
        system: scenario.system.clone(),
        graph: scenario.graph.clone(),
        config: scenario.scheduler_config(),
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    }
}

/// What one phase did: replies received, the solver nodes they reported and
/// how long it took.
struct Phase {
    requests: usize,
    milp_nodes: usize,
    seconds: f64,
}

/// Runs one phase: every client thread runs `work`, which returns the
/// `(replies, solver nodes)` it saw.
fn run_phase(
    addr: std::net::SocketAddr,
    work: impl Fn(&mut Client) -> (usize, usize) + Sync,
) -> Phase {
    let (results, seconds) = timed(|| {
        std::thread::scope(|scope| {
            let work = &work;
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect to bench server");
                        work(&mut client)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("bench client thread"))
                .collect::<Vec<(usize, usize)>>()
        })
    });
    Phase {
        requests: results.iter().map(|(requests, _)| requests).sum(),
        milp_nodes: results.iter().map(|(_, nodes)| nodes).sum(),
        seconds,
    }
}

fn main() {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let server = ServerHandle::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let scenarios: Vec<Scenario> = SEEDS
        .iter()
        .map(|&seed| generate(&GeneratorConfig::small(2, GraphShape::Chain), seed))
        .collect();

    // Phase 1: cold fill. Every client requests every scenario in the same
    // order; the first request per fingerprint solves, the rest coalesce or
    // hit.
    let cold = run_phase(addr, |client| {
        let mut nodes = 0;
        for scenario in &scenarios {
            let reply = client
                .synthesize(request_for(scenario))
                .expect("bench scenario feasible");
            nodes += reply.request_milp_nodes;
        }
        (scenarios.len(), nodes)
    });

    // Phase 2: warm sweep — every request must be served without solving.
    let warm = run_phase(addr, |client| {
        let mut nodes = 0;
        for scenario in &scenarios {
            let reply = client
                .synthesize(request_for(scenario))
                .expect("warm request");
            assert!(
                reply.served.is_warm(),
                "warm-phase request was served by a fresh solve"
            );
            nodes += reply.request_milp_nodes;
        }
        (scenarios.len(), nodes)
    });

    // Phase 3: coalescing burst on one brand-new fingerprint. Seed 8 is
    // outside SEEDS, so the key is cold; all clients race it at once.
    let burst = generate(&GeneratorConfig::small(3, GraphShape::Chain), 8);
    let coalesce = run_phase(addr, |client| {
        let reply = client
            .synthesize(request_for(&burst))
            .expect("burst scenario feasible");
        let solved = reply.served == ServedFrom::Solved;
        (1, if solved { reply.request_milp_nodes } else { 0 })
    });

    let snapshot = service.snapshot();
    let unique_fingerprints = scenarios.len() + 1; // + the burst scenario
    let duplicate_solves = snapshot.solved.saturating_sub(unique_fingerprints);

    eprintln!("\n=== Scheduler service under concurrent load ===");
    for (name, phase) in [("cold", &cold), ("warm", &warm), ("coalesce", &coalesce)] {
        eprintln!(
            "{name:<9} {:>4} requests {:>10.0} req/s",
            phase.requests,
            phase.requests as f64 / phase.seconds.max(1e-9),
        );
    }
    eprintln!(
        "counters: solved={} coalesced={} cache_hits={} (mem={} disk={}) \
         duplicate_solves={duplicate_solves} warm_milp_nodes={}\n",
        snapshot.solved,
        snapshot.coalesced,
        snapshot.cache_hits,
        snapshot.cache_mem_hits,
        snapshot.cache_disk_hits,
        warm.milp_nodes,
    );

    assert!(snapshot.reconciles(), "counters drifted: {snapshot:?}");
    assert_eq!(
        duplicate_solves, 0,
        "some fingerprint solved more than once"
    );
    assert_eq!(warm.milp_nodes, 0, "warm requests spent solver nodes");
    assert_eq!(snapshot.solved, unique_fingerprints);

    let mut counters = Report::default()
        .set(
            "cache_hits_plus_coalesced",
            snapshot.cache_hits + snapshot.coalesced,
        )
        .set(
            "cache_misses_minus_coalesced",
            snapshot.cache_misses - snapshot.coalesced,
        );
    for (name, value) in snapshot.fields() {
        if !RACING.contains(&name) {
            counters = counters.set(name, value);
        }
    }

    Report::new(
        "service_load",
        "ttw-service TCP server on loopback; concurrent clients over \
         ttw-testkit 2-mode chain scenarios: cold fill, warm sweep, \
         coalescing burst",
    )
    .set("clients", CLIENTS)
    .set("unique_fingerprints", unique_fingerprints)
    .set("milp_nodes", cold.milp_nodes + coalesce.milp_nodes)
    .set("warm_milp_nodes", warm.milp_nodes)
    .set("duplicate_solves", duplicate_solves)
    .section(
        "phases",
        Report::default()
            .section("cold", Report::default().set("requests", cold.requests))
            .section("warm", Report::default().set("requests", warm.requests))
            .section(
                "coalesce",
                Report::default().set("requests", coalesce.requests),
            ),
    )
    .section("service_counters", counters)
    .write("BENCH_service.json")
    .expect("write the snapshot");
}
