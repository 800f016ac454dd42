//! Synthesis as a service: a scheduler server on loopback TCP, exercised by
//! a handful of clients to show the cache tiers, request coalescing and the
//! per-request solver budget caps.
//!
//! Run with `cargo run --example scheduler_service`.

use std::sync::Arc;
use ttw::core::time::millis;
use ttw::core::{fixtures, SchedulerConfig};
use ttw::prelude::*;
use ttw::service::{BudgetCaps, ServedFrom};

fn fig3_request() -> SynthesizeRequest {
    let (system, graph, _, _) = fixtures::two_mode_graph();
    SynthesizeRequest {
        system,
        graph,
        config: SchedulerConfig::new(millis(10), 5),
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A memory-only service on an OS-assigned loopback port. Pass a
    // `cache_dir` in `ServiceConfig` to add the disk tier.
    let server = ServerHandle::bind(
        Arc::new(SchedulerService::new(ServiceConfig::default())),
        "127.0.0.1:0",
    )?;
    println!("scheduler service listening on {}", server.addr());

    // Cold request: the ILP backend runs.
    let mut client = Client::connect(server.addr())?;
    let cold = client.synthesize(fig3_request())?;
    println!(
        "cold : served={:<12} milp_nodes={:<4} {:>6} us",
        cold.served.wire_name(),
        cold.request_milp_nodes,
        cold.service_micros
    );

    // Warm request, different connection: the shared in-process cache
    // answers with zero solver work.
    let mut second = Client::connect(server.addr())?;
    let warm = second.synthesize(fig3_request())?;
    assert_eq!(warm.served, ServedFrom::Memory);
    assert_eq!(warm.request_milp_nodes, 0);
    println!(
        "warm : served={:<12} milp_nodes={:<4} {:>6} us",
        warm.served.wire_name(),
        warm.request_milp_nodes,
        warm.service_micros
    );

    // A tighter per-request budget is a *different* cache entry — budgets
    // are folded into the key, so capped requests never alias uncapped
    // results.
    let mut capped = fig3_request();
    capped.budget = BudgetCaps {
        max_nodes: Some(10_000),
        max_simplex_iterations: None,
    };
    let capped_reply = client.synthesize(capped)?;
    println!(
        "capped: served={:<12} milp_nodes={:<4} {:>6} us",
        capped_reply.served.wire_name(),
        capped_reply.request_milp_nodes,
        capped_reply.service_micros
    );

    let stats = client.stats()?;
    println!(
        "stats: requests={} solved={} coalesced={} cache_hits={} (mem={}, disk={})",
        stats.requests,
        stats.solved,
        stats.coalesced,
        stats.cache_hits,
        stats.cache_mem_hits,
        stats.cache_disk_hits
    );
    assert!(stats.reconciles());

    client.shutdown_server()?;
    println!("server acknowledged shutdown");
    Ok(())
}
