//! Runtime adaptability: the two-phase mode change of Fig. 2 executed over a
//! lossy network, comparing the safe TTW beacon rule with a legacy design
//! that keeps transmitting on its local round counter.
//!
//! Run with `cargo run --example mode_change`.

use ttw::core::time::millis;
use ttw::core::{fixtures, synthesis};
use ttw::netsim::{BeaconCorruption, FaultPlan};
use ttw::prelude::*;

fn run(
    policy: BeaconLossPolicy,
    loss: f64,
) -> Result<ttw::runtime::RuntimeStats, Box<dyn std::error::Error>> {
    let (system, graph, normal, emergency) = fixtures::two_mode_graph();
    let config = SchedulerConfig::new(millis(10), 5);
    // The mode-graph pipeline: the emergency mode inherits the control
    // application's offsets from the normal mode, so the switch never re-times
    // the running control loop (switch consistency, Sec. V). Synthesis goes
    // through the content-keyed schedule cache, so only the first run of
    // this example (per build) pays the MILP cost.
    let cache = ttw::core::cache::ScheduleCache::at_default_location();
    let (schedule, outcome) = ttw::core::cache::synthesize_system_cached(
        &system,
        &graph,
        &config,
        &synthesis::IlpSynthesizer,
        &cache,
    )?;
    println!(
        "schedule cache: {}",
        if outcome.is_hit() { "hit" } else { "miss" }
    );
    let sim_config = SimulationConfig {
        link_loss: loss,
        seed: 42,
        policy,
        ..SimulationConfig::default()
    };
    let mut sim =
        Simulation::with_clustered_topology(&system, &schedule.to_vec(), normal, 4, sim_config)?;
    // Normal operation, then switch to the emergency mode mid-run.
    sim.run_hyperperiods(4);
    sim.request_mode_change(emergency)?;
    sim.run_hyperperiods(8);
    assert_eq!(sim.current_mode(), emergency);
    Ok(sim.stats().clone())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("mode change from `normal` (control only) to `emergency` (control + diagnostics);");
    println!("the shared control application keeps identical offsets in both schedules");
    println!(
        "{:<10} {:>6} {:>14} {:>12} {:>12} {:>12}",
        "policy", "loss", "beacons miss", "collisions", "delivery", "mode changes"
    );
    for loss in [0.0, 0.5, 0.75] {
        for (name, policy) in [
            ("ttw", BeaconLossPolicy::SkipRound),
            ("legacy", BeaconLossPolicy::LegacyTransmit),
        ] {
            let stats = run(policy, loss)?;
            println!(
                "{:<10} {:>6.2} {:>14} {:>12} {:>11.1}% {:>12}",
                name,
                loss,
                stats.beacons_missed,
                stats.collisions,
                stats.delivery_ratio() * 100.0,
                stats.mode_changes
            );
        }
    }
    println!("\nTTW's rule (skip the round after a missed beacon) keeps the collision count at 0");
    println!("even under heavy loss and across mode changes, at the cost of skipped slots.");

    // Deterministic failure injection: sensor1 misses exactly the trigger
    // beacon and the first beacon of the new mode. Under the legacy policy it
    // keeps transmitting per the old mode's slot table and collides with the
    // new mode's slot owner; under the TTW policy it stays silent.
    println!(
        "\ninjected failure: sensor1 misses the trigger beacon and the first emergency beacon"
    );
    for (name, policy) in [
        ("ttw", BeaconLossPolicy::SkipRound),
        ("legacy", BeaconLossPolicy::LegacyTransmit),
    ] {
        let (system, graph, normal, emergency) = fixtures::two_mode_graph();
        let config = SchedulerConfig::new(millis(10), 5);
        let schedule =
            synthesis::synthesize_system(&system, &graph, &config, &synthesis::IlpSynthesizer)?;
        let sensor1 = system.node_id("sensor1").expect("node exists").index();
        let sim_config = SimulationConfig {
            policy,
            faults: Some(FaultPlan {
                beacon_corruption: Some(BeaconCorruption {
                    probability: 0.0,
                    forced: vec![(3, sensor1), (4, sensor1)],
                }),
                ..FaultPlan::none()
            }),
            ..SimulationConfig::default()
        };
        let mut sim = Simulation::with_clustered_topology(
            &system,
            &schedule.to_vec(),
            normal,
            4,
            sim_config,
        )?;
        sim.run_hyperperiods(1);
        sim.request_mode_change(emergency)?;
        sim.run_hyperperiods(4);
        println!(
            "  {:<8} collisions: {}, delivery: {:.1}%",
            name,
            sim.stats().collisions,
            sim.stats().delivery_ratio() * 100.0
        );
    }
    Ok(())
}
