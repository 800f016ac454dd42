//! Runtime reliability — executing TTW schedules under packet loss and mode
//! changes (Sec. II.B, Fig. 2).
//!
//! The paper argues that a node which misses a beacon must stay silent so that
//! packet loss never causes message collisions. This bench runs the Fig. 3
//! workload through a mode change over an increasingly lossy channel and
//! prints, for the safe TTW policy and the unsafe legacy policy, the number of
//! missed beacons, collisions and the end-to-end delivery ratio.

use ttw_core::time::millis;
use ttw_core::{fixtures, synthesis, SchedulerConfig};
use ttw_runtime::{BeaconLossPolicy, Simulation, SimulationConfig};

fn build_inputs() -> (
    ttw_core::System,
    Vec<ttw_core::ModeSchedule>,
    ttw_core::ModeId,
    ttw_core::ModeId,
) {
    let (sys, normal, emergency) = fixtures::two_mode_system();
    let config = SchedulerConfig::new(millis(10), 5);
    let schedules = synthesis::synthesize_all_modes(&sys, &config)
        .expect("feasible")
        .to_vec();
    (sys, schedules, normal, emergency)
}

fn run_once(
    sys: &ttw_core::System,
    schedules: &[ttw_core::ModeSchedule],
    normal: ttw_core::ModeId,
    emergency: ttw_core::ModeId,
    loss: f64,
    policy: BeaconLossPolicy,
    seed: u64,
) -> ttw_runtime::RuntimeStats {
    let config = SimulationConfig {
        link_loss: loss,
        seed,
        policy,
        ..SimulationConfig::default()
    };
    let mut sim = Simulation::with_clustered_topology(sys, schedules, normal, 4, config)
        .expect("simulation builds");
    sim.run_hyperperiods(3);
    sim.request_mode_change(emergency).expect("known mode");
    sim.run_hyperperiods(5);
    sim.stats().clone()
}

fn main() {
    let (sys, schedules, normal, emergency) = build_inputs();

    eprintln!("\n=== Runtime reliability under loss (mode change after 3 hyperperiods) ===");
    eprintln!(
        "{:>6} {:>10} {:>14} {:>12} {:>10} {:>14} {:>12} {:>10}",
        "loss",
        "policy",
        "beacons miss",
        "collisions",
        "delivery",
        "beacons miss",
        "collisions",
        "delivery"
    );
    eprintln!(
        "{:>6} {:>10} {:>40} {:>38}",
        "", "", "--- TTW (skip round) ---", "--- legacy (keep transmitting) ---"
    );
    for loss in [0.0, 0.25, 0.5, 0.75] {
        let safe = run_once(
            &sys,
            &schedules,
            normal,
            emergency,
            loss,
            BeaconLossPolicy::SkipRound,
            11,
        );
        let legacy = run_once(
            &sys,
            &schedules,
            normal,
            emergency,
            loss,
            BeaconLossPolicy::LegacyTransmit,
            11,
        );
        eprintln!(
            "{:>6.2} {:>10} {:>14} {:>12} {:>9.1}% {:>14} {:>12} {:>9.1}%",
            loss,
            "",
            safe.beacons_missed,
            safe.collisions,
            safe.delivery_ratio() * 100.0,
            legacy.beacons_missed,
            legacy.collisions,
            legacy.delivery_ratio() * 100.0,
        );
        assert_eq!(safe.collisions, 0, "TTW must never collide");
    }
    eprintln!();
}
