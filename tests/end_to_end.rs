//! End-to-end integration tests spanning every crate: model → ILP synthesis →
//! validation → runtime execution, plus the consistency between the
//! simulation's energy accounting and the analytical model.

use ttw::core::time::millis;
use ttw::core::{fixtures, validate, ApplicationSpec};
use ttw::prelude::*;

#[test]
fn full_pipeline_on_a_custom_system() {
    // A system with two independent applications sharing nodes.
    let mut system = System::new();
    for node in ["s1", "s2", "ctrl", "act"] {
        system.add_node(node).expect("unique node");
    }
    let monitoring = system
        .add_application(
            &ApplicationSpec::new("monitoring", millis(200), millis(150))
                .with_task("mon.sample", "s1", millis(3))
                .with_task("mon.log", "ctrl", millis(2))
                .with_message("mon.data", ["mon.sample"], ["mon.log"]),
        )
        .expect("valid app");
    let control = system
        .add_application(
            &ApplicationSpec::new("control", millis(200), millis(120))
                .with_task("ctl.sense", "s2", millis(2))
                .with_task("ctl.compute", "ctrl", millis(5))
                .with_task("ctl.apply", "act", millis(1))
                .with_message("ctl.meas", ["ctl.sense"], ["ctl.compute"])
                .with_message("ctl.cmd", ["ctl.compute"], ["ctl.apply"]),
        )
        .expect("valid app");
    let mode = system
        .add_mode("normal", &[monitoring, control])
        .expect("valid mode");

    let config = SchedulerConfig::new(millis(10), 5);
    let schedule = synthesize_mode(&system, mode, &config).expect("feasible");
    assert!(schedule.num_rounds() >= 2);
    assert!(validate::is_valid_schedule(
        &system, mode, &config, &schedule
    ));
    assert!(schedule.app_latencies[&monitoring] <= millis(150) as f64 + 0.5);
    assert!(schedule.app_latencies[&control] <= millis(120) as f64 + 0.5);

    let mut sim = Simulation::with_clustered_topology(
        &system,
        &[schedule],
        mode,
        4,
        SimulationConfig::default(),
    )
    .expect("simulation builds");
    sim.run_hyperperiods(5);
    assert_eq!(sim.stats().collisions, 0);
    assert!((sim.stats().delivery_ratio() - 1.0).abs() < 1e-12);
}

#[test]
fn simulated_radio_on_time_matches_the_analytical_model() {
    // On a perfect channel every node participates in every round, so the
    // per-round radio-on time must equal the Fig. 7 model exactly.
    let (sys, mode) = fixtures::fig3_system();
    let config = SchedulerConfig::new(millis(10), 5);
    let schedule = synthesize_mode(&sys, mode, &config).expect("feasible");
    let slots_used = schedule.total_slots_used();
    let rounds = schedule.num_rounds();

    let mut sim = Simulation::with_clustered_topology(
        &sys,
        &[schedule],
        mode,
        4,
        SimulationConfig::default(),
    )
    .expect("simulation builds");
    sim.run_hyperperiods(1);

    let constants = GlossyConstants::table1();
    let diameter = 4; // clustered topology is built with the requested diameter
    let network = NetworkParams::with_paper_retransmissions(diameter);
    let beacon_on = ttw::timing::slot::radio_on_time(&constants, diameter, 2, constants.l_beacon);
    let data_on = ttw::timing::slot::radio_on_time(&constants, diameter, 2, 10);
    let expected_per_node = rounds as f64 * beacon_on + slots_used as f64 * data_on;
    let _ = network;

    // Every system node participated in every round.
    for node in 0..sys.num_nodes() {
        let measured = sim.radio().on_time(node);
        assert!(
            (measured - expected_per_node).abs() < 1e-9,
            "node {node}: measured {measured}, expected {expected_per_node}"
        );
    }
}

#[test]
fn larger_synthetic_modes_schedule_and_validate() {
    for (apps, tasks) in [(1usize, 4usize), (2, 2), (3, 2)] {
        let (sys, mode) = fixtures::synthetic_mode(apps, tasks, 3, millis(200));
        let config = SchedulerConfig::new(millis(10), 5);
        let schedule = synthesize_mode(&sys, mode, &config).expect("feasible");
        let violations = validate::validate_schedule(&sys, mode, &config, &schedule);
        assert!(
            violations.is_empty(),
            "apps={apps} tasks={tasks}: {violations:?}"
        );
    }
}

#[test]
fn multi_rate_mode_with_harmonic_periods() {
    // Two applications with 50 ms and 100 ms periods: the fast application's
    // message must be served twice per hyperperiod.
    let mut system = System::new();
    for node in ["a", "b"] {
        system.add_node(node).expect("unique node");
    }
    let fast = system
        .add_application(
            &ApplicationSpec::new("fast", millis(50), millis(50))
                .with_task("fast.src", "a", millis(1))
                .with_task("fast.dst", "b", millis(1))
                .with_message("fast.msg", ["fast.src"], ["fast.dst"]),
        )
        .expect("valid app");
    let slow = system
        .add_application(
            &ApplicationSpec::new("slow", millis(100), millis(100))
                .with_task("slow.src", "b", millis(1))
                .with_task("slow.dst", "a", millis(1))
                .with_message("slow.msg", ["slow.src"], ["slow.dst"]),
        )
        .expect("valid app");
    let mode = system.add_mode("mixed", &[fast, slow]).expect("valid mode");

    let config = SchedulerConfig::new(millis(10), 5);
    let schedule = synthesize_mode(&system, mode, &config).expect("feasible");
    assert_eq!(schedule.hyperperiod, millis(100));
    let fast_msg = system.message_id("fast.msg").expect("message");
    assert_eq!(schedule.rounds_carrying(fast_msg).len(), 2);
    let violations = validate::validate_schedule(&system, mode, &config, &schedule);
    assert!(violations.is_empty(), "{violations:?}");
}
