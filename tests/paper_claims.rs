//! Cross-crate checks of the paper's headline claims.
//!
//! The tests check the Table I constants, the Fig. 6 round-length anchor,
//! the Fig. 7 energy-saving band, the factor-2 latency improvement, the
//! round- and latency-optimal Fig. 3 schedule and the safety claim (no
//! collisions under packet loss and mode changes). The examples
//! `timing_model`, `energy_savings` and `latency_bounds` print the tables
//! behind these numbers.

use ttw::baselines::{latency_improvement_factor, loose_message_latency, NoRoundsDesign};
use ttw::core::time::millis;
use ttw::core::{analysis, fixtures, synthesis, validate};
use ttw::prelude::*;

#[test]
fn table1_constants_match_the_paper() {
    let c = GlossyConstants::table1();
    assert_eq!(c.t_wakeup, 750e-6);
    assert_eq!(c.t_start, 164e-6);
    assert_eq!(c.t_d, 68e-6);
    assert_eq!(c.l_cal, 3);
    assert_eq!(c.l_header, 6);
    assert_eq!(c.t_gap, 3e-3);
    assert_eq!(c.r_bit, 250_000.0);
}

#[test]
fn fig6_anchor_round_length_about_50ms() {
    // "a minimum message latency of 50 ms in a 4-hop network using 5-slot rounds"
    let t_r = ttw::timing::round::round_length(
        &GlossyConstants::table1(),
        &NetworkParams::with_paper_retransmissions(4),
        5,
        10,
    );
    assert!((t_r - 0.050).abs() < 0.005, "T_r = {t_r}");
}

#[test]
fn fig7_energy_saving_band_33_to_40_percent() {
    let design = NoRoundsDesign::paper_setting();
    let at_5_slots = design.ttw_saving(5, 10);
    let asymptote = design.ttw_saving(10_000, 10);
    assert!(at_5_slots > 0.30 && at_5_slots < 0.36, "B=5: {at_5_slots}");
    assert!(
        asymptote > 0.38 && asymptote < 0.42,
        "asymptote: {asymptote}"
    );
    // Savings grow with the round size and shrink with the payload (Fig. 7).
    assert!(design.ttw_saving(10, 10) > design.ttw_saving(5, 10));
    assert!(design.ttw_saving(5, 128) < design.ttw_saving(5, 10));
}

#[test]
fn latency_improvement_factor_two_per_message() {
    // Per-message: T_r for TTW vs 2·T_r for the loosely-coupled baseline.
    assert_eq!(loose_message_latency(millis(10)), 2 * millis(10));
    // For communication-dominated applications the end-to-end factor
    // approaches 2.
    let (sys, app) = fixtures::fig3_system_single_app();
    let factor = latency_improvement_factor(&sys, app, millis(500));
    assert!(factor > 1.9, "factor = {factor}");
}

#[test]
fn fig3_schedule_is_round_minimal_and_latency_optimal() {
    let (sys, mode) = fixtures::fig3_system();
    let config = SchedulerConfig::new(millis(10), 5);
    let schedule = synthesize_mode(&sys, mode, &config).expect("feasible");
    // Round-minimal: the three messages need exactly two rounds (m1, m2 | m3).
    assert_eq!(schedule.num_rounds(), 2);
    // Latency-optimal: the achieved latency matches the Eq. 13 bound.
    let app = sys.application_id("ctrl").expect("app");
    let bound = analysis::min_latency_bound(&sys, app, config.round_duration) as f64;
    let achieved = schedule.app_latencies[&app];
    assert!(
        (achieved - bound).abs() < 1.0,
        "achieved {achieved} µs vs bound {bound} µs"
    );
    assert!(validate::is_valid_schedule(&sys, mode, &config, &schedule));
}

#[test]
fn safety_no_collisions_under_loss_and_mode_change() {
    let (sys, normal, emergency) = fixtures::two_mode_system();
    let config = SchedulerConfig::new(millis(10), 5);
    let graph = ModeGraph::complete(&sys);
    let schedules = synthesis::synthesize_system(&sys, &graph, &config, &IlpSynthesizer)
        .expect("feasible")
        .to_vec();
    // Five seeds at 60 % loss, and a sweep from a perfect channel to 75 %
    // loss at one seed.
    let runs = (0..5)
        .map(|seed| (0.6, seed))
        .chain([0.0, 0.25, 0.5, 0.75].map(|loss| (loss, 11)));
    for (link_loss, seed) in runs {
        let sim_config = SimulationConfig {
            link_loss,
            seed,
            policy: BeaconLossPolicy::SkipRound,
            ..SimulationConfig::default()
        };
        let mut sim = Simulation::with_clustered_topology(&sys, &schedules, normal, 4, sim_config)
            .expect("simulation builds");
        sim.run_hyperperiods(3);
        sim.request_mode_change(emergency).expect("known mode");
        sim.run_hyperperiods(5);
        assert_eq!(sim.stats().collisions, 0, "loss {link_loss}, seed {seed}");
        assert_eq!(sim.current_mode(), emergency);
    }
}

#[test]
fn multi_mode_synthesis_is_switch_consistent() {
    // The multi-mode claim of Sec. V: an application shared between modes is
    // scheduled identically in all of them, so the two-phase mode change never
    // re-times a running application. The mode-graph pipeline guarantees this
    // by minimal inheritance, and the cross-mode validator double-checks it.
    let (sys, graph, normal, emergency) = fixtures::two_mode_graph();
    let config = SchedulerConfig::new(millis(10), 5);
    let schedule = synthesis::synthesize_system(&sys, &graph, &config, &synthesis::IlpSynthesizer)
        .expect("both modes feasible");
    assert!(validate::validate_system_schedule(&sys, &config, &schedule).is_empty());

    let ctrl = sys.application_id("ctrl").expect("app exists");
    let (normal_sched, emergency_sched) = (
        schedule.get(normal).expect("scheduled"),
        schedule.get(emergency).expect("scheduled"),
    );
    for &t in &sys.application(ctrl).tasks {
        let (a, b) = (
            normal_sched.task_offsets[&t],
            emergency_sched.task_offsets[&t],
        );
        assert!((a - b).abs() < 1e-3, "task {t}: {a} µs vs {b} µs");
    }

    // The runtime accepts the switch in both directions and stays collision
    // free end to end.
    let mut sim = Simulation::with_clustered_topology(
        &sys,
        &schedule.to_vec(),
        normal,
        4,
        SimulationConfig::default(),
    )
    .expect("simulation builds");
    sim.run_hyperperiods(2);
    sim.request_mode_change(emergency)
        .expect("consistent switch");
    sim.run_hyperperiods(2);
    sim.request_mode_change(normal)
        .expect("consistent switch back");
    sim.run_hyperperiods(2);
    assert_eq!(sim.stats().collisions, 0);
    assert_eq!(sim.stats().mode_changes, 2);
}

#[test]
fn perfect_channel_delivers_every_message_instance() {
    let (sys, mode) = fixtures::fig3_system();
    let config = SchedulerConfig::new(millis(10), 5);
    let schedule = synthesize_mode(&sys, mode, &config).expect("feasible");
    let mut sim = Simulation::with_clustered_topology(
        &sys,
        &[schedule],
        mode,
        4,
        SimulationConfig::default(),
    )
    .expect("simulation builds");
    sim.run_hyperperiods(10);
    let stats = sim.stats();
    assert_eq!(stats.messages_delivered, 30, "3 messages × 10 hyperperiods");
    assert!((stats.delivery_ratio() - 1.0).abs() < 1e-12);
}
