//! Sparse-vs-dense solver agreement on the *real* scheduler instances.
//!
//! The unit tests inside `ttw-milp` sweep synthetic LPs; these integration
//! tests feed both solvers the actual TTW co-scheduling ILPs (Fig. 3 and the
//! two-mode fixture, with and without inherited pins, across round counts)
//! and assert that the production sparse revised simplex and the dense
//! reference tableau agree on feasibility status and objective value.

use ttw::core::time::millis;
use ttw::core::{fixtures, ilp, InheritedOffsets, SchedulerConfig};
use ttw_milp::dense::compare_relaxations;
use ttw_milp::Model;

const EPS: f64 = 1e-6;

fn config() -> SchedulerConfig {
    SchedulerConfig::new(millis(10), 5)
}

/// Solves the LP relaxation of `model` with both solvers (via the
/// [`ttw_milp::dense`] oracle hook) and asserts agreement. Returns the sparse
/// objective when both are optimal.
fn assert_relaxations_agree(model: &Model, context: &str) -> Option<f64> {
    let cmp = compare_relaxations(model).expect("both LP solves run");
    assert!(
        cmp.agree_on_feasibility(),
        "{context}: dense {:?} vs sparse {:?}",
        cmp.dense_status,
        cmp.sparse_status
    );
    if !cmp.both_optimal() {
        return None;
    }
    assert!(
        cmp.objective_gap() < EPS,
        "{context}: dense objective {} vs sparse {}",
        cmp.dense_objective,
        cmp.sparse_objective
    );
    Some(cmp.sparse_objective)
}

#[test]
fn fig3_relaxations_agree_across_round_counts() {
    let (sys, mode) = fixtures::fig3_system();
    for rounds in 0..=3 {
        let instance =
            ilp::build_ilp_inherited(&sys, mode, &config(), rounds, &InheritedOffsets::none())
                .expect("valid instance");
        assert_relaxations_agree(&instance.model, &format!("fig3 R={rounds}"));
    }
}

#[test]
fn two_mode_relaxations_agree_with_and_without_pins() {
    let (sys, graph, normal, emergency) = fixtures::two_mode_graph();
    let result = ttw::core::synthesis::synthesize_system(
        &sys,
        &graph,
        &config(),
        &ttw::core::synthesis::IlpSynthesizer,
    )
    .expect("both modes feasible");

    // Unpinned emergency instance.
    for rounds in 2..=3 {
        let instance = ilp::build_ilp_inherited(
            &sys,
            emergency,
            &config(),
            rounds,
            &InheritedOffsets::none(),
        )
        .expect("valid instance");
        assert_relaxations_agree(&instance.model, &format!("emergency unpinned R={rounds}"));
    }

    // Pinned emergency instance (the minimal-inheritance workload).
    let ctrl = sys.application_id("ctrl").expect("app exists");
    let mut pins = InheritedOffsets::none();
    pins.import_application(&sys, ctrl, result.get(normal).expect("scheduled"));
    for rounds in 2..=3 {
        let instance = ilp::build_ilp_inherited(&sys, emergency, &config(), rounds, &pins)
            .expect("valid instance");
        assert_relaxations_agree(&instance.model, &format!("emergency pinned R={rounds}"));
    }
}

#[test]
fn grown_instances_agree_with_fresh_builds_under_both_solvers() {
    // The incremental add_round path must produce models both solvers price
    // identically to a from-scratch build of the same size.
    let (sys, mode) = fixtures::fig3_system();
    let mut grown = ilp::build_ilp_inherited(&sys, mode, &config(), 1, &InheritedOffsets::none())
        .expect("valid instance");
    grown.add_round(&sys, mode, &config());
    let fresh = ilp::build_ilp_inherited(&sys, mode, &config(), 2, &InheritedOffsets::none())
        .expect("valid instance");
    let grown_obj = assert_relaxations_agree(&grown.model, "grown R=2");
    let fresh_obj = assert_relaxations_agree(&fresh.model, "fresh R=2");
    match (grown_obj, fresh_obj) {
        (Some(a), Some(b)) => assert!((a - b).abs() < EPS, "grown {a} vs fresh {b}"),
        _ => panic!("both instances must be feasible at two rounds"),
    }
}
