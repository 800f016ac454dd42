//! MILP solver substrate — the simplex / branch-and-bound engine that
//! replaces Gurobi in this reproduction.
//!
//! This is an engineering report (not a paper figure): it solves the LP
//! relaxation and the full MILP of representative instances once each and
//! prints their work counters, so a change in the substrate's tree size or
//! cut activity is visible.

use ttw_milp::{Model, Sense};

/// A small knapsack-style MILP with `n` binary variables.
fn knapsack(n: usize) -> Model {
    let mut model = Model::new(format!("knapsack{n}"));
    let vars: Vec<_> = (0..n).map(|i| model.add_binary(format!("x{i}"))).collect();
    let values: Vec<f64> = (0..n).map(|i| 3.0 + (i % 7) as f64).collect();
    let weights: Vec<f64> = (0..n).map(|i| 2.0 + (i % 5) as f64).collect();
    let objective: Vec<_> = vars.iter().copied().zip(values.iter().copied()).collect();
    model.set_objective(Sense::Maximize, &objective);
    let constraint: Vec<_> = vars.iter().copied().zip(weights.iter().copied()).collect();
    let capacity: f64 = weights.iter().sum::<f64>() * 0.4;
    model.add_le(&constraint, capacity);
    model
}

/// The TTW scheduling ILP for the Fig. 3 application with 2 rounds.
fn fig3_ilp() -> ttw_core::ilp::IlpInstance {
    let (sys, mode) = ttw_core::fixtures::fig3_system();
    let config = ttw_core::SchedulerConfig::new(ttw_core::time::millis(10), 5);
    ttw_core::ilp::build_ilp(&sys, mode, &config, 2).expect("valid instance")
}

/// Prints the work counters of one solve: tree size and cut activity.
fn report_counters(name: &str, solution: &ttw_milp::Solution) {
    eprintln!(
        "{name}: milp_nodes={} simplex_iterations={} cuts_added={} cut_rounds={} \
         pseudocost_branchings={}",
        solution.nodes_explored,
        solution.simplex_iterations,
        solution.cuts_added,
        solution.cut_rounds,
        solution.pseudocost_branchings,
    );
}

fn main() {
    let instance = fig3_ilp();
    eprintln!(
        "\n=== MILP substrate === Fig. 3 scheduling ILP: {} variables, {} constraints\n",
        instance.model.num_vars(),
        instance.model.num_constraints()
    );
    for n in [10usize, 30] {
        let model = knapsack(n);
        report_counters(&format!("knapsack{n}"), &model.solve().unwrap());
    }
    report_counters(
        "fig3_relaxation",
        &instance.model.solve_relaxation().unwrap(),
    );
    report_counters("fig3_full_milp", &instance.model.solve().unwrap());
    eprintln!();
}
