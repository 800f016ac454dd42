//! Scaling of multi-mode synthesis over generated N-mode graphs.
//!
//! The `mode_graph_synthesis` bench measures the fixed 2- and 4-mode
//! fixtures; this bench closes the ROADMAP item "bench scaling in the number
//! of modes": it sweeps `ttw-testkit` scenarios with N ∈ {2, 4, 8, 16, 32}
//! modes across three graph shapes — a chain (every mode inherits from the
//! one before it), a diamond (the middle modes inherit only from the root)
//! and a layered DAG (modes inherit from earlier layers) — and runs
//! `synthesize_system` once per scenario, asserting the deployment is valid.
//!
//! Per (shape, N) combination the round total and the solver work counters
//! go to `BENCH_mode_scaling.json` at the
//! workspace root, which the CI perf-regression job regenerates and diffs
//! against the committed copy; the wall time is printed on stderr only.
//! Every scenario also records the `AnalyzeFirst` fast-fail count
//! (`analyze_fast_fails`, 0 on this feasible family), and an `infeasible`
//! section sweeps the provably infeasible `GeneratorConfig::infeasible`
//! family to demonstrate that the gate rejects certified modes without
//! spending a single B&B node.

use ttw_bench::{timed, Report};
use ttw_core::synthesis::{synthesize_mode, synthesize_system, IlpSynthesizer};
use ttw_core::validate::validate_system_schedule;
use ttw_core::SynthesisStats;
use ttw_testkit::{generate, GeneratorConfig, GraphShape, InfeasibleKind};

/// Fixed generator seed: the sweep is a benchmark, not a property test, so
/// every run measures the identical workload.
const SEED: u64 = 7;

const MODE_COUNTS: [usize; 5] = [2, 4, 8, 16, 32];

fn shapes() -> [GraphShape; 3] {
    [
        GraphShape::Chain,
        GraphShape::Diamond,
        GraphShape::LayeredDag { width: 4 },
    ]
}

struct Measurement {
    shape: &'static str,
    num_modes: usize,
    seconds: f64,
    total_rounds: usize,
    /// Every work counter, totalled over the modes.
    totals: SynthesisStats,
}

fn measure(shape: GraphShape, num_modes: usize) -> Measurement {
    let scenario = generate(&GeneratorConfig::bench(num_modes, shape), SEED);
    let sys = &scenario.system;
    let config = scenario.scheduler_config();
    let backend = IlpSynthesizer;

    let (schedule, seconds) = timed(|| synthesize_system(sys, &scenario.graph, &config, &backend));
    let schedule =
        schedule.unwrap_or_else(|e| panic!("{} N={num_modes} infeasible: {e}", shape.name()));
    let violations = validate_system_schedule(sys, &config, &schedule);
    assert!(violations.is_empty(), "invalid schedule: {violations:?}");

    Measurement {
        shape: shape.name(),
        num_modes,
        seconds,
        total_rounds: schedule.iter().map(|(_, s)| s.num_rounds()).sum(),
        totals: schedule.totals(),
    }
}

/// Per-`InfeasibleKind` gate effectiveness on the provably infeasible family.
struct InfeasibleMeasurement {
    kind: &'static str,
    modes: usize,
    fast_failed: usize,
    milp_nodes: usize,
}

/// Runs the `AnalyzeFirst`-gated ILP backend over every mode of an
/// infeasible-family scenario and counts how many modes the gate rejected
/// before any branch-and-bound work.
fn measure_infeasible(kind: InfeasibleKind) -> InfeasibleMeasurement {
    let config = GeneratorConfig::infeasible(8, GraphShape::Chain, kind);
    let scenario = generate(&config, SEED);
    let scheduler = scenario.scheduler_config();

    let mut fast_failed = 0usize;
    let mut milp_nodes = 0usize;
    for mode in scenario.modes() {
        match synthesize_mode(&scenario.system, mode, &scheduler) {
            Ok(_) => panic!(
                "{} mode {mode} synthesized although the family is infeasible by \
                 construction ({})",
                kind.name(),
                scenario.repro()
            ),
            Err(failure) => {
                fast_failed += failure.stats.analyze_fast_fails;
                milp_nodes += failure.stats.nodes_explored;
            }
        }
    }
    InfeasibleMeasurement {
        kind: kind.name(),
        modes: scenario.modes().len(),
        fast_failed,
        milp_nodes,
    }
}

fn main() {
    let mut scenarios = Report::default();

    eprintln!("\n=== Mode scaling: synthesis over N-mode graphs (one run each) ===");
    eprintln!(
        "{:<10} {:>5} {:>12} {:>10}",
        "shape", "N", "wall", "simplex"
    );
    for shape in shapes() {
        for n in MODE_COUNTS {
            let m = measure(shape, n);
            eprintln!(
                "{:<10} {:>5} {:>10.3} s {:>10}",
                m.shape, m.num_modes, m.seconds, m.totals.simplex_iterations,
            );
            scenarios = scenarios.section(
                &format!("{}_n{}", m.shape, m.num_modes),
                Report::default()
                    .set("modes", m.num_modes)
                    .set("total_rounds", m.total_rounds)
                    .set("analyze_fast_fails", m.totals.analyze_fast_fails)
                    .fields(&m.totals.solver),
            );
        }
    }
    eprintln!();

    eprintln!("=== AnalyzeFirst gate on the provably infeasible family ===");
    eprintln!(
        "{:<22} {:>6} {:>12} {:>11}",
        "kind", "modes", "fast fails", "B&B nodes"
    );
    let mut infeasible = Report::default().set(
        "workload",
        "ttw-testkit GeneratorConfig::infeasible chain scenarios, AnalyzeFirst-gated \
         ILP backend, per-mode pin-free synthesis"
            .to_string(),
    );
    for kind in InfeasibleKind::ALL {
        let m = measure_infeasible(kind);
        eprintln!(
            "{:<22} {:>6} {:>12} {:>11}",
            m.kind, m.modes, m.fast_failed, m.milp_nodes
        );
        // The acceptance bar: the gate must reject at least 80% of the
        // infeasible modes before any branch-and-bound work.
        assert!(
            m.fast_failed * 5 >= m.modes * 4,
            "{}: gate rejected only {}/{} modes",
            m.kind,
            m.fast_failed,
            m.modes
        );
        assert_eq!(
            m.milp_nodes, 0,
            "{}: fast-failed family still spent B&B nodes",
            m.kind
        );
        infeasible = infeasible.section(
            m.kind,
            Report::default()
                .set("modes", m.modes)
                .set("analyze_fast_fails", m.fast_failed)
                .set("milp_nodes", m.milp_nodes),
        );
    }
    eprintln!();

    Report::new(
        "mode_scaling",
        "ttw-testkit GeneratorConfig::bench scenarios, ILP backend, \
         synthesize_system over each mode graph",
    )
    .set("generator_seed", SEED)
    .section("scenarios", scenarios)
    .section("infeasible", infeasible)
    .write("BENCH_mode_scaling.json")
    .expect("write the snapshot");
}
