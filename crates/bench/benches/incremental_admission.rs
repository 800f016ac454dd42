//! Online-admission benchmark: edit one application of an N-mode system and
//! compare incremental re-synthesis against a from-scratch solve.
//!
//! For each N ∈ {4, 8, 16} the bench generates a feasible
//! N-mode chain, solves it cold (populating the cache with schedules *and*
//! warm-start artifacts), bumps one WCET in the last mode's private
//! application — the canonical admission edit — and then resolves the edited
//! system twice:
//!
//! * **scratch** — `synthesize_system`, every mode from a cold basis;
//! * **incremental** — `resynthesize_system` from the predecessor entry:
//!   untouched modes reuse their cached schedules verbatim, the dirty mode
//!   re-solves from its cached root basis.
//!
//! `BENCH_incremental.json` records, per N, the solver counters
//! (`milp_nodes`/`simplex_iterations` for scratch and their incremental
//! counterparts) and the bytes-on-wire of the per-node delta versus a full
//! redeployment; the CI perf-regression job regenerates the file and diffs it
//! against the committed copy. The acceptance bars are **derived zero keys**,
//! asserted below so a miss makes this program exit non-zero:
//!
//! * `warm_node_budget_excess = max(0, 2·incremental_milp_nodes −
//!   milp_nodes)` — the one-app edit must cost at most *half* the
//!   from-scratch node count;
//! * `delta_byte_excess = max(0, 2·delta_bytes − full_bytes)` — the delta
//!   must ship under half the full redeployment bytes.
//!
//! Both bars are on counters and byte counts, never wall time. The bench
//! also asserts the differential invariant inline: the incremental schedule
//! content-matches the from-scratch schedule byte for byte (work counters
//! stripped).

use ttw_bench::Report;
use ttw_core::cache::{synthesis_key, synthesize_system_cached, ScheduleCache};
use ttw_core::delta::verified_delta;
use ttw_core::export::system_schedule_to_json;
use ttw_core::resynth::resynthesize_system;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw_core::system::System;
use ttw_core::TaskId;
use ttw_testkit::{generate, GeneratorConfig, GraphShape, Scenario};

const MODE_COUNTS: [usize; 3] = [4, 8, 16];

/// The first seed whose generated N-mode chain is feasible end to end (the
/// bench measures incremental admission, not infeasibility detection).
fn feasible_scenario(num_modes: usize) -> Scenario {
    let family = GeneratorConfig::small(num_modes, GraphShape::Chain);
    for seed in 0..64 {
        let scenario = generate(&family, seed);
        let backend = IlpSynthesizer;
        if synthesize_system(
            &scenario.system,
            &scenario.graph,
            &scenario.scheduler_config(),
            &backend,
        )
        .is_ok()
        {
            return scenario;
        }
    }
    panic!("no feasible {num_modes}-mode chain in 64 seeds");
}

/// The admission edit: +1 µs on the first task of the last mode's private
/// application. Ids and precedence stay put; exactly one mode's ILP changes.
fn edited_system(scenario: &Scenario) -> (System, TaskId) {
    let mut edited = scenario.system.clone();
    let last_mode = edited
        .modes()
        .map(|(id, _)| id)
        .last()
        .expect("modes exist");
    let app = edited
        .mode(last_mode)
        .applications
        .iter()
        .copied()
        .find(|&a| edited.modes_of_application(a).len() == 1)
        .expect("the generator gives every mode a private application");
    let task = edited.application(app).tasks[0];
    let wcet = edited.task(task).wcet;
    edited
        .set_task_wcet(task, wcet + 1)
        .expect("bumped WCET is non-zero");
    (edited, task)
}

struct Case {
    num_modes: usize,
    scratch_milp_nodes: usize,
    scratch_simplex_iterations: usize,
    incremental_milp_nodes: usize,
    incremental_simplex_iterations: usize,
    modes_reused: usize,
    modes_resolved: usize,
    warm_started_modes: usize,
    delta_bytes: usize,
    full_bytes: usize,
    delta_ops: usize,
    content_match: bool,
}

impl Case {
    fn warm_node_budget_excess(&self) -> usize {
        (2 * self.incremental_milp_nodes).saturating_sub(self.scratch_milp_nodes)
    }

    fn delta_byte_excess(&self) -> usize {
        (2 * self.delta_bytes).saturating_sub(self.full_bytes)
    }

    fn report(&self) -> Report {
        Report::default()
            .set("num_modes", self.num_modes)
            // `milp_nodes`/`simplex_iterations` are the from-scratch cost of
            // the edited system.
            .set("milp_nodes", self.scratch_milp_nodes)
            .set("simplex_iterations", self.scratch_simplex_iterations)
            .set("incremental_milp_nodes", self.incremental_milp_nodes)
            .set(
                "incremental_simplex_iterations",
                self.incremental_simplex_iterations,
            )
            .set("modes_reused", self.modes_reused)
            .set("modes_resolved", self.modes_resolved)
            .set("warm_started_modes", self.warm_started_modes)
            .set("delta_bytes", self.delta_bytes)
            .set("full_bytes", self.full_bytes)
            .set("delta_ops", self.delta_ops)
            .set("warm_node_budget_excess", self.warm_node_budget_excess())
            .set("delta_byte_excess", self.delta_byte_excess())
            .set("content_match", self.content_match)
    }
}

fn run_case(num_modes: usize) -> Case {
    let scenario = feasible_scenario(num_modes);
    let config = scenario.scheduler_config();
    let backend = IlpSynthesizer;
    let cache = ScheduleCache::in_memory();

    // Predecessor: cold solve, schedules + warm artifacts into the cache.
    let (predecessor, _) =
        synthesize_system_cached(&scenario.system, &scenario.graph, &config, &cache)
            .expect("feasible_scenario pre-checked this");
    let predecessor_key = synthesis_key(&scenario.system, &scenario.graph, &config);

    let (edited, _) = edited_system(&scenario);

    let scratch = synthesize_system(&edited, &scenario.graph, &config, &backend)
        .expect("a +1 µs WCET bump keeps the chain feasible");
    let (incremental, report) = resynthesize_system(
        &edited,
        &scenario.graph,
        &config,
        &backend,
        &cache,
        &predecessor_key,
    )
    .expect("incremental admission of the same edit");
    assert!(report.predecessor_found, "cache lost the predecessor entry");

    let content_match = system_schedule_to_json(&scratch.content_only()).expect("serialize")
        == system_schedule_to_json(&incremental.content_only()).expect("serialize");

    // What actually ships to the nodes: delta vs full redeployment, in the
    // same compact JSON encoding (verified byte-for-byte inside).
    let (delta, delta_bytes, full_bytes) = verified_delta(&edited, &predecessor, &incremental);

    let scratch_totals = scratch.totals();
    Case {
        num_modes,
        scratch_milp_nodes: scratch_totals.nodes_explored,
        scratch_simplex_iterations: scratch_totals.simplex_iterations,
        incremental_milp_nodes: report.solved_milp_nodes,
        incremental_simplex_iterations: report.solved_simplex_iterations,
        modes_reused: report.modes_reused,
        modes_resolved: report.modes_resolved,
        warm_started_modes: report.warm_started_modes,
        delta_bytes,
        full_bytes,
        delta_ops: delta.num_ops(),
        content_match,
    }
}

fn main() {
    eprintln!("\n=== Incremental admission: one-app edit, N-mode chain ===");
    let cases: Vec<Case> = MODE_COUNTS.into_iter().map(run_case).collect();
    for case in &cases {
        eprintln!(
            "N={:<3} scratch {:>5} nodes {:>7} pivots | incremental {:>5} nodes \
             {:>7} pivots ({} reused, {} re-solved, {} warm) | delta {:>6} B \
             vs full {:>7} B ({} ops)",
            case.num_modes,
            case.scratch_milp_nodes,
            case.scratch_simplex_iterations,
            case.incremental_milp_nodes,
            case.incremental_simplex_iterations,
            case.modes_reused,
            case.modes_resolved,
            case.warm_started_modes,
            case.delta_bytes,
            case.full_bytes,
            case.delta_ops,
        );
    }
    eprintln!();

    for case in &cases {
        assert!(
            case.content_match,
            "N={}: incremental != scratch",
            case.num_modes
        );
        assert_eq!(
            case.warm_node_budget_excess(),
            0,
            "N={}: incremental cost {} nodes, scratch {} — not 2x cheaper",
            case.num_modes,
            case.incremental_milp_nodes,
            case.scratch_milp_nodes,
        );
        assert_eq!(
            case.delta_byte_excess(),
            0,
            "N={}: delta {} B vs full {} B — not under half",
            case.num_modes,
            case.delta_bytes,
            case.full_bytes,
        );
    }

    let mut by_n = Report::default();
    for case in &cases {
        by_n = by_n.section(&format!("modes{}", case.num_modes), case.report());
    }
    Report::new(
        "incremental_admission",
        "edit one private application of an N-mode chain; incremental \
         re-synthesis (cached schedules + basis warm starts) vs \
         from-scratch solve; per-node delta vs full redeployment bytes",
    )
    .section("cases", by_n)
    .write("BENCH_incremental.json")
    .expect("write the snapshot");
}
