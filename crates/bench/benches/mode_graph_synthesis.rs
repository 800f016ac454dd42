//! Mode-graph synthesis (Sec. V) — inherited multi-mode synthesis against
//! independent per-mode synthesis, the sparse revised
//! simplex against the dense reference tableau, and the 4-mode diamond
//! whose leaves inherit from a mode that is not their graph parent.
//!
//! Measured workloads:
//!
//! * **independent vs inherited** on `fixtures::two_mode_graph()`
//!   (`normal ⇄ emergency`, sharing the Fig. 3 control application):
//!   `independent` runs each mode's `R_M` sweep with no inheritance;
//!   `inherited` pins the shared application through the mode-graph
//!   pipeline. Both grow one ILP instance per mode and warm-start every
//!   attempt from the previous one's basis.
//! * **dense vs sparse**: the LP relaxations of both two-mode instances
//!   solved by the production sparse revised simplex and by the retired
//!   dense tableau (`ttw-milp`'s `dense-reference` feature), reporting pivot
//!   counts.
//! * **diamond**: `fixtures::four_mode_diamond()`
//!   (`boot → normal → {emergency, maintenance}`), whose three non-boot
//!   modes all inherit the shared application from `boot`; the bench asserts
//!   switch-consistency of the shared application across all four modes.
//!
//! * **schedule cache**: the inherited two-mode synthesis through
//!   [`ttw_core::cache::synthesize_system_cached`], cold (entry evicted)
//!   then warm (second run hits the on-disk cache and skips synthesis
//!   entirely), asserting the warm schedule byte-matches the cold one. How
//!   much faster the hit is, `benchmark/`'s `warm_hit` workload answers.
//!
//! Every strategy is solved once. The solver counters (simplex pivots, B&B
//! nodes, LU factorizations, presolve rows/cols removed, Devex resets,
//! partial-pricing segment, cuts, pseudocost branchings), the shared-offset
//! gaps, the round totals and the cache hit/miss counts go to
//! `BENCH_synthesis.json` at the
//! workspace root, which the CI perf-regression job regenerates and diffs
//! against the committed copy; the wall times of the one run are printed next
//! to them on stderr and nowhere else.

use std::hint::black_box;
use ttw_analyze::analyze_system;
use ttw_bench::{timed, Report};
use ttw_core::cache::{synthesis_key, synthesize_system_cached, ScheduleCache};
use ttw_core::export::system_schedule_to_json;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer, ModePrior};
use ttw_core::time::millis;
use ttw_core::validate::check_cross_mode_consistency;
use ttw_core::{fixtures, ilp, InheritedOffsets, ModeSchedule, SchedulerConfig, SystemSchedule};

fn config() -> SchedulerConfig {
    SchedulerConfig::new(millis(10), 5)
}

/// Each mode on its own: the `R_M` sweep with no inheritance.
fn synthesize_independent() -> SystemSchedule {
    let (sys, _, _) = fixtures::two_mode_system();
    let backend = IlpSynthesizer;
    let mut result = SystemSchedule::new();
    for (mode, _) in sys.modes() {
        let schedule = backend
            .synthesize(
                &sys,
                mode,
                &config(),
                &InheritedOffsets::none(),
                ModePrior::default(),
            )
            .expect("feasible")
            .schedule;
        result.stats.insert(mode, schedule.stats.clone());
        result.schedules.insert(mode, schedule.into());
    }
    result
}

/// The mode-graph pipeline: minimal inheritance.
fn synthesize_inherited() -> SystemSchedule {
    let (sys, graph, _, _) = fixtures::two_mode_graph();
    synthesize_system(&sys, &graph, &config(), &IlpSynthesizer).expect("feasible")
}

/// The 4-mode diamond through the mode-graph pipeline.
fn synthesize_diamond() -> SystemSchedule {
    let (sys, graph, _) = fixtures::four_mode_diamond();
    synthesize_system(&sys, &graph, &config(), &IlpSynthesizer).expect("feasible")
}

/// Largest offset disagreement (µs) of the shared application across modes.
fn max_shared_offset_gap(result: &SystemSchedule) -> f64 {
    let (sys, normal, emergency) = fixtures::two_mode_system();
    let ctrl = sys.application_id("ctrl").expect("app exists");
    let (a, b) = (
        result.get(normal).expect("scheduled"),
        result.get(emergency).expect("scheduled"),
    );
    let gap =
        |x: Option<f64>, y: Option<f64>| (x.unwrap_or(f64::NAN) - y.unwrap_or(f64::NAN)).abs();
    let mut worst = 0.0f64;
    for &t in &sys.application(ctrl).tasks {
        worst = worst.max(gap(a.task_offset(t), b.task_offset(t)));
    }
    for &m in &sys.application(ctrl).messages {
        worst = worst.max(gap(a.message_offset(m), b.message_offset(m)));
        worst = worst.max(gap(a.message_deadline(m), b.message_deadline(m)));
    }
    worst
}

fn total_rounds(result: &SystemSchedule) -> usize {
    result
        .iter()
        .map(|(_, s): (_, &ModeSchedule)| s.num_rounds())
        .sum()
}

/// Solves the LP relaxations of both two-mode instances across round counts
/// `R = 2..=5` with the dense reference tableau and the sparse revised
/// simplex. Returns `(dense pivots, dense s, sparse pivots, sparse s)`.
fn dense_vs_sparse_relaxations() -> (usize, f64, usize, f64) {
    let (sys, normal, emergency) = fixtures::two_mode_system();
    let mut instances = Vec::new();
    for &mode in &[normal, emergency] {
        for rounds in 2..=5 {
            instances.push(
                ilp::build_ilp_inherited(&sys, mode, &config(), rounds, &InheritedOffsets::none())
                    .expect("valid instance"),
            );
        }
    }

    let (dense_pivots, dense_seconds) = timed(|| {
        let mut pivots = 0usize;
        for instance in &instances {
            let bounds: Vec<(f64, f64)> = instance
                .model
                .variables()
                .map(|(_, v)| (v.lower, v.upper))
                .collect();
            let lp =
                ttw_milp::dense::solve_lp_dense(&instance.model, &bounds).expect("dense solve");
            pivots += lp.iterations;
            black_box(lp.objective);
        }
        pivots
    });
    let (sparse_pivots, sparse_seconds) = timed(|| {
        let mut pivots = 0usize;
        for instance in &instances {
            let solution = instance.model.solve_relaxation().expect("sparse solve");
            pivots += solution.simplex_iterations;
            black_box(solution.objective);
        }
        pivots
    });

    (dense_pivots, dense_seconds, sparse_pivots, sparse_seconds)
}

/// The schedule cache on the inherited two-mode workload, cold then warm:
/// `(hits, misses, byte_match)`.
fn cache_cold_then_warm() -> (usize, usize, bool) {
    let (sys, graph, _, _) = fixtures::two_mode_graph();
    // Anchored at the workspace root (bench binaries run with the package
    // directory as cwd, which would otherwise grow a nested target/).
    let cache = ScheduleCache::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/schedule-cache"
    ));
    // Evict so the first run is a genuine synthesis (CI caches target/).
    cache.evict(&synthesis_key(&sys, &graph, &config()));

    let (cold, outcome) =
        synthesize_system_cached(&sys, &graph, &config(), &cache).expect("feasible");
    assert!(!outcome.is_hit(), "evicted entry cannot hit");

    let (warm, outcome) =
        synthesize_system_cached(&sys, &graph, &config(), &cache).expect("feasible");
    assert!(outcome.is_hit(), "second run must hit the cache");

    let byte_match = system_schedule_to_json(&cold).expect("serialize")
        == system_schedule_to_json(&warm).expect("serialize");
    assert!(byte_match, "cache hit must byte-match fresh synthesis");
    (cache.hits(), cache.misses(), byte_match)
}

/// One strategy's leaves: every solver counter of the run, totalled over the
/// modes, next to what the schedules look like.
fn strategy(gap: f64, result: &SystemSchedule) -> Report {
    let totals = result.totals();
    Report::default()
        // Whole microseconds: the offsets are LP values, and their last bits
        // are not what this leaf is about.
        .set("max_shared_offset_gap_us", gap.round() as usize)
        .set("total_rounds", total_rounds(result))
        .set("analyze_fast_fails", totals.analyze_fast_fails)
        .fields(&totals.solver)
}

fn main() {
    let (independent, independent_s) = timed(synthesize_independent);
    let (inherited, inherited_s) = timed(synthesize_inherited);
    let (diamond, diamond_s) = timed(synthesize_diamond);
    let independent_gap = max_shared_offset_gap(&independent);
    let inherited_gap = max_shared_offset_gap(&inherited);

    // Inherited synthesis must be switch-consistent by construction …
    let (sys, graph, _, _) = fixtures::two_mode_graph();
    assert!(
        check_cross_mode_consistency(&sys, inherited.schedules.values()).is_empty(),
        "inherited synthesis must keep shared applications switch-consistent"
    );
    // … and so must the 4-mode diamond, whose leaves inherit from `boot`.
    let (diamond_sys, _, _) = fixtures::four_mode_diamond();
    let diamond_consistent =
        check_cross_mode_consistency(&diamond_sys, diamond.schedules.values()).is_empty();
    assert!(
        diamond_consistent,
        "diamond synthesis must keep the shared application switch-consistent"
    );
    assert!(
        analyze_system(&sys, &graph, &config()).is_clean(),
        "two-mode fixture must analyze clean"
    );

    let (dense_pivots, dense_s, sparse_pivots, sparse_s) = dense_vs_sparse_relaxations();
    let (cache_hits, cache_misses, byte_match) = cache_cold_then_warm();

    let (independent_totals, inherited_totals, diamond_totals) =
        (independent.totals(), inherited.totals(), diamond.totals());
    eprintln!("\n=== Mode-graph synthesis: inherited vs independent ===");
    eprintln!(
        "{:<28} {:>12} {:>12} {:>14} {:>22}",
        "strategy", "one run", "B&B nodes", "simplex", "shared-offset gap"
    );
    eprintln!(
        "{:<28} {:>9.3} s {:>12} {:>14} {:>19.3} µs",
        "independent",
        independent_s,
        independent_totals.nodes_explored,
        independent_totals.simplex_iterations,
        independent_gap,
    );
    eprintln!(
        "{:<28} {:>9.3} s {:>12} {:>14} {:>19.3} µs",
        "inherited",
        inherited_s,
        inherited_totals.nodes_explored,
        inherited_totals.simplex_iterations,
        inherited_gap,
    );
    eprintln!(
        "{:<28} {:>9.3} s {:>12} {:>14} {:>19} µs",
        "diamond (4 modes)",
        diamond_s,
        diamond_totals.nodes_explored,
        diamond_totals.simplex_iterations,
        "-",
    );
    eprintln!(
        "dense vs sparse LP relaxations: dense {dense_pivots} pivots / {dense_s:.3} s, \
         sparse {sparse_pivots} pivots / {sparse_s:.3} s"
    );
    eprintln!("schedule cache: {cache_hits} hits / {cache_misses} misses, warm run byte-matches");
    eprintln!(
        "presolve on inherited workload: {} rows / {} cols removed, {} Devex resets, \
         candidate list {}",
        inherited_totals.presolve_rows_removed,
        inherited_totals.presolve_cols_removed,
        inherited_totals.devex_resets,
        inherited_totals.candidate_list_size,
    );
    eprintln!(
        "speedup on this run: {:.1}x; inherited is switch-consistent (gap < 1e-3 µs): {}\n",
        independent_s / inherited_s.max(1e-12),
        inherited_gap < 1e-3
    );
    // The property is guarded on work counters, not wall clock: the solver
    // is deterministic, so node and pivot counts repeat run to run.
    assert!(
        inherited_totals.nodes_explored < independent_totals.nodes_explored,
        "inherited synthesis must explore fewer B&B nodes ({} vs {})",
        inherited_totals.nodes_explored,
        independent_totals.nodes_explored
    );
    assert!(
        inherited_totals.simplex_iterations < independent_totals.simplex_iterations,
        "inherited synthesis must need fewer simplex pivots ({} vs {})",
        inherited_totals.simplex_iterations,
        independent_totals.simplex_iterations
    );

    Report::new(
        "mode_graph_synthesis",
        "fixtures::two_mode_graph (normal <-> emergency, shared ctrl app)",
    )
    .set("round_duration_us", millis(10))
    .set("slots_per_round", 5usize)
    .set("inherited_switch_consistent", inherited_gap < 1e-3)
    .section(
        "strategies",
        Report::default()
            .section("independent", strategy(independent_gap, &independent))
            .section("inherited_incremental", strategy(inherited_gap, &inherited)),
    )
    .section(
        "dense_vs_sparse",
        Report::default()
            .set(
                "workload",
                "LP relaxations of both two-mode instances, R=2..=5".to_string(),
            )
            .section("dense", Report::default().set("pivots", dense_pivots))
            .section("sparse", Report::default().set("pivots", sparse_pivots)),
    )
    .section(
        "diamond",
        Report::default()
            .set("modes", diamond.num_modes())
            .set("milp_nodes", diamond_totals.nodes_explored)
            .set("simplex_iterations", diamond_totals.simplex_iterations)
            .set("total_rounds", total_rounds(&diamond))
            .set("switch_consistent", diamond_consistent),
    )
    .section(
        "schedule_cache",
        Report::default()
            .set(
                "workload",
                "inherited two-mode synthesis through synthesize_system_cached".to_string(),
            )
            .set("cache_hits", cache_hits)
            .set("cache_misses", cache_misses)
            .set("byte_match", byte_match),
    )
    .write("BENCH_synthesis.json")
    .expect("write the snapshot");
}
