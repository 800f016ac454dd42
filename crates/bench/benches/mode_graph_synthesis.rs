//! Mode-graph synthesis (Sec. V) — inherited + incremental multi-mode
//! synthesis against independent from-scratch synthesis, the sparse revised
//! simplex against the dense reference tableau, and the 4-mode diamond
//! stressing the parallel synthesis waves.
//!
//! Measured workloads:
//!
//! * **independent vs inherited** on `fixtures::two_mode_graph()`
//!   (`normal ⇄ emergency`, sharing the Fig. 3 control application):
//!   `independent` rebuilds the full ILP per `R_M` attempt with no
//!   inheritance (the seed behaviour); `inherited` pins the shared
//!   application, grows one ILP instance per mode and warm-starts every
//!   solve from the previous basis.
//! * **dense vs sparse**: the LP relaxations of both two-mode instances
//!   solved by the production sparse revised simplex and by the retired
//!   dense tableau (`ttw-milp`'s `dense-reference` feature), reporting pivot
//!   counts and wall time.
//! * **diamond**: `fixtures::four_mode_diamond()`
//!   (`boot → normal → {emergency, maintenance}`), whose three non-boot
//!   modes form one parallel wave of `synthesize_system`; the bench asserts
//!   switch-consistency of the shared application across all four modes.
//!
//! * **schedule cache**: the inherited two-mode synthesis through
//!   [`ttw_core::cache::synthesize_system_cached`], cold (entry evicted)
//!   vs warm (second run hits the on-disk cache and skips synthesis
//!   entirely), asserting the warm schedule byte-matches the cold one.
//!
//! The measured numbers are written to `BENCH_synthesis.json` at the
//! workspace root so future PRs (and the CI perf-regression smoke step) have
//! a machine-readable perf trajectory — including the solver counters
//! (simplex pivots, B&B nodes, presolve rows/cols removed, Devex resets,
//! partial-pricing segment) and the cache hit/miss counts. Set
//! `TTW_BENCH_QUICK=1` to take one timing sample instead of three — the
//! deterministic work counters are unaffected.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use ttw_analyze::analyze_system;
use ttw_core::cache::{synthesis_key, synthesize_system_cached, ScheduleCache};
use ttw_core::export::system_schedule_to_json;
use ttw_core::json::Value;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer, Synthesizer};
use ttw_core::time::millis;
use ttw_core::validate::check_cross_mode_consistency;
use ttw_core::{fixtures, ilp, InheritedOffsets, ModeSchedule, SchedulerConfig, SystemSchedule};

fn config() -> SchedulerConfig {
    SchedulerConfig::new(millis(10), 5)
}

/// `1` sample under `TTW_BENCH_QUICK=1` (CI smoke), `3` otherwise.
fn sample_count() -> usize {
    if std::env::var_os("TTW_BENCH_QUICK").is_some() {
        1
    } else {
        3
    }
}

/// The seed strategy: each mode from scratch, no inheritance, full rebuild
/// per `R_M` attempt.
fn synthesize_independent() -> SystemSchedule {
    let (sys, _, _) = fixtures::two_mode_system();
    let backend = IlpSynthesizer::from_scratch();
    let mut result = SystemSchedule::new();
    for (mode, _) in sys.modes() {
        let (schedule, _) = backend
            .synthesize(&sys, mode, &config(), &InheritedOffsets::none(), None)
            .expect("feasible");
        result.stats.insert(mode, schedule.stats.clone());
        result.schedules.insert(mode, schedule);
    }
    result
}

/// The mode-graph pipeline: minimal inheritance + incremental `R_M` sweep.
fn synthesize_inherited() -> SystemSchedule {
    let (sys, graph, _, _) = fixtures::two_mode_graph();
    synthesize_system(&sys, &graph, &config(), &IlpSynthesizer::default()).expect("feasible")
}

/// The 4-mode diamond through the (parallel-wave) mode-graph pipeline.
fn synthesize_diamond() -> SystemSchedule {
    let (sys, graph, _) = fixtures::four_mode_diamond();
    synthesize_system(&sys, &graph, &config(), &IlpSynthesizer::default()).expect("feasible")
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

/// Median wall-clock seconds of `samples` runs of `f`.
fn median_seconds(samples: usize, mut f: impl FnMut() -> SystemSchedule) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|x, y| x.total_cmp(y));
    times[times.len() / 2]
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
            instances.push(ilp::build_ilp(&sys, mode, &config(), rounds).expect("valid instance"));
        }
    }

    let mut dense_pivots = 0usize;
    let start = Instant::now();
    for instance in &instances {
        let bounds: Vec<(f64, f64)> = instance
            .model
            .variables()
            .map(|(_, v)| (v.lower, v.upper))
            .collect();
        let lp = ttw_milp::dense::solve_lp_dense(&instance.model, &bounds).expect("dense solve");
        dense_pivots += lp.iterations;
        black_box(lp.objective);
    }
    let dense_seconds = start.elapsed().as_secs_f64();

    let mut sparse_pivots = 0usize;
    let start = Instant::now();
    for instance in &instances {
        let solution = instance.model.solve_relaxation().expect("sparse solve");
        sparse_pivots += solution.simplex_iterations;
        black_box(solution.objective);
    }
    let sparse_seconds = start.elapsed().as_secs_f64();

    (dense_pivots, dense_seconds, sparse_pivots, sparse_seconds)
}

/// Cold-vs-warm numbers of the schedule cache on the inherited two-mode
/// workload: `(cold seconds, warm seconds, hits, misses, byte_match)`.
fn cache_cold_vs_warm() -> (f64, f64, usize, usize, bool) {
    let (sys, graph, _, _) = fixtures::two_mode_graph();
    // Anchored at the workspace root (bench binaries run with the package
    // directory as cwd, which would otherwise grow a nested target/).
    let cache = ScheduleCache::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/schedule-cache"
    ));
    let backend = IlpSynthesizer::default();
    // Evict so the first run measures genuine synthesis (CI caches target/).
    cache.evict(&synthesis_key(&sys, &graph, &config(), backend.name()));

    let start = Instant::now();
    let (cold, outcome) =
        synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
    let cold_s = start.elapsed().as_secs_f64();
    assert!(!outcome.is_hit(), "evicted entry cannot hit");

    let start = Instant::now();
    let (warm, outcome) =
        synthesize_system_cached(&sys, &graph, &config(), &backend, &cache).expect("feasible");
    let warm_s = start.elapsed().as_secs_f64();
    assert!(outcome.is_hit(), "second run must hit the cache");

    let byte_match = system_schedule_to_json(&cold).expect("serialize")
        == system_schedule_to_json(&warm).expect("serialize");
    assert!(byte_match, "cache hit must byte-match fresh synthesis");
    (cold_s, warm_s, cache.hits(), cache.misses(), byte_match)
}

#[allow(clippy::too_many_arguments)]
fn write_bench_json(
    independent_s: f64,
    inherited_s: f64,
    independent_gap: f64,
    inherited_gap: f64,
    independent: &SystemSchedule,
    inherited: &SystemSchedule,
    diamond_s: f64,
    diamond: &SystemSchedule,
    diamond_consistent: bool,
    dense_vs_sparse: (usize, f64, usize, f64),
    cache: (f64, f64, usize, usize, bool),
) {
    let num = |v: f64| Value::Number(v);
    let strategy = |median_s: f64, gap: f64, result: &SystemSchedule| {
        let mut map = BTreeMap::new();
        map.insert("median_seconds".into(), num(median_s));
        map.insert("max_shared_offset_gap_us".into(), num(gap));
        map.insert("total_rounds".into(), num(total_rounds(result) as f64));
        let totals = result.totals();
        map.insert(
            "analyze_fast_fails".into(),
            num(totals.analyze_fast_fails as f64),
        );
        for (name, value) in totals.fields() {
            map.insert(name.into(), num(value as f64));
        }
        Value::Object(map)
    };
    let mut strategies = BTreeMap::new();
    strategies.insert(
        "independent_from_scratch".into(),
        strategy(independent_s, independent_gap, independent),
    );
    strategies.insert(
        "inherited_incremental".into(),
        strategy(inherited_s, inherited_gap, inherited),
    );

    let (dense_pivots, dense_s, sparse_pivots, sparse_s) = dense_vs_sparse;
    let mut dvs = BTreeMap::new();
    dvs.insert(
        "workload".into(),
        Value::String("LP relaxations of both two-mode instances, R=2..=5".into()),
    );
    let mut dense_map = BTreeMap::new();
    dense_map.insert("pivots".into(), num(dense_pivots as f64));
    dense_map.insert("seconds".into(), num(dense_s));
    dvs.insert("dense".into(), Value::Object(dense_map));
    let mut sparse_map = BTreeMap::new();
    sparse_map.insert("pivots".into(), num(sparse_pivots as f64));
    sparse_map.insert("seconds".into(), num(sparse_s));
    dvs.insert("sparse".into(), Value::Object(sparse_map));
    dvs.insert(
        "pivot_ratio".into(),
        num(dense_pivots as f64 / (sparse_pivots as f64).max(1.0)),
    );

    let mut diamond_map = BTreeMap::new();
    diamond_map.insert("modes".into(), num(diamond.num_modes() as f64));
    diamond_map.insert("median_seconds".into(), num(diamond_s));
    let diamond_totals = diamond.totals();
    diamond_map.insert(
        "milp_nodes".into(),
        num(diamond_totals.nodes_explored as f64),
    );
    diamond_map.insert(
        "simplex_iterations".into(),
        num(diamond_totals.simplex_iterations as f64),
    );
    diamond_map.insert("total_rounds".into(), num(total_rounds(diamond) as f64));
    diamond_map.insert("switch_consistent".into(), Value::Bool(diamond_consistent));

    let mut root = BTreeMap::new();
    root.insert("bench".into(), Value::String("mode_graph_synthesis".into()));
    root.insert(
        "workload".into(),
        Value::String("fixtures::two_mode_graph (normal <-> emergency, shared ctrl app)".into()),
    );
    root.insert("round_duration_us".into(), num(millis(10) as f64));
    root.insert("slots_per_round".into(), num(5.0));
    root.insert("strategies".into(), Value::Object(strategies));
    // The ttw-analyze static pass over the two-mode workload — timed here at
    // the bench level (informational, never gated) because SynthesisStats
    // carries only deterministic counters.
    let (analyze_sys, analyze_graph, _, _) = fixtures::two_mode_graph();
    let analyze_start = Instant::now();
    let report = analyze_system(&analyze_sys, &analyze_graph, &config());
    root.insert(
        "analyze_micros".into(),
        num(analyze_start.elapsed().as_secs_f64() * 1e6),
    );
    assert!(report.is_clean(), "two-mode fixture must analyze clean");
    root.insert(
        "speedup".into(),
        num(independent_s / inherited_s.max(1e-12)),
    );
    root.insert(
        "inherited_switch_consistent".into(),
        Value::Bool(inherited_gap < 1e-3),
    );
    root.insert("dense_vs_sparse".into(), Value::Object(dvs));
    root.insert("diamond".into(), Value::Object(diamond_map));

    let (cold_s, warm_s, hits, misses, byte_match) = cache;
    let mut cache_map = BTreeMap::new();
    cache_map.insert(
        "workload".into(),
        Value::String("inherited two-mode synthesis through synthesize_system_cached".into()),
    );
    cache_map.insert("cold_seconds".into(), num(cold_s));
    cache_map.insert("warm_seconds".into(), num(warm_s));
    cache_map.insert("speedup".into(), num(cold_s / warm_s.max(1e-12)));
    cache_map.insert("cache_hits".into(), num(hits as f64));
    cache_map.insert("cache_misses".into(), num(misses as f64));
    cache_map.insert("byte_match".into(), Value::Bool(byte_match));
    root.insert("schedule_cache".into(), Value::Object(cache_map));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synthesis.json");
    match std::fs::write(path, Value::Object(root).to_json_pretty() + "\n") {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_mode_graph(c: &mut Criterion) {
    let samples = sample_count();
    let independent = synthesize_independent();
    let inherited = synthesize_inherited();
    let diamond = synthesize_diamond();
    let independent_gap = max_shared_offset_gap(&independent);
    let inherited_gap = max_shared_offset_gap(&inherited);

    // Inherited synthesis must be switch-consistent by construction …
    let (sys, _, _, _) = fixtures::two_mode_graph();
    assert!(
        check_cross_mode_consistency(&sys, &inherited).is_empty(),
        "inherited synthesis must keep shared applications switch-consistent"
    );
    // … and so must the 4-mode diamond, whose leaves are synthesized on
    // parallel workers.
    let (diamond_sys, _, _) = fixtures::four_mode_diamond();
    let diamond_consistent = check_cross_mode_consistency(&diamond_sys, &diamond).is_empty();
    assert!(
        diamond_consistent,
        "diamond synthesis must keep the shared application switch-consistent"
    );

    let independent_s = median_seconds(samples, synthesize_independent);
    let inherited_s = median_seconds(samples, synthesize_inherited);
    let diamond_s = median_seconds(samples, synthesize_diamond);
    let dense_vs_sparse = dense_vs_sparse_relaxations();
    let cache = cache_cold_vs_warm();

    let (independent_totals, inherited_totals, diamond_totals) =
        (independent.totals(), inherited.totals(), diamond.totals());
    eprintln!("\n=== Mode-graph synthesis: inherited + incremental vs independent ===");
    eprintln!(
        "{:<28} {:>12} {:>12} {:>14} {:>22}",
        "strategy", "median", "B&B nodes", "simplex", "shared-offset gap"
    );
    eprintln!(
        "{:<28} {:>9.3} s {:>12} {:>14} {:>19.3} µs",
        "independent (from scratch)",
        independent_s,
        independent_totals.nodes_explored,
        independent_totals.simplex_iterations,
        independent_gap,
    );
    eprintln!(
        "{:<28} {:>9.3} s {:>12} {:>14} {:>19.3} µs",
        "inherited (incremental)",
        inherited_s,
        inherited_totals.nodes_explored,
        inherited_totals.simplex_iterations,
        inherited_gap,
    );
    eprintln!(
        "{:<28} {:>9.3} s {:>12} {:>14} {:>19} µs",
        "diamond (4 modes, parallel)",
        diamond_s,
        diamond_totals.nodes_explored,
        diamond_totals.simplex_iterations,
        "-",
    );
    let (dense_pivots, dense_s, sparse_pivots, sparse_s) = dense_vs_sparse;
    eprintln!(
        "dense vs sparse LP relaxations: dense {dense_pivots} pivots / {dense_s:.3} s, \
         sparse {sparse_pivots} pivots / {sparse_s:.3} s"
    );
    let (cache_cold, cache_warm, cache_hits, cache_misses, _) = cache;
    eprintln!(
        "schedule cache: cold {cache_cold:.3} s, warm {cache_warm:.4} s \
         ({cache_hits} hits / {cache_misses} misses, warm run byte-matches)"
    );
    eprintln!(
        "presolve on inherited workload: {} rows / {} cols removed, {} Devex resets, \
         candidate list {}",
        inherited_totals.presolve_rows_removed,
        inherited_totals.presolve_cols_removed,
        inherited_totals.devex_resets,
        inherited_totals.candidate_list_size,
    );
    eprintln!(
        "speedup: {:.1}x; inherited is switch-consistent (gap < 1e-3 µs): {}\n",
        independent_s / inherited_s.max(1e-12),
        inherited_gap < 1e-3
    );
    // Guard the property on deterministic work counters, not wall clock: the
    // solver is deterministic, so node/pivot counts are stable across runs
    // and noisy CI runners cannot flip them.
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
    if inherited_s > independent_s {
        eprintln!(
            "warning: wall-clock inverted on this run (noise?): inherited {inherited_s:.3} s \
             vs independent {independent_s:.3} s"
        );
    }

    write_bench_json(
        independent_s,
        inherited_s,
        independent_gap,
        inherited_gap,
        &independent,
        &inherited,
        diamond_s,
        &diamond,
        diamond_consistent,
        dense_vs_sparse,
        cache,
    );

    let mut group = c.benchmark_group("mode_graph_synthesis");
    group.sample_size(2);
    group.bench_function("independent_from_scratch", |b| {
        b.iter(|| black_box(synthesize_independent()))
    });
    group.bench_function("inherited_incremental", |b| {
        b.iter(|| black_box(synthesize_inherited()))
    });
    group.bench_function("diamond_parallel", |b| {
        b.iter(|| black_box(synthesize_diamond()))
    });
    group.finish();
}

criterion_group!(benches, bench_mode_graph);
criterion_main!(benches);
