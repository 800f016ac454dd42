//! Parallel-scaling of multi-mode synthesis over generated N-mode graphs.
//!
//! The `mode_graph_synthesis` bench measures the fixed 2- and 4-mode
//! fixtures; this bench closes the ROADMAP item "bench scaling in the number
//! of modes": it sweeps `ttw-testkit` scenarios with N ∈ {2, 4, 8, 16, 32}
//! modes across three graph shapes — a chain (inheritance forces fully
//! sequential synthesis), a diamond (all middle modes form one wide parallel
//! wave) and a layered DAG (bounded-width waves) — and times the sequential
//! driver (`synthesize_system_sequential`) against the parallel wave driver
//! (`synthesize_system`) on identical workloads.
//!
//! Per (shape, N) combination the bench records wall times, the speedup, the
//! wave structure (count and maximum width) and the deterministic solver work
//! counters into `BENCH_mode_scaling.json` at the workspace root; the CI
//! perf-regression job regenerates the file in quick mode and gates on the
//! `simplex_iterations` counters via `scripts/check_bench_regression.py`.
//! Since the static-analyzer PR every scenario also records the
//! `ttw-analyze` pass time (`analyze_micros`, informational, never gated)
//! and the `AnalyzeFirst` fast-fail count (`analyze_fast_fails`, 0 on this
//! feasible family), and an `infeasible` section sweeps the provably
//! infeasible `GeneratorConfig::infeasible` family to demonstrate that the
//! gate rejects certified modes without spending a single B&B node.
//!
//! `TTW_BENCH_QUICK=1` trims the sweep to N ≤ 8 with one timing sample (the
//! work counters are unaffected — the solver is deterministic).

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use ttw_analyze::analyze_system;
use ttw_core::json::Value;
use ttw_core::synthesis::{
    synthesize_mode, synthesize_system, synthesize_system_sequential, IlpSynthesizer,
};
use ttw_core::validate::validate_system_schedule;
use ttw_core::{SynthesisStats, SystemSchedule};
use ttw_testkit::{generate, GeneratorConfig, GraphShape, InfeasibleKind, Scenario};

/// Fixed generator seed: the sweep is a benchmark, not a property test, so
/// every run measures the identical workload.
const SEED: u64 = 7;

fn quick() -> bool {
    std::env::var_os("TTW_BENCH_QUICK").is_some()
}

fn mode_counts() -> Vec<usize> {
    if quick() {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 16, 32]
    }
}

fn shapes() -> [GraphShape; 3] {
    [
        GraphShape::Chain,
        GraphShape::Diamond,
        GraphShape::LayeredDag { width: 4 },
    ]
}

fn scenario(shape: GraphShape, num_modes: usize) -> Scenario {
    generate(&GeneratorConfig::bench(num_modes, shape), SEED)
}

/// Median wall-clock seconds over `samples` runs of `f`.
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

struct Measurement {
    shape: &'static str,
    num_modes: usize,
    wave_count: usize,
    max_wave_width: usize,
    sequential_s: f64,
    parallel_s: f64,
    total_rounds: usize,
    analyze_micros: f64,
    /// Every work counter, totalled over the modes.
    totals: SynthesisStats,
}

/// Median wall time (µs) of the full `ttw-analyze` static pass — timed at
/// the bench level so `SynthesisStats` keeps only deterministic counters.
fn analyze_micros(scenario: &Scenario, samples: usize) -> f64 {
    let config = scenario.scheduler_config();
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(analyze_system(&scenario.system, &scenario.graph, &config));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|x, y| x.total_cmp(y));
    times[times.len() / 2]
}

fn measure(shape: GraphShape, num_modes: usize, samples: usize) -> Measurement {
    let scenario = scenario(shape, num_modes);
    let sys = &scenario.system;
    let config = scenario.scheduler_config();
    let backend = IlpSynthesizer::default();

    let waves = scenario.graph.synthesis_waves(sys);
    let sequential = synthesize_system_sequential(sys, &scenario.graph, &config, &backend)
        .unwrap_or_else(|e| {
            panic!(
                "{} N={num_modes} infeasible sequentially: {e}",
                shape.name()
            )
        });
    let parallel = synthesize_system(sys, &scenario.graph, &config, &backend)
        .unwrap_or_else(|e| panic!("{} N={num_modes} infeasible in parallel: {e}", shape.name()));

    // Both drivers must produce the identical, valid deployment.
    for (mode, schedule) in sequential.iter() {
        let other = parallel.get(mode).expect("same modes");
        assert_eq!(
            schedule.task_offsets, other.task_offsets,
            "driver divergence"
        );
        assert_eq!(schedule.rounds, other.rounds, "driver divergence");
    }
    let violations = validate_system_schedule(sys, &config, &parallel);
    assert!(violations.is_empty(), "invalid schedule: {violations:?}");

    let sequential_s = median_seconds(samples, || {
        synthesize_system_sequential(sys, &scenario.graph, &config, &backend).expect("feasible")
    });
    let parallel_s = median_seconds(samples, || {
        synthesize_system(sys, &scenario.graph, &config, &backend).expect("feasible")
    });

    Measurement {
        shape: shape.name(),
        num_modes,
        wave_count: waves.len(),
        max_wave_width: waves.iter().map(Vec::len).max().unwrap_or(0),
        sequential_s,
        parallel_s,
        total_rounds: parallel.iter().map(|(_, s)| s.num_rounds()).sum(),
        analyze_micros: analyze_micros(&scenario, samples),
        totals: parallel.totals(),
    }
}

/// Per-`InfeasibleKind` gate effectiveness on the provably infeasible family.
struct InfeasibleMeasurement {
    kind: &'static str,
    modes: usize,
    fast_failed: usize,
    milp_nodes: usize,
    analyze_micros: f64,
}

/// Runs the `AnalyzeFirst`-gated ILP backend over every mode of an
/// infeasible-family scenario and counts how many modes the gate rejected
/// before any branch-and-bound work.
fn measure_infeasible(kind: InfeasibleKind, samples: usize) -> InfeasibleMeasurement {
    let num_modes = if quick() { 4 } else { 8 };
    let config = GeneratorConfig::infeasible(num_modes, GraphShape::Chain, kind);
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
        analyze_micros: analyze_micros(&scenario, samples),
    }
}

fn write_bench_json(measurements: &[Measurement], infeasible: &[InfeasibleMeasurement]) {
    let num = |v: f64| Value::Number(v);
    let mut scenarios = BTreeMap::new();
    for m in measurements {
        let mut map = BTreeMap::new();
        map.insert("modes".into(), num(m.num_modes as f64));
        map.insert("wave_count".into(), num(m.wave_count as f64));
        map.insert("max_wave_width".into(), num(m.max_wave_width as f64));
        map.insert("sequential_seconds".into(), num(m.sequential_s));
        map.insert("parallel_seconds".into(), num(m.parallel_s));
        map.insert(
            "speedup".into(),
            num(m.sequential_s / m.parallel_s.max(1e-12)),
        );
        map.insert("total_rounds".into(), num(m.total_rounds as f64));
        map.insert("analyze_micros".into(), num(m.analyze_micros));
        map.insert(
            "analyze_fast_fails".into(),
            num(m.totals.analyze_fast_fails as f64),
        );
        for (name, value) in m.totals.fields() {
            map.insert(name.into(), num(value as f64));
        }
        scenarios.insert(format!("{}_n{}", m.shape, m.num_modes), Value::Object(map));
    }

    let mut infeasible_map = BTreeMap::new();
    infeasible_map.insert(
        "workload".into(),
        Value::String(
            "ttw-testkit GeneratorConfig::infeasible chain scenarios, AnalyzeFirst-gated \
             ILP backend, per-mode pin-free synthesis"
                .into(),
        ),
    );
    for m in infeasible {
        let mut map = BTreeMap::new();
        map.insert("modes".into(), num(m.modes as f64));
        map.insert("analyze_fast_fails".into(), num(m.fast_failed as f64));
        map.insert("milp_nodes".into(), num(m.milp_nodes as f64));
        map.insert(
            "gate_rejection_rate".into(),
            num(m.fast_failed as f64 / (m.modes as f64).max(1.0)),
        );
        map.insert("analyze_micros".into(), num(m.analyze_micros));
        infeasible_map.insert(m.kind.into(), Value::Object(map));
    }

    let mut root = BTreeMap::new();
    root.insert("bench".into(), Value::String("mode_scaling".into()));
    root.insert(
        "workload".into(),
        Value::String(
            "ttw-testkit GeneratorConfig::bench scenarios, ILP backend, \
             sequential vs parallel wave driver"
                .into(),
        ),
    );
    root.insert("generator_seed".into(), num(SEED as f64));
    root.insert("scenarios".into(), Value::Object(scenarios));
    root.insert("infeasible".into(), Value::Object(infeasible_map));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mode_scaling.json");
    match std::fs::write(path, Value::Object(root).to_json_pretty() + "\n") {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_mode_scaling(c: &mut Criterion) {
    let samples = if quick() { 1 } else { 3 };
    let mut measurements = Vec::new();

    eprintln!("\n=== Mode scaling: sequential vs parallel synthesis waves ===");
    eprintln!(
        "{:<10} {:>5} {:>7} {:>10} {:>14} {:>12} {:>9} {:>10}",
        "shape", "N", "waves", "max width", "sequential", "parallel", "speedup", "simplex"
    );
    for shape in shapes() {
        for n in mode_counts() {
            let m = measure(shape, n, samples);
            eprintln!(
                "{:<10} {:>5} {:>7} {:>10} {:>12.3} s {:>10.3} s {:>8.2}x {:>10}",
                m.shape,
                m.num_modes,
                m.wave_count,
                m.max_wave_width,
                m.sequential_s,
                m.parallel_s,
                m.sequential_s / m.parallel_s.max(1e-12),
                m.totals.simplex_iterations,
            );
            measurements.push(m);
        }
    }
    eprintln!();

    eprintln!("=== AnalyzeFirst gate on the provably infeasible family ===");
    eprintln!(
        "{:<22} {:>6} {:>12} {:>11} {:>14}",
        "kind", "modes", "fast fails", "B&B nodes", "analyze µs"
    );
    let mut infeasible = Vec::new();
    for kind in InfeasibleKind::ALL {
        let m = measure_infeasible(kind, samples);
        eprintln!(
            "{:<22} {:>6} {:>12} {:>11} {:>14.1}",
            m.kind, m.modes, m.fast_failed, m.milp_nodes, m.analyze_micros
        );
        // The acceptance bar: the gate must reject at least 80% of the
        // infeasible modes before any branch-and-bound work. Asserted on
        // deterministic counters so noisy runners cannot flip it.
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
        infeasible.push(m);
    }
    eprintln!();
    write_bench_json(&measurements, &infeasible);

    // One registered timing pair per shape at the widest quick size, so the
    // criterion shim prints comparable per-iteration numbers.
    let mut group = c.benchmark_group("mode_scaling");
    group.sample_size(2);
    for shape in shapes() {
        let scenario = scenario(shape, 8);
        let config = scenario.scheduler_config();
        let backend = IlpSynthesizer::default();
        group.bench_function(format!("{}_n8_sequential", shape.name()), |b| {
            b.iter(|| {
                black_box(
                    synthesize_system_sequential(
                        &scenario.system,
                        &scenario.graph,
                        &config,
                        &backend,
                    )
                    .expect("feasible"),
                )
            })
        });
        group.bench_function(format!("{}_n8_parallel", shape.name()), |b| {
            b.iter(|| {
                black_box(
                    synthesize_system(&scenario.system, &scenario.graph, &config, &backend)
                        .expect("feasible"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mode_scaling);
criterion_main!(benches);
