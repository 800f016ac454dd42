//! Schedule synthesis (Algorithm 1) — cost and quality of the ILP
//! co-scheduler, with the greedy heuristic as an ablation.
//!
//! The paper does not report solver runtimes, but the synthesis is the core
//! contribution; this bench records how long the exact ILP takes on the Fig. 3
//! workload and a small pipeline mode, and prints the round count / latency
//! gap between the optimal and the heuristic schedules.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use ttw_bench::{bench_scheduler_config, fig3_workload, pipeline_workload};
use ttw_core::{heuristic, synthesis};

fn bench_synthesis(c: &mut Criterion) {
    let config = bench_scheduler_config();
    let (fig3_sys, fig3_mode) = fig3_workload();
    let (pipe_sys, pipe_mode) = pipeline_workload();

    let optimal = synthesis::synthesize_mode(&fig3_sys, fig3_mode, &config).expect("feasible");
    let greedy =
        heuristic::synthesize_mode_heuristic(&fig3_sys, fig3_mode, &config).expect("feasible");
    eprintln!("\n=== Schedule synthesis (Algorithm 1) on the Fig. 3 application ===");
    eprintln!(
        "ILP      : {} rounds, total latency {:.1} ms, {} B&B nodes, {} simplex pivots",
        optimal.num_rounds(),
        optimal.total_latency / 1e3,
        optimal.stats.nodes_explored,
        optimal.stats.simplex_iterations
    );
    eprintln!(
        "heuristic: {} rounds, total latency {:.1} ms (ablation: greedy list scheduling)\n",
        greedy.num_rounds(),
        greedy.total_latency / 1e3
    );

    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    group.bench_function("ilp_fig3", |b| {
        b.iter(|| black_box(synthesis::synthesize_mode(&fig3_sys, fig3_mode, &config).unwrap()))
    });
    group.bench_function("ilp_pipeline_2x3", |b| {
        b.iter(|| black_box(synthesis::synthesize_mode(&pipe_sys, pipe_mode, &config).unwrap()))
    });
    group.bench_function("heuristic_fig3", |b| {
        b.iter(|| {
            black_box(heuristic::synthesize_mode_heuristic(&fig3_sys, fig3_mode, &config).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_synthesis);
criterion_main!(benches);
