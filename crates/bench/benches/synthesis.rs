//! Schedule synthesis (Algorithm 1) — cost and quality of the ILP
//! co-scheduler, with the greedy heuristic as an ablation.
//!
//! The paper does not report solver runtimes, but the synthesis is the core
//! contribution; this program solves the Fig. 3 workload and a small pipeline
//! mode once each with the exact ILP and prints its work counters, and the
//! round count / latency gap between the optimal and the heuristic schedules.

use ttw_bench::{bench_scheduler_config, fig3_workload, pipeline_workload};
use ttw_core::{heuristic, synthesis};

fn main() {
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

    let pipeline = synthesis::synthesize_mode(&pipe_sys, pipe_mode, &config).expect("feasible");
    eprintln!("=== … and on two 3-task pipelines over 3 nodes ===");
    eprintln!(
        "ILP      : {} rounds, total latency {:.1} ms, {} B&B nodes, {} simplex pivots\n",
        pipeline.num_rounds(),
        pipeline.total_latency / 1e3,
        pipeline.stats.nodes_explored,
        pipeline.stats.simplex_iterations
    );
}
