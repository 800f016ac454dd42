//! Sec. V latency claim — minimum achievable end-to-end latency of TTW
//! (Eq. 13, one `T_r` per message) versus the loosely-coupled DRP-like
//! baseline (`2·T_r` per message).
//!
//! The bench prints the bounds for the Fig. 3 control application across
//! round lengths and for pipelines of growing length, showing the factor-2
//! improvement the paper reports.

use ttw_baselines::{latency_improvement_factor, loose_min_latency_bound};
use ttw_core::time::millis;
use ttw_core::{analysis, fixtures};

fn main() {
    let (sys, app) = fixtures::fig3_system_single_app();

    eprintln!("\n=== Latency bounds: TTW (Eq. 13) vs loosely-coupled [16] ===");
    eprintln!("Fig. 3 control application, varying round length T_r:");
    eprintln!(
        "{:>8} {:>12} {:>12} {:>8}",
        "T_r[ms]", "TTW[ms]", "loose[ms]", "factor"
    );
    for tr_ms in [5u64, 10, 20, 50, 100] {
        let tr = millis(tr_ms);
        let ttw = analysis::min_latency_bound(&sys, app, tr);
        let loose = loose_min_latency_bound(&sys, app, tr);
        eprintln!(
            "{:>8} {:>12.1} {:>12.1} {:>8.2}",
            tr_ms,
            ttw as f64 / 1e3,
            loose as f64 / 1e3,
            latency_improvement_factor(&sys, app, tr)
        );
    }

    eprintln!("\nPipelines of growing length (T_r = 10 ms, 1 ms tasks):");
    eprintln!(
        "{:>10} {:>12} {:>12} {:>8}",
        "#messages", "TTW[ms]", "loose[ms]", "factor"
    );
    for tasks in [2usize, 3, 5, 8] {
        let (psys, pmode) = fixtures::synthetic_mode(1, tasks, 2, millis(1000));
        let papp = psys.mode(pmode).applications[0];
        let tr = millis(10);
        eprintln!(
            "{:>10} {:>12.1} {:>12.1} {:>8.2}",
            tasks - 1,
            analysis::min_latency_bound(&psys, papp, tr) as f64 / 1e3,
            loose_min_latency_bound(&psys, papp, tr) as f64 / 1e3,
            latency_improvement_factor(&psys, papp, tr)
        );
    }
    eprintln!("per-message communication factor: 2.00 (paper headline)\n");
}
