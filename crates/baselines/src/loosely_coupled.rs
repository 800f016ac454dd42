//! The loosely-coupled (DRP-like) latency baseline.
//!
//! Reference \[16\] of the paper provides end-to-end guarantees over a
//! round-based wireless protocol but couples task and message schedules as
//! loosely as possible; as discussed in Sec. V, the best guarantee such a
//! design can give for a single message is on the order of `2·T_r`, while TTW
//! co-scheduling achieves `T_r`. This module computes the resulting chain and
//! application latency bounds so the factor-2 claim can be reproduced across
//! workloads.

use ttw_core::analysis;
use ttw_core::time::Micros;
use ttw_core::{AppId, Chain, System};

/// Worst-case latency contribution of one message in the loosely-coupled
/// design: `2·T_r`.
pub fn loose_message_latency(round_duration: Micros) -> Micros {
    2 * round_duration
}

/// End-to-end latency bound of a chain under the loosely-coupled design:
/// task WCETs plus `2·T_r` per message.
pub fn loose_chain_latency_bound(system: &System, chain: &Chain, round_duration: Micros) -> Micros {
    let exec: Micros = chain.tasks().map(|t| system.task(t).wcet).sum();
    let comm: Micros = chain.messages().count() as Micros * loose_message_latency(round_duration);
    exec + comm
}

/// Minimum achievable application latency under the loosely-coupled design
/// (the analogue of Eq. 13 with `2·T_r` per message).
pub fn loose_min_latency_bound(system: &System, app: AppId, round_duration: Micros) -> Micros {
    system
        .chains(app)
        .iter()
        .map(|c| loose_chain_latency_bound(system, c, round_duration))
        .max()
        .unwrap_or(0)
}

/// Ratio between the loosely-coupled latency bound and the TTW latency bound
/// for an application.
///
/// The paper's headline is that this factor is at least 2 for the
/// communication part; for complete applications (which also execute tasks)
/// the factor approaches 2 as communication dominates the chain.
pub fn latency_improvement_factor(system: &System, app: AppId, round_duration: Micros) -> f64 {
    let ttw = analysis::min_latency_bound(system, app, round_duration);
    let loose = loose_min_latency_bound(system, app, round_duration);
    if ttw == 0 {
        return 1.0;
    }
    loose as f64 / ttw as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttw_core::fixtures;
    use ttw_core::time::millis;

    #[test]
    fn per_message_factor_is_exactly_two() {
        assert_eq!(loose_message_latency(millis(10)), millis(20));
    }

    #[test]
    fn fig3_application_improvement_close_to_two() {
        let (sys, app) = fixtures::fig3_system_single_app();
        // TTW bound: 8 ms exec + 2 × 10 ms = 28 ms.
        // Loose bound: 8 ms exec + 2 × 20 ms = 48 ms. Factor ≈ 1.71.
        let factor = latency_improvement_factor(&sys, app, millis(10));
        assert!((factor - 48.0 / 28.0).abs() < 1e-9);
        assert!(factor > 1.5 && factor < 2.0);
    }

    #[test]
    fn factor_approaches_two_as_communication_dominates() {
        let (sys, app) = fixtures::fig3_system_single_app();
        // With very long rounds the task execution time becomes negligible.
        let factor = latency_improvement_factor(&sys, app, millis(500));
        assert!(factor > 1.95, "factor = {factor}");
        // With tiny rounds the execution dominates and the factor shrinks.
        let small = latency_improvement_factor(&sys, app, 100);
        assert!(small < factor);
    }

    #[test]
    fn task_only_application_has_factor_one() {
        let (sys, mode) = fixtures::synthetic_mode(1, 1, 1, millis(50));
        let app = sys.mode(mode).applications[0];
        assert_eq!(latency_improvement_factor(&sys, app, millis(10)), 1.0);
    }

    #[test]
    fn loose_bound_always_dominates_ttw_bound() {
        let (sys, app) = fixtures::fig3_system_single_app();
        for tr in [1_000, 10_000, 50_000] {
            assert!(
                loose_min_latency_bound(&sys, app, tr)
                    >= ttw_core::analysis::min_latency_bound(&sys, app, tr)
            );
        }
    }
}
