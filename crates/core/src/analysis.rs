//! Analytical latency bounds (Eq. 13 of the paper).

use crate::chains::Chain;
use crate::ids::AppId;
use crate::system::System;
use crate::time::Micros;

/// Minimum achievable end-to-end latency of a single chain (the inner term of
/// Eq. 13): the sum of the task WCETs plus one round length per message.
///
/// In TTW a message can be served by the first round starting after its
/// release, so each message contributes at least `T_r` to the chain latency.
pub fn chain_latency_bound(system: &System, chain: &Chain, round_duration: Micros) -> Micros {
    let exec: Micros = chain.tasks().map(|t| system.task(t).wcet).sum();
    let comm: Micros = chain.messages().count() as Micros * round_duration;
    exec + comm
}

/// Minimum achievable end-to-end latency of an application (Eq. 13):
/// the maximum of [`chain_latency_bound`] over all chains of the application.
pub fn min_latency_bound(system: &System, app: AppId, round_duration: Micros) -> Micros {
    system
        .chains(app)
        .iter()
        .map(|c| chain_latency_bound(system, c, round_duration))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::time::millis;

    #[test]
    fn fig3_bound_matches_hand_computation() {
        let (sys, app) = fixtures::fig3_system_single_app();
        // Longest chain: sensing (2 ms) + m1 + control (5 ms) + m3 + actuation (1 ms)
        // = 8 ms execution + 2 rounds.
        let tr = millis(10);
        assert_eq!(min_latency_bound(&sys, app, tr), millis(8) + 2 * tr);
    }

    #[test]
    fn bound_scales_linearly_with_round_length() {
        let (sys, app) = fixtures::fig3_system_single_app();
        let base = min_latency_bound(&sys, app, millis(10));
        let double = min_latency_bound(&sys, app, millis(20));
        assert_eq!(double - base, 2 * millis(10));
    }

    #[test]
    fn app_without_messages_has_pure_execution_bound() {
        let (sys, mode) = fixtures::synthetic_mode(1, 1, 1, millis(50));
        let app = sys.mode(mode).applications[0];
        assert_eq!(min_latency_bound(&sys, app, millis(10)), millis(1));
    }
}
