//! Static infeasibility certificates: closed-form *necessary* conditions a
//! mode must satisfy to admit any schedule.
//!
//! Every check here is **sound**: a returned [`InfeasibilityCertificate`]
//! proves — via an explicit violated inequality — that no round count up to
//! `R_max` admits a feasible schedule, so the ILP sweep of Algorithm 1 can be
//! skipped entirely. The paper's closed-form bounds back each certificate:
//! per-node utilization (constraint C3 forbids task overlap on a node), the
//! slot-capacity limit `B · R_max` (constraint C4), and the end-to-end
//! latency lower bound of Eq. 13 (`Σ WCET + #messages · T_r ≤ a.d`).
//!
//! The certificates power two consumers:
//!
//! * the `AnalyzeFirst` gate in [`crate::synthesis::synthesize_system`]
//!   (toggled by [`crate::SchedulerConfig::analyze_first`]), which converts a
//!   certified mode into an immediate [`crate::ScheduleError::Infeasible`]
//!   with the certificate as its explanation, and
//! * the `ttw-analyze` crate, which wraps them (plus graph-level lints and
//!   near-infeasibility warnings) into a diagnostic report.

use crate::analysis::min_latency_bound;
use crate::config::SchedulerConfig;
use crate::ids::{AppId, ModeId, NodeId};
use crate::system::System;
use crate::time::Micros;
use std::fmt;

/// A proof that a mode admits no feasible schedule, as the violated
/// inequality with its numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InfeasibilityCertificate {
    /// The mode hyperperiod overflowed 64-bit microsecond arithmetic
    /// (`lcm` of the application periods saturated at `u64::MAX`), so no
    /// meaningful schedule horizon exists.
    HyperperiodOverflow {
        /// Mode whose hyperperiod overflowed.
        mode: ModeId,
    },
    /// The computation demand on one node exceeds the hyperperiod:
    /// `Σ wcet · instances > LCM` violates constraint C3 (no two task
    /// instances may overlap on a node).
    NodeOverUtilized {
        /// Mode being checked.
        mode: ModeId,
        /// The over-utilized node.
        node: NodeId,
        /// Name of the over-utilized node.
        node_name: String,
        /// Total execution demand on the node over one hyperperiod (µs).
        demand: u128,
        /// The mode hyperperiod (µs).
        hyperperiod: Micros,
    },
    /// More message instances are released per hyperperiod than the round
    /// sweep can ever serve: `⌈instances / B⌉ > R_max` violates the slot
    /// capacity of constraint C4.
    RoundCapacityExceeded {
        /// Mode being checked.
        mode: ModeId,
        /// Message instances released per hyperperiod.
        message_instances: usize,
        /// Minimum rounds needed to serve them (`⌈instances / B⌉`).
        min_rounds: usize,
        /// Largest round count Algorithm 1 may try.
        r_max: usize,
        /// Data slots per round (`B`).
        slots_per_round: usize,
    },
    /// An application's end-to-end latency lower bound (Eq. 13) exceeds its
    /// deadline: `Σ WCET + #messages · T_r > a.d`, so every chain schedule
    /// misses the deadline regardless of the round layout.
    DeadlineUnattainable {
        /// Mode being checked.
        mode: ModeId,
        /// The application whose deadline is unattainable.
        app: AppId,
        /// Name of the application.
        app_name: String,
        /// The Eq. 13 latency lower bound (µs).
        bound: Micros,
        /// The application deadline (µs).
        deadline: Micros,
    },
}

impl InfeasibilityCertificate {
    /// The mode this certificate proves infeasible.
    pub fn mode(&self) -> ModeId {
        match self {
            InfeasibilityCertificate::HyperperiodOverflow { mode }
            | InfeasibilityCertificate::NodeOverUtilized { mode, .. }
            | InfeasibilityCertificate::RoundCapacityExceeded { mode, .. }
            | InfeasibilityCertificate::DeadlineUnattainable { mode, .. } => *mode,
        }
    }

    /// Stable machine-readable code naming the violated condition.
    pub fn code(&self) -> &'static str {
        match self {
            InfeasibilityCertificate::HyperperiodOverflow { .. } => "hyperperiod-overflow",
            InfeasibilityCertificate::NodeOverUtilized { .. } => "node-over-utilized",
            InfeasibilityCertificate::RoundCapacityExceeded { .. } => "round-capacity-exceeded",
            InfeasibilityCertificate::DeadlineUnattainable { .. } => "deadline-unattainable",
        }
    }
}

impl fmt::Display for InfeasibilityCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfeasibilityCertificate::HyperperiodOverflow { mode } => write!(
                f,
                "mode {mode}: the hyperperiod (LCM of application periods) overflows 64-bit \
                 microseconds"
            ),
            InfeasibilityCertificate::NodeOverUtilized {
                mode,
                node_name,
                demand,
                hyperperiod,
                ..
            } => write!(
                f,
                "mode {mode}: node `{node_name}` is over-utilized — execution demand \
                 {demand} µs > hyperperiod {hyperperiod} µs (violates C3)"
            ),
            InfeasibilityCertificate::RoundCapacityExceeded {
                mode,
                message_instances,
                min_rounds,
                r_max,
                slots_per_round,
            } => write!(
                f,
                "mode {mode}: {message_instances} message instances per hyperperiod need \
                 ⌈{message_instances}/{slots_per_round}⌉ = {min_rounds} rounds > R_max = {r_max} \
                 (violates C4 slot capacity)"
            ),
            InfeasibilityCertificate::DeadlineUnattainable {
                mode,
                app_name,
                bound,
                deadline,
                ..
            } => write!(
                f,
                "mode {mode}: application `{app_name}` cannot meet its deadline — latency \
                 lower bound {bound} µs (Σ WCET + #messages · T_r, Eq. 13) > deadline \
                 {deadline} µs"
            ),
        }
    }
}

/// Largest round count Algorithm 1 may try for `mode` under `config`
/// (`R_max = min(max_rounds, ⌊LCM / T_r⌋)`), mirroring the ILP sweep.
pub fn r_max_for_mode(system: &System, mode: ModeId, config: &SchedulerConfig) -> usize {
    let fit = (system.hyperperiod(mode) / config.round_duration.max(1)) as usize;
    config.max_rounds.map_or(fit, |cap| cap.min(fit))
}

/// Total execution demand per node over one hyperperiod of `mode`, in µs,
/// indexed by node (`Σ wcet · instances` for every task mapped there).
/// 128-bit arithmetic keeps the sums exact even near the overflow boundary.
pub fn node_demands(system: &System, mode: ModeId) -> Vec<u128> {
    let hyperperiod = system.hyperperiod(mode);
    let mut demand_per_node: Vec<u128> = vec![0; system.num_nodes()];
    for &task in &system.tasks_in_mode(mode) {
        let t = system.task(task);
        let instances = (hyperperiod / system.task_period(task).max(1)) as u128;
        demand_per_node[t.node.index()] += t.wcet as u128 * instances;
    }
    demand_per_node
}

/// Task instance pairs on a shared node over one hyperperiod of `mode`:
/// `Σ (H/pᵢ)(H/pⱼ)` over same-node task pairs, which is the number of `λ`
/// binaries in the ILP's C3 block. Saturates at `u128::MAX`.
pub fn task_instance_pairs(system: &System, mode: ModeId) -> u128 {
    let hyperperiod = system.hyperperiod(mode);
    // Per node, Σ n and Σ n²: the pairs are ((Σ n)² − Σ n²) / 2.
    let mut per_node: Vec<(u128, u128)> = vec![(0, 0); system.num_nodes()];
    for &task in &system.tasks_in_mode(mode) {
        let instances = (hyperperiod / system.task_period(task).max(1)) as u128;
        let (sum, squares) = &mut per_node[system.task(task).node.index()];
        *sum = sum.saturating_add(instances);
        *squares = squares.saturating_add(instances * instances);
    }
    per_node
        .into_iter()
        .map(|(sum, squares)| {
            sum.checked_mul(sum)
                .map_or(u128::MAX, |all| (all - squares) / 2)
        })
        .fold(0, u128::saturating_add)
}

/// Message instances released per hyperperiod of `mode` (each needs a slot).
pub fn message_instances(system: &System, mode: ModeId) -> usize {
    let hyperperiod = system.hyperperiod(mode);
    system
        .messages_in_mode(mode)
        .iter()
        .map(|&m| (hyperperiod / system.message_period(m)) as usize)
        .sum()
}

/// Collects **all** infeasibility certificates of one mode, in a
/// deterministic order (overflow, then per-node utilization, then round
/// capacity, then per-application deadlines).
///
/// An empty result does *not* mean the mode is feasible — these are necessary
/// conditions only; the ILP still has the last word on feasibility.
pub fn mode_certificates(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
) -> Vec<InfeasibilityCertificate> {
    let hyperperiod = system.hyperperiod(mode);
    if hyperperiod == u64::MAX {
        // `lcm` saturates on overflow; every later bound would be garbage.
        return vec![InfeasibilityCertificate::HyperperiodOverflow { mode }];
    }
    if hyperperiod == 0 || config.round_duration == 0 || config.slots_per_round == 0 {
        // Malformed configurations are InvalidConfig territory, not ours.
        return Vec::new();
    }

    let mut certificates = Vec::new();

    // Per-node utilization (C3): total demand on a node over one hyperperiod
    // cannot exceed the hyperperiod.
    for (index, &demand) in node_demands(system, mode).iter().enumerate() {
        if demand > hyperperiod as u128 {
            let node = NodeId::from_index(index);
            certificates.push(InfeasibilityCertificate::NodeOverUtilized {
                mode,
                node,
                node_name: system.node(node).name.clone(),
                demand,
                hyperperiod,
            });
        }
    }

    // Round capacity (C4): every message instance of the hyperperiod needs a
    // slot, and at most `B · R_max` slots exist.
    let r_max = r_max_for_mode(system, mode, config);
    let instances = message_instances(system, mode);
    let min_rounds = instances.div_ceil(config.slots_per_round);
    if min_rounds > r_max {
        certificates.push(InfeasibilityCertificate::RoundCapacityExceeded {
            mode,
            message_instances: instances,
            min_rounds,
            r_max,
            slots_per_round: config.slots_per_round,
        });
    }

    // Chain deadlines (Eq. 13): the latency lower bound of every application
    // must fit under its deadline.
    for &app in &system.mode(mode).applications {
        let bound = min_latency_bound(system, app, config.round_duration);
        let spec = system.application(app);
        if bound > spec.deadline {
            certificates.push(InfeasibilityCertificate::DeadlineUnattainable {
                mode,
                app,
                app_name: spec.name.clone(),
                bound,
                deadline: spec.deadline,
            });
        }
    }

    certificates
}

/// Returns the first (deterministic) infeasibility proof of `mode`, or `None`
/// when no static condition is violated.
pub fn certify_mode_infeasible(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
) -> Option<InfeasibilityCertificate> {
    mode_certificates(system, mode, config).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::spec::ApplicationSpec;
    use crate::time::millis;

    #[test]
    fn fig3_has_no_certificates() {
        let (system, mode) = fixtures::fig3_system();
        let config = SchedulerConfig::new(millis(10), 5);
        assert!(mode_certificates(&system, mode, &config).is_empty());
    }

    #[test]
    fn over_utilized_node_is_certified() {
        let mut sys = System::new();
        sys.add_node("n0").unwrap();
        let spec = ApplicationSpec::new("heavy", millis(100), millis(100))
            .with_task("heavy.t0", "n0", millis(60))
            .with_task("heavy.t1", "n0", millis(60));
        let app = sys.add_application(&spec).unwrap();
        let mode = sys.add_mode("m", &[app]).unwrap();
        let config = SchedulerConfig::new(millis(10), 5);
        let certs = mode_certificates(&sys, mode, &config);
        assert!(
            certs
                .iter()
                .any(|c| c.code() == "node-over-utilized" && c.mode() == mode),
            "expected utilization certificate, got {certs:?}"
        );
        let text = certs[0].to_string();
        assert!(text.contains("120000"), "demand numbers missing: {text}");
        assert!(text.contains("100000"), "hyperperiod missing: {text}");
    }

    #[test]
    fn round_capacity_is_certified_and_matches_the_sweep_bound() {
        let (system, mode) = fixtures::fig3_system();
        // Fig. 3 releases 3 message instances per hyperperiod; with one slot
        // per round and a cap of 2 rounds they can never all be served.
        let config = SchedulerConfig::new(millis(10), 1).with_max_rounds(2);
        let certs = mode_certificates(&system, mode, &config);
        assert!(certs.iter().any(|c| c.code() == "round-capacity-exceeded"));
        assert_eq!(r_max_for_mode(&system, mode, &config), 2);
    }

    #[test]
    fn unattainable_deadline_is_certified() {
        let params = fixtures::Fig3Params {
            deadline: millis(15),
            ..fixtures::Fig3Params::default()
        };
        let mut sys = System::new();
        fixtures::fig3_nodes(&mut sys);
        let app = sys
            .add_application(&fixtures::fig3_control_application("ctrl", params))
            .unwrap();
        let mode = sys.add_mode("m", &[app]).unwrap();
        // Two message hops at 10 ms each already exceed the 15 ms deadline.
        let config = SchedulerConfig::new(millis(10), 5);
        let certs = mode_certificates(&sys, mode, &config);
        assert!(certs.iter().any(|c| c.code() == "deadline-unattainable"));
        assert!(certs[0].to_string().contains("Eq. 13"));
    }

    #[test]
    fn certify_returns_first_certificate() {
        let (system, mode) = fixtures::fig3_system();
        let config = SchedulerConfig::new(millis(10), 1).with_max_rounds(1);
        let first = certify_mode_infeasible(&system, mode, &config).expect("certified");
        assert_eq!(first.mode(), mode);
    }
}
