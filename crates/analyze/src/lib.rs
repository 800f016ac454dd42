//! # ttw-analyze — static feasibility analysis and diagnostics
//!
//! A linting pass over a [`System`] and its [`ModeGraph`] that runs in
//! microseconds, **before** any ILP is constructed:
//!
//! * **Errors** are sound infeasibility proofs — the certificates of
//!   [`ttw_core::feasibility`] (per-node utilization over capacity, message
//!   instances over the `B · R_max` slot budget, Eq. 13 latency lower bounds
//!   above a deadline, hyperperiod overflow), each rendered as the violated
//!   inequality with its numbers. A mode with an `Error` diagnostic admits no
//!   schedule; the `AnalyzeFirst` gate of
//!   [`ttw_core::synthesis::synthesize_system`] rejects it without spending a
//!   single branch-and-bound node.
//! * **Warnings** flag near-infeasible or structurally suspicious instances:
//!   nodes above 90 % utilization, round budgets that are exactly tight,
//!   deadlines within one round length of the latency lower bound, modes
//!   unreachable from the mode-graph root, and inheritance plans pinning one
//!   mode from several independent donors (the classic source of legitimate
//!   downstream infeasibility).
//!
//! ```
//! use ttw_analyze::{analyze_system, Severity};
//! use ttw_core::{fixtures, ModeGraph, SchedulerConfig};
//! use ttw_core::time::millis;
//!
//! let (system, _) = fixtures::fig3_system();
//! let graph = ModeGraph::complete(&system);
//! let report = analyze_system(&system, &graph, &SchedulerConfig::new(millis(10), 5));
//! assert!(report.is_clean());
//! assert!(report.certified_infeasible(ttw_core::ModeId::from_index(0)).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::fmt;
use ttw_core::feasibility;
use ttw_core::ids::ModeId;
use ttw_core::modegraph::ModeGraph;
use ttw_core::system::System;
use ttw_core::SchedulerConfig;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A heads-up: the instance is feasible as far as static analysis can
    /// tell, but close to a boundary or structurally risky.
    Warning,
    /// A sound infeasibility proof: no schedule exists for the flagged mode.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error (proof of infeasibility) or warning (near-infeasible/risky).
    pub severity: Severity,
    /// The mode the finding concerns, when it concerns a single mode.
    pub mode: Option<ModeId>,
    /// Stable machine-readable code, e.g. `node-over-utilized`.
    pub code: &'static str,
    /// Human-readable text; for errors, the violated inequality with its
    /// numbers (the certificate).
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// The result of analyzing a system: every diagnostic, in deterministic order
/// (modes in synthesis order, graph-level findings last).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// All diagnostics, errors and warnings alike.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The error diagnostics (sound infeasibility proofs).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// `true` when the analysis produced no diagnostic at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one mode is certified infeasible.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// The first certificate proving `mode` infeasible, if any.
    pub fn certified_infeasible(&self, mode: ModeId) -> Option<&Diagnostic> {
        self.errors().find(|d| d.mode == Some(mode))
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "analysis clean: no findings");
        }
        for (index, diagnostic) in self.diagnostics.iter().enumerate() {
            if index > 0 {
                writeln!(f)?;
            }
            write!(f, "{diagnostic}")?;
        }
        Ok(())
    }
}

/// Fraction of a node's hyperperiod budget above which a utilization warning
/// is emitted (the mode is feasible but close to the C3 capacity wall).
const UTILIZATION_WARN_FRACTION: f64 = 0.9;

/// Analyzes a single mode: infeasibility certificates as errors, boundary
/// proximity as warnings.
pub fn analyze_mode(system: &System, mode: ModeId, config: &SchedulerConfig) -> Vec<Diagnostic> {
    let mut diagnostics: Vec<Diagnostic> = feasibility::mode_certificates(system, mode, config)
        .into_iter()
        .map(|certificate| Diagnostic {
            severity: Severity::Error,
            mode: Some(mode),
            code: certificate.code(),
            message: certificate.to_string(),
        })
        .collect();

    let hyperperiod = system.hyperperiod(mode);
    if hyperperiod == 0 || hyperperiod == u64::MAX {
        // Degenerate or overflowed horizon: the certificates said it all.
        return diagnostics;
    }

    // Near-capacity utilization (C3 boundary).
    for (index, &demand) in feasibility::node_demands(system, mode).iter().enumerate() {
        let budget = hyperperiod as u128;
        if demand <= budget && demand as f64 > budget as f64 * UTILIZATION_WARN_FRACTION {
            let node = ttw_core::NodeId::from_index(index);
            diagnostics.push(Diagnostic {
                severity: Severity::Warning,
                mode: Some(mode),
                code: "node-nearly-utilized",
                message: format!(
                    "mode {mode}: node `{}` is above {:.0}% utilization \
                     ({demand} µs of {hyperperiod} µs)",
                    system.node(node).name,
                    UTILIZATION_WARN_FRACTION * 100.0,
                ),
            });
        }
    }

    // Exactly tight round budget (C4 boundary).
    if config.slots_per_round > 0 && config.round_duration > 0 {
        let r_max = feasibility::r_max_for_mode(system, mode, config);
        let instances = feasibility::message_instances(system, mode);
        let min_rounds = instances.div_ceil(config.slots_per_round);
        if instances > 0 && min_rounds == r_max {
            diagnostics.push(Diagnostic {
                severity: Severity::Warning,
                mode: Some(mode),
                code: "round-budget-tight",
                message: format!(
                    "mode {mode}: {instances} message instances need all R_max = {r_max} \
                     rounds ({} slots each); one more message makes the mode infeasible",
                    config.slots_per_round
                ),
            });
        }
    }

    // Deadlines within one round length of the Eq. 13 lower bound.
    for &app in &system.mode(mode).applications {
        let bound = ttw_core::analysis::min_latency_bound(system, app, config.round_duration);
        let spec = system.application(app);
        if bound <= spec.deadline && spec.deadline - bound < config.round_duration {
            diagnostics.push(Diagnostic {
                severity: Severity::Warning,
                mode: Some(mode),
                code: "deadline-margin-thin",
                message: format!(
                    "mode {mode}: application `{}` has {} µs of slack between its latency \
                     lower bound {bound} µs and deadline {} µs — less than one round length \
                     ({} µs)",
                    spec.name,
                    spec.deadline - bound,
                    spec.deadline,
                    config.round_duration
                ),
            });
        }
    }

    diagnostics
}

/// Analyzes the whole system over its mode graph.
///
/// Per-mode diagnostics come first (modes in [`ModeGraph::synthesis_order`]),
/// then the graph-level findings: modes unreachable from the root, and modes
/// whose inheritance plan pins applications from two or more independent
/// donors.
pub fn analyze_system(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
) -> AnalysisReport {
    let order = graph.synthesis_order();
    let mut diagnostics = Vec::new();
    for &mode in &order {
        diagnostics.extend(analyze_mode(system, mode, config));
    }

    // Reachability: the synthesis order lists the modes reachable from the
    // root first, so the modes after them are the unreachable ones.
    for &mode in &order[graph.reachable().len()..] {
        diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            mode: Some(mode),
            code: "mode-unreachable",
            message: format!(
                "mode {mode} (`{}`) is unreachable from the root mode {} via switch \
                 edges; it is still synthesized, after all reachable modes",
                system.mode(mode).name,
                graph.root()
            ),
        });
    }

    // Inheritance pins from several independent donors: each donor fixed its
    // offsets without seeing the others, so their union may conflict — the
    // one infeasibility class minimal inheritance can create.
    for (mode, sources) in graph.inheritance_plan(system) {
        let donors: BTreeSet<ModeId> = sources.values().copied().collect();
        if donors.len() >= 2 {
            let names: Vec<String> = donors.iter().map(|d| d.to_string()).collect();
            diagnostics.push(Diagnostic {
                severity: Severity::Warning,
                mode: Some(mode),
                code: "pin-conflict-risk",
                message: format!(
                    "mode {mode} (`{}`) inherits pinned offsets from {} independent donors \
                     ({}); offsets chosen separately may conflict when combined",
                    system.mode(mode).name,
                    donors.len(),
                    names.join(", ")
                ),
            });
        }
    }

    AnalysisReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttw_core::fixtures;
    use ttw_core::spec::ApplicationSpec;
    use ttw_core::time::millis;

    fn config() -> SchedulerConfig {
        SchedulerConfig::new(millis(10), 5)
    }

    #[test]
    fn fig3_is_clean() {
        let (system, _) = fixtures::fig3_system();
        let graph = ModeGraph::complete(&system);
        let report = analyze_system(&system, &graph, &config());
        assert!(report.is_clean(), "unexpected findings: {report}");
    }

    #[test]
    fn over_utilized_mode_yields_an_error_with_numbers() {
        let mut sys = System::new();
        sys.add_node("n0").unwrap();
        let spec = ApplicationSpec::new("heavy", millis(100), millis(100))
            .with_task("heavy.t0", "n0", millis(60))
            .with_task("heavy.t1", "n0", millis(60));
        let app = sys.add_application(&spec).unwrap();
        let mode = sys.add_mode("m", &[app]).unwrap();
        let graph = ModeGraph::complete(&sys);
        let report = analyze_system(&sys, &graph, &config());
        assert!(report.has_errors());
        let diagnostic = report.certified_infeasible(mode).expect("certified");
        assert_eq!(diagnostic.code, "node-over-utilized");
        assert!(diagnostic.message.contains("120000"));
    }

    #[test]
    fn near_utilization_yields_a_warning_not_an_error() {
        let mut sys = System::new();
        sys.add_node("n0").unwrap();
        let spec = ApplicationSpec::new("busy", millis(100), millis(100))
            .with_task("busy.t0", "n0", millis(50))
            .with_task("busy.t1", "n0", millis(45));
        let app = sys.add_application(&spec).unwrap();
        let mode = sys.add_mode("m", &[app]).unwrap();
        let diagnostics = analyze_mode(&sys, mode, &config());
        assert!(diagnostics.iter().all(|d| d.severity == Severity::Warning));
        assert!(diagnostics.iter().any(|d| d.code == "node-nearly-utilized"));
    }

    #[test]
    fn thin_deadline_margin_yields_a_warning() {
        // Fig. 3 with a 29 ms deadline: the longest chain bound is 2+5+1 ms of
        // WCET plus 2 · 10 ms of rounds = 28 ms, leaving 1 ms of slack — less
        // than one round length.
        let params = fixtures::Fig3Params {
            deadline: millis(29),
            ..fixtures::Fig3Params::default()
        };
        let mut sys = System::new();
        fixtures::fig3_nodes(&mut sys);
        let app = sys
            .add_application(&fixtures::fig3_control_application("ctrl", params))
            .unwrap();
        let mode = sys.add_mode("m", &[app]).unwrap();
        let diagnostics = analyze_mode(&sys, mode, &config());
        assert!(
            diagnostics.iter().any(|d| d.code == "deadline-margin-thin"),
            "expected margin warning, got {diagnostics:?}"
        );
        assert!(diagnostics.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn unreachable_mode_is_flagged() {
        let (sys, _, _) = fixtures::two_mode_system();
        // No edges at all: the non-root mode is unreachable.
        let graph = ModeGraph::new(&sys);
        let report = analyze_system(&sys, &graph, &config());
        let unreachable: Vec<_> = report
            .warnings()
            .filter(|d| d.code == "mode-unreachable")
            .collect();
        assert_eq!(unreachable.len(), 1);
    }

    /// Rooted at `emergency`, the diamond reaches `normal` and `maintenance`
    /// through switch edges but never `boot`, which only switches out.
    #[test]
    fn only_modes_no_switch_path_reaches_are_flagged_unreachable() {
        let (sys, graph, [boot, normal, emergency, maintenance]) = fixtures::four_mode_diamond();
        let graph = graph.with_root(emergency).unwrap();
        assert_eq!(graph.reachable(), [emergency, normal, maintenance]);
        let report = analyze_system(&sys, &graph, &config());
        let unreachable: Vec<_> = report
            .warnings()
            .filter(|d| d.code == "mode-unreachable")
            .map(|d| d.mode)
            .collect();
        assert_eq!(unreachable, [Some(boot)]);
    }

    #[test]
    fn multi_donor_inheritance_is_flagged() {
        // Mode m2 runs both apps; `a` is first scheduled in m0 and `b` in m1,
        // so m2 inherits pins from two donors that never saw each other.
        let mut sys = System::new();
        for n in ["n0", "n1"] {
            sys.add_node(n).unwrap();
        }
        let a = sys
            .add_application(
                &ApplicationSpec::new("a", millis(100), millis(100)).with_task(
                    "a.t0",
                    "n0",
                    millis(1),
                ),
            )
            .unwrap();
        let b = sys
            .add_application(
                &ApplicationSpec::new("b", millis(100), millis(100)).with_task(
                    "b.t0",
                    "n1",
                    millis(1),
                ),
            )
            .unwrap();
        let m0 = sys.add_mode("m0", &[a]).unwrap();
        let m1 = sys.add_mode("m1", &[b]).unwrap();
        let m2 = sys.add_mode("m2", &[a, b]).unwrap();
        let mut graph = ModeGraph::new(&sys);
        graph.add_edge(m0, m1).unwrap();
        graph.add_edge(m1, m2).unwrap();
        let report = analyze_system(&sys, &graph, &config());
        let flagged: Vec<_> = report
            .warnings()
            .filter(|d| d.code == "pin-conflict-risk")
            .collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].mode, Some(m2));
        // The single-donor modes are not flagged.
        assert!(!report.has_errors());
    }

    #[test]
    fn four_mode_diamond_has_no_pin_conflict_risk() {
        // Every non-boot mode of the diamond inherits only `ctrl`, and only
        // from boot — a single donor, so no risk warning.
        let (sys, graph, _) = fixtures::four_mode_diamond();
        let report = analyze_system(&sys, &graph, &config());
        assert!(report.warnings().all(|d| d.code != "pin-conflict-risk"));
        assert!(!report.has_errors());
    }

    #[test]
    fn report_display_renders_certificates() {
        let (system, mode) = fixtures::fig3_system();
        let graph = ModeGraph::complete(&system);
        let tight = SchedulerConfig::new(millis(10), 1).with_max_rounds(1);
        let report = analyze_system(&system, &graph, &tight);
        assert!(report.has_errors());
        let text = report.to_string();
        assert!(text.contains("error[round-capacity-exceeded]"), "{text}");
        assert!(report.certified_infeasible(mode).is_some());
    }
}
