//! Ready-made systems used by the examples, tests and benchmarks.
//!
//! The main fixture is the control application of Fig. 3 in the paper: two
//! sensing tasks feed a controller which multicasts actuation commands to two
//! actuators. The module also provides synthetic multi-application workloads
//! used to stress the schedule synthesis.

use crate::ids::{AppId, ModeId};
use crate::spec::ApplicationSpec;
use crate::system::System;
use crate::time::{millis, Micros};

/// Parameters of the [Fig. 3](fig3_control_application) control application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig3Params {
    /// Application period `a.p` (µs).
    pub period: Micros,
    /// End-to-end deadline `a.d` (µs).
    pub deadline: Micros,
    /// WCET of the two sensing tasks τ1, τ2 (µs).
    pub sensing_wcet: Micros,
    /// WCET of the control task τ3 (µs).
    pub control_wcet: Micros,
    /// WCET of the two actuation tasks τ5, τ6 (µs).
    pub actuation_wcet: Micros,
}

impl Default for Fig3Params {
    fn default() -> Self {
        Fig3Params {
            period: millis(100),
            deadline: millis(100),
            sensing_wcet: millis(2),
            control_wcet: millis(5),
            actuation_wcet: millis(1),
        }
    }
}

/// Builds the precedence graph of Fig. 3: sensing (τ1, τ2) → messages m1, m2 →
/// control (τ3) → multicast m3 → actuation (τ5, τ6).
///
/// Node names used: `sensor1`, `sensor2`, `controller`, `actuator1`,
/// `actuator2`; call [`fig3_nodes`] to create them.
pub fn fig3_control_application(name: &str, params: Fig3Params) -> ApplicationSpec {
    ApplicationSpec::new(name, params.period, params.deadline)
        .with_task(format!("{name}.tau1"), "sensor1", params.sensing_wcet)
        .with_task(format!("{name}.tau2"), "sensor2", params.sensing_wcet)
        .with_task(format!("{name}.tau3"), "controller", params.control_wcet)
        .with_task(format!("{name}.tau5"), "actuator1", params.actuation_wcet)
        .with_task(format!("{name}.tau6"), "actuator2", params.actuation_wcet)
        .with_message(
            format!("{name}.m1"),
            [format!("{name}.tau1")],
            [format!("{name}.tau3")],
        )
        .with_message(
            format!("{name}.m2"),
            [format!("{name}.tau2")],
            [format!("{name}.tau3")],
        )
        .with_message(
            format!("{name}.m3"),
            [format!("{name}.tau3")],
            [format!("{name}.tau5"), format!("{name}.tau6")],
        )
}

/// Adds the five nodes of the Fig. 3 scenario to `system`.
pub fn fig3_nodes(system: &mut System) {
    for n in ["sensor1", "sensor2", "controller", "actuator1", "actuator2"] {
        system
            .add_node(n)
            .expect("fixture nodes are only added once");
    }
}

/// A system containing a single Fig. 3 control application (no mode yet).
pub fn fig3_system_single_app() -> (System, AppId) {
    let mut sys = System::new();
    fig3_nodes(&mut sys);
    let app = sys
        .add_application(&fig3_control_application("ctrl", Fig3Params::default()))
        .expect("fixture application is valid");
    (sys, app)
}

/// A system containing a single Fig. 3 control application inside a `normal`
/// operation mode — the default workload of the examples and benches.
pub fn fig3_system() -> (System, ModeId) {
    let (mut sys, app) = fig3_system_single_app();
    let mode = sys
        .add_mode("normal", &[app])
        .expect("fixture mode is valid");
    (sys, mode)
}

/// A system with two modes (`normal` and `emergency`) over the same five
/// nodes, **sharing** the Fig. 3 control application — the paper's multi-mode
/// premise (Sec. V).
///
/// The normal mode runs only the control application; the emergency mode
/// keeps the control loop running and adds a diagnostics application (an
/// actuator reports its status to the controller, which raises an alarm
/// towards both sensors). Because `ctrl` is in both modes, its tasks and
/// messages must receive identical offsets in both schedules — exactly what
/// the mode-graph synthesis pipeline's minimal inheritance guarantees and
/// what the cross-mode validator checks.
///
/// The diagnostics application is added *first*, so its messages get the
/// lowest ids and lead the slot order of the emergency rounds while the
/// control messages lead the normal rounds — which keeps the slot initiators
/// of the two modes distinct (used by the runtime collision scenarios).
///
/// Used by the mode-change example, the runtime tests and the reliability and
/// mode-graph benchmarks.
pub fn two_mode_system() -> (System, ModeId, ModeId) {
    let mut sys = System::new();
    fig3_nodes(&mut sys);
    let emergency_app = sys
        .add_application(
            &ApplicationSpec::new("emergency_diag", millis(100), millis(100))
                .with_task("diag.collect", "actuator1", millis(2))
                .with_task("diag.decide", "controller", millis(2))
                .with_task("diag.notify1", "sensor1", millis(1))
                .with_task("diag.notify2", "sensor2", millis(1))
                .with_message("diag.status", ["diag.collect"], ["diag.decide"])
                .with_message(
                    "diag.alarm",
                    ["diag.decide"],
                    ["diag.notify1", "diag.notify2"],
                ),
        )
        .expect("valid fixture");
    let normal_app = sys
        .add_application(&fig3_control_application("ctrl", Fig3Params::default()))
        .expect("valid fixture");
    let normal = sys.add_mode("normal", &[normal_app]).expect("valid mode");
    let emergency = sys
        .add_mode("emergency", &[emergency_app, normal_app])
        .expect("valid mode");
    (sys, normal, emergency)
}

/// The [`two_mode_system`] together with its mode graph
/// (`normal ⇄ emergency`, rooted at `normal`) — the standard workload of the
/// multi-mode synthesis pipeline tests and the `mode_graph_synthesis` bench.
pub fn two_mode_graph() -> (System, crate::modegraph::ModeGraph, ModeId, ModeId) {
    let (sys, normal, emergency) = two_mode_system();
    let mut graph = crate::modegraph::ModeGraph::new(&sys);
    graph.add_edge(normal, emergency).expect("valid edge");
    graph.add_edge(emergency, normal).expect("valid edge");
    (sys, graph, normal, emergency)
}

/// A four-mode diamond system: `boot → normal → {emergency, maintenance}`
/// with back-switches from the leaves to `normal`.
///
/// All four modes share the Fig. 3 control application, which the boot mode
/// owns (it is synthesized first and every other mode inherits the offsets —
/// first-wins inheritance across a diamond). The three non-boot modes each
/// add one private application:
///
/// * `normal` — a telemetry app (sensors report to the controller);
/// * `emergency` — the diagnostics app of [`two_mode_system`];
/// * `maintenance` — a maintenance logger (controller polls an actuator).
///
/// `emergency` and `maintenance` inherit from `boot` although the synthesis
/// order reaches them through `normal`, so this fixture exercises heirs whose
/// donor is not their graph parent. Returned as
/// `(system, graph, [boot, normal, emergency, maintenance])`.
pub fn four_mode_diamond() -> (System, crate::modegraph::ModeGraph, [ModeId; 4]) {
    let mut sys = System::new();
    fig3_nodes(&mut sys);
    let ctrl = sys
        .add_application(&fig3_control_application("ctrl", Fig3Params::default()))
        .expect("valid fixture");
    let telemetry = sys
        .add_application(
            &ApplicationSpec::new("telemetry", millis(100), millis(100))
                .with_task("tele.sample", "sensor1", millis(1))
                .with_task("tele.log", "controller", millis(1))
                .with_message("tele.report", ["tele.sample"], ["tele.log"]),
        )
        .expect("valid fixture");
    let diagnostics = sys
        .add_application(
            &ApplicationSpec::new("emergency_diag", millis(100), millis(100))
                .with_task("diag.collect", "actuator1", millis(2))
                .with_task("diag.decide", "controller", millis(2))
                .with_task("diag.notify1", "sensor1", millis(1))
                .with_task("diag.notify2", "sensor2", millis(1))
                .with_message("diag.status", ["diag.collect"], ["diag.decide"])
                .with_message(
                    "diag.alarm",
                    ["diag.decide"],
                    ["diag.notify1", "diag.notify2"],
                ),
        )
        .expect("valid fixture");
    let maintenance_app = sys
        .add_application(
            &ApplicationSpec::new("maintenance_log", millis(100), millis(100))
                .with_task("maint.poll", "controller", millis(1))
                .with_task("maint.dump", "actuator2", millis(2))
                .with_message("maint.query", ["maint.poll"], ["maint.dump"]),
        )
        .expect("valid fixture");

    let boot = sys.add_mode("boot", &[ctrl]).expect("valid mode");
    let normal = sys
        .add_mode("normal", &[ctrl, telemetry])
        .expect("valid mode");
    let emergency = sys
        .add_mode("emergency", &[ctrl, diagnostics])
        .expect("valid mode");
    let maintenance = sys
        .add_mode("maintenance", &[ctrl, maintenance_app])
        .expect("valid mode");

    let mut graph = crate::modegraph::ModeGraph::new(&sys);
    for (from, to) in [
        (boot, normal),
        (normal, emergency),
        (normal, maintenance),
        (emergency, normal),
        (maintenance, normal),
    ] {
        graph.add_edge(from, to).expect("valid edge");
    }
    (sys, graph, [boot, normal, emergency, maintenance])
}

/// A synthetic mode with `num_apps` pipeline applications of `tasks_per_app`
/// tasks each, laid out over `num_nodes` nodes.
///
/// Every application is a linear chain `t0 → m0 → t1 → m1 → …` with tasks
/// assigned to nodes round-robin, all sharing the same `period` (µs). The
/// workload is deterministic, which keeps benchmark results comparable.
pub fn synthetic_mode(
    num_apps: usize,
    tasks_per_app: usize,
    num_nodes: usize,
    period: Micros,
) -> (System, ModeId) {
    assert!(num_apps >= 1 && tasks_per_app >= 1 && num_nodes >= 1);
    let mut sys = System::new();
    for n in 0..num_nodes {
        sys.add_node(format!("node{n}")).expect("unique node names");
    }
    let mut apps = Vec::new();
    for a in 0..num_apps {
        let mut spec = ApplicationSpec::new(format!("app{a}"), period, period);
        for t in 0..tasks_per_app {
            let node = (a + t) % num_nodes;
            spec = spec.with_task(format!("app{a}.t{t}"), format!("node{node}"), millis(1));
        }
        for t in 0..tasks_per_app.saturating_sub(1) {
            spec = spec.with_message(
                format!("app{a}.m{t}"),
                [format!("app{a}.t{t}")],
                [format!("app{a}.t{}", t + 1)],
            );
        }
        apps.push(sys.add_application(&spec).expect("valid synthetic app"));
    }
    let mode = sys.add_mode("synthetic", &apps).expect("valid mode");
    (sys, mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_has_five_tasks_three_messages() {
        let (sys, app) = fig3_system_single_app();
        assert_eq!(sys.application(app).tasks.len(), 5);
        assert_eq!(sys.application(app).messages.len(), 3);
        assert_eq!(sys.num_nodes(), 5);
    }

    #[test]
    fn fig3_multicast_message_has_two_destinations() {
        let (sys, _) = fig3_system_single_app();
        let m3 = sys.message_id("ctrl.m3").expect("m3 exists");
        assert_eq!(sys.message(m3).successor_tasks.len(), 2);
    }

    #[test]
    fn two_mode_system_shares_the_control_application() {
        let (sys, normal, emergency) = two_mode_system();
        assert_ne!(normal, emergency);
        assert_eq!(sys.hyperperiod(normal), millis(100));
        assert_eq!(sys.hyperperiod(emergency), millis(100));
        let ctrl = sys.application_id("ctrl").expect("app exists");
        assert_eq!(sys.shared_applications(normal, emergency), vec![ctrl]);
        assert_eq!(sys.modes_of_application(ctrl), vec![normal, emergency]);
        // The diagnostics messages carry the lowest ids, so they lead the
        // slot order of the emergency rounds (relied on by the runtime
        // collision scenarios).
        let status = sys.message_id("diag.status").expect("message exists");
        let m1 = sys.message_id("ctrl.m1").expect("message exists");
        assert!(status < m1);
    }

    #[test]
    fn two_mode_graph_connects_both_modes() {
        let (sys, graph, normal, emergency) = two_mode_graph();
        assert_eq!(graph.num_modes(), 2);
        assert_eq!(graph.root(), normal);
        assert_eq!(
            graph.successors(normal).collect::<Vec<_>>(),
            vec![emergency]
        );
        assert_eq!(
            graph.successors(emergency).collect::<Vec<_>>(),
            vec![normal]
        );
        assert_eq!(sys.shared_applications(normal, emergency).len(), 1);
    }

    #[test]
    fn four_mode_diamond_shares_ctrl_everywhere() {
        let (sys, graph, [boot, normal, emergency, maintenance]) = four_mode_diamond();
        assert_eq!(graph.num_modes(), 4);
        assert_eq!(graph.root(), boot);
        let ctrl = sys.application_id("ctrl").expect("app exists");
        for mode in [boot, normal, emergency, maintenance] {
            assert!(sys.mode(mode).applications.contains(&ctrl));
        }
        // boot owns ctrl; every later mode inherits it from boot.
        let plan = graph.inheritance_plan(&sys);
        assert!(plan[&boot].is_empty());
        for mode in [normal, emergency, maintenance] {
            assert_eq!(plan[&mode].get(&ctrl), Some(&boot));
        }
        // The leaves' private applications are not inherited.
        assert_eq!(plan[&emergency].len(), 1);
        assert_eq!(plan[&maintenance].len(), 1);
    }

    #[test]
    fn synthetic_mode_scales() {
        let (sys, mode) = synthetic_mode(3, 4, 2, millis(200));
        assert_eq!(sys.tasks_in_mode(mode).len(), 12);
        assert_eq!(sys.messages_in_mode(mode).len(), 9);
        assert_eq!(sys.hyperperiod(mode), millis(200));
    }

    #[test]
    fn synthetic_single_task_app_has_no_message() {
        let (sys, mode) = synthetic_mode(1, 1, 1, millis(10));
        assert_eq!(sys.tasks_in_mode(mode).len(), 1);
        assert!(sys.messages_in_mode(mode).is_empty());
    }
}
