//! Schedule export.
//!
//! Synthesized schedules are plain data; this module gives them a JSON
//! document that can be shipped to the nodes at deployment time (Sec. II.B:
//! "the node's task and communication schedule is loaded into its memory").
//!
//! The JSON form of every model and schedule type is declared here, once per
//! type, on the field-table mechanism of [`crate::json`]: a
//! [`json_object!`](crate::json_object) table where the document mirrors the
//! struct, a hand-written [`Json`] impl for [`System`] and [`ModeGraph`],
//! which read their members as typed vectors and then replay the checked
//! constructors. The functions below are those impls behind the names they
//! have always had.

use crate::config::SchedulerConfig;
use crate::ids::{AppId, ModeId};
use crate::json::{
    fields_partial, sorted_members, Json, JsonError, JsonObject, Member, Partial, Progress, Reader,
    Slot, Step, Value, Writer,
};
use crate::modegraph::ModeGraph;
use crate::schedule::{ModeSchedule, ScheduledRound, SynthesisStats, SystemSchedule};
use crate::spec::{ApplicationSpec, MessageSpec, TaskSpec};
use crate::system::{Mode, System};
use std::sync::OnceLock;
use ttw_milp::{SolveParams, SolverCounters};

crate::json_object!(TaskSpec as "task" { name, node, wcet });
crate::json_object!(MessageSpec as "message" { name, sources, destinations });
crate::json_object!(ApplicationSpec as "application spec" {
    name, period, deadline, tasks, messages
});
crate::json_object!(Mode as "mode" { name, applications });

crate::json_object!(SolveParams as "`solver`" {
    max_nodes, max_simplex_iterations, presolve, cuts, pseudocost
});
crate::json_object!(SchedulerConfig as "scheduler config" {
    round_duration, slots_per_round, max_inter_round_gap, max_rounds, analyze_first, solver
});

/// The solver's counters sit directly in the stats object, under the wire
/// names [`SolverCounters::FIELDS`] declares.
impl JsonObject for SolverCounters {
    const WHAT: &'static str = "solver counters";

    fn members() -> &'static [Member] {
        static MEMBERS: OnceLock<Vec<Member>> = OnceLock::new();
        MEMBERS.get_or_init(|| sorted_members(&SolverCounters::FIELDS.map(|(name, _)| name), &[]))
    }

    fn write_member(&self, index: usize, w: &mut Writer<'_>) {
        self.fields()[index].1.write(w);
    }

    fn partial() -> impl Partial<Self> {
        let mut slots = SolverCounters::FIELDS.map(|_| Slot::<usize>::new());
        fields_partial(move |step| match step {
            Step::Member(key, r) => {
                let field = SolverCounters::FIELDS.iter().zip(&mut slots);
                match field.into_iter().find(|((name, _), _)| *name == key) {
                    Some(((name, true), slot)) => slot.read(r, name)?,
                    Some(((name, false), slot)) => slot.read_or_default(r, name)?,
                    None => return Ok(Progress::Unknown),
                }
                Ok(Progress::Taken)
            }
            Step::End => {
                let mut slots = slots.iter_mut();
                SolverCounters::from_fields(|name, required| match (slots.next(), required) {
                    (Some(slot), true) => slot.take(name),
                    (Some(slot), false) => slot.take_or_default(),
                    (None, _) => usize::from_absent(name),
                })
                .map(Progress::Done)
            }
        })
    }
}

crate::json_object!(SynthesisStats as "stats" {
    rounds_attempted, variables, constraints, analyze_fast_fails or default;
    ..solver
});
crate::json_object!(ScheduledRound as "round" { start, slots });
crate::json_object!(ModeSchedule as "schedule" {
    mode, hyperperiod, round_duration, slots_per_round, task_offsets, message_offsets,
    message_deadlines, rounds, app_latencies, total_latency, stats
});
crate::json_object!(SystemSchedule as "system schedule" { schedules, inheritance, stats }
    check schedules_sit_under_their_own_mode);

/// A schedule filed under another mode's key would reach the runtime as that
/// mode's slot table while announcing its own mode id.
fn schedules_sit_under_their_own_mode(schedule: &SystemSchedule) -> Result<(), JsonError> {
    match schedule.iter().find(|(key, inner)| inner.mode != *key) {
        Some((key, inner)) => Err(JsonError::custom(format!(
            "`schedules` entry `{}` holds the schedule of mode {}",
            key.index(),
            inner.mode.index()
        ))),
        None => Ok(()),
    }
}

/// A mode graph is its mode count, root and `[from, to]` edge list; decoding
/// goes through [`ModeGraph::from_parts`], which range-checks all three.
impl Json for ModeGraph {
    fn write(&self, w: &mut Writer<'_>) {
        w.object(&mut [
            ("num_modes", &|w| self.num_modes().write(w)),
            ("root", &|w| self.root().write(w)),
            ("edges", &|w| w.array(self.edges(), |w, edge| edge.write(w))),
        ]);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut num_modes = Slot::new();
        let mut root = Slot::new();
        let mut edges = Slot::<Vec<(ModeId, ModeId)>>::new();
        let at = r.object("mode graph must be a JSON object", |key, r| match key {
            "num_modes" => num_modes.read(r, key),
            "root" => root.read(r, key),
            "edges" => edges.read(r, key),
            _ => r.skip(),
        })?;
        let mut build = || {
            let edges = edges.take("edges")?;
            ModeGraph::from_parts(num_modes.take("num_modes")?, root.take("root")?, edges)
                .map_err(|e| JsonError::custom(format!("invalid mode graph: {e}")))
        };
        build().map_err(|error| error.at(at))
    }
}

/// A system is its *construction order*: nodes, applications (as
/// [`ApplicationSpec`] documents) and modes in id order. Decoding reads the
/// three lists — `"applications"` sorts before the `"nodes"` it refers to, so
/// nothing can be built while reading — and then replays `add_node` /
/// `add_application` / `add_mode`, so the model rules of Sec. III are checked
/// and every entity gets the id it had.
impl Json for System {
    fn write(&self, w: &mut Writer<'_>) {
        w.object(&mut [
            ("nodes", &|w| {
                w.array(self.nodes(), |w, (_, node)| node.name.write(w));
            }),
            ("applications", &|w| {
                w.array(self.applications(), |w, (id, _)| {
                    application_spec_of(self, id).write(w);
                });
            }),
            ("modes", &|w| {
                w.array(self.modes(), |w, (_, mode)| mode.write(w));
            }),
        ]);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut nodes = Slot::<Vec<String>>::new();
        let mut applications = Slot::<Vec<ApplicationSpec>>::new();
        let mut modes = Slot::<Vec<Mode>>::new();
        let at = r.object("system must be a JSON object", |key, r| match key {
            "nodes" => nodes.read(r, key),
            "applications" => applications.read(r, key),
            "modes" => modes.read(r, key),
            _ => r.skip(),
        })?;
        let mut replay = || {
            let mut system = System::new();
            for name in nodes.take("nodes")? {
                system
                    .add_node(&name)
                    .map_err(|e| JsonError::custom(format!("invalid node `{name}`: {e}")))?;
            }
            for spec in applications.take("applications")? {
                system.add_application(&spec).map_err(|e| {
                    JsonError::custom(format!("invalid application `{}`: {e}", spec.name))
                })?;
            }
            let num_apps = system.applications().count();
            for Mode { name, applications } in modes.take("modes")? {
                if applications.iter().any(|app| app.index() >= num_apps) {
                    return Err(JsonError::custom(format!(
                        "mode `{name}` lists an application the system does not have"
                    )));
                }
                system
                    .add_mode(&name, &applications)
                    .map_err(|e| JsonError::custom(format!("invalid mode `{name}`: {e}")))?;
            }
            Ok(system)
        };
        replay().map_err(|error| error.at(at))
    }
}

/// Reconstructs the [`ApplicationSpec`] an application was built from: task
/// and message entries in id order with all name references resolved.
fn application_spec_of(system: &System, app: AppId) -> ApplicationSpec {
    let application = system.application(app);
    let task_names = |tasks: &[crate::ids::TaskId]| {
        tasks
            .iter()
            .map(|&task| system.task(task).name.clone())
            .collect()
    };
    ApplicationSpec {
        name: application.name.clone(),
        period: application.period,
        deadline: application.deadline,
        tasks: application
            .tasks
            .iter()
            .map(|&task| {
                let t = system.task(task);
                TaskSpec {
                    name: t.name.clone(),
                    node: system.node(t.node).name.clone(),
                    wcet: t.wcet,
                }
            })
            .collect(),
        messages: application
            .messages
            .iter()
            .map(|&message| {
                let m = system.message(message);
                MessageSpec {
                    name: m.name.clone(),
                    sources: task_names(&m.preceding_tasks),
                    destinations: task_names(&m.successor_tasks),
                }
            })
            .collect(),
    }
}

/// The pretty-printed document of `value`. Infallible; the `Result` is the
/// signature the `*_to_json` functions have always had.
fn pretty<T: Json>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json_pretty())
}

/// Serializes a schedule to pretty-printed JSON.
///
/// The output contains everything a node needs at deployment time: round start
/// times, slot allocations, task offsets and message offsets/deadlines.
///
/// # Errors
///
/// Infallible in practice, like every `*_to_json` function of this module.
pub fn schedule_to_json(schedule: &ModeSchedule) -> Result<String, JsonError> {
    pretty(schedule)
}

/// Parses a schedule back from its JSON form.
///
/// # Errors
///
/// Returns a [`JsonError`] if the document is not a valid schedule.
pub fn schedule_from_json(json: &str) -> Result<ModeSchedule, JsonError> {
    Json::from_json(json)
}

/// Serializes a complete [`SystemSchedule`] — every mode schedule plus the
/// inheritance metadata and per-mode statistics — to pretty-printed JSON.
///
/// # Errors
///
/// Infallible in practice; see [`schedule_to_json`].
pub fn system_schedule_to_json(schedule: &SystemSchedule) -> Result<String, JsonError> {
    pretty(schedule)
}

/// The generic document a [`SystemSchedule`] encodes to, for a test or tool
/// that picks it apart by member name. A wire path calls
/// [`Json::to_json`] on the schedule instead.
pub fn system_schedule_to_value(schedule: &SystemSchedule) -> Value {
    schedule.to_value()
}

/// Parses a [`SystemSchedule`] back from its JSON form.
///
/// # Errors
///
/// Returns a [`JsonError`] if the document is not a valid system schedule —
/// which includes a mode schedule filed under another mode's key.
pub fn system_schedule_from_json(json: &str) -> Result<SystemSchedule, JsonError> {
    Json::from_json(json)
}

/// Serializes a [`ModeGraph`] (mode count, root and switch edges) to
/// pretty-printed JSON.
///
/// # Errors
///
/// Infallible in practice; see [`schedule_to_json`].
pub fn mode_graph_to_json(graph: &ModeGraph) -> Result<String, JsonError> {
    pretty(graph)
}

/// Parses a [`ModeGraph`] back from its JSON form.
///
/// # Errors
///
/// Returns a [`JsonError`] if the document is not a valid mode graph (bad
/// shape, or edges/root outside the mode range).
pub fn mode_graph_from_json(json: &str) -> Result<ModeGraph, JsonError> {
    Json::from_json(json)
}

/// Serializes an application specification to pretty-printed JSON.
///
/// # Errors
///
/// Infallible in practice; see [`schedule_to_json`].
pub fn app_spec_to_json(spec: &ApplicationSpec) -> Result<String, JsonError> {
    pretty(spec)
}

/// Parses an application specification back from its JSON form.
///
/// # Errors
///
/// Returns a [`JsonError`] if the document is not a valid specification.
pub fn app_spec_from_json(json: &str) -> Result<ApplicationSpec, JsonError> {
    Json::from_json(json)
}

/// Serializes a complete [`System`] — nodes, applications and modes in
/// construction order — to pretty-printed JSON, so that
/// [`system_from_json`] rebuilds a system whose entity ids (and therefore
/// [`crate::cache::system_fingerprint`]) are identical to the original's.
///
/// # Errors
///
/// Infallible in practice; see [`schedule_to_json`].
pub fn system_to_json(system: &System) -> Result<String, JsonError> {
    pretty(system)
}

/// Parses a [`System`] back from its JSON form.
///
/// # Errors
///
/// Returns a [`JsonError`] if the document is malformed *or* if the
/// described system violates the model rules of Sec. III (the
/// [`crate::ModelError`] is folded into the message).
pub fn system_from_json(json: &str) -> Result<System, JsonError> {
    Json::from_json(json)
}

/// Serializes a [`SchedulerConfig`] — including every [`SolveParams`] budget
/// and tolerance — to pretty-printed JSON.
///
/// The round trip is exact (numbers print in shortest-round-trip form), so a
/// config that crossed the wire produces the same cache key as the
/// original: `format!("{config:?}")` of the two is byte-identical.
///
/// # Errors
///
/// Infallible in practice; see [`schedule_to_json`].
pub fn scheduler_config_to_json(config: &SchedulerConfig) -> Result<String, JsonError> {
    pretty(config)
}

/// Parses a [`SchedulerConfig`] back from its JSON form.
///
/// # Errors
///
/// Returns a [`JsonError`] if the document is not a valid configuration.
pub fn scheduler_config_from_json(json: &str) -> Result<SchedulerConfig, JsonError> {
    Json::from_json(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerConfig;
    use crate::fixtures;
    use crate::synthesis::synthesize_mode;
    use crate::time::millis;

    fn fig3_schedule() -> ModeSchedule {
        let (sys, mode) = fixtures::fig3_system();
        synthesize_mode(&sys, mode, &SchedulerConfig::new(millis(10), 5)).expect("feasible")
    }

    #[test]
    fn json_round_trips() {
        let schedule = fig3_schedule();
        let json = schedule_to_json(&schedule).expect("serializes");
        let back = schedule_from_json(&json).expect("parses");
        assert_eq!(schedule, back);
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(schedule_from_json("{not json").is_err());
        assert!(schedule_from_json("{}").is_err());
    }

    /// Infinity would decode as a round start and encode as `null`, which
    /// does not: the document is refused at the token.
    #[test]
    fn a_round_start_no_f64_holds_is_rejected() {
        let schedule = fig3_schedule();
        let json = schedule_to_json(&schedule).expect("serializes");
        let start = json.find("\"start\": ").expect("a round") + 9;
        let end = start + json[start..].find('\n').expect("pretty");
        let hostile = format!("{}1e999{}", &json[..start], &json[end..]);
        assert_eq!(
            schedule_from_json(&hostile)
                .expect_err("infinite start")
                .to_string(),
            format!("number out of range at byte {start}")
        );
    }

    #[test]
    fn system_schedule_round_trips_with_inheritance_metadata() {
        let (sys, graph, normal, emergency) = fixtures::two_mode_graph();
        let config = SchedulerConfig::new(millis(10), 5);
        let schedule = crate::synthesis::synthesize_system(
            &sys,
            &graph,
            &config,
            &crate::synthesis::IlpSynthesizer,
        )
        .expect("feasible");
        let json = system_schedule_to_json(&schedule).expect("serializes");
        let back = system_schedule_from_json(&json).expect("parses");
        assert_eq!(schedule, back);
        // The inheritance metadata survived: emergency inherited ctrl.
        let ctrl = sys.application_id("ctrl").expect("app exists");
        assert_eq!(back.inherited_source(emergency, ctrl), Some(normal));
        // Per-mode stats survived too.
        assert_eq!(back.stats.len(), 2);
        assert_eq!(back.totals(), schedule.totals());
    }

    #[test]
    fn invalid_system_schedule_json_is_an_error() {
        assert!(system_schedule_from_json("{not json").is_err());
        assert!(system_schedule_from_json("{}").is_err());
        assert!(
            system_schedule_from_json(r#"{"schedules": 3, "inheritance": {}, "stats": {}}"#)
                .is_err()
        );
    }

    /// `ttw_runtime::slot_table` announces the mode id *inside* a schedule, so
    /// one filed under another mode's key would run as that mode's table
    /// under the wrong name.
    #[test]
    fn schedule_under_another_modes_key_is_rejected() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let schedule = crate::synthesis::synthesize_system(
            &sys,
            &graph,
            &SchedulerConfig::new(millis(10), 5),
            &crate::synthesis::HeuristicSynthesizer,
        )
        .expect("feasible");
        let mut swapped = schedule.clone();
        let modes: Vec<ModeId> = schedule.schedules.keys().copied().collect();
        swapped
            .schedules
            .insert(modes[0], schedule.schedules[&modes[1]].clone());
        let error = system_schedule_from_json(&system_schedule_to_json(&swapped).expect("json"))
            .expect_err("mode 1's schedule under key 0");
        assert_eq!(
            error.to_string(),
            "`schedules` entry `0` holds the schedule of mode 1 at byte 0"
        );
    }

    #[test]
    fn mode_graph_round_trips() {
        let (_, graph, _, _) = fixtures::two_mode_graph();
        let json = mode_graph_to_json(&graph).expect("serializes");
        let back = mode_graph_from_json(&json).expect("parses");
        assert_eq!(graph, back);
    }

    #[test]
    fn mode_graph_json_rejects_out_of_range_edges() {
        assert!(mode_graph_from_json("{").is_err());
        let bad = r#"{"num_modes": 2, "root": 0, "edges": [[0, 5]]}"#;
        assert!(mode_graph_from_json(bad).is_err());
        let bad_root = r#"{"num_modes": 2, "root": 9, "edges": []}"#;
        assert!(mode_graph_from_json(bad_root).is_err());
    }

    #[test]
    fn system_round_trips_with_identical_fingerprint() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let json = system_to_json(&sys).expect("serializes");
        let back = system_from_json(&json).expect("parses");
        // Fingerprints cover every entity in id order, so equality means the
        // ids were reproduced exactly, not just the names.
        assert_eq!(
            crate::cache::system_fingerprint(&sys, &graph),
            crate::cache::system_fingerprint(&back, &graph)
        );
        // Round-tripping the JSON again is byte-stable.
        assert_eq!(json, system_to_json(&back).expect("serializes"));
    }

    #[test]
    fn fig3_system_round_trips() {
        let (sys, _) = fixtures::fig3_system();
        let graph = ModeGraph::new(&sys);
        let back = system_from_json(&system_to_json(&sys).expect("serializes")).expect("parses");
        assert_eq!(
            crate::cache::system_fingerprint(&sys, &graph),
            crate::cache::system_fingerprint(&back, &graph)
        );
    }

    #[test]
    fn invalid_system_json_is_an_error() {
        assert!(system_from_json("{oops").is_err());
        assert!(system_from_json("{}").is_err());
        // Unknown application index in a mode.
        let bad = r#"{"nodes": ["n0"], "applications": [], "modes":
            [{"name": "m", "applications": [3]}]}"#;
        assert!(system_from_json(bad).is_err());
        // Model-rule violation (duplicate node name) surfaces as JsonError.
        let dup = r#"{"nodes": ["n0", "n0"], "applications": [], "modes": []}"#;
        assert!(system_from_json(dup).is_err());
    }

    #[test]
    fn scheduler_config_round_trips_to_the_same_cache_key_text() {
        let mut config = SchedulerConfig::new(millis(10), 5);
        config.max_inter_round_gap = Some(millis(7));
        config.max_rounds = Some(12);
        config.analyze_first = true;
        config.solver.max_nodes = 999;
        config.solver.max_simplex_iterations = 1234;
        config.solver.pseudocost = false;
        let json = scheduler_config_to_json(&config).expect("serializes");
        let back = scheduler_config_from_json(&json).expect("parses");
        // The cache key hashes the Debug form, so the round trip must be
        // byte-identical.
        assert_eq!(format!("{config:?}"), format!("{back:?}"));
    }

    #[test]
    fn scheduler_config_defaults_round_trip() {
        let config = SchedulerConfig::new(millis(10), 5);
        let back = scheduler_config_from_json(&scheduler_config_to_json(&config).expect("json"))
            .expect("parses");
        assert_eq!(format!("{config:?}"), format!("{back:?}"));
        assert!(back.max_inter_round_gap.is_none());
        assert!(back.max_rounds.is_none());
    }

    #[test]
    fn invalid_scheduler_config_json_is_an_error() {
        assert!(scheduler_config_from_json("{oops").is_err());
        assert!(scheduler_config_from_json("{}").is_err());
        let bad_gap = r#"{"round_duration": 1, "slots_per_round": 1,
            "max_inter_round_gap": "soon", "max_rounds": null, "analyze_first": false, "solver": {}}"#;
        assert!(scheduler_config_from_json(bad_gap).is_err());
    }
}
