//! Incremental re-synthesis: solve an edited system from its cached
//! predecessor instead of from scratch.
//!
//! The TTW architecture makes runtime admission — add, remove or edit one
//! application and redeploy — a first-class operation, but a full
//! [`crate::synthesis::synthesize_system`] run re-pays the MILP cost of
//! *every* mode even when the edit touches one. [`resynthesize_system`]
//! closes that gap by starting the same synthesis driver from the cached
//! predecessor — load predecessor, run driver, store — which gives three
//! reuse levels, all anchored on the [`crate::cache::SynthesisArtifacts`] the
//! schedule cache stores alongside each entry:
//!
//! 1. **Schedule reuse** — the predecessor and successor systems are
//!    compared mode by mode, one walk over each mode's entities that reads
//!    the edit as unchanged, tightened or changed; a mode whose content,
//!    inheritance sources and pinned offsets are all unchanged has the
//!    *identical* ILP, and the deterministic pipeline would reproduce the
//!    identical schedule — so the cached [`crate::schedule::ModeSchedule`]
//!    (stats included) and its root basis are kept by reference, zero solver
//!    work: the successor's cache entry shares them with the predecessor's
//!    instead of holding a copy, so storing an edit costs memory only for
//!    the modes it re-solved.
//! 2. **Basis warm starts** — a mode that *did* change is re-solved, but its
//!    ILP is seeded with the predecessor's cached root basis at the matching
//!    round count. The solver repairs feasibility from a near-optimal basis
//!    instead of running two full phases; a stale or shape-mismatched basis
//!    degrades to a cold start inside the solver, never an error.
//! 3. **Proof reuse** — Algorithm 1 sweeps `R_M` upward, and every count
//!    below the answer costs a full branch-and-bound proof of infeasibility.
//!    When the changed mode's ILP only *tightens* the predecessor's — the
//!    same structure and pins, no WCET decreased, no deadline increased (see
//!    `mode_edit`) — every count the predecessor proved infeasible stays
//!    infeasible, so the sweep starts at the predecessor's round count, which
//!    is also the count its basis is seeded at. The winning attempt is the
//!    one a sweep from the bottom would have run; only the failed attempts
//!    are not paid again. Any other edit sweeps from the bottom.
//!
//! Either way the *result* is byte-identical (modulo solver work counters —
//! see [`crate::schedule::SystemSchedule::content_only`]) to a from-scratch
//! run: warm starts and round floors change how fast the solver reaches the
//! optimum, not which optimum the tie-broken ILP selects. The differential
//! harness pins exactly that invariant, and re-proves every skipped round
//! count infeasible.

use crate::cache::{ScheduleCache, SynthesisArtifacts};
use crate::config::SchedulerConfig;
use crate::ids::{AppId, ModeId, NodeId};
use crate::modegraph::{InheritedOffsets, ModeGraph};
use crate::schedule::{ModeSchedule, SystemSchedule};
use crate::synthesis::{synthesize_in_order, Synthesizer, SystemSynthesisError};
use crate::system::System;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How one incremental re-synthesis went: what was reused, what was
/// re-solved, and how much solver work the re-solved modes cost.
///
/// The solver work of a re-solved mode leaves out the round counts its sweep
/// skipped on the predecessor's proof (see the module docs): those attempts
/// are not run, so they appear in neither the counters here nor the mode's
/// [`crate::schedule::SynthesisStats::rounds_attempted`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResynthesisReport {
    /// Whether the predecessor entry (schedule *and* artifacts, same config
    /// and backend) was found in the cache. `false` means the call degraded
    /// to a plain full synthesis.
    pub predecessor_found: bool,
    /// Modes whose cached schedule was kept verbatim (shared, not copied).
    pub modes_reused: usize,
    /// Modes that were re-solved.
    pub modes_resolved: usize,
    /// Re-solved modes that were seeded with a cached root basis: the sweep
    /// reached the basis's round count and the basis fit the model there.
    /// A mode offered a basis it never installed counts as cold.
    pub warm_started_modes: usize,
    /// Branch-and-bound nodes spent on the re-solved modes.
    pub solved_milp_nodes: usize,
    /// Simplex pivots spent on the re-solved modes.
    pub solved_simplex_iterations: usize,
}

/// How an edit changed one mode's ILP, as [`mode_edit`] finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeEdit {
    /// The identical ILP.
    Unchanged,
    /// A right-hand-side tightening: the same structure, no WCET decreased,
    /// no application deadline increased and at least one of them moved.
    Tightened,
    /// Anything else.
    Changed,
}

/// Compares everything `mode`'s ILP depends on in `system` against `old`:
/// the mode's name and application list, then in id order each
/// application's name, period, deadline and task and message lists, each
/// task's name, node, WCET and preceding messages and each message's name,
/// source node and precedence. The hyperperiod follows from the periods.
///
/// Ids are compared alongside names on purpose: a cached
/// [`crate::schedule::ModeSchedule`] keys its offsets by id, so an id drift
/// between predecessor and successor (an application inserted earlier in
/// the build order) must read as changed even when the renamed content is
/// identical — correctness over reuse. The id lists are compared before any
/// entity they name is read from `old`, so every lookup stays in range.
///
/// A WCET or a deadline enters the ILP only through the right-hand side of a
/// `≤` row (`prec_tm`, `deadline`, `latency`, `noexec1/2`). Raising a WCET or
/// lowering a deadline only lowers it, so every point feasible for a
/// [`ModeEdit::Tightened`] mode is feasible for its predecessor.
fn mode_edit(system: &System, old: &System, mode: ModeId) -> ModeEdit {
    let (new_mode, old_mode) = (system.mode(mode), old.mode(mode));
    if new_mode.name != old_mode.name || new_mode.applications != old_mode.applications {
        return ModeEdit::Changed;
    }
    let node_alike = |new: NodeId, old_node: NodeId| {
        new == old_node && system.node(new).name == old.node(old_node).name
    };
    let mut tightened = false;
    for &app in &new_mode.applications {
        let (a, b) = (system.application(app), old.application(app));
        if a.name != b.name
            || a.period != b.period
            || a.deadline > b.deadline
            || a.tasks != b.tasks
            || a.messages != b.messages
        {
            return ModeEdit::Changed;
        }
        tightened |= a.deadline < b.deadline;
        for &task in &a.tasks {
            let (t, u) = (system.task(task), old.task(task));
            if t.name != u.name
                || !node_alike(t.node, u.node)
                || t.wcet < u.wcet
                || t.preceding_messages != u.preceding_messages
            {
                return ModeEdit::Changed;
            }
            tightened |= t.wcet > u.wcet;
        }
        for &message in &a.messages {
            let (m, n) = (system.message(message), old.message(message));
            if m.name != n.name
                || !node_alike(m.source_node, n.source_node)
                || m.preceding_tasks != n.preceding_tasks
                || m.successor_tasks != n.successor_tasks
            {
                return ModeEdit::Changed;
            }
        }
    }
    if tightened {
        ModeEdit::Tightened
    } else {
        ModeEdit::Unchanged
    }
}

/// Synthesizes `system` incrementally from the cached predecessor entry
/// under `predecessor_key`, storing the result (and fresh warm-start
/// artifacts) under the successor's own cache key.
///
/// Modes whose content, inheritance sources and pinned offsets are
/// unchanged keep their cached schedules and bases verbatim, shared with the
/// predecessor's entry rather than copied; every other mode is
/// re-solved with the predecessor's root basis as a warm start when one is
/// cached for it, from the predecessor's round count when the edit only
/// tightens the mode. When the predecessor entry is missing, or was produced by
/// a different backend or configuration, the call degrades to a plain full
/// synthesis (`predecessor_found: false` in the report) — never an error.
///
/// # Errors
///
/// Exactly as [`crate::synthesis::synthesize_system`]: a boxed
/// [`SystemSynthesisError`] carrying the partial result if any re-solved
/// mode cannot be scheduled.
pub fn resynthesize_system(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
    backend: &dyn Synthesizer,
    cache: &ScheduleCache,
    predecessor_key: &str,
) -> Result<(SystemSchedule, ResynthesisReport), Box<SystemSynthesisError>> {
    // An entry produced by a different backend or configuration is no
    // predecessor: the driver then solves every mode cold.
    let predecessor = cache
        .peek(predecessor_key)
        .zip(cache.artifacts(predecessor_key))
        .filter(|(_, artifacts)| {
            artifacts.backend == backend.name() && artifacts.config == *config
        });
    let (schedule, warm, report) = synthesize_in_order(
        system,
        graph,
        config,
        backend,
        predecessor.as_ref().map(|(s, a)| (&**s, &**a)),
    )?;
    cache.store_synthesis(system, graph, config, backend, &schedule, warm);
    Ok((schedule, report))
}

/// Where the synthesis driver starts one mode of a re-synthesis.
pub(crate) enum ModeStart<'a> {
    /// Keep the predecessor's schedule (stats included) verbatim: the mode's
    /// ILP is the predecessor's, so the pipeline would reproduce it bit for
    /// bit. The successor shares this allocation.
    Reuse(&'a Arc<ModeSchedule>),
    /// Solve the mode, sweeping `R_M` upward from `floor`: the predecessor's
    /// round count after a tightening edit (every smaller count is proven
    /// infeasible, see the module docs), `0` for a cold sweep otherwise.
    Solve { floor: usize },
}

/// The one per-mode decision of a re-synthesis: reuse the predecessor's
/// schedule of `mode`, solve it from the predecessor's round count, or
/// solve it cold. Only a mode that keeps the predecessor's pins (see
/// [`pinned_alike`]) is reused or floored, by what [`mode_edit`] finds.
pub(crate) fn mode_start<'a>(
    system: &System,
    mode: ModeId,
    sources: &BTreeMap<AppId, ModeId>,
    inherited: &InheritedOffsets,
    artifacts: &SynthesisArtifacts,
    predecessor: &'a SystemSchedule,
) -> ModeStart<'a> {
    let cold = ModeStart::Solve { floor: 0 };
    let Some(old) = pinned_alike(mode, sources, inherited, artifacts, predecessor) else {
        return cold;
    };
    match mode_edit(system, &artifacts.system, mode) {
        ModeEdit::Unchanged => ModeStart::Reuse(old),
        ModeEdit::Tightened => ModeStart::Solve {
            floor: old.num_rounds(),
        },
        ModeEdit::Changed => cold,
    }
}

/// The predecessor's schedule of `mode` when the mode existed there with the
/// same inheritance sources, and every pin the successor would impose is
/// already satisfied *exactly* by that schedule — so the pinned bounds of
/// the successor's ILP are the predecessor's.
fn pinned_alike<'a>(
    mode: ModeId,
    sources: &BTreeMap<AppId, ModeId>,
    inherited: &InheritedOffsets,
    artifacts: &SynthesisArtifacts,
    predecessor: &'a SystemSchedule,
) -> Option<&'a Arc<ModeSchedule>> {
    let old = predecessor.schedules.get(&mode)?;
    if mode.index() >= artifacts.system.modes().count() {
        return None;
    }
    if predecessor.inheritance.get(&mode) != Some(sources) {
        return None;
    }
    // Exact pin agreement: reused donors hand down bit-identical offsets, so
    // any difference here means a donor moved and this mode's model changed.
    let agrees = inherited
        .task_offsets
        .iter()
        .all(|(t, &o)| old.task_offsets.get(t) == Some(&o))
        && inherited
            .message_offsets
            .iter()
            .all(|(m, &o)| old.message_offsets.get(m) == Some(&o))
        && inherited
            .message_deadlines
            .iter()
            .all(|(m, &d)| old.message_deadlines.get(m) == Some(&d));
    agrees.then_some(old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ApplicationSpec;
    use crate::time::{millis, Micros};

    /// The knobs of [`build`]: everything one row of the table edits.
    struct Shape {
        node: &'static str,
        mode: &'static str,
        wcet: Micros,
        deadline: Micros,
        destination: &'static str,
        inserted_first: bool,
    }

    const BASE: Shape = Shape {
        node: "sensor",
        mode: "normal",
        wcet: millis(2),
        deadline: millis(80),
        destination: "act",
        inserted_first: false,
    };

    /// One mode running a sense → act application, optionally behind an
    /// application built earlier that the mode does not run.
    fn build(shape: Shape) -> System {
        let mut sys = System::new();
        sys.add_node(shape.node).unwrap();
        sys.add_node("actuator").unwrap();
        if shape.inserted_first {
            let extra = ApplicationSpec::new("extra", millis(100), millis(100)).with_task(
                "idle",
                "actuator",
                millis(1),
            );
            sys.add_application(&extra).unwrap();
        }
        let app = ApplicationSpec::new("app", millis(100), shape.deadline)
            .with_task("sense", shape.node, shape.wcet)
            .with_task("act", "actuator", millis(1))
            .with_task("log", "actuator", millis(1))
            .with_message("m", ["sense"], [shape.destination]);
        let app = sys.add_application(&app).unwrap();
        sys.add_mode(shape.mode, &[app]).unwrap();
        sys
    }

    #[test]
    fn the_walk_reads_each_edit_as_unchanged_tightened_or_changed() {
        let old = build(BASE);
        let mode = ModeId(0);
        let table = [
            ("identical", BASE, ModeEdit::Unchanged),
            (
                "WCET up, deadline down",
                Shape {
                    wcet: millis(3),
                    deadline: millis(70),
                    ..BASE
                },
                ModeEdit::Tightened,
            ),
            (
                "WCET up",
                Shape {
                    wcet: millis(3),
                    ..BASE
                },
                ModeEdit::Tightened,
            ),
            (
                "deadline down",
                Shape {
                    deadline: millis(70),
                    ..BASE
                },
                ModeEdit::Tightened,
            ),
            (
                "WCET down, deadline up",
                Shape {
                    wcet: millis(1),
                    deadline: millis(90),
                    ..BASE
                },
                ModeEdit::Changed,
            ),
            (
                "WCET up, deadline up",
                Shape {
                    wcet: millis(3),
                    deadline: millis(90),
                    ..BASE
                },
                ModeEdit::Changed,
            ),
            (
                "renamed node",
                Shape {
                    node: "probe",
                    ..BASE
                },
                ModeEdit::Changed,
            ),
            (
                "renamed mode",
                Shape {
                    mode: "degraded",
                    ..BASE
                },
                ModeEdit::Changed,
            ),
            (
                "changed message destination",
                Shape {
                    destination: "log",
                    ..BASE
                },
                ModeEdit::Changed,
            ),
            (
                "application inserted earlier",
                Shape {
                    inserted_first: true,
                    ..BASE
                },
                ModeEdit::Changed,
            ),
        ];
        for (case, shape, expected) in table {
            assert_eq!(mode_edit(&build(shape), &old, mode), expected, "{case}");
        }
    }
}
