//! Incremental re-synthesis: solve an edited system from its cached
//! predecessor instead of from scratch.
//!
//! The TTW architecture makes runtime admission — add, remove or edit one
//! application and redeploy — a first-class operation, but a full
//! [`crate::synthesis::synthesize_system`] run re-pays the MILP cost of
//! *every* mode even when the edit touches one. [`resynthesize_system`]
//! closes that gap by starting the same wave driver from the cached
//! predecessor — load predecessor, run driver, store — which gives three
//! reuse levels, all anchored on the [`crate::cache::SynthesisArtifacts`] the
//! schedule cache stores alongside each entry:
//!
//! 1. **Schedule reuse** — the predecessor and successor systems are diffed
//!    mode-by-mode ([`mode_fingerprint`]); a mode whose content, inheritance
//!    sources and pinned offsets are all unchanged has the *identical* ILP,
//!    and the deterministic pipeline would reproduce the identical schedule
//!    — so the cached [`crate::schedule::ModeSchedule`] (stats included) is
//!    kept verbatim, zero solver work.
//! 2. **Basis warm starts** — a mode that *did* change is re-solved, but its
//!    ILP is seeded with the predecessor's cached root basis at the matching
//!    round count. The solver repairs feasibility from a near-optimal basis
//!    instead of running two full phases; a stale or shape-mismatched basis
//!    degrades to a cold start inside the solver, never an error.
//! 3. **Proof reuse** — Algorithm 1 sweeps `R_M` upward, and every count
//!    below the answer costs a full branch-and-bound proof of infeasibility.
//!    When the changed mode's ILP only *tightens* the predecessor's — the
//!    same structure and pins, no WCET decreased, no deadline increased (see
//!    [`round_floor`]) — every count the predecessor proved infeasible stays
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
use crate::ids::{AppId, ModeId};
use crate::modegraph::{InheritedOffsets, ModeGraph};
use crate::schedule::{ModeSchedule, SystemSchedule};
use crate::synthesis::{synthesize_waves, Synthesizer, SystemSynthesisError};
use crate::system::System;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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
    /// Modes whose cached schedule was kept verbatim.
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

/// A deterministic textual digest of everything one mode's ILP depends on:
/// the mode (id and name), its hyperperiod, and — in id order — each of its
/// applications with their full task/message structure, WCETs, node
/// mappings and precedence.
///
/// Ids are included alongside names on purpose: a cached
/// [`crate::schedule::ModeSchedule`] keys its offsets by id, so an id drift
/// between predecessor and successor (an application inserted earlier in
/// the build order) must read as "changed" even when the renamed content is
/// identical — correctness over reuse.
pub fn mode_fingerprint(system: &System, mode: ModeId) -> String {
    fingerprint(system, mode, true)
}

/// [`mode_fingerprint`], with the WCETs and application deadlines left out
/// when `timing` is unset: what stays is the mode's structure.
fn fingerprint(system: &System, mode: ModeId, timing: bool) -> String {
    let mut out = String::new();
    let m = system.mode(mode);
    let _ = writeln!(
        out,
        "mode {mode} {} hyperperiod={}",
        m.name,
        system.hyperperiod(mode)
    );
    for &app_id in &m.applications {
        let app = system.application(app_id);
        let _ = write!(out, "app {app_id} {} period={}", app.name, app.period);
        if timing {
            let _ = write!(out, " deadline={}", app.deadline);
        }
        out.push('\n');
        for &task_id in &app.tasks {
            let task = system.task(task_id);
            let _ = write!(
                out,
                "task {task_id} {} node={}:{}",
                task.name,
                task.node,
                system.node(task.node).name
            );
            if timing {
                let _ = write!(out, " wcet={}", task.wcet);
            }
            let _ = writeln!(out, " prec={:?}", task.preceding_messages);
        }
        for &msg_id in &app.messages {
            let msg = system.message(msg_id);
            let _ = writeln!(
                out,
                "message {msg_id} {} source={}:{} prec={:?} succ={:?}",
                msg.name,
                msg.source_node,
                system.node(msg.source_node).name,
                msg.preceding_tasks,
                msg.successor_tasks
            );
        }
    }
    out
}

/// Whether `mode`'s ILP in `system` is a right-hand-side tightening of its
/// ILP in `old`: the same structure, no WCET decreased and no application
/// deadline increased. A WCET or a deadline enters the ILP only through the
/// right-hand side of a `≤` row (`prec_tm`, `deadline`, `latency`,
/// `noexec1/2`), and these changes only lower it, so every point feasible
/// for `system` is feasible for `old`.
fn tightens(system: &System, old: &System, mode: ModeId) -> bool {
    fingerprint(system, mode, false) == fingerprint(old, mode, false)
        && system.mode(mode).applications.iter().all(|&app| {
            let (new_app, old_app) = (system.application(app), old.application(app));
            new_app.deadline <= old_app.deadline
                && new_app
                    .tasks
                    .iter()
                    .all(|&task| system.task(task).wcet >= old.task(task).wcet)
        })
}

/// Synthesizes `system` incrementally from the cached predecessor entry
/// under `predecessor_key`, storing the result (and fresh warm-start
/// artifacts) under the successor's own cache key.
///
/// Modes whose fingerprint, inheritance sources and pinned offsets are
/// unchanged keep their cached schedules verbatim; every other mode is
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
            artifacts.backend == backend.name()
                && format!("{:?}", artifacts.config) == format!("{config:?}")
        });
    let (schedule, warm, report) = synthesize_waves(
        system,
        graph,
        config,
        backend,
        true,
        predecessor.as_ref().map(|(s, a)| (&**s, &**a)),
    )?;
    cache.store_synthesis(system, graph, config, backend, &schedule, warm);
    Ok((schedule, report))
}

/// The cached predecessor schedule of `mode`, when it is provably reusable:
/// identical mode content and the predecessor's pins (see
/// [`pinned_alike`]). Under those conditions the successor's ILP for the mode
/// is the predecessor's ILP, and the deterministic pipeline would reproduce
/// the cached schedule bit for bit — so it is returned for verbatim reuse.
pub(crate) fn reusable_schedule<'a>(
    system: &System,
    mode: ModeId,
    sources: &BTreeMap<AppId, ModeId>,
    inherited: &InheritedOffsets,
    artifacts: &SynthesisArtifacts,
    predecessor: &'a SystemSchedule,
) -> Option<&'a ModeSchedule> {
    pinned_alike(mode, sources, inherited, artifacts, predecessor)
        .filter(|_| mode_fingerprint(system, mode) == mode_fingerprint(&artifacts.system, mode))
}

/// The round count the `R_M` sweep of `mode` may start at: the predecessor's
/// winning count when the mode keeps the predecessor's pins (see
/// [`pinned_alike`]) and its ILP only [`tightens`] the predecessor's, `0`
/// otherwise.
///
/// Every smaller count is infeasible for the predecessor — its sweep proved
/// so, or started at a floor that held by the same argument — and a
/// tightened ILP cannot be feasible where the looser one was not.
pub(crate) fn round_floor(
    system: &System,
    mode: ModeId,
    sources: &BTreeMap<AppId, ModeId>,
    inherited: &InheritedOffsets,
    artifacts: &SynthesisArtifacts,
    predecessor: &SystemSchedule,
) -> usize {
    pinned_alike(mode, sources, inherited, artifacts, predecessor)
        .filter(|_| tightens(system, &artifacts.system, mode))
        .map_or(0, ModeSchedule::num_rounds)
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
) -> Option<&'a ModeSchedule> {
    let old = predecessor.get(mode)?;
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
