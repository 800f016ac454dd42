//! The mode graph and minimal inheritance (paper Sec. V).
//!
//! A TTW system switches between operation modes at runtime; the set of legal
//! switches forms a directed graph over the modes. An application contained in
//! both endpoints of a switch keeps executing across the change, so its tasks
//! and messages must be scheduled **identically** in both modes — otherwise
//! the two-phase mode-change procedure of Fig. 2 would silently re-time a
//! running application. The paper solves this with *minimal inheritance*:
//! modes are synthesized in a deterministic order, and every application that
//! already received a schedule in an earlier mode has its offsets *pinned*
//! (inherited) when later modes are synthesized.
//!
//! The set of applications a mode inherits, together with the modes they are
//! inherited from, is the paper's *virtual legacy mode*: a fictitious mode
//! whose schedule is imported verbatim before the remaining applications are
//! co-scheduled around it. [`ModeGraph::inheritance_plan`] is that view as the
//! per-application mapping the synthesis driver consumes.
//!
//! The graph also fixes the synthesis order ([`ModeGraph::synthesis_order`]):
//! breadth-first from the root mode (ties broken by mode id), then any
//! unreachable modes in id order. Because inheritance is first-wins along that
//! order, every application is scheduled exactly once and *all* modes that
//! contain it agree — a superset of the per-edge switch consistency the
//! runtime needs.

use crate::error::ModelError;
use crate::ids::{AppId, MessageId, ModeId, TaskId};
use crate::schedule::ModeSchedule;
use crate::system::System;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The directed graph of legal mode switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeGraph {
    num_modes: usize,
    edges: BTreeSet<(ModeId, ModeId)>,
    root: ModeId,
}

impl ModeGraph {
    /// Creates an edgeless graph over the modes of `system`, rooted at the
    /// first mode.
    ///
    /// Without edges the synthesis order is plain mode-id order; add edges
    /// with [`ModeGraph::add_edge`] to model the legal switches.
    pub fn new(system: &System) -> Self {
        ModeGraph {
            num_modes: system.modes().count(),
            edges: BTreeSet::new(),
            root: ModeId::from_index(0),
        }
    }

    /// Creates the complete switch graph over the modes of `system`: every
    /// mode can switch to every other mode.
    ///
    /// This is the conservative default used by
    /// [`crate::synthesis::synthesize_all_modes`]: the runtime host accepts a
    /// change request towards any mode, so every pair must be
    /// switch-consistent.
    pub fn complete(system: &System) -> Self {
        let mut graph = Self::new(system);
        for a in 0..graph.num_modes {
            for b in 0..graph.num_modes {
                if a != b {
                    graph
                        .edges
                        .insert((ModeId::from_index(a), ModeId::from_index(b)));
                }
            }
        }
        graph
    }

    /// Rebuilds a graph from its raw parts (used by the JSON codec).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownName`] if the root or an edge endpoint is
    /// outside `0..num_modes`.
    pub fn from_parts(
        num_modes: usize,
        root: ModeId,
        edges: impl IntoIterator<Item = (ModeId, ModeId)>,
    ) -> Result<Self, ModelError> {
        let mut graph = ModeGraph {
            num_modes,
            edges: BTreeSet::new(),
            root: ModeId::from_index(0),
        };
        graph = graph.with_root(root)?;
        for (from, to) in edges {
            graph.add_edge(from, to)?;
        }
        Ok(graph)
    }

    /// Sets the root mode the synthesis order starts from (usually the mode
    /// the system boots into).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownName`] if `root` is not a mode of the
    /// graph.
    pub fn with_root(mut self, root: ModeId) -> Result<Self, ModelError> {
        self.check_mode(root)?;
        self.root = root;
        Ok(self)
    }

    /// Adds a directed switch edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownName`] if either endpoint is not a mode of
    /// the graph; self-loops are ignored (switching to the current mode is a
    /// runtime no-op).
    pub fn add_edge(&mut self, from: ModeId, to: ModeId) -> Result<(), ModelError> {
        self.check_mode(from)?;
        self.check_mode(to)?;
        if from != to {
            self.edges.insert((from, to));
        }
        Ok(())
    }

    /// Checks that the graph covers exactly the modes of `system` — what
    /// [`ModeGraph::new`] guarantees, and what a graph and a system that
    /// arrived separately (two members of a request, two arguments of a
    /// library call) have yet to show. Every walk below indexes the system by
    /// the graph's mode ids and sizes its tables by the graph's mode count.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ModeCountMismatch`] otherwise.
    pub fn check_covers(&self, system: &System) -> Result<(), ModelError> {
        let modes = system.modes().count();
        if self.num_modes == modes {
            Ok(())
        } else {
            Err(ModelError::ModeCountMismatch {
                graph: self.num_modes,
                system: modes,
            })
        }
    }

    fn check_mode(&self, mode: ModeId) -> Result<(), ModelError> {
        if mode.index() >= self.num_modes {
            return Err(ModelError::UnknownName {
                name: mode.to_string(),
                kind: "mode",
            });
        }
        Ok(())
    }

    /// Number of modes the graph spans.
    pub fn num_modes(&self) -> usize {
        self.num_modes
    }

    /// The root mode of the synthesis order.
    pub fn root(&self) -> ModeId {
        self.root
    }

    /// Iterates over the switch edges in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (ModeId, ModeId)> + '_ {
        self.edges.iter().copied()
    }

    /// Modes directly reachable from `mode`, in id order.
    pub fn successors(&self, mode: ModeId) -> Vec<ModeId> {
        self.edges
            .iter()
            .filter(|(from, _)| *from == mode)
            .map(|&(_, to)| to)
            .collect()
    }

    /// Returns `true` if the switch graph has no directed cycle.
    ///
    /// Mode graphs with back-switches (e.g. `normal ⇄ emergency`) are cyclic
    /// and perfectly valid; the synthesis order does not require acyclicity.
    /// A DAG guarantees that the breadth-first order visits every parent of a
    /// mode before the mode itself.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm: the graph is a DAG iff every mode can be peeled.
        let mut indegree = vec![0usize; self.num_modes];
        for &(_, to) in &self.edges {
            indegree[to.index()] += 1;
        }
        let mut queue: VecDeque<usize> =
            (0..self.num_modes).filter(|&m| indegree[m] == 0).collect();
        let mut peeled = 0;
        while let Some(m) = queue.pop_front() {
            peeled += 1;
            for to in self.successors(ModeId::from_index(m)) {
                indegree[to.index()] -= 1;
                if indegree[to.index()] == 0 {
                    queue.push_back(to.index());
                }
            }
        }
        peeled == self.num_modes
    }

    /// The deterministic order in which modes are synthesized: breadth-first
    /// from the root (ties broken by mode id), then any mode unreachable from
    /// the root in id order.
    ///
    /// On a DAG rooted at the boot mode this is a topological-style order in
    /// which every mode is visited after the mode it inherits from.
    pub fn synthesis_order(&self) -> Vec<ModeId> {
        let mut order = Vec::with_capacity(self.num_modes);
        let mut visited = vec![false; self.num_modes];
        if self.num_modes == 0 {
            return order;
        }
        let mut queue = VecDeque::from([self.root]);
        visited[self.root.index()] = true;
        while let Some(mode) = queue.pop_front() {
            order.push(mode);
            for next in self.successors(mode) {
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    queue.push_back(next);
                }
            }
        }
        for (m, seen) in visited.iter().enumerate() {
            if !seen {
                order.push(ModeId::from_index(m));
            }
        }
        order
    }

    /// For every mode, the applications whose schedule it inherits and the
    /// mode each is inherited from (the first mode of the synthesis order
    /// that contains the application).
    ///
    /// Modes that inherit nothing map to an empty table, so the result always
    /// has one entry per mode.
    pub fn inheritance_plan(&self, system: &System) -> BTreeMap<ModeId, BTreeMap<AppId, ModeId>> {
        let mut owner: BTreeMap<AppId, ModeId> = BTreeMap::new();
        let mut plan = BTreeMap::new();
        for mode in self.synthesis_order() {
            let mut inherited = BTreeMap::new();
            for &app in &system.mode(mode).applications {
                match owner.get(&app) {
                    Some(&source) => {
                        inherited.insert(app, source);
                    }
                    None => {
                        owner.insert(app, mode);
                    }
                }
            }
            plan.insert(mode, inherited);
        }
        plan
    }

    /// The waves of the parallel synthesis driver: wave `k` holds the modes
    /// whose inheritance donors all lie in waves `< k` (wave `0` holds the
    /// modes that inherit nothing). Modes of the same wave are independent —
    /// first-wins inheritance gives every application exactly one owner — and
    /// [`crate::synthesis::synthesize_system`] solves them concurrently.
    ///
    /// Within a wave, modes keep their [`ModeGraph::synthesis_order`] relative
    /// order; concatenating the waves therefore yields a permutation of the
    /// synthesis order in which every donor precedes its heirs.
    pub fn synthesis_waves(&self, system: &System) -> Vec<Vec<ModeId>> {
        self.waves_of_plan(&self.inheritance_plan(system))
    }

    /// [`ModeGraph::synthesis_waves`] for a caller that already computed the
    /// inheritance plan (the synthesis driver needs both and the plan is the
    /// expensive part).
    pub(crate) fn waves_of_plan(
        &self,
        plan: &BTreeMap<ModeId, BTreeMap<AppId, ModeId>>,
    ) -> Vec<Vec<ModeId>> {
        let mut wave_of: BTreeMap<ModeId, usize> = BTreeMap::new();
        let mut waves: Vec<Vec<ModeId>> = Vec::new();
        for mode in self.synthesis_order() {
            let wave = plan
                .get(&mode)
                .map(|sources| {
                    sources
                        .values()
                        .map(|src| wave_of[src] + 1)
                        .max()
                        .unwrap_or(0)
                })
                .unwrap_or(0);
            wave_of.insert(mode, wave);
            if waves.len() <= wave {
                waves.push(Vec::new());
            }
            waves[wave].push(mode);
        }
        waves
    }
}

/// Task and message offsets pinned during synthesis because an earlier mode
/// already scheduled them (the materialized schedule of a mode's virtual
/// legacy mode).
///
/// All values are microseconds, relative to the application release — the same
/// convention as [`ModeSchedule`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InheritedOffsets {
    /// Pinned task offsets `τ.o`.
    pub task_offsets: BTreeMap<TaskId, f64>,
    /// Pinned message offsets `m.o`.
    pub message_offsets: BTreeMap<MessageId, f64>,
    /// Pinned message deadlines `m.d`.
    pub message_deadlines: BTreeMap<MessageId, f64>,
}

impl InheritedOffsets {
    /// No inherited offsets (synthesize the mode from scratch).
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` if nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.task_offsets.is_empty()
            && self.message_offsets.is_empty()
            && self.message_deadlines.is_empty()
    }

    /// Number of pinned quantities (tasks + message offsets + deadlines).
    pub fn len(&self) -> usize {
        self.task_offsets.len() + self.message_offsets.len() + self.message_deadlines.len()
    }

    /// Imports the offsets of one application from an already-synthesized
    /// mode schedule.
    ///
    /// Entities the donor schedule does not cover are skipped (the validator
    /// reports such holes on the donor itself).
    pub fn import_application(&mut self, system: &System, app: AppId, donor: &ModeSchedule) {
        for &t in &system.application(app).tasks {
            if let Some(o) = donor.task_offset(t) {
                self.task_offsets.insert(t, o);
            }
        }
        for &m in &system.application(app).messages {
            if let Some(o) = donor.message_offset(m) {
                self.message_offsets.insert(m, o);
            }
            if let Some(d) = donor.message_deadline(m) {
                self.message_deadlines.insert(m, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn complete_graph_connects_every_pair() {
        let (sys, normal, emergency) = fixtures::two_mode_system();
        let graph = ModeGraph::complete(&sys);
        assert_eq!(graph.num_modes(), 2);
        assert_eq!(graph.successors(normal), vec![emergency]);
        assert_eq!(graph.successors(emergency), vec![normal]);
        assert!(!graph.is_acyclic(), "a complete graph has back-switches");
    }

    #[test]
    fn edges_are_validated() {
        let (sys, normal, _) = fixtures::two_mode_system();
        let mut graph = ModeGraph::new(&sys);
        assert!(graph.add_edge(normal, ModeId::from_index(7)).is_err());
        assert!(ModeGraph::new(&sys)
            .with_root(ModeId::from_index(7))
            .is_err());
        // Self loops are silently dropped.
        graph
            .add_edge(normal, normal)
            .expect("self loop is a no-op");
        assert_eq!(graph.edges().count(), 0);
    }

    #[test]
    fn synthesis_order_is_breadth_first_from_root() {
        let (sys, _, emergency) = fixtures::two_mode_system();
        let graph = ModeGraph::complete(&sys)
            .with_root(emergency)
            .expect("valid root");
        assert_eq!(graph.synthesis_order()[0], emergency);
        assert_eq!(graph.synthesis_order().len(), 2);
    }

    #[test]
    fn unreachable_modes_still_appear_in_the_order() {
        let (sys, normal, emergency) = fixtures::two_mode_system();
        let graph = ModeGraph::new(&sys); // no edges at all
        assert_eq!(graph.synthesis_order(), vec![normal, emergency]);
    }

    #[test]
    fn inheritance_plan_pins_shared_apps_first_wins() {
        let (sys, graph, normal, emergency) = fixtures::two_mode_graph();
        let ctrl = sys.application_id("ctrl").expect("shared app exists");
        let plan = graph.inheritance_plan(&sys);
        assert!(plan[&normal].is_empty(), "the root inherits nothing");
        assert_eq!(plan[&emergency].get(&ctrl), Some(&normal));
        // The diagnostics app is exclusive to the emergency mode.
        let diag = sys.application_id("emergency_diag").expect("app exists");
        assert!(!plan[&emergency].contains_key(&diag));
    }

    #[test]
    fn synthesis_waves_follow_the_inheritance_plan() {
        let (sys, graph, normal, emergency) = fixtures::two_mode_graph();
        assert_eq!(
            graph.synthesis_waves(&sys),
            vec![vec![normal], vec![emergency]]
        );

        // The diamond: boot alone, then one wave of three independent modes.
        let (sys, graph, [boot, normal, emergency, maintenance]) = fixtures::four_mode_diamond();
        assert_eq!(
            graph.synthesis_waves(&sys),
            vec![vec![boot], vec![normal, emergency, maintenance]]
        );
    }

    #[test]
    fn synthesis_waves_concatenate_to_the_synthesis_order_modes() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let flat: Vec<ModeId> = graph.synthesis_waves(&sys).into_iter().flatten().collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        let mut order = graph.synthesis_order();
        order.sort_unstable();
        assert_eq!(sorted, order, "waves cover every mode exactly once");
    }

    #[test]
    fn inherited_offsets_import_covers_the_whole_app() {
        let (sys, mode) = fixtures::fig3_system();
        let config = crate::SchedulerConfig::new(crate::time::millis(10), 5);
        let schedule = crate::synthesis::synthesize_mode(&sys, mode, &config).expect("feasible");
        let app = sys.application_id("ctrl").expect("app exists");
        let mut pins = InheritedOffsets::none();
        assert!(pins.is_empty());
        pins.import_application(&sys, app, &schedule);
        assert_eq!(pins.task_offsets.len(), 5);
        assert_eq!(pins.message_offsets.len(), 3);
        assert_eq!(pins.message_deadlines.len(), 3);
        assert_eq!(pins.len(), 11);
    }
}
