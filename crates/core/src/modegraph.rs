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
    /// This is the conservative default when the legal switches are not
    /// known: the runtime host accepts a change request towards any mode, so
    /// every pair must be switch-consistent.
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

    /// Modes directly reachable from `mode`, in id order: the edges out of
    /// `mode` are one contiguous range of the ordered edge set.
    pub fn successors(&self, mode: ModeId) -> impl Iterator<Item = ModeId> + '_ {
        self.edges
            .range((mode, ModeId::from_index(0))..=(mode, ModeId::from_index(usize::MAX)))
            .map(|&(_, to)| to)
    }

    /// The modes reachable from the root over switch edges, breadth-first
    /// (ties broken by mode id): the head of [`ModeGraph::synthesis_order`].
    pub fn reachable(&self) -> Vec<ModeId> {
        let mut order = Vec::with_capacity(self.num_modes);
        if self.num_modes == 0 {
            return order;
        }
        let mut visited = vec![false; self.num_modes];
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
        order
    }

    /// The deterministic order in which modes are synthesized: the
    /// [`ModeGraph::reachable`] modes, then every mode unreachable from the
    /// root in id order.
    ///
    /// [`ModeGraph::inheritance_plan`] is first-wins along this order, so
    /// every mode an heir inherits from comes before the heir in it.
    pub fn synthesis_order(&self) -> Vec<ModeId> {
        let mut order = self.reachable();
        let mut seen = vec![false; self.num_modes];
        for mode in &order {
            seen[mode.index()] = true;
        }
        order.extend(
            (0..self.num_modes)
                .filter(|&m| !seen[m])
                .map(ModeId::from_index),
        );
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
        assert_eq!(
            graph.successors(normal).collect::<Vec<_>>(),
            vec![emergency]
        );
        assert_eq!(
            graph.successors(emergency).collect::<Vec<_>>(),
            vec![normal]
        );
    }

    #[test]
    fn successors_are_the_edges_out_of_a_mode_in_id_order() {
        let mut state = 0x6d6f_6465_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for _ in 0..100 {
            let modes = 1 + next(12);
            let edges: Vec<(ModeId, ModeId)> = (0..next(40))
                .map(|_| {
                    (
                        ModeId::from_index(next(modes)),
                        ModeId::from_index(next(modes)),
                    )
                })
                .collect();
            let graph = ModeGraph::from_parts(modes, ModeId::from_index(0), edges)
                .expect("every endpoint is a mode");
            for m in (0..modes).map(ModeId::from_index) {
                let scanned: Vec<ModeId> = graph
                    .edges()
                    .filter(|&(from, _)| from == m)
                    .map(|(_, to)| to)
                    .collect();
                assert_eq!(graph.successors(m).collect::<Vec<_>>(), scanned);
            }
        }
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
        assert_eq!(graph.reachable(), vec![normal]);
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
