//! Per-node schedule deltas: ship only what changed on a redeployment.
//!
//! A full redeployment pushes every node its complete slot tables for every
//! mode. After an incremental admission ([`crate::resynth`]) most modes are
//! unchanged, so most of those bytes repeat what the node already runs —
//! over a low-power wireless bus that waste is the difference between a
//! sub-second and a multi-second update window.
//!
//! This module factors a [`crate::schedule::SystemSchedule`] into per-node
//! deployments ([`node_deployments`]) — the task offsets of the node's own
//! tasks plus the network-wide round/slot tables it participates in — and
//! diffs two deployments into a [`ScheduleDelta`]: per-node patch op lists
//! (add/remove/retime a task entry, replace/append/truncate rounds, replace
//! or drop whole mode tables) with a JSON wire codec. [`apply`] replays a
//! delta on the old deployment and is verified byte-for-byte against the
//! full redeployment by the tests and the differential harness:
//! `apply(diff(old, new), old) == new`, always, and the delta is the empty
//! patch iff the deployments are identical.

use crate::ids::{ModeId, NodeId, TaskId};
use crate::json::{Json, JsonError, MemberWriter, Reader, Slot, Writer};
use crate::schedule::{ScheduledRound, SystemSchedule};
use crate::system::System;
use crate::time::Micros;
use std::collections::BTreeMap;

/// The slot tables one node runs for one mode: the node's own task offsets
/// plus the network-wide round schedule (every node participates in every
/// Glossy flood, so rounds are common material; task offsets are private).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeModeTable {
    /// Mode hyperperiod, µs.
    pub hyperperiod: Micros,
    /// Round length `T_r`, µs.
    pub round_duration: Micros,
    /// Data slots per round (`B`).
    pub slots_per_round: usize,
    /// Offsets of the tasks mapped onto this node, µs.
    pub task_offsets: BTreeMap<TaskId, f64>,
    /// The mode's communication rounds, in start order.
    pub rounds: Vec<ScheduledRound>,
}

/// Everything one node deploys: one [`NodeModeTable`] per mode.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeDeployment {
    /// Mode tables keyed by mode.
    pub modes: BTreeMap<ModeId, NodeModeTable>,
}

/// One patch step against a [`NodeDeployment`].
#[derive(Debug, Clone, PartialEq)]
pub enum NodePatchOp {
    /// Install (or wholesale-replace) a mode table — used for new modes and
    /// for mode-level parameter changes (hyperperiod, round length, slot
    /// count), where granular ops cannot describe the change.
    SetMode(ModeId, NodeModeTable),
    /// Drop a mode table.
    RemoveMode(ModeId),
    /// Add or retime one task entry of a mode table.
    SetTask(ModeId, TaskId, f64),
    /// Remove one task entry of a mode table.
    RemoveTask(ModeId, TaskId),
    /// Replace (or append, at index `== rounds.len()`) one round.
    SetRound(ModeId, usize, ScheduledRound),
    /// Truncate the round list to `len` entries.
    TruncateRounds(ModeId, usize),
}

/// A per-node patch set turning one deployment into another.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScheduleDelta {
    /// Patch ops per node, for every node whose deployment changed or is new.
    pub nodes: BTreeMap<NodeId, Vec<NodePatchOp>>,
    /// Nodes present in the old deployment but absent from the new one.
    pub removed_nodes: Vec<NodeId>,
}

impl ScheduleDelta {
    /// `true` when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.removed_nodes.is_empty()
    }

    /// Total patch ops across all nodes.
    pub fn num_ops(&self) -> usize {
        self.nodes.values().map(Vec::len).sum()
    }
}

/// Why applying a delta failed: an op referenced a mode entry the deployment
/// does not have, or a round index beyond append position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaError(String);

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delta does not apply: {}", self.0)
    }
}

impl std::error::Error for DeltaError {}

/// Factors a system schedule into per-node deployments.
///
/// Every node of the system gets an entry (a node can run zero tasks and
/// still forwards floods); every mode the schedule covers gets a mode table
/// per node.
pub fn node_deployments(
    system: &System,
    schedule: &SystemSchedule,
) -> BTreeMap<NodeId, NodeDeployment> {
    let mut out: BTreeMap<NodeId, NodeDeployment> = system
        .nodes()
        .map(|(id, _)| (id, NodeDeployment::default()))
        .collect();
    for (mode, mode_schedule) in schedule.iter() {
        for (node, deployment) in out.iter_mut() {
            let task_offsets = mode_schedule
                .task_offsets
                .iter()
                .filter(|(&task, _)| system.task(task).node == *node)
                .map(|(&task, &offset)| (task, offset))
                .collect();
            deployment.modes.insert(
                mode,
                NodeModeTable {
                    hyperperiod: mode_schedule.hyperperiod,
                    round_duration: mode_schedule.round_duration,
                    slots_per_round: mode_schedule.slots_per_round,
                    task_offsets,
                    rounds: mode_schedule.rounds.clone(),
                },
            );
        }
    }
    out
}

/// Diffs two deployments into the patch set that turns `old` into `new`.
///
/// The diff is minimal at op granularity: an unchanged node contributes no
/// entry at all, an unchanged mode no ops, and a changed mode only the
/// task/round entries that actually differ — unless its round parameters
/// changed, which forces a [`NodePatchOp::SetMode`] replacement.
pub fn diff(
    old: &BTreeMap<NodeId, NodeDeployment>,
    new: &BTreeMap<NodeId, NodeDeployment>,
) -> ScheduleDelta {
    let mut delta = ScheduleDelta::default();
    for (&node, new_deployment) in new {
        let empty = NodeDeployment::default();
        let old_deployment = old.get(&node).unwrap_or(&empty);
        let ops = diff_node(old_deployment, new_deployment);
        if !ops.is_empty() {
            delta.nodes.insert(node, ops);
        }
    }
    delta.removed_nodes = old
        .keys()
        .filter(|n| !new.contains_key(n))
        .copied()
        .collect();
    delta
}

fn diff_node(old: &NodeDeployment, new: &NodeDeployment) -> Vec<NodePatchOp> {
    let mut ops = Vec::new();
    for (&mode, old_table) in &old.modes {
        if !new.modes.contains_key(&mode) {
            ops.push(NodePatchOp::RemoveMode(mode));
            let _ = old_table;
        }
    }
    for (&mode, new_table) in &new.modes {
        match old.modes.get(&mode) {
            None => ops.push(NodePatchOp::SetMode(mode, new_table.clone())),
            Some(old_table) if old_table == new_table => {}
            Some(old_table) => {
                let meta_changed = old_table.hyperperiod != new_table.hyperperiod
                    || old_table.round_duration != new_table.round_duration
                    || old_table.slots_per_round != new_table.slots_per_round;
                if meta_changed {
                    ops.push(NodePatchOp::SetMode(mode, new_table.clone()));
                    continue;
                }
                for &task in old_table.task_offsets.keys() {
                    if !new_table.task_offsets.contains_key(&task) {
                        ops.push(NodePatchOp::RemoveTask(mode, task));
                    }
                }
                for (&task, &offset) in &new_table.task_offsets {
                    if old_table.task_offsets.get(&task) != Some(&offset) {
                        ops.push(NodePatchOp::SetTask(mode, task, offset));
                    }
                }
                for (index, round) in new_table.rounds.iter().enumerate() {
                    if old_table.rounds.get(index) != Some(round) {
                        ops.push(NodePatchOp::SetRound(mode, index, round.clone()));
                    }
                }
                if new_table.rounds.len() < old_table.rounds.len() {
                    ops.push(NodePatchOp::TruncateRounds(mode, new_table.rounds.len()));
                }
            }
        }
    }
    ops
}

/// Applies a delta to an old deployment map, producing the new one.
///
/// # Errors
///
/// [`DeltaError`] when an op targets a mode the (patched) deployment does
/// not contain or a round index past the append position — the signs of a
/// delta applied against the wrong baseline.
pub fn apply(
    delta: &ScheduleDelta,
    old: &BTreeMap<NodeId, NodeDeployment>,
) -> Result<BTreeMap<NodeId, NodeDeployment>, DeltaError> {
    let mut out = old.clone();
    for node in &delta.removed_nodes {
        out.remove(node);
    }
    for (&node, ops) in &delta.nodes {
        let deployment = out.entry(node).or_default();
        for op in ops {
            apply_op(deployment, op).map_err(|e| DeltaError(format!("node {node}: {e}")))?;
        }
    }
    Ok(out)
}

fn apply_op(deployment: &mut NodeDeployment, op: &NodePatchOp) -> Result<(), String> {
    fn table(
        modes: &mut BTreeMap<ModeId, NodeModeTable>,
        mode: ModeId,
    ) -> Result<&mut NodeModeTable, String> {
        modes
            .get_mut(&mode)
            .ok_or_else(|| format!("mode {mode} not deployed"))
    }
    match op {
        NodePatchOp::SetMode(mode, new_table) => {
            deployment.modes.insert(*mode, new_table.clone());
        }
        NodePatchOp::RemoveMode(mode) => {
            deployment
                .modes
                .remove(mode)
                .ok_or_else(|| format!("mode {mode} not deployed"))?;
        }
        NodePatchOp::SetTask(mode, task, offset) => {
            let table = table(&mut deployment.modes, *mode)?;
            table.task_offsets.insert(*task, *offset);
        }
        NodePatchOp::RemoveTask(mode, task) => {
            let table = table(&mut deployment.modes, *mode)?;
            table
                .task_offsets
                .remove(task)
                .ok_or_else(|| format!("task {task} not in mode {mode}"))?;
        }
        NodePatchOp::SetRound(mode, index, round) => {
            let table = table(&mut deployment.modes, *mode)?;
            match index.cmp(&table.rounds.len()) {
                std::cmp::Ordering::Less => table.rounds[*index] = round.clone(),
                std::cmp::Ordering::Equal => table.rounds.push(round.clone()),
                std::cmp::Ordering::Greater => {
                    return Err(format!(
                        "round index {index} past append position {}",
                        table.rounds.len()
                    ));
                }
            }
        }
        NodePatchOp::TruncateRounds(mode, len) => {
            let table = table(&mut deployment.modes, *mode)?;
            if *len > table.rounds.len() {
                return Err(format!(
                    "cannot truncate {} rounds to {len}",
                    table.rounds.len()
                ));
            }
            table.rounds.truncate(*len);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// JSON wire codec
// ---------------------------------------------------------------------------

crate::json_object!(NodeModeTable as "mode table" {
    hyperperiod, round_duration, slots_per_round, task_offsets, rounds
});
crate::json_object!(ScheduleDelta as "delta" { nodes, removed_nodes });

/// A patch op is an object tagged by `"op"`, always with the `"mode"` it
/// patches, plus the members its kind needs.
impl Json for NodePatchOp {
    fn write(&self, w: &mut Writer<'_>) {
        let tagged = |w: &mut Writer<'_>, kind: &str, mode: &ModeId, rest: &[MemberWriter<'_>]| {
            let (op, mode) = (
                |w: &mut Writer<'_>| w.string(kind),
                |w: &mut Writer<'_>| mode.write(w),
            );
            let mut members: Vec<MemberWriter<'_>> = vec![("op", &op), ("mode", &mode)];
            members.extend_from_slice(rest);
            w.object(&mut members);
        };
        match self {
            NodePatchOp::SetMode(mode, table) => {
                tagged(w, "set_mode", mode, &[("table", &|w| table.write(w))]);
            }
            NodePatchOp::RemoveMode(mode) => tagged(w, "remove_mode", mode, &[]),
            NodePatchOp::SetTask(mode, task, offset) => {
                let rest: [MemberWriter<'_>; 2] = [
                    ("task", &|w| task.write(w)),
                    ("offset", &|w| offset.write(w)),
                ];
                tagged(w, "set_task", mode, &rest);
            }
            NodePatchOp::RemoveTask(mode, task) => {
                tagged(w, "remove_task", mode, &[("task", &|w| task.write(w))]);
            }
            NodePatchOp::SetRound(mode, index, round) => {
                let rest: [MemberWriter<'_>; 2] = [
                    ("index", &|w| index.write(w)),
                    ("round", &|w| round.write(w)),
                ];
                tagged(w, "set_round", mode, &rest);
            }
            NodePatchOp::TruncateRounds(mode, len) => {
                tagged(w, "truncate_rounds", mode, &[("len", &|w| len.write(w))]);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let (mut op, mut mode) = (Slot::<String>::new(), Slot::new());
        let (mut table, mut task, mut offset) = (Slot::new(), Slot::new(), Slot::new());
        let (mut index, mut round, mut len) = (Slot::new(), Slot::new(), Slot::new());
        let at = r.object("patch op must be a JSON object", |key, r| match key {
            "op" => op.read(r, key),
            "mode" => mode.read(r, key),
            "table" => table.read(r, key),
            "task" => task.read(r, key),
            "offset" => offset.read(r, key),
            "index" => index.read(r, key),
            "round" => round.read(r, key),
            "len" => len.read(r, key),
            _ => r.skip(),
        })?;
        let mut build = || {
            let mode = mode.take("mode")?;
            Ok(match op.take("op")?.as_str() {
                "set_mode" => NodePatchOp::SetMode(mode, table.take("table")?),
                "remove_mode" => NodePatchOp::RemoveMode(mode),
                "set_task" => {
                    NodePatchOp::SetTask(mode, task.take("task")?, offset.take("offset")?)
                }
                "remove_task" => NodePatchOp::RemoveTask(mode, task.take("task")?),
                "set_round" => {
                    NodePatchOp::SetRound(mode, index.take("index")?, round.take("round")?)
                }
                "truncate_rounds" => NodePatchOp::TruncateRounds(mode, len.take("len")?),
                other => return Err(JsonError::custom(format!("unknown patch op `{other}`"))),
            })
        };
        build().map_err(|error: JsonError| error.at(at))
    }
}

/// Serializes a delta to its compact JSON wire form.
pub fn delta_to_json(delta: &ScheduleDelta) -> String {
    delta.to_json()
}

/// Parses a delta back from its JSON wire form.
///
/// # Errors
///
/// [`JsonError`] on any malformed document.
pub fn delta_from_json(text: &str) -> Result<ScheduleDelta, JsonError> {
    ScheduleDelta::from_json(text)
}

/// Bytes of a delta on the wire (its compact JSON form).
pub fn delta_bytes(delta: &ScheduleDelta) -> usize {
    delta_to_json(delta).len()
}

/// Bytes a full redeployment of `deployments` ships: the sum of each node's
/// complete table set in the same compact JSON encoding the delta uses —
/// the apples-to-apples baseline for [`delta_bytes`].
pub fn full_deployment_bytes(deployments: &BTreeMap<NodeId, NodeDeployment>) -> usize {
    deployments
        .values()
        .map(|deployment| deployment.modes.to_json().len())
        .sum()
}

/// End-to-end verification used by the differential harness: the delta from
/// `old_schedule` to `new_schedule`, checked to reproduce the full
/// redeployment byte-for-byte, returned with its byte counts
/// `(delta, delta_bytes, full_bytes)`.
///
/// # Panics
///
/// Panics when `apply(diff(old, new), old)` does not equal the new
/// deployment — which would mean the codec or patch engine is wrong, never
/// a recoverable input condition.
pub fn verified_delta(
    system: &System,
    old_schedule: &SystemSchedule,
    new_schedule: &SystemSchedule,
) -> (ScheduleDelta, usize, usize) {
    let old = node_deployments(system, old_schedule);
    let new = node_deployments(system, new_schedule);
    let delta = diff(&old, &new);
    let patched = match apply(&delta, &old) {
        Ok(patched) => patched,
        Err(e) => panic!("self-produced delta failed to apply: {e}"),
    };
    assert_eq!(patched, new, "delta must reproduce the full redeployment");
    // The wire round trip is part of the verification: what the node decodes
    // is what the differ encoded.
    let wire = match delta_from_json(&delta_to_json(&delta)) {
        Ok(wire) => wire,
        Err(e) => panic!("delta wire codec failed to round-trip: {e}"),
    };
    assert_eq!(wire, delta, "delta wire codec must round-trip");
    (
        delta.clone(),
        delta_bytes(&delta),
        full_deployment_bytes(&new),
    )
}

// Exercised further (against real synthesized schedules) by the integration
// tests and the differential harness; the unit tests below pin the patch
// engine and codec on hand-built tables.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MessageId;

    fn table(tasks: &[(usize, f64)], rounds: &[(f64, &[usize])]) -> NodeModeTable {
        NodeModeTable {
            hyperperiod: 100_000,
            round_duration: 10_000,
            slots_per_round: 5,
            task_offsets: tasks
                .iter()
                .map(|&(t, o)| (TaskId::from_index(t), o))
                .collect(),
            rounds: rounds
                .iter()
                .map(|&(start, slots)| ScheduledRound {
                    start,
                    slots: slots.iter().map(|&m| MessageId::from_index(m)).collect(),
                })
                .collect(),
        }
    }

    fn deployment(modes: &[(usize, NodeModeTable)]) -> NodeDeployment {
        NodeDeployment {
            modes: modes
                .iter()
                .map(|(m, t)| (ModeId::from_index(*m), t.clone()))
                .collect(),
        }
    }

    fn deployments(nodes: &[(usize, NodeDeployment)]) -> BTreeMap<NodeId, NodeDeployment> {
        nodes
            .iter()
            .map(|(n, d)| (NodeId::from_index(*n), d.clone()))
            .collect()
    }

    #[test]
    fn identical_deployments_diff_to_the_empty_delta() {
        let d = deployments(&[(0, deployment(&[(0, table(&[(0, 5.0)], &[(0.0, &[1])]))]))]);
        let delta = diff(&d, &d);
        assert!(delta.is_empty());
        assert_eq!(apply(&delta, &d).expect("applies"), d);
        assert_eq!(
            delta_from_json(&delta_to_json(&delta)).expect("codec"),
            delta
        );
    }

    #[test]
    fn one_retimed_task_patches_with_one_op() {
        let old = deployments(&[(
            0,
            deployment(&[(0, table(&[(0, 5.0), (1, 9.0)], &[(0.0, &[1])]))]),
        )]);
        let new = deployments(&[(
            0,
            deployment(&[(0, table(&[(0, 7.5), (1, 9.0)], &[(0.0, &[1])]))]),
        )]);
        let delta = diff(&old, &new);
        assert_eq!(delta.num_ops(), 1);
        assert_eq!(
            delta.nodes[&NodeId::from_index(0)][0],
            NodePatchOp::SetTask(ModeId::from_index(0), TaskId::from_index(0), 7.5)
        );
        assert_eq!(apply(&delta, &old).expect("applies"), new);
    }

    #[test]
    fn round_add_remove_and_retime_all_patch_correctly() {
        let old = deployments(&[(
            0,
            deployment(&[(0, table(&[], &[(0.0, &[1]), (10.0, &[2])]))]),
        )]);
        // Retime round 0, reslot round 1, append round 2.
        let grown = deployments(&[(
            0,
            deployment(&[(0, table(&[], &[(5.0, &[1]), (10.0, &[3]), (20.0, &[2])]))]),
        )]);
        let delta = diff(&old, &grown);
        assert_eq!(delta.num_ops(), 3);
        assert_eq!(apply(&delta, &old).expect("applies"), grown);
        // And back down: the reverse delta truncates.
        let back = diff(&grown, &old);
        assert!(back
            .nodes
            .values()
            .flatten()
            .any(|op| matches!(op, NodePatchOp::TruncateRounds(_, 2))));
        assert_eq!(apply(&back, &grown).expect("applies"), old);
    }

    #[test]
    fn mode_and_node_membership_changes_round_trip() {
        let old = deployments(&[
            (0, deployment(&[(0, table(&[(0, 1.0)], &[]))])),
            (1, deployment(&[(0, table(&[], &[]))])),
        ]);
        let new = deployments(&[
            // Node 0: mode 0 dropped, mode 1 added.
            (0, deployment(&[(1, table(&[(0, 2.0)], &[(0.0, &[4])]))])),
            // Node 1 removed, node 2 added.
            (2, deployment(&[(1, table(&[], &[]))])),
        ]);
        let delta = diff(&old, &new);
        assert_eq!(delta.removed_nodes, vec![NodeId::from_index(1)]);
        assert_eq!(apply(&delta, &old).expect("applies"), new);
        assert_eq!(
            delta_from_json(&delta_to_json(&delta)).expect("codec"),
            delta
        );
    }

    #[test]
    fn meta_change_forces_a_whole_table_replacement() {
        let old_table = table(&[(0, 1.0)], &[(0.0, &[1])]);
        let mut new_table = old_table.clone();
        new_table.round_duration = 20_000;
        let old = deployments(&[(0, deployment(&[(0, old_table)]))]);
        let new = deployments(&[(0, deployment(&[(0, new_table)]))]);
        let delta = diff(&old, &new);
        assert_eq!(delta.num_ops(), 1);
        assert!(matches!(
            delta.nodes[&NodeId::from_index(0)][0],
            NodePatchOp::SetMode(..)
        ));
        assert_eq!(apply(&delta, &old).expect("applies"), new);
    }

    #[test]
    fn misapplied_deltas_fail_instead_of_corrupting() {
        let old = deployments(&[(0, deployment(&[(0, table(&[(0, 1.0)], &[(0.0, &[1])]))]))]);
        let against_missing_mode = ScheduleDelta {
            nodes: [(
                NodeId::from_index(0),
                vec![NodePatchOp::SetTask(
                    ModeId::from_index(7),
                    TaskId::from_index(0),
                    1.0,
                )],
            )]
            .into(),
            removed_nodes: Vec::new(),
        };
        assert!(apply(&against_missing_mode, &old).is_err());
        let past_append = ScheduleDelta {
            nodes: [(
                NodeId::from_index(0),
                vec![NodePatchOp::SetRound(
                    ModeId::from_index(0),
                    5,
                    ScheduledRound {
                        start: 0.0,
                        slots: Vec::new(),
                    },
                )],
            )]
            .into(),
            removed_nodes: Vec::new(),
        };
        assert!(apply(&past_append, &old).is_err());
    }
}
