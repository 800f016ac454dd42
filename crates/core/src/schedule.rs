//! The synthesized mode schedule `Sched(M)`.

use crate::ids::{AppId, MessageId, ModeId, TaskId};
use crate::time::Micros;
use std::collections::BTreeMap;
use ttw_milp::SolverCounters;

/// One communication round of a mode schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledRound {
    /// Start time of the round relative to the beginning of the hyperperiod, µs.
    pub start: f64,
    /// Messages allocated to the round's data slots, in slot order
    /// (the paper's allocation vector `r.[B]`, restricted to allocated slots).
    pub slots: Vec<MessageId>,
}

impl ScheduledRound {
    /// Number of allocated data slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the round carries `message` in one of its slots.
    pub fn carries(&self, message: MessageId) -> bool {
        self.slots.contains(&message)
    }
}

/// Counters describing how a schedule was synthesized: what Algorithm 1 and
/// the `AnalyzeFirst` gate did, and the solver's own [`SolverCounters`] —
/// reached through the stats directly (`stats.simplex_iterations`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SynthesisStats {
    /// Round counts attempted by Algorithm 1 (in order, last one succeeded).
    pub rounds_attempted: Vec<usize>,
    /// Number of decision variables of the final (successful) ILP.
    pub variables: usize,
    /// Number of constraints of the final (successful) ILP.
    pub constraints: usize,
    /// `1` when the `AnalyzeFirst` gate rejected this mode on a static
    /// infeasibility certificate before any ILP was built (in which case every
    /// other counter stays 0), `0` otherwise.
    pub analyze_fast_fails: usize,
    /// The solver's counters over all attempts; the ones that describe the
    /// shape of a model are those of the final attempt.
    pub solver: SolverCounters,
}

impl std::ops::Deref for SynthesisStats {
    type Target = SolverCounters;

    fn deref(&self) -> &SolverCounters {
        &self.solver
    }
}

impl std::ops::DerefMut for SynthesisStats {
    fn deref_mut(&mut self) -> &mut SolverCounters {
        &mut self.solver
    }
}

/// The complete static schedule of one operation mode: task offsets, message
/// offsets and deadlines, and the communication rounds with their slot
/// allocations (`Sched(M)` in the paper).
///
/// All offsets are relative to the beginning of the mode hyperperiod and are
/// expressed in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSchedule {
    /// The mode this schedule belongs to.
    pub mode: ModeId,
    /// Mode hyperperiod in µs (LCM of the application periods).
    pub hyperperiod: Micros,
    /// Round length `T_r` used during synthesis, µs.
    pub round_duration: Micros,
    /// Maximum number of data slots per round (`B`).
    pub slots_per_round: usize,
    /// Task offsets `τ.o` (µs, relative to the application release).
    pub task_offsets: BTreeMap<TaskId, f64>,
    /// Message offsets `m.o` (µs, earliest time the message can be served).
    pub message_offsets: BTreeMap<MessageId, f64>,
    /// Message deadlines `m.d` (µs, relative to the message offset).
    pub message_deadlines: BTreeMap<MessageId, f64>,
    /// Communication rounds ordered by start time.
    pub rounds: Vec<ScheduledRound>,
    /// End-to-end latency achieved by each application (µs).
    pub app_latencies: BTreeMap<AppId, f64>,
    /// Sum of all application latencies (the ILP objective, Eq. 49), µs.
    pub total_latency: f64,
    /// Synthesis statistics.
    pub stats: SynthesisStats,
}

impl ModeSchedule {
    /// Number of communication rounds per hyperperiod (`R_M`).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// End time (µs) of round `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn round_end(&self, index: usize) -> f64 {
        self.rounds[index].start + self.round_duration as f64
    }

    /// Offset of a task, if it is part of this mode.
    pub fn task_offset(&self, task: TaskId) -> Option<f64> {
        self.task_offsets.get(&task).copied()
    }

    /// Offset of a message, if it is part of this mode.
    pub fn message_offset(&self, message: MessageId) -> Option<f64> {
        self.message_offsets.get(&message).copied()
    }

    /// Relative deadline of a message, if it is part of this mode.
    pub fn message_deadline(&self, message: MessageId) -> Option<f64> {
        self.message_deadlines.get(&message).copied()
    }

    /// Indices of the rounds that carry `message`, in time order.
    pub fn rounds_carrying(&self, message: MessageId) -> Vec<usize> {
        self.rounds
            .iter()
            .enumerate()
            .filter(|(_, r)| r.carries(message))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total number of allocated data slots over the hyperperiod.
    pub fn total_slots_used(&self) -> usize {
        self.rounds.iter().map(ScheduledRound::num_slots).sum()
    }
}

/// The schedules of every mode of a system, plus the inheritance metadata the
/// mode-graph synthesis pipeline produced (paper Sec. V).
///
/// This is the deployment artifact of multi-mode synthesis: one
/// [`ModeSchedule`] per mode, the record of which applications each mode
/// inherited (and from where), and the per-mode synthesis statistics — the
/// latter kept even for modes whose synthesis *failed*, so partial progress
/// stays reportable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemSchedule {
    /// Successfully synthesized schedules, keyed by mode.
    pub schedules: BTreeMap<ModeId, ModeSchedule>,
    /// For every scheduled mode, the applications whose offsets were
    /// inherited and the mode each was inherited from. The root mode (and any
    /// mode without shared applications) maps to an empty table.
    pub inheritance: BTreeMap<ModeId, BTreeMap<AppId, ModeId>>,
    /// Per-mode synthesis statistics. Contains an entry for every mode that
    /// was *attempted*, including a mode whose synthesis failed — which is how
    /// a partial result reports the work done before the failure.
    pub stats: BTreeMap<ModeId, SynthesisStats>,
}

impl SystemSchedule {
    /// An empty system schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The schedule of `mode`, if it was synthesized.
    pub fn get(&self, mode: ModeId) -> Option<&ModeSchedule> {
        self.schedules.get(&mode)
    }

    /// Number of modes with a schedule.
    pub fn num_modes(&self) -> usize {
        self.schedules.len()
    }

    /// Iterates over the mode schedules in mode-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ModeId, &ModeSchedule)> {
        self.schedules.iter().map(|(&m, s)| (m, s))
    }

    /// Clones the schedules into a vector in mode-id order (the shape the
    /// runtime's slot-table builder consumes).
    pub fn to_vec(&self) -> Vec<ModeSchedule> {
        self.schedules.values().cloned().collect()
    }

    /// The mode `app`'s offsets were inherited from when `mode` was
    /// synthesized, if they were inherited at all.
    pub fn inherited_source(&self, mode: ModeId, app: AppId) -> Option<ModeId> {
        self.inheritance.get(&mode)?.get(&app).copied()
    }

    /// A copy with every [`SynthesisStats`] block zeroed, leaving only the
    /// deployable content: offsets, deadlines, rounds and inheritance.
    ///
    /// Two synthesis runs that reach the same schedules along different
    /// solver paths (cold vs warm-started) differ only in their work
    /// counters; comparing `content_only` serializations is how the
    /// differential harness states "the *schedules* are byte-identical"
    /// without tying the invariant to solver effort.
    pub fn content_only(&self) -> SystemSchedule {
        let mut copy = self.clone();
        for schedule in copy.schedules.values_mut() {
            schedule.stats = SynthesisStats::default();
        }
        for stats in copy.stats.values_mut() {
            *stats = SynthesisStats::default();
        }
        copy
    }

    /// The counters of every attempted mode in one block: sums, except that
    /// `candidate_list_size` is the largest any mode used, and
    /// `rounds_attempted` stays empty.
    pub fn totals(&self) -> SynthesisStats {
        let mut totals = SynthesisStats::default();
        for stats in self.stats.values() {
            totals.variables += stats.variables;
            totals.constraints += stats.constraints;
            totals.analyze_fast_fails += stats.analyze_fast_fails;
            totals.solver.add_mode(&stats.solver);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MessageId, ModeId};

    fn sample_schedule() -> ModeSchedule {
        ModeSchedule {
            mode: ModeId::from_index(0),
            hyperperiod: 100_000,
            round_duration: 10_000,
            slots_per_round: 5,
            task_offsets: BTreeMap::new(),
            message_offsets: BTreeMap::new(),
            message_deadlines: BTreeMap::new(),
            rounds: vec![
                ScheduledRound {
                    start: 0.0,
                    slots: vec![MessageId::from_index(0), MessageId::from_index(1)],
                },
                ScheduledRound {
                    start: 40_000.0,
                    slots: vec![MessageId::from_index(0)],
                },
            ],
            app_latencies: BTreeMap::new(),
            total_latency: 0.0,
            stats: SynthesisStats::default(),
        }
    }

    #[test]
    fn round_accessors() {
        let s = sample_schedule();
        assert_eq!(s.num_rounds(), 2);
        assert_eq!(s.round_end(0), 10_000.0);
        assert_eq!(s.total_slots_used(), 3);
        assert!(s.rounds[0].carries(MessageId::from_index(1)));
        assert!(!s.rounds[1].carries(MessageId::from_index(1)));
    }

    #[test]
    fn rounds_carrying_lists_indices_in_order() {
        let s = sample_schedule();
        assert_eq!(s.rounds_carrying(MessageId::from_index(0)), vec![0, 1]);
        assert_eq!(s.rounds_carrying(MessageId::from_index(1)), vec![0]);
        assert!(s.rounds_carrying(MessageId::from_index(9)).is_empty());
    }

    #[test]
    fn schedule_serializes_round_trip() {
        let s = sample_schedule();
        let json = crate::export::schedule_to_json(&s).expect("serialize");
        let back = crate::export::schedule_from_json(&json).expect("deserialize");
        assert_eq!(s, back);
    }

    #[test]
    fn system_schedule_aggregates_stats_and_metadata() {
        let mut ss = SystemSchedule::new();
        let mode = ModeId::from_index(0);
        let mut sched = sample_schedule();
        sched.stats.nodes_explored = 7;
        sched.stats.simplex_iterations = 11;
        sched.stats.cuts_added = 4;
        sched.stats.cut_rounds = 2;
        sched.stats.pump_incumbents = 1;
        sched.stats.candidate_list_size = 4;
        ss.stats.insert(mode, sched.stats.clone());
        ss.schedules.insert(mode, sched);
        ss.inheritance.insert(mode, BTreeMap::new());
        // A second mode that was attempted but failed still contributes stats.
        let failed = ModeId::from_index(1);
        ss.stats.insert(
            failed,
            SynthesisStats {
                rounds_attempted: vec![1, 2],
                analyze_fast_fails: 1,
                solver: SolverCounters {
                    nodes_explored: 3,
                    simplex_iterations: 5,
                    cuts_added: 1,
                    strong_branch_probes: 6,
                    candidate_list_size: 9,
                    ..SolverCounters::default()
                },
                ..SynthesisStats::default()
            },
        );
        assert_eq!(ss.num_modes(), 1);
        assert!(ss.get(mode).is_some());
        assert!(ss.get(failed).is_none());
        let totals = ss.totals();
        assert_eq!(totals.nodes_explored, 10);
        assert_eq!(totals.simplex_iterations, 16);
        assert_eq!(totals.cuts_added, 5);
        assert_eq!(totals.cut_rounds, 2);
        assert_eq!(totals.pseudocost_branchings, 0);
        assert_eq!(totals.strong_branch_probes, 6);
        assert_eq!(totals.pump_incumbents, 1);
        assert_eq!(totals.analyze_fast_fails, 1);
        assert_eq!(totals.candidate_list_size, 9, "the widest, not the sum");
        assert!(totals.rounds_attempted.is_empty());
        assert_eq!(ss.to_vec().len(), 1);
        assert_eq!(
            ss.inherited_source(mode, crate::ids::AppId::from_index(0)),
            None
        );
    }
}
