//! The TTW host: round sequencing, beacon generation and mode changes.

use crate::beacon::Beacon;
use crate::error::RuntimeError;
use crate::slot_table::ModeTable;
use std::collections::BTreeMap;
use ttw_core::ModeId;

/// One round as emitted by the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRound {
    /// Absolute start time of the round, µs.
    pub start: u64,
    /// Mode the round belongs to (the *executing* mode, which during a mode
    /// change differs from the mode announced in the beacon).
    pub mode: ModeId,
    /// Index of the round within its mode.
    pub index: usize,
    /// Beacon flooded at the beginning of the round.
    pub beacon: Beacon,
    /// Whether the executing mode switches right after this round completes.
    pub switches_after: bool,
}

/// The central host of the TTW network (Sec. II.B).
///
/// The host owns the mode tables, emits one beacon per round, and implements
/// the two-phase mode change of Fig. 2: after a change is requested, beacons
/// announce the new mode id while the current mode's applications drain; the
/// trigger bit `SB` is set in the last round of the current hyperperiod, and
/// the new mode starts right after that round.
#[derive(Debug, Clone)]
pub struct Host {
    tables: BTreeMap<ModeId, ModeTable>,
    current_mode: ModeId,
    /// Index (within the current mode) of the next round to emit.
    next_index: usize,
    /// Absolute start time (µs) of the current hyperperiod.
    hyperperiod_start: u64,
    pending_change: Option<ModeId>,
}

impl Host {
    /// Creates a host executing `initial_mode` from the given mode tables.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownMode`] if `initial_mode` has no table.
    pub fn new(tables: Vec<ModeTable>, initial_mode: ModeId) -> Result<Self, RuntimeError> {
        let tables: BTreeMap<ModeId, ModeTable> = tables.into_iter().map(|t| (t.mode, t)).collect();
        if !tables.contains_key(&initial_mode) {
            return Err(RuntimeError::UnknownMode { mode: initial_mode });
        }
        Ok(Host {
            tables,
            current_mode: initial_mode,
            next_index: 0,
            hyperperiod_start: 0,
            pending_change: None,
        })
    }

    /// The mode currently being executed.
    pub fn current_mode(&self) -> ModeId {
        self.current_mode
    }

    /// The mode table of the currently executing mode.
    pub fn current_table(&self) -> &ModeTable {
        &self.tables[&self.current_mode]
    }

    /// Table of an arbitrary mode, if known.
    pub fn table(&self, mode: ModeId) -> Option<&ModeTable> {
        self.tables.get(&mode)
    }

    /// All mode tables, keyed by mode.
    pub fn tables(&self) -> &BTreeMap<ModeId, ModeTable> {
        &self.tables
    }

    /// Whether a mode change is currently in progress (phase 1 of Fig. 2).
    pub fn change_in_progress(&self) -> bool {
        self.pending_change.is_some()
    }

    /// Requests a switch to `target`; the switch completes at the end of the
    /// current hyperperiod (two-phase procedure of Fig. 2).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownMode`] if `target` has no table.
    pub fn request_mode_change(&mut self, target: ModeId) -> Result<(), RuntimeError> {
        if !self.tables.contains_key(&target) {
            return Err(RuntimeError::UnknownMode { mode: target });
        }
        if target != self.current_mode {
            self.pending_change = Some(target);
        }
        Ok(())
    }

    /// Emits the next round: its absolute start time and the beacon to flood.
    /// The slot assignments to execute stay in the host's tables, at
    /// `rounds[index]` of the round's `mode`. Advances the host state,
    /// completing a pending mode change when the trigger round has been
    /// emitted.
    ///
    /// With `host_up` false the host is crashed for this round: the round
    /// clock advances but no beacon is flooded. The schedule is a global time
    /// base, so rounds keep their absolute start times and the host resumes
    /// on-grid after a restart. A pending mode change deliberately survives
    /// the crash un-completed: phase 1 of Fig. 2 cannot progress while no
    /// beacons are flooded (the trigger bit was never distributed), so after
    /// the restart the host re-announces the in-flight change and the switch
    /// happens at the end of a *later* hyperperiod. The returned
    /// [`HostRound`] still describes the round slot layout the schedule
    /// reserves (callers need it for time accounting and to know which slots
    /// desynchronized legacy nodes might fire into); its beacon is the one
    /// the host *would* have sent with no change in progress.
    pub fn next_round(&mut self, host_up: bool) -> HostRound {
        let table = &self.tables[&self.current_mode];
        let round = &table.rounds[self.next_index];
        let is_last_of_hyperperiod = self.next_index + 1 == table.rounds.len();

        let (announced_mode, trigger) = match self.pending_change.filter(|_| host_up) {
            Some(target) => {
                let target_id = self.tables[&target].mode_id;
                (target_id, is_last_of_hyperperiod)
            }
            None => (table.mode_id, false),
        };
        let beacon = Beacon {
            round_id: round.round_id,
            mode_id: announced_mode,
            trigger,
        };
        let host_round = HostRound {
            start: self.hyperperiod_start + round.start,
            mode: self.current_mode,
            index: self.next_index,
            beacon,
            switches_after: trigger,
        };

        // Advance to the next round / hyperperiod / mode.
        if is_last_of_hyperperiod {
            self.hyperperiod_start += table.hyperperiod;
            self.next_index = 0;
            if trigger {
                self.current_mode = self.pending_change.take().expect("trigger implies pending");
            }
        } else {
            self.next_index += 1;
        }

        host_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_table::build_mode_tables;
    use ttw_core::synthesis::IlpSynthesizer;
    use ttw_core::time::millis;
    use ttw_core::{fixtures, synthesis, ModeGraph, SchedulerConfig};

    fn two_mode_host() -> (Host, ModeId, ModeId) {
        let (sys, normal, emergency) = fixtures::two_mode_system();
        let config = SchedulerConfig::new(millis(10), 5);
        let graph = ModeGraph::complete(&sys);
        let schedules = synthesis::synthesize_system(&sys, &graph, &config, &IlpSynthesizer)
            .expect("feasible")
            .to_vec();
        let tables = build_mode_tables(&sys, &schedules).expect("tables build");
        (Host::new(tables, normal).expect("host"), normal, emergency)
    }

    #[test]
    fn rounds_are_emitted_in_cyclic_order_with_increasing_time() {
        let (mut host, normal, _) = two_mode_host();
        let per_hyperperiod = host.current_table().rounds.len();
        let mut last_start = 0;
        for i in 0..3 * per_hyperperiod {
            let round = host.next_round(true);
            assert_eq!(round.mode, normal);
            assert_eq!(round.index, i % per_hyperperiod);
            assert!(round.start >= last_start);
            last_start = round.start;
            let entry = &host.current_table().rounds[round.index];
            assert_eq!(entry.round_id, round.beacon.round_id);
            assert!(!round.beacon.trigger);
        }
    }

    #[test]
    fn unknown_initial_mode_rejected() {
        let (sys, normal, _) = fixtures::two_mode_system();
        let config = SchedulerConfig::new(millis(10), 5);
        let s1 = synthesis::synthesize_mode(&sys, normal, &config).expect("feasible");
        let tables = build_mode_tables(&sys, &[s1]).expect("tables build");
        let missing = ttw_core::ModeId::from_index(7);
        assert!(matches!(
            Host::new(tables, missing),
            Err(RuntimeError::UnknownMode { .. })
        ));
    }

    #[test]
    fn mode_change_follows_fig2_two_phases() {
        let (mut host, normal, emergency) = two_mode_host();
        // Execute the first round of the normal mode, then request the change.
        let first = host.next_round(true);
        assert!(!first.beacon.trigger);
        host.request_mode_change(emergency).expect("known mode");
        assert!(host.change_in_progress());

        // Remaining rounds of the hyperperiod announce the new mode id; only
        // the last one carries the trigger bit.
        let per_hyperperiod = host.table(normal).expect("table").rounds.len();
        let emergency_id = host.table(emergency).expect("table").mode_id;
        for i in 1..per_hyperperiod {
            let round = host.next_round(true);
            assert_eq!(round.mode, normal, "old mode keeps executing in phase 1");
            assert_eq!(
                round.beacon.mode_id, emergency_id,
                "beacon announces the new mode"
            );
            let is_last = i + 1 == per_hyperperiod;
            assert_eq!(round.beacon.trigger, is_last);
            assert_eq!(round.switches_after, is_last);
        }

        // After the trigger round the emergency mode executes.
        let round = host.next_round(true);
        assert_eq!(round.mode, emergency);
        assert_eq!(host.current_mode(), emergency);
        assert!(!host.change_in_progress());
    }

    #[test]
    fn requesting_the_current_mode_is_a_no_op() {
        let (mut host, normal, _) = two_mode_host();
        host.request_mode_change(normal).expect("known mode");
        assert!(!host.change_in_progress());
    }

    #[test]
    fn crash_window_preserves_an_in_flight_mode_change() {
        let (mut host, normal, emergency) = two_mode_host();
        let per_hyperperiod = host.current_table().rounds.len();
        host.request_mode_change(emergency).expect("known mode");

        // The host crashes for more than a full hyperperiod, covering the
        // round that would have carried the trigger bit.
        for _ in 0..per_hyperperiod + 1 {
            let round = host.next_round(false);
            assert_eq!(round.mode, normal, "no switch can complete while down");
            assert!(!round.beacon.trigger);
            assert!(!round.switches_after);
        }
        assert!(
            host.change_in_progress(),
            "the pending change survives the crash"
        );
        assert_eq!(host.current_mode(), normal);

        // After the restart the change is re-announced and completes at the
        // end of the current hyperperiod.
        let emergency_id = host.table(emergency).expect("table").mode_id;
        for i in 1..per_hyperperiod {
            let round = host.next_round(true);
            assert_eq!(round.beacon.mode_id, emergency_id, "re-announced");
            assert_eq!(round.beacon.trigger, i + 1 == per_hyperperiod);
        }
        let round = host.next_round(true);
        assert_eq!(round.mode, emergency, "switch completes after restart");
        assert!(!host.change_in_progress());
    }

    #[test]
    fn a_crashed_round_keeps_the_round_clock_on_grid() {
        let (mut host, _, _) = two_mode_host();
        let mut reference = host.clone();
        // Crash for three rounds: start times and indices must match the
        // uncrashed host exactly afterwards.
        for _ in 0..3 {
            let skipped = host.next_round(false);
            let emitted = reference.next_round(true);
            assert_eq!(skipped.start, emitted.start);
            assert_eq!(skipped.index, emitted.index);
            assert_eq!(skipped.beacon.round_id, emitted.beacon.round_id);
        }
        assert_eq!(
            host.next_round(true).start,
            reference.next_round(true).start
        );
    }

    #[test]
    fn round_start_times_respect_hyperperiod_offsets() {
        let (mut host, _, _) = two_mode_host();
        let hyper = host.current_table().hyperperiod;
        let per_hyperperiod = host.current_table().rounds.len();
        let first_pass: Vec<u64> = (0..per_hyperperiod)
            .map(|_| host.next_round(true).start)
            .collect();
        let second_pass: Vec<u64> = (0..per_hyperperiod)
            .map(|_| host.next_round(true).start)
            .collect();
        for (a, b) in first_pass.iter().zip(&second_pass) {
            assert_eq!(b - a, hyper);
        }
    }
}
