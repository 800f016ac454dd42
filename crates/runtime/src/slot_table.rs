//! Runtime round/slot tables derived from a synthesized schedule.
//!
//! At deployment time every node stores, for each mode, the relative starting
//! times of the mode's rounds and the `(slot id, message id)` pairs it is
//! responsible for (Sec. II.B of the paper). This module derives that
//! information from a [`ModeSchedule`] plus the [`System`] it was synthesized
//! for, and assigns globally unique round ids so that a single beacon is
//! enough for any node to locate itself in the overall schedule.

use crate::error::RuntimeError;
use ttw_core::{MessageId, ModeId, ModeSchedule, NodeId, System};

/// One data slot of a round: which message is sent, by whom, to whom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAssignment {
    /// The message carried by the slot.
    pub message: MessageId,
    /// Node that initiates the flood (the node of the message's sender tasks).
    pub initiator: NodeId,
    /// Nodes that must receive the message (nodes of the successor tasks).
    pub destinations: Vec<NodeId>,
}

/// One communication round of a mode, ready for execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEntry {
    /// Globally unique round id carried in the beacon.
    pub round_id: u8,
    /// Start time of the round relative to the mode hyperperiod, µs.
    pub start: u64,
    /// Slot assignments in slot order.
    pub slots: Vec<SlotAssignment>,
}

/// The executable table of one mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeTable {
    /// The mode this table describes.
    pub mode: ModeId,
    /// 8-bit mode id carried in beacons.
    pub mode_id: u8,
    /// Mode hyperperiod, µs.
    pub hyperperiod: u64,
    /// Round length `T_r` the schedule was synthesized for, µs.
    pub round_duration: u64,
    /// Rounds in execution order.
    pub rounds: Vec<RoundEntry>,
}

impl ModeTable {
    /// Round ids of this mode in execution order.
    pub fn round_ids(&self) -> Vec<u8> {
        self.rounds.iter().map(|r| r.round_id).collect()
    }
}

/// Where one round id sits in its mode's cyclic round sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoundPosition {
    mode_id: u8,
    /// Position within the mode. A single mode may own all 256 round ids, so
    /// the position and the count are wider than a round id.
    position: u16,
    /// Rounds in the mode.
    count: u16,
}

/// Directory of every round id in the system: which mode owns it and at which
/// position it sits in that mode's cyclic round sequence.
///
/// Nodes use this exactly as described in the paper: receiving a single beacon
/// `{round id, mode id, SB}` is enough to know the full system state. Both
/// ids are 8-bit, so the directory is two 256-entry tables indexed by them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundDirectory {
    /// Indexed by round id.
    entries: [Option<RoundPosition>; 256],
    /// Indexed by mode id: the mode's first round id.
    first_round: [Option<u8>; 256],
}

impl Default for RoundDirectory {
    fn default() -> Self {
        RoundDirectory {
            entries: [None; 256],
            first_round: [None; 256],
        }
    }
}

impl RoundDirectory {
    /// Builds the directory from a set of mode tables.
    pub fn new(tables: &[ModeTable]) -> Self {
        let mut directory = RoundDirectory::default();
        for table in tables {
            // `build_mode_tables` admits at most 256 rounds in all.
            let count = table.rounds.len() as u16;
            if let Some(first) = table.rounds.first() {
                directory.first_round[usize::from(table.mode_id)] = Some(first.round_id);
            }
            for (position, round) in table.rounds.iter().enumerate() {
                directory.entries[usize::from(round.round_id)] = Some(RoundPosition {
                    mode_id: table.mode_id,
                    position: position as u16,
                    count,
                });
            }
        }
        directory
    }

    /// Mode id owning `round_id`, if known.
    pub fn mode_of(&self, round_id: u8) -> Option<u8> {
        self.entries[usize::from(round_id)].map(|entry| entry.mode_id)
    }

    /// Mode id owning `round_id` and the round's position within that mode's
    /// round sequence, if known.
    pub fn locate(&self, round_id: u8) -> Option<(u8, usize)> {
        self.entries[usize::from(round_id)]
            .map(|entry| (entry.mode_id, usize::from(entry.position)))
    }

    /// Round id that follows `round_id` in its mode's cyclic sequence.
    ///
    /// Round ids live in a cyclic `u8` space (they are assigned with
    /// `wrapping_add` across modes), so a mode's ids can straddle the 255 → 0
    /// wrap; the offset from the mode's first round must wrap likewise.
    pub fn next_in_mode(&self, round_id: u8) -> Option<u8> {
        let entry = self.entries[usize::from(round_id)]?;
        let first = self.first_round_of(entry.mode_id)?;
        // `count <= 256`, so the step back to the first round fits a `u8`.
        Some(first.wrapping_add(((entry.position + 1) % entry.count) as u8))
    }

    /// First round id of `mode_id`, if the mode has any round.
    pub fn first_round_of(&self, mode_id: u8) -> Option<u8> {
        self.first_round[usize::from(mode_id)]
    }
}

/// Builds the executable [`ModeTable`]s for a set of synthesized schedules,
/// assigning contiguous globally unique round ids across modes.
///
/// # Errors
///
/// * [`RuntimeError::MissingSchedule`] if a schedule has no round — the
///   runtime is round-driven and needs at least one round per mode to
///   distribute beacons.
/// * [`RuntimeError::TooManyModes`] / [`RuntimeError::TooManyRounds`] if ids
///   do not fit the 3-byte beacon.
pub fn build_mode_tables(
    system: &System,
    schedules: &[ModeSchedule],
) -> Result<Vec<ModeTable>, RuntimeError> {
    if schedules.len() > u8::MAX as usize {
        return Err(RuntimeError::TooManyModes {
            modes: schedules.len(),
        });
    }
    let total_rounds: usize = schedules.iter().map(|s| s.rounds.len()).sum();
    if total_rounds > u8::MAX as usize + 1 {
        return Err(RuntimeError::TooManyRounds {
            rounds: total_rounds,
        });
    }

    let mut tables = Vec::with_capacity(schedules.len());
    let mut next_round_id = 0u8;
    for schedule in schedules {
        if schedule.rounds.is_empty() {
            return Err(RuntimeError::MissingSchedule {
                mode: schedule.mode,
            });
        }
        let mut rounds = Vec::with_capacity(schedule.rounds.len());
        for round in &schedule.rounds {
            let slots = round
                .slots
                .iter()
                .map(|&m| {
                    let message = system.message(m);
                    let destinations = message
                        .successor_tasks
                        .iter()
                        .map(|&t| system.task(t).node)
                        .collect();
                    SlotAssignment {
                        message: m,
                        initiator: message.source_node,
                        destinations,
                    }
                })
                .collect();
            rounds.push(RoundEntry {
                round_id: next_round_id,
                start: round.start.round().max(0.0) as u64,
                slots,
            });
            next_round_id = next_round_id.wrapping_add(1);
        }
        tables.push(ModeTable {
            mode: schedule.mode,
            mode_id: schedule.mode.index() as u8,
            hyperperiod: schedule.hyperperiod,
            round_duration: schedule.round_duration,
            rounds,
        });
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttw_core::synthesis::IlpSynthesizer;
    use ttw_core::time::millis;
    use ttw_core::{fixtures, synthesis, ModeGraph, SchedulerConfig};

    fn fig3_tables() -> (System, Vec<ModeTable>) {
        let (sys, mode) = fixtures::fig3_system();
        let config = SchedulerConfig::new(millis(10), 5);
        let schedule = synthesis::synthesize_mode(&sys, mode, &config).expect("feasible");
        let tables = build_mode_tables(&sys, &[schedule]).expect("tables build");
        (sys, tables)
    }

    #[test]
    fn fig3_table_has_three_slots_total() {
        let (_, tables) = fig3_tables();
        assert_eq!(tables.len(), 1);
        let total: usize = tables[0].rounds.iter().map(|r| r.slots.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(tables[0].round_ids(), vec![0, 1]);
    }

    #[test]
    fn multicast_slot_has_two_destinations() {
        let (sys, tables) = fig3_tables();
        let m3 = sys.message_id("ctrl.m3").expect("m3 exists");
        let slot = tables[0]
            .rounds
            .iter()
            .flat_map(|r| r.slots.iter())
            .find(|s| s.message == m3)
            .expect("m3 is allocated");
        assert_eq!(slot.destinations.len(), 2);
        assert_eq!(slot.initiator, sys.node_id("controller").expect("node"));
    }

    #[test]
    fn round_directory_navigation() {
        let (_, tables) = fig3_tables();
        let dir = RoundDirectory::new(&tables);
        assert_eq!(dir.mode_of(0), Some(tables[0].mode_id));
        assert_eq!(dir.next_in_mode(0), Some(1));
        assert_eq!(dir.next_in_mode(1), Some(0), "round sequence is cyclic");
        assert_eq!(dir.first_round_of(tables[0].mode_id), Some(0));
        assert_eq!(dir.locate(1), Some((tables[0].mode_id, 1)));
        assert_eq!(dir.mode_of(99), None);
        assert_eq!(dir.locate(99), None);
    }

    #[test]
    fn round_directory_navigation_across_the_id_wrap() {
        // Round ids are assigned with `wrapping_add`, so a deployment whose
        // id space straddles 255 → 0 is legal; navigation must wrap with it.
        let table = ModeTable {
            mode: ttw_core::ModeId::from_index(0),
            mode_id: 9,
            hyperperiod: 100_000,
            round_duration: 10_000,
            rounds: [254u8, 255, 0, 1]
                .iter()
                .map(|&round_id| RoundEntry {
                    round_id,
                    start: 0,
                    slots: vec![],
                })
                .collect(),
        };
        let dir = RoundDirectory::new(&[table]);
        assert_eq!(dir.first_round_of(9), Some(254));
        assert_eq!(dir.next_in_mode(254), Some(255));
        assert_eq!(dir.next_in_mode(255), Some(0), "wraps 255 -> 0");
        assert_eq!(dir.next_in_mode(0), Some(1));
        assert_eq!(dir.next_in_mode(1), Some(254), "cycles back to the first");
        assert_eq!(dir.mode_of(0), Some(9));
    }

    #[test]
    fn round_directory_cycles_a_mode_owning_all_256_round_ids() {
        // `build_mode_tables` admits 256 rounds in all, so one mode may own
        // every id; its count used to be stored as `256 as u8 = 0`.
        let table = ModeTable {
            mode: ttw_core::ModeId::from_index(0),
            mode_id: 0,
            hyperperiod: 2_560_000,
            round_duration: 10_000,
            rounds: (0..=u8::MAX)
                .map(|round_id| RoundEntry {
                    round_id,
                    start: u64::from(round_id) * 10_000,
                    slots: vec![],
                })
                .collect(),
        };
        let dir = RoundDirectory::new(&[table]);
        assert_eq!(dir.next_in_mode(0), Some(1));
        assert_eq!(dir.next_in_mode(254), Some(255));
        assert_eq!(dir.next_in_mode(255), Some(0), "cycles back to the first");
        assert_eq!(dir.locate(255), Some((0, 255)));
    }

    #[test]
    fn two_modes_get_disjoint_round_ids() {
        let (sys, _, _) = fixtures::two_mode_system();
        let config = SchedulerConfig::new(millis(10), 5);
        let graph = ModeGraph::complete(&sys);
        let schedules = synthesis::synthesize_system(&sys, &graph, &config, &IlpSynthesizer)
            .expect("feasible")
            .to_vec();
        let tables = build_mode_tables(&sys, &schedules).expect("tables build");
        let ids1 = tables[0].round_ids();
        let ids2 = tables[1].round_ids();
        assert!(ids1.iter().all(|id| !ids2.contains(id)));
    }

    #[test]
    fn empty_schedule_rejected() {
        let (sys, mode) = fixtures::synthetic_mode(1, 1, 1, millis(50));
        let config = SchedulerConfig::new(millis(10), 5);
        let schedule = synthesis::synthesize_mode(&sys, mode, &config).expect("feasible");
        assert_eq!(schedule.num_rounds(), 0);
        let err = build_mode_tables(&sys, &[schedule]).unwrap_err();
        assert!(matches!(err, RuntimeError::MissingSchedule { .. }));
    }
}
