//! Declarative, seeded fault plans for the runtime simulation.
//!
//! A [`FaultPlan`] describes *what goes wrong and when* — burst loss,
//! network partitions, per-node clock drift, beacon bit-corruption and host
//! crash windows — independently of the simulation that executes it. Plans
//! are plain data (`Clone + PartialEq`), fully determined by their fields and
//! `seed`, so a failing scenario reproduces from its constructor arguments
//! alone.
//!
//! The fault machinery is carefully kept *off* the base RNG streams: burst
//! loss runs on its own [`SplitMix64`] inside [`crate::link::LinkModel`],
//! beacon corruption is sampled statelessly per `(round, node)`, and
//! partitions/crashes consume no randomness at all. A vacuous plan (see
//! [`FaultPlan::none`]) therefore leaves a simulation byte-identical to one
//! with no plan installed.

use crate::link::GilbertElliott;
use crate::rng::SplitMix64;

/// Default clock-alignment tolerance in microseconds.
///
/// Glossy's constructive interference requires transmitters to be aligned to
/// within ~0.5 µs, but receivers tolerate a much larger guard before they can
/// no longer lock onto the flood at all; the extended TTW paper budgets guard
/// times in the tens of microseconds. 100 µs is a deliberately generous bound
/// so that only *faulted* clocks (exaggerated ppm or a step offset) miss
/// beacons, never the ideal clocks of an unfaulted run.
pub const DEFAULT_CLOCK_TOLERANCE_US: f64 = 100.0;

/// A window of rounds during which the network is partitioned.
///
/// Node indices are *system* node indices (the runtime maps them onto
/// topology vertices via its placement). Every listed island is isolated from
/// the mainland — the host plus all unlisted nodes — and from every other
/// island. The partition holds for rounds `from_round ..= until_round` and
/// heals afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First executed-round sequence number affected.
    pub from_round: usize,
    /// Last executed-round sequence number affected (inclusive).
    pub until_round: usize,
    /// Groups of system node indices cut off from the host side.
    pub islands: Vec<Vec<usize>>,
}

/// A faulty clock on one node: a step offset plus a constant drift rate.
///
/// The values are deliberately exaggerated compared to real crystal
/// oscillators (tens of ppm): the simulation is round-grained, so drift must
/// accumulate past the tolerance within a handful of hyperperiods to be
/// observable at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockFault {
    /// System node index the fault applies to.
    pub node: usize,
    /// Drift rate in parts per million (µs of error per second of silence).
    pub ppm: f64,
    /// Step error present at simulation start, in microseconds.
    pub offset_us: f64,
}

/// Random bit-corruption of received beacon frames.
#[derive(Debug, Clone, PartialEq)]
pub struct BeaconCorruption {
    /// Per-(round, node) probability that a received beacon arrives corrupted.
    pub probability: f64,
    /// `(round, node)` pairs corrupted unconditionally — for deterministic
    /// repros independent of the sampled stream; rounds count executed rounds
    /// from 0. A delivered forced beacon fails its checksum (and counts as
    /// corrupted) and a lost one is a miss anyway, so this makes targeted
    /// scenarios (e.g. "the actuator misses exactly the mode-change trigger
    /// beacon") deterministic and reproducible.
    pub forced: Vec<(usize, usize)>,
}

/// A window of rounds during which the host is down.
///
/// A crashed host emits no beacons and keeps its radio off, but its round
/// clock keeps ticking (the schedule is a global time base, not a host-local
/// one), so beacons resume on-grid after the restart. An in-flight mode
/// change survives the crash and is re-announced from the restart round on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// First executed-round sequence number with the host down.
    pub from_round: usize,
    /// Last executed-round sequence number with the host down (inclusive).
    pub until_round: usize,
}

/// A complete, seeded description of every fault injected into one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all randomized fault machinery (burst chain, corruption).
    pub seed: u64,
    /// Gilbert–Elliott burst-loss overlay applied to every directed link.
    pub burst: Option<GilbertElliott>,
    /// Timed network partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Per-node clock faults.
    pub clock_faults: Vec<ClockFault>,
    /// Clock error beyond which a synchronized node can no longer decode
    /// beacons, in microseconds.
    pub clock_tolerance_us: f64,
    /// Beacon bit-corruption model.
    pub beacon_corruption: Option<BeaconCorruption>,
    /// Host crash/restart windows.
    pub host_crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing. Installing it must leave the simulation
    /// byte-identical to not installing a plan at all (tested end-to-end in
    /// the fault-matrix harness).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            burst: None,
            partitions: Vec::new(),
            clock_faults: Vec::new(),
            clock_tolerance_us: DEFAULT_CLOCK_TOLERANCE_US,
            beacon_corruption: None,
            host_crashes: Vec::new(),
        }
    }

    /// `true` when the plan injects no fault of any kind.
    pub fn is_vacuous(&self) -> bool {
        self.burst.is_none()
            && self.partitions.is_empty()
            && self.clock_faults.is_empty()
            && self
                .beacon_corruption
                .as_ref()
                .map_or(true, |c| c.probability == 0.0 && c.forced.is_empty())
            && self.host_crashes.is_empty()
    }

    /// Checks the plan against a system with `num_nodes` nodes.
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        if let Some(burst) = &self.burst {
            burst.validate()?;
        }
        for window in &self.partitions {
            if window.until_round < window.from_round {
                return Err(format!(
                    "partition window {}..={} is empty",
                    window.from_round, window.until_round
                ));
            }
            for island in &window.islands {
                if island.is_empty() {
                    return Err("partition island is empty".to_string());
                }
                for &node in island {
                    if node >= num_nodes {
                        return Err(format!(
                            "partition island names node {node}, system has {num_nodes}"
                        ));
                    }
                }
            }
        }
        for fault in &self.clock_faults {
            if fault.node >= num_nodes {
                return Err(format!(
                    "clock fault names node {}, system has {num_nodes}",
                    fault.node
                ));
            }
            if !fault.ppm.is_finite() || !fault.offset_us.is_finite() {
                return Err("clock fault parameters must be finite".to_string());
            }
        }
        if !(self.clock_tolerance_us.is_finite() && self.clock_tolerance_us > 0.0) {
            return Err(format!(
                "clock tolerance must be positive and finite, got {}",
                self.clock_tolerance_us
            ));
        }
        if let Some(corruption) = &self.beacon_corruption {
            if !(0.0..=1.0).contains(&corruption.probability) {
                return Err(format!(
                    "beacon corruption probability must be in [0, 1], got {}",
                    corruption.probability
                ));
            }
            for &(_, node) in &corruption.forced {
                if node >= num_nodes {
                    return Err(format!(
                        "forced corruption names node {node}, system has {num_nodes}"
                    ));
                }
            }
        }
        for window in &self.host_crashes {
            if window.until_round < window.from_round {
                return Err(format!(
                    "crash window {}..={} is empty",
                    window.from_round, window.until_round
                ));
            }
        }
        Ok(())
    }

    /// Whether the host is down during executed round `round`.
    pub fn host_crashed_at(&self, round: usize) -> bool {
        self.host_crashes
            .iter()
            .any(|w| (w.from_round..=w.until_round).contains(&round))
    }

    /// The partition window active at `round`, if any. Overlapping windows
    /// resolve to the first one declared.
    pub fn partition_at(&self, round: usize) -> Option<&PartitionWindow> {
        self.partition_index_at(round).map(|i| &self.partitions[i])
    }

    /// Index into [`Self::partitions`] of the window [`Self::partition_at`]
    /// returns for `round`.
    pub fn partition_index_at(&self, round: usize) -> Option<usize> {
        self.partitions
            .iter()
            .position(|w| (w.from_round..=w.until_round).contains(&round))
    }

    /// Whether the beacon received by `node` in `round` arrives corrupted.
    ///
    /// Sampled statelessly: the verdict for a `(round, node)` pair depends
    /// only on the plan seed, so it is independent of which other beacons
    /// were delivered — a reception elsewhere never reshuffles corruption.
    pub fn beacon_corrupted(&self, round: usize, node: usize) -> bool {
        let Some(corruption) = &self.beacon_corruption else {
            return false;
        };
        if corruption.forced.contains(&(round, node)) {
            return true;
        }
        if corruption.probability <= 0.0 {
            return false;
        }
        self.corruption_rng(round, node).next_f64() < corruption.probability
    }

    /// Flips one deterministic bit of `frame` for the `(round, node)` pair.
    pub fn corrupt_frame(&self, round: usize, node: usize, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let mut rng = self.corruption_rng(round, node);
        // Skip the Bernoulli draw so forced corruptions (which never made it)
        // still pick a well-distributed bit.
        let _ = rng.next_f64();
        let bit = (rng.next_u64() % (frame.len() as u64 * 8)) as usize;
        frame[bit / 8] ^= 1 << (bit % 8);
    }

    fn corruption_rng(&self, round: usize, node: usize) -> SplitMix64 {
        // SplitMix64's state update is itself a strong mixer, so seeding with
        // a cheap combination of (seed, round, node) is enough to decorrelate
        // neighbouring pairs.
        let mix = (round as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(node as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        SplitMix64::new(self.seed ^ mix)
    }
}

/// The simulated clock of one faulted node.
///
/// Error grows linearly at `ppm` while the node is not synchronizing and
/// collapses to zero on every successful beacon reception (Glossy floods
/// double as time-sync beacons). The initial `offset_us` models a step error
/// present before the first sync.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockState {
    fault: ClockFault,
    /// Absolute µs timestamp of the last successful sync, if any.
    last_sync_us: Option<u64>,
}

impl ClockState {
    /// A clock with the given fault, not yet synced.
    pub fn new(fault: ClockFault) -> Self {
        ClockState {
            fault,
            last_sync_us: None,
        }
    }

    /// The fault this clock runs under.
    pub fn fault(&self) -> ClockFault {
        self.fault
    }

    /// Absolute clock error at time `now_us`, in microseconds.
    pub fn error_us(&self, now_us: u64) -> f64 {
        match self.last_sync_us {
            None => self.fault.offset_us.abs() + self.fault.ppm.abs() * 1e-6 * now_us as f64,
            Some(sync) => {
                let silent = now_us.saturating_sub(sync) as f64;
                self.fault.ppm.abs() * 1e-6 * silent
            }
        }
    }

    /// Whether the clock is within `tolerance_us` of the network at `now_us`.
    pub fn aligned(&self, now_us: u64, tolerance_us: f64) -> bool {
        self.error_us(now_us) <= tolerance_us
    }

    /// Records a successful sync (a decoded beacon) at `now_us`: the step
    /// offset and accumulated drift are corrected.
    pub fn resync(&mut self, now_us: u64) {
        self.last_sync_us = Some(now_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_with_corruption(probability: f64) -> FaultPlan {
        FaultPlan {
            seed: 42,
            beacon_corruption: Some(BeaconCorruption {
                probability,
                forced: vec![(7, 1)],
            }),
            ..FaultPlan::none()
        }
    }

    #[test]
    fn vacuous_plan_detects_itself() {
        assert!(FaultPlan::none().is_vacuous());
        assert!(FaultPlan {
            beacon_corruption: Some(BeaconCorruption {
                probability: 0.0,
                forced: vec![],
            }),
            ..FaultPlan::none()
        }
        .is_vacuous());
        assert!(
            !plan_with_corruption(0.0).is_vacuous(),
            "forced pair counts"
        );
        assert!(!FaultPlan {
            host_crashes: vec![CrashWindow {
                from_round: 1,
                until_round: 2,
            }],
            ..FaultPlan::none()
        }
        .is_vacuous());
    }

    #[test]
    fn validation_catches_out_of_range_nodes_and_bad_windows() {
        assert!(FaultPlan::none().validate(3).is_ok());
        let bad_island = FaultPlan {
            partitions: vec![PartitionWindow {
                from_round: 0,
                until_round: 5,
                islands: vec![vec![3]],
            }],
            ..FaultPlan::none()
        };
        assert!(bad_island.validate(3).is_err());
        assert!(bad_island.validate(4).is_ok());
        let empty_window = FaultPlan {
            host_crashes: vec![CrashWindow {
                from_round: 5,
                until_round: 4,
            }],
            ..FaultPlan::none()
        };
        assert!(empty_window.validate(3).is_err());
        let bad_clock = FaultPlan {
            clock_faults: vec![ClockFault {
                node: 9,
                ppm: 1000.0,
                offset_us: 0.0,
            }],
            ..FaultPlan::none()
        };
        assert!(bad_clock.validate(3).is_err());
        let bad_tolerance = FaultPlan {
            clock_tolerance_us: 0.0,
            ..FaultPlan::none()
        };
        assert!(bad_tolerance.validate(3).is_err());
    }

    #[test]
    fn crash_and_partition_windows_are_inclusive() {
        let plan = FaultPlan {
            partitions: vec![PartitionWindow {
                from_round: 2,
                until_round: 4,
                islands: vec![vec![0]],
            }],
            host_crashes: vec![CrashWindow {
                from_round: 6,
                until_round: 6,
            }],
            ..FaultPlan::none()
        };
        assert!(plan.partition_at(1).is_none());
        assert!(plan.partition_at(2).is_some());
        assert!(plan.partition_at(4).is_some());
        assert!(plan.partition_at(5).is_none());
        assert!(!plan.host_crashed_at(5));
        assert!(plan.host_crashed_at(6));
        assert!(!plan.host_crashed_at(7));
    }

    #[test]
    fn corruption_sampling_is_stateless_and_seeded() {
        let plan = plan_with_corruption(0.5);
        let verdicts: Vec<bool> = (0..64).map(|r| plan.beacon_corrupted(r, 0)).collect();
        assert_eq!(
            verdicts,
            (0..64)
                .map(|r| plan.beacon_corrupted(r, 0))
                .collect::<Vec<_>>(),
            "same pair, same verdict"
        );
        let hits = verdicts.iter().filter(|&&v| v).count();
        assert!((16..=48).contains(&hits), "roughly half corrupted: {hits}");
        let other_seed = FaultPlan {
            seed: 43,
            ..plan_with_corruption(0.5)
        };
        assert_ne!(
            verdicts,
            (0..64)
                .map(|r| other_seed.beacon_corrupted(r, 0))
                .collect::<Vec<_>>()
        );
        assert!(plan.beacon_corrupted(7, 1), "forced pair always corrupts");
        assert!(!plan_with_corruption(0.0).beacon_corrupted(3, 0));
    }

    #[test]
    fn corrupt_frame_flips_exactly_one_bit() {
        let plan = plan_with_corruption(1.0);
        let mut frame = [0xAAu8; 4];
        plan.corrupt_frame(3, 2, &mut frame);
        let flipped: u32 = frame
            .iter()
            .zip([0xAAu8; 4])
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        let mut again = [0xAAu8; 4];
        plan.corrupt_frame(3, 2, &mut again);
        assert_eq!(frame, again, "deterministic per (round, node)");
    }

    #[test]
    fn clock_error_accumulates_and_resync_clears_it() {
        let mut clock = ClockState::new(ClockFault {
            node: 0,
            ppm: 1000.0,
            offset_us: 150.0,
        });
        // Unsynced: step offset dominates immediately.
        assert!(clock.error_us(0) >= 150.0);
        assert!(!clock.aligned(0, 100.0));
        clock.resync(1_000_000);
        assert_eq!(clock.error_us(1_000_000), 0.0);
        assert!(clock.aligned(1_000_000, 100.0));
        // 1000 ppm ⇒ 1000 µs of error per second of silence.
        assert!((clock.error_us(2_000_000) - 1000.0).abs() < 1e-9);
        assert!(!clock.aligned(2_000_000, 100.0));
        clock.resync(2_000_000);
        assert!(clock.aligned(2_000_000, 100.0));
    }

    #[test]
    fn drift_free_clock_stays_aligned_forever() {
        let clock = ClockState::new(ClockFault {
            node: 1,
            ppm: 0.0,
            offset_us: 0.0,
        });
        assert!(clock.aligned(u64::MAX, DEFAULT_CLOCK_TOLERANCE_US));
    }
}
