//! End-to-end execution of TTW schedules over the simulated network.
//!
//! The [`Simulation`] drives the [`crate::host::Host`] round by round: each
//! round floods a beacon, then executes its data slots as Glossy floods from
//! the slot initiators. Nodes that miss the beacon behave according to the
//! configured [`BeaconLossPolicy`], which lets the benchmarks quantify the
//! safety property of TTW (no collisions under packet loss and mode changes)
//! against a legacy design that keeps transmitting on a local counter.

use crate::beacon::Beacon;
use crate::error::RuntimeError;
use crate::host::Host;
use crate::node::{BeaconLossPolicy, NodeRuntime, RoundBelief};
use crate::safety::SafetyMonitor;
use crate::slot_table::{build_mode_tables, RoundDirectory};
use crate::stats::RuntimeStats;
use ttw_core::{AppId, ModeId, ModeSchedule, ScheduleViolation, System};
use ttw_netsim::faults::{ClockState, FaultPlan};
use ttw_netsim::flood::{Flood, FloodConfig};
use ttw_netsim::link::LinkModel;
use ttw_netsim::radio::RadioAccounting;
use ttw_netsim::topology::Topology;
use ttw_timing::{GlossyConstants, NetworkParams};

/// Where the host and the system nodes sit in the simulated topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePlacement {
    /// Topology index of the TTW host.
    pub host: usize,
    /// Topology index of each system node, indexed by [`ttw_core::NodeId`].
    pub nodes: Vec<usize>,
}

/// Configuration of a runtime simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Application payload size in bytes (the paper's evaluation uses 10 B).
    pub payload: usize,
    /// Independent per-transmission loss probability of every link.
    pub link_loss: f64,
    /// RNG seed (simulations are fully reproducible for a given seed).
    pub seed: u64,
    /// Behaviour of nodes that miss a beacon.
    pub policy: BeaconLossPolicy,
    /// Glossy retransmission count `N`.
    pub retransmissions: usize,
    /// Radio constants used for energy accounting.
    pub constants: GlossyConstants,
    /// Declarative fault injection: burst loss, partitions, clock drift,
    /// beacon corruption and host crash windows (see
    /// [`ttw_netsim::faults`]). `None` — and a vacuous plan — leave the
    /// simulation byte-identical to the fault-free runtime.
    pub faults: Option<FaultPlan>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            payload: 10,
            link_loss: 0.0,
            seed: 1,
            policy: BeaconLossPolicy::SkipRound,
            retransmissions: 2,
            constants: GlossyConstants::table1(),
            faults: None,
        }
    }
}

/// A running TTW network: host, nodes, schedules and the simulated channel.
#[derive(Debug, Clone)]
pub struct Simulation {
    host: Host,
    directory: RoundDirectory,
    node_states: Vec<NodeRuntime>,
    placement: NodePlacement,
    topology: Topology,
    links: LinkModel,
    radio: RadioAccounting,
    flood_config: FloodConfig,
    config: SimulationConfig,
    stats: RuntimeStats,
    /// Mode pairs whose schedules disagree on a shared application's offsets;
    /// a mode change across such a pair is refused (switch consistency).
    switch_conflicts: Vec<(ModeId, ModeId, AppId)>,
    /// Per-node simulated clock, `Some` only for nodes with a clock fault.
    clocks: Vec<Option<ClockState>>,
    /// Per-node: executed-round sequence number at which the node
    /// desynchronized, while it is waiting to rejoin.
    desynced_since: Vec<Option<usize>>,
    monitor: SafetyMonitor,
    /// Index into the fault plan's partitions of the window whose mask is
    /// installed in `links`.
    partition_window: Option<usize>,
    /// The flood engine every beacon and data flood runs on.
    flood: Flood,
    /// Round buffers, cleared and refilled by every round.
    round: RoundBuffers,
}

/// Per-round working state of [`Simulation::execute_round`], kept between
/// rounds so that a round allocates nothing.
#[derive(Debug, Clone, Default)]
struct RoundBuffers {
    /// Per system node: decoded this round's beacon.
    participates: Vec<bool>,
    /// Per system node: the round a node that missed the beacon acts on
    /// anyway (`LegacyTransmit` only).
    ghost_beliefs: Vec<Option<RoundBelief>>,
    /// Per radio (system nodes, then the host): on for the slot.
    radio_on: Vec<bool>,
    /// `(system node, believed mode id)` of every initiator of one data slot.
    transmitters: Vec<(usize, u8)>,
}

impl Simulation {
    /// Creates a simulation of `system` executing `schedules`, starting in
    /// `initial_mode`, over an explicit topology and node placement.
    ///
    /// The simulation records which mode pairs are *not* switch-consistent
    /// (shared applications with differing offsets) and refuses mode-change
    /// requests across them — asserting at mode-change time the property the
    /// two-phase procedure of Fig. 2 silently assumes. Schedules from the
    /// mode-graph synthesis pipeline have no such pair.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if a schedule is unusable (no rounds, too
    /// many rounds/modes for the beacon encoding), if the placement does not
    /// cover every system node, or if `initial_mode` has no schedule.
    pub fn new(
        system: &System,
        schedules: &[ModeSchedule],
        initial_mode: ModeId,
        topology: Topology,
        placement: NodePlacement,
        config: SimulationConfig,
    ) -> Result<Self, RuntimeError> {
        let required = system.num_nodes() + 1;
        if placement.nodes.len() < system.num_nodes() {
            return Err(RuntimeError::TopologyTooSmall {
                required,
                available: placement.nodes.len() + 1,
            });
        }
        for &idx in placement
            .nodes
            .iter()
            .chain(std::iter::once(&placement.host))
        {
            if idx >= topology.num_nodes() {
                return Err(RuntimeError::InvalidPlacement { index: idx });
            }
        }

        if let Some(plan) = &config.faults {
            plan.validate(system.num_nodes())
                .map_err(|reason| RuntimeError::InvalidFaultPlan { reason })?;
        }

        let tables = build_mode_tables(system, schedules)?;
        let directory = RoundDirectory::new(&tables);
        let switch_conflicts = switch_conflicts(system, schedules);
        let initial_table = tables
            .iter()
            .find(|t| t.mode == initial_mode)
            .ok_or(RuntimeError::UnknownMode { mode: initial_mode })?;
        let first_round = initial_table.rounds[0].round_id;
        let initial_mode_id = initial_table.mode_id;

        let node_states = system
            .nodes()
            .map(|(id, _)| NodeRuntime::new(id, first_round, initial_mode_id, config.policy))
            .collect();

        let network = NetworkParams::new(topology.diameter().max(1), config.retransmissions);
        let radio = RadioAccounting::new(system.num_nodes() + 1, config.constants, network);
        let mut links = if config.link_loss > 0.0 {
            LinkModel::uniform(config.link_loss, config.seed)
        } else {
            LinkModel::perfect()
        };
        let mut clocks: Vec<Option<ClockState>> = vec![None; system.num_nodes()];
        if let Some(plan) = &config.faults {
            if let Some(params) = plan.burst {
                // The burst overlay gets its own stream derived from the
                // plan's seed, so the base channel draws stay untouched.
                links = links.with_burst(params, plan.seed.wrapping_add(0x0062_7572_7374));
            }
            for fault in &plan.clock_faults {
                clocks[fault.node] = Some(ClockState::new(*fault));
            }
        }
        let flood_config = FloodConfig {
            retransmissions: config.retransmissions,
            max_slots: None,
        };
        let host = Host::new(tables, initial_mode)?;
        let monitor = SafetyMonitor::new(system.num_nodes(), initial_mode_id);

        Ok(Simulation {
            host,
            directory,
            node_states,
            placement,
            topology,
            links,
            radio,
            flood_config,
            config,
            stats: RuntimeStats::default(),
            switch_conflicts,
            clocks,
            desynced_since: vec![None; system.num_nodes()],
            monitor,
            partition_window: None,
            flood: Flood::new(),
            round: RoundBuffers::default(),
        })
    }

    /// Convenience constructor: builds a clustered multi-hop topology with the
    /// requested diameter, places the host in the first cluster and spreads
    /// the system nodes over the remaining positions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::new`].
    pub fn with_clustered_topology(
        system: &System,
        schedules: &[ModeSchedule],
        initial_mode: ModeId,
        diameter: usize,
        config: SimulationConfig,
    ) -> Result<Self, RuntimeError> {
        let required = system.num_nodes() + 1;
        let clusters = diameter + 1;
        let cluster_size = required.div_ceil(clusters).max(1);
        let topology = Topology::clustered_line(diameter, cluster_size);
        let placement = NodePlacement {
            host: 0,
            nodes: (1..=system.num_nodes()).collect(),
        };
        Self::new(system, schedules, initial_mode, topology, placement, config)
    }

    /// The mode currently executed by the host.
    pub fn current_mode(&self) -> ModeId {
        self.host.current_mode()
    }

    /// Requests a mode change (two-phase procedure, Fig. 2).
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownMode`] for a mode without a schedule.
    /// * [`RuntimeError::SwitchInconsistent`] if the current and target
    ///   schedules disagree on a shared application's offsets — the change
    ///   would re-time a running application.
    pub fn request_mode_change(&mut self, target: ModeId) -> Result<(), RuntimeError> {
        let from = self.host.current_mode();
        if let Some(&(_, _, app)) = self
            .switch_conflicts
            .iter()
            .find(|&&(a, b, _)| (a, b) == (from, target) || (a, b) == (target, from))
        {
            return Err(RuntimeError::SwitchInconsistent {
                from,
                to: target,
                app,
            });
        }
        self.host.request_mode_change(target)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Per-node radio-on accounting (last index is the host).
    pub fn radio(&self) -> &RadioAccounting {
        &self.radio
    }

    /// Number of rounds per hyperperiod of the currently executing mode.
    pub fn rounds_per_hyperperiod(&self) -> usize {
        self.host.current_table().rounds.len()
    }

    /// Executes `count` communication rounds.
    pub fn run_rounds(&mut self, count: usize) -> &RuntimeStats {
        for _ in 0..count {
            self.execute_round();
        }
        &self.stats
    }

    /// Executes `count` hyperperiods of the currently executing mode
    /// (re-evaluating the round count after each hyperperiod, so mode changes
    /// are handled transparently).
    pub fn run_hyperperiods(&mut self, count: usize) -> &RuntimeStats {
        for _ in 0..count {
            let rounds = self.rounds_per_hyperperiod();
            self.run_rounds(rounds);
        }
        &self.stats
    }

    /// Executes one communication round: beacon flood, data slots, accounting.
    fn execute_round(&mut self) {
        let sequence = self.stats.rounds_executed;

        // --- Fault state for this round. ---
        let crashed = self
            .config
            .faults
            .as_ref()
            .is_some_and(|plan| plan.host_crashed_at(sequence));
        if self.config.faults.is_some() {
            self.apply_partition(sequence);
        }

        if crashed {
            self.stats.host_crash_rounds += 1;
        }
        let host_round = self.host.next_round(!crashed);
        self.stats.rounds_executed += 1;
        if host_round.switches_after {
            self.stats.mode_changes += 1;
            // The emitted trigger beacon fixes the change's identity and its
            // position in the global commit order.
            self.monitor.record_commit(host_round.beacon.mode_id);
        }

        let n = self.node_states.len();
        let now = host_round.start;
        let tolerance = self
            .config
            .faults
            .as_ref()
            .map_or(f64::INFINITY, |plan| plan.clock_tolerance_us);
        let table = self.host.emitted_table();
        let executing_mode_id = table.mode_id;
        let entry = &table.rounds[host_round.index];

        // --- Beacon flood from the host (none while the host is down). ---
        // Its result is read in full by the node loop below, before the
        // first data flood reuses the engine.
        if !crashed {
            self.flood.run(
                &self.topology,
                &mut self.links,
                self.placement.host,
                &self.flood_config,
            );
        }
        let round = &mut self.round;
        round.participates.clear();
        round.participates.resize(n, false);
        round.ghost_beliefs.clear();
        round.ghost_beliefs.resize(n, None);
        for i in 0..n {
            let topo_idx = self.placement.nodes[i];
            // A desynchronized node listens continuously, so slot alignment
            // is irrelevant to it; a synchronized node whose clock drifted
            // past the tolerance can no longer hit the beacon slot.
            let aligned = self.node_states[i].is_desynced()
                || match &self.clocks[i] {
                    Some(clock) => clock.aligned(now, tolerance),
                    None => true,
                };
            let channel_ok = !crashed && self.flood.received()[topo_idx];
            let mut decoded = None;
            if channel_ok && aligned {
                // Receptions go through the real wire format so the checksum
                // is load-bearing: a corrupted frame is detected, counted,
                // and treated as a miss.
                let mut frame = host_round.beacon.encode();
                if let Some(plan) = &self.config.faults {
                    if plan.beacon_corrupted(sequence, i) {
                        plan.corrupt_frame(sequence, i, &mut frame);
                    }
                }
                match Beacon::decode(frame) {
                    Ok(beacon) => decoded = Some(beacon),
                    Err(_) => self.stats.beacons_corrupted += 1,
                }
            }
            match decoded {
                Some(beacon) => {
                    round.participates[i] = true;
                    self.node_states[i].on_beacon(beacon, &self.directory);
                    if let Some(clock) = &mut self.clocks[i] {
                        clock.resync(now);
                    }
                    if beacon.trigger {
                        self.monitor
                            .node_observed_commit(i, beacon.mode_id, sequence);
                    }
                    if let Some(since) = self.desynced_since[i].take() {
                        self.stats.rejoins += 1;
                        self.stats.rejoin_rounds_total += sequence - since;
                    }
                }
                None => {
                    self.stats.beacons_missed += 1;
                    let belief = self.node_states[i].on_beacon_missed(&self.directory);
                    if belief.is_none() {
                        self.stats.rounds_skipped += 1;
                    }
                    round.ghost_beliefs[i] = belief;
                    if self.node_states[i].is_desynced() && self.desynced_since[i].is_none() {
                        self.desynced_since[i] = Some(sequence);
                        self.stats.resync_dropouts += 1;
                    }
                }
            }
        }

        // --- Data slots. ---
        // A slot's transmitters are distinct nodes.
        round.transmitters.reserve(n);
        for (slot_idx, slot) in entry.slots.iter().enumerate() {
            let legit = slot.initiator.index();
            let transmitters = &mut round.transmitters;
            transmitters.clear();
            if round.participates[legit] {
                transmitters.push((legit, executing_mode_id));
            }
            for (i, belief) in round.ghost_beliefs.iter().enumerate() {
                if let Some(belief) = belief {
                    if node_initiates(&self.host, &self.directory, i, belief.round_id, slot_idx)
                        && !transmitters.iter().any(|&(t, _)| t == i)
                    {
                        transmitters.push((i, belief.mode_id));
                    }
                }
            }
            self.monitor.check_slot(sequence, slot_idx, transmitters);

            match transmitters.len() {
                0 => self.stats.slots_unused += 1,
                1 if transmitters[0].0 == legit && round.participates[legit] => {
                    self.stats.messages_attempted += 1;
                    self.flood.run(
                        &self.topology,
                        &mut self.links,
                        self.placement.nodes[legit],
                        &self.flood_config,
                    );
                    let delivered = slot.destinations.iter().all(|d| {
                        let di = d.index();
                        round.participates[di] && self.flood.received()[self.placement.nodes[di]]
                    });
                    if delivered {
                        self.stats.messages_delivered += 1;
                    }
                }
                1 => {
                    // A lone out-of-sync node transmitted in somebody else's
                    // slot; the scheduled message was not sent at all.
                    self.stats.slots_unused += 1;
                }
                _ => {
                    // Two or more concurrent initiators with *different*
                    // packets: the constructive-interference assumption of
                    // Glossy breaks and the slot is lost for everyone.
                    self.stats.collisions += 1;
                    if round.participates[legit] {
                        self.stats.messages_attempted += 1;
                    }
                }
            }
        }

        // --- Radio accounting. ---
        // Every node listens for the beacon (nodes cannot know the host is
        // down); the host's radio is off while crashed. Only nodes that
        // received the beacon (or erroneously believe they participate, or
        // are desynchronized and listening for a rejoin beacon) stay on for
        // the data slots.
        let radio_on = &mut round.radio_on;
        radio_on.clear();
        radio_on.resize(n + 1, true);
        radio_on[n] = !crashed;
        self.radio
            .record_slot(radio_on, self.config.constants.l_beacon);
        for (i, on) in radio_on[..n].iter_mut().enumerate() {
            let listening_wide = self.node_states[i].is_desynced();
            if listening_wide {
                self.stats.rejoin_listen_rounds += 1;
            }
            *on = round.participates[i] || round.ghost_beliefs[i].is_some() || listening_wide;
        }
        for _ in 0..entry.slots.len() {
            self.radio.record_slot(radio_on, self.config.payload);
        }

        self.stats.safety_violations = self.monitor.total_violations();
        self.stats.elapsed_micros = host_round.start + self.host.current_table().round_duration;
    }

    /// Applies (or heals) the fault plan's partition for executed round
    /// `sequence`, translating system node indices to topology indices. The
    /// mask is rebuilt only when the active window changes.
    fn apply_partition(&mut self, sequence: usize) {
        let Some(plan) = &self.config.faults else {
            return;
        };
        let active = plan.partition_index_at(sequence);
        if active == self.partition_window {
            return;
        }
        self.partition_window = active;
        let groups = active.map(|index| {
            // Group 0 is the mainland (host + unlisted nodes); every island
            // gets its own group id.
            let mut assignment = vec![0usize; self.topology.num_nodes()];
            for (island_idx, island) in plan.partitions[index].islands.iter().enumerate() {
                for &node in island {
                    assignment[self.placement.nodes[node]] = island_idx + 1;
                }
            }
            assignment
        });
        self.links.set_partition(groups);
    }

    /// The online safety monitor (see [`crate::safety`]).
    pub fn safety(&self) -> &SafetyMonitor {
        &self.monitor
    }

    /// Mode pairs whose schedules disagree on a shared application; a mode
    /// change across one is refused.
    pub fn switch_conflicts(&self) -> &[(ModeId, ModeId, AppId)] {
        &self.switch_conflicts
    }
}

/// Whether system node `node_index` initiates slot `slot_idx` of the round
/// with id `round_id` according to its deployed tables. Round ids are
/// globally unique, so the directory names the one round to look at.
fn node_initiates(
    host: &Host,
    directory: &RoundDirectory,
    node_index: usize,
    round_id: u8,
    slot_idx: usize,
) -> bool {
    let Some((mode_id, position)) = directory.locate(round_id) else {
        return false;
    };
    host.table_by_id(mode_id)
        .and_then(|table| table.rounds.get(position))
        .and_then(|round| round.slots.get(slot_idx))
        .is_some_and(|slot| slot.initiator.index() == node_index)
}

/// Derives the switch-inconsistent mode pairs of deployed schedules from the
/// core cross-mode validator: one entry per `(mode, mode, application)`
/// whose offsets disagree.
fn switch_conflicts(system: &System, schedules: &[ModeSchedule]) -> Vec<(ModeId, ModeId, AppId)> {
    let mut conflicts: Vec<(ModeId, ModeId, AppId)> =
        ttw_core::validate::check_cross_mode_consistency(system, schedules)
            .into_iter()
            .filter_map(|violation| match violation {
                ScheduleViolation::CrossModeOffsetMismatch {
                    app,
                    first_mode,
                    second_mode,
                    ..
                } => Some((first_mode, second_mode, app)),
                _ => None,
            })
            .collect();
    conflicts.sort_unstable();
    conflicts.dedup();
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttw_core::synthesis::IlpSynthesizer;
    use ttw_core::time::millis;
    use ttw_core::{fixtures, synthesis, ModeGraph, ScheduledRound, SchedulerConfig};
    use ttw_netsim::faults::{BeaconCorruption, PartitionWindow};

    fn schedules(system: &System) -> (Vec<ModeSchedule>, ModeId, ModeId) {
        // The inherited pipeline keeps the shared control application
        // switch-consistent and is an order of magnitude faster than
        // synthesizing the emergency mode from scratch.
        let config = SchedulerConfig::new(millis(10), 5);
        let modes: Vec<ModeId> = system.modes().map(|(id, _)| id).collect();
        let graph = ModeGraph::complete(system);
        let schedules = synthesis::synthesize_system(system, &graph, &config, &IlpSynthesizer)
            .expect("feasible")
            .to_vec();
        (schedules, modes[0], modes[1])
    }

    fn two_mode_simulation(config: SimulationConfig) -> (Simulation, ModeId, ModeId) {
        let (sys, _, _) = fixtures::two_mode_system();
        let (scheds, normal, emergency) = schedules(&sys);
        let sim = Simulation::with_clustered_topology(&sys, &scheds, normal, 4, config)
            .expect("simulation builds");
        (sim, normal, emergency)
    }

    #[test]
    fn perfect_channel_delivers_everything() {
        let (mut sim, _, _) = two_mode_simulation(SimulationConfig::default());
        sim.run_hyperperiods(5);
        let stats = sim.stats();
        assert_eq!(stats.beacons_missed, 0);
        assert_eq!(stats.collisions, 0);
        assert_eq!(stats.slots_unused, 0);
        assert_eq!(stats.messages_attempted, stats.messages_delivered);
        assert!(
            stats.messages_delivered >= 15,
            "3 messages × 5 hyperperiods"
        );
        assert!(stats.delivery_ratio() > 0.999);
        assert!(sim.radio().total_on_time() > 0.0);
    }

    #[test]
    fn lossy_channel_never_causes_collisions_with_safe_policy() {
        // A very lossy channel: with 75 % per-transmission loss even the
        // Glossy flood redundancy cannot hide the losses, so beacons do get
        // missed — and TTW must still never collide.
        let config = SimulationConfig {
            link_loss: 0.75,
            seed: 7,
            ..SimulationConfig::default()
        };
        let (mut sim, _, emergency) = two_mode_simulation(config);
        sim.run_hyperperiods(3);
        sim.request_mode_change(emergency).expect("known mode");
        sim.run_hyperperiods(6);
        let stats = sim.stats();
        assert!(
            stats.beacons_missed > 0,
            "losses should cause missed beacons"
        );
        assert_eq!(stats.collisions, 0, "TTW safety: no collisions under loss");
        assert_eq!(stats.mode_changes, 1);
        assert_eq!(sim.current_mode(), emergency);
    }

    #[test]
    fn mode_change_completes_on_perfect_channel() {
        let (mut sim, normal, emergency) = two_mode_simulation(SimulationConfig::default());
        assert_eq!(sim.current_mode(), normal);
        sim.run_rounds(1);
        sim.request_mode_change(emergency).expect("known mode");
        sim.run_hyperperiods(2);
        assert_eq!(sim.current_mode(), emergency);
        assert_eq!(sim.stats().mode_changes, 1);
    }

    /// Deterministic reproduction of the safety argument of Sec. II.B: a node
    /// that misses the mode-change beacons and keeps transmitting on its local
    /// counter (legacy behaviour) collides with the new mode's slot owner,
    /// while the TTW rule (skip the round) never collides.
    #[test]
    fn legacy_policy_collides_across_mode_change_but_ttw_does_not() {
        let run = |policy: BeaconLossPolicy| {
            let (sys, _, _) = fixtures::two_mode_system();
            let (scheds, normal, emergency) = schedules(&sys);
            let sensor1 = sys.node_id("sensor1").expect("node").index();
            // The trigger round is sequence 3 (two rounds per normal
            // hyperperiod, change requested after the first hyperperiod); the
            // first emergency round is sequence 4. sensor1 misses both.
            let config = SimulationConfig {
                policy,
                faults: Some(FaultPlan {
                    beacon_corruption: Some(BeaconCorruption {
                        probability: 0.0,
                        forced: vec![(3, sensor1), (4, sensor1)],
                    }),
                    ..FaultPlan::none()
                }),
                ..SimulationConfig::default()
            };
            let mut sim = Simulation::with_clustered_topology(&sys, &scheds, normal, 4, config)
                .expect("simulation builds");
            sim.run_hyperperiods(1);
            sim.request_mode_change(emergency).expect("known mode");
            sim.run_hyperperiods(4);
            sim.stats().clone()
        };

        let safe = run(BeaconLossPolicy::SkipRound);
        assert_eq!(safe.collisions, 0, "TTW never collides");
        assert_eq!(safe.mode_changes, 1);

        let legacy = run(BeaconLossPolicy::LegacyTransmit);
        assert!(
            legacy.collisions >= 1,
            "the out-of-sync legacy node must collide with the new mode's initiator"
        );
        // The channel is perfect, so it delivers both forced beacons and each
        // fails its checksum.
        assert_eq!(safe.beacons_corrupted, 2);
        assert_eq!(legacy.beacons_corrupted, 2);
    }

    #[test]
    fn system_schedule_simulation_is_switch_consistent_end_to_end() {
        // The full pipeline: mode graph -> inherited synthesis -> runtime.
        let (sys, graph, normal, emergency) = fixtures::two_mode_graph();
        let config = SchedulerConfig::new(millis(10), 5);
        let schedule =
            synthesis::synthesize_system(&sys, &graph, &config, &synthesis::IlpSynthesizer)
                .expect("feasible");
        let mut sim = Simulation::with_clustered_topology(
            &sys,
            &schedule.to_vec(),
            normal,
            4,
            SimulationConfig::default(),
        )
        .expect("simulation builds");
        assert!(
            sim.switch_conflicts().is_empty(),
            "inherited synthesis must be switch-consistent"
        );
        sim.run_hyperperiods(2);
        sim.request_mode_change(emergency)
            .expect("consistent switch is allowed");
        sim.run_hyperperiods(2);
        assert_eq!(sim.current_mode(), emergency);
        assert_eq!(sim.stats().collisions, 0);
    }

    #[test]
    fn inconsistent_system_schedule_refuses_the_mode_change() {
        let (sys, graph, normal, emergency) = fixtures::two_mode_graph();
        let config = SchedulerConfig::new(millis(10), 5);
        let mut schedule =
            synthesis::synthesize_system(&sys, &graph, &config, &synthesis::IlpSynthesizer)
                .expect("feasible");
        // Sabotage: re-time a shared control task in the emergency mode only.
        let tau3 = sys.task_id("ctrl.tau3").expect("task exists");
        *std::sync::Arc::make_mut(schedule.schedules.get_mut(&emergency).expect("scheduled"))
            .task_offsets
            .get_mut(&tau3)
            .expect("offset exists") += 1000.0;
        // The schedules arrive as a plain slice, as every constructor takes
        // them; the slice path used to let this switch through.
        let mut sim = Simulation::with_clustered_topology(
            &sys,
            &schedule.to_vec(),
            normal,
            4,
            SimulationConfig::default(),
        )
        .expect("simulation still builds");
        assert!(!sim.switch_conflicts().is_empty());
        let err = sim.request_mode_change(emergency).unwrap_err();
        assert!(matches!(err, RuntimeError::SwitchInconsistent { .. }));
        sim.run_hyperperiods(2);
        assert_eq!(sim.current_mode(), normal, "the unsafe switch never ran");
        assert_eq!(sim.stats().mode_changes, 0);
    }

    #[test]
    fn a_mode_owning_all_256_round_ids_survives_missed_beacons() {
        // The Fig. 3 schedule padded with empty rounds up to the 256 round
        // ids a beacon can name: the directory used to store the mode's round
        // count as `256 as u8 = 0` and divide by it on the first beacon.
        let (sys, mode) = fixtures::fig3_system();
        let config = SchedulerConfig::new(millis(10), 5);
        let mut schedule = synthesis::synthesize_mode(&sys, mode, &config).expect("feasible");
        let round_duration = schedule.round_duration;
        let used = schedule.num_rounds();
        schedule.rounds.extend((used..256).map(|j| ScheduledRound {
            start: (j as u64 * round_duration) as f64,
            slots: vec![],
        }));
        schedule.hyperperiod = 256 * round_duration;
        let sensor = sys.node_id("sensor1").expect("node").index();
        let config = SimulationConfig {
            faults: Some(FaultPlan {
                beacon_corruption: Some(BeaconCorruption {
                    probability: 0.0,
                    forced: vec![(0, sensor), (254, sensor), (255, sensor)],
                }),
                ..FaultPlan::none()
            }),
            ..SimulationConfig::default()
        };
        let mut sim = Simulation::with_clustered_topology(&sys, &[schedule], mode, 4, config)
            .expect("256 rounds fit the beacon");
        sim.run_hyperperiods(2);
        let stats = sim.stats();
        assert_eq!(stats.rounds_executed, 512);
        assert_eq!(stats.beacons_missed, 3);
        assert_eq!(
            stats.beacons_corrupted, 3,
            "the perfect channel delivers all three"
        );
        assert_eq!(stats.collisions, 0);
    }

    #[test]
    fn partition_mask_follows_the_plan_round_by_round() {
        let window = |from_round, until_round, islands: &[&[usize]]| PartitionWindow {
            from_round,
            until_round,
            islands: islands.iter().map(|island| island.to_vec()).collect(),
        };
        let plan = FaultPlan {
            partitions: vec![
                window(2, 4, &[&[0]]),
                // Back to back with the first window.
                window(5, 7, &[&[1], &[2]]),
                // Overlaps the second, which wins until round 7.
                window(6, 9, &[&[0, 1]]),
                // After a heal (rounds 10 and 11), a window of one round.
                window(12, 12, &[&[2]]),
            ],
            ..FaultPlan::none()
        };
        let config = SimulationConfig {
            link_loss: 0.2,
            faults: Some(plan.clone()),
            ..SimulationConfig::default()
        };
        let (mut sim, _, _) = two_mode_simulation(config);
        for sequence in 0..16 {
            sim.run_rounds(1);
            let expected = plan.partition_at(sequence).map(|window| {
                let mut mask = vec![0; sim.topology.num_nodes()];
                for (group, island) in window.islands.iter().enumerate() {
                    for &node in island {
                        mask[sim.placement.nodes[node]] = group + 1;
                    }
                }
                mask
            });
            assert_eq!(
                sim.links.partition(),
                expected.as_deref(),
                "round {sequence}"
            );
        }
    }

    #[test]
    fn missing_placement_is_rejected() {
        let (sys, _, _) = fixtures::two_mode_system();
        let (scheds, normal, _) = schedules(&sys);
        let topology = Topology::line(3);
        let placement = NodePlacement {
            host: 0,
            nodes: vec![1, 2],
        };
        let err = Simulation::new(
            &sys,
            &scheds,
            normal,
            topology,
            placement,
            SimulationConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::TopologyTooSmall { .. }));
    }

    #[test]
    fn elapsed_time_advances_with_rounds() {
        let (mut sim, _, _) = two_mode_simulation(SimulationConfig::default());
        sim.run_rounds(1);
        let first = sim.stats().elapsed_micros;
        sim.run_hyperperiods(1);
        assert!(sim.stats().elapsed_micros > first);
    }
}
