//! The Glossy flood engine.
//!
//! [`Flood`] is the engine: it runs one flood at a time on buffers it keeps
//! between floods, so a caller flooding every slot allocates nothing once
//! the buffers have grown. [`simulate_flood`] is its one-shot form,
//! returning an owned [`FloodOutcome`].
//!
//! A Glossy flood proceeds in slots of length `T_hop`: the initiator transmits
//! first, and every node that has received the packet retransmits it in the
//! following slots, up to `N` times per node. Concurrent transmissions of the
//! same packet interfere constructively, so a node receives the packet in a
//! slot if *any* of its transmitting neighbours reaches it. The flood lasts
//! `H + 2N − 1` slots (Eq. 14 of the paper,
//! [`ttw_timing::flood::flood_steps`]), after which (almost) every node has
//! received and forwarded the packet.

use crate::link::LinkModel;
use crate::topology::Topology;
use ttw_timing::flood::flood_steps;

/// Parameters of a single flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodConfig {
    /// Number of times each node transmits the packet (`N`, the paper uses 2).
    pub retransmissions: usize,
    /// Number of protocol slots to simulate; `None` uses `H + 2N − 1`
    /// ([`flood_steps`]) with `H` the topology diameter, at least 1.
    pub max_slots: Option<usize>,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            retransmissions: 2,
            max_slots: None,
        }
    }
}

/// Result of simulating one flood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Which nodes received the packet (the initiator counts as receiving).
    pub received: Vec<bool>,
    /// Slot index at which each node first received the packet
    /// (`None` if never received; `Some(0)` for the initiator).
    pub first_reception_slot: Vec<Option<usize>>,
    /// Number of protocol slots the flood lasted.
    pub slots: usize,
    /// Total number of transmissions performed by all nodes.
    pub transmissions: usize,
}

impl FloodOutcome {
    /// Returns `true` if every node received the packet.
    pub fn all_received(&self) -> bool {
        self.received.iter().all(|&r| r)
    }

    /// Number of nodes that received the packet.
    pub fn reception_count(&self) -> usize {
        self.received.iter().filter(|&&r| r).count()
    }

    /// Flood reliability: fraction of nodes that received the packet.
    pub fn reliability(&self) -> f64 {
        if self.received.is_empty() {
            return 1.0;
        }
        self.reception_count() as f64 / self.received.len() as f64
    }
}

/// The flood engine: runs one Glossy flood at a time and owns the buffers a
/// flood needs, so a caller that floods every slot (the runtime simulation,
/// a Monte-Carlo estimate) reuses them instead of allocating per flood.
///
/// After [`Flood::run`] the accessors describe that flood, exactly as the
/// [`FloodOutcome`] of [`simulate_flood`] — the engine's one-shot form —
/// would.
#[derive(Debug, Clone, Default)]
pub struct Flood {
    received: Vec<bool>,
    first_reception: Vec<Option<usize>>,
    remaining_tx: Vec<usize>,
    /// Nodes scheduled to transmit in the current slot.
    transmitting: Vec<usize>,
    /// Nodes scheduled to transmit in the next slot; swapped with
    /// `transmitting` at the end of every slot.
    next: Vec<usize>,
    slots: usize,
    transmissions: usize,
}

impl Flood {
    /// An engine with empty buffers; the first [`Flood::run`] sizes them.
    pub fn new() -> Self {
        Flood::default()
    }

    /// Simulates one Glossy flood initiated by `initiator`, overwriting the
    /// previous flood's result. Once the buffers have grown to the topology's
    /// size, a run allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `initiator` is not a node of the topology or if
    /// `config.retransmissions` is zero.
    pub fn run(
        &mut self,
        topology: &Topology,
        links: &mut LinkModel,
        initiator: usize,
        config: &FloodConfig,
    ) {
        assert!(initiator < topology.num_nodes(), "initiator out of range");
        assert!(config.retransmissions >= 1, "N must be at least 1");

        let n = topology.num_nodes();
        self.slots = config
            .max_slots
            .unwrap_or_else(|| flood_steps(topology.diameter().max(1), config.retransmissions));
        self.transmissions = 0;

        self.received.clear();
        self.received.resize(n, false);
        self.first_reception.clear();
        self.first_reception.resize(n, None);
        self.remaining_tx.clear();
        self.remaining_tx.resize(n, config.retransmissions);
        // A slot's transmitters are distinct nodes, so `n` entries always
        // suffice and neither swap buffer grows after its first flood.
        self.transmitting.clear();
        self.transmitting.reserve(n);
        self.next.clear();
        self.next.reserve(n);
        self.transmitting.push(initiator);
        self.received[initiator] = true;
        self.first_reception[initiator] = Some(0);

        for slot in 0..self.slots {
            if self.transmitting.is_empty() {
                break;
            }
            // Nodes that receive in this slot transmit in the next one.
            self.next.clear();
            for &tx in &self.transmitting {
                self.transmissions += 1;
                for &rx in topology.neighbors(tx) {
                    if !self.received[rx] && links.sample_reception(tx, rx) {
                        self.received[rx] = true;
                        self.first_reception[rx] = Some(slot + 1);
                        self.next.push(rx);
                    }
                }
            }
            for &tx in &self.transmitting {
                self.remaining_tx[tx] = self.remaining_tx[tx].saturating_sub(1);
            }
            // Next slot: nodes that just received plus nodes that still have
            // retransmissions left (Glossy alternates RX/TX; this compact
            // model keeps them transmitting until their budget is exhausted).
            for &tx in &self.transmitting {
                if self.remaining_tx[tx] > 0 {
                    self.next.push(tx);
                }
            }
            self.next.sort_unstable();
            self.next.dedup();
            std::mem::swap(&mut self.transmitting, &mut self.next);
        }
    }

    /// Which nodes received the last flood's packet (the initiator counts as
    /// receiving).
    pub fn received(&self) -> &[bool] {
        &self.received
    }

    /// Slot index at which each node first received the last flood's packet
    /// (`None` if never received; `Some(0)` for the initiator).
    pub fn first_reception_slot(&self) -> &[Option<usize>] {
        &self.first_reception
    }

    /// Number of protocol slots the last flood lasted.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Total number of transmissions the last flood performed.
    pub fn transmissions(&self) -> usize {
        self.transmissions
    }

    /// Returns `true` if every node received the last flood's packet.
    pub fn all_received(&self) -> bool {
        self.received.iter().all(|&r| r)
    }

    /// Moves the last flood's result out of the engine.
    pub fn into_outcome(self) -> FloodOutcome {
        FloodOutcome {
            received: self.received,
            first_reception_slot: self.first_reception,
            slots: self.slots,
            transmissions: self.transmissions,
        }
    }
}

/// Simulates one Glossy flood initiated by `initiator`: the one-shot form of
/// [`Flood::run`], for a caller that floods once.
///
/// # Panics
///
/// Panics if `initiator` is not a node of the topology or if
/// `config.retransmissions` is zero.
pub fn simulate_flood(
    topology: &Topology,
    links: &mut LinkModel,
    initiator: usize,
    config: &FloodConfig,
) -> FloodOutcome {
    let mut flood = Flood::new();
    flood.run(topology, links, initiator, config);
    flood.into_outcome()
}

/// Estimates the flood reliability (probability that a given node receives the
/// packet) by Monte-Carlo simulation over `trials` independent floods, all run
/// on one [`Flood`].
pub fn estimate_flood_reliability(
    topology: &Topology,
    links: &mut LinkModel,
    initiator: usize,
    config: &FloodConfig,
    trials: usize,
) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let mut flood = Flood::new();
    let mut successes = 0usize;
    for _ in 0..trials {
        flood.run(topology, links, initiator, config);
        if flood.all_received() {
            successes += 1;
        }
    }
    successes as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_links_reach_everyone_on_a_line() {
        let topo = Topology::line(6);
        let mut links = LinkModel::perfect();
        let out = simulate_flood(&topo, &mut links, 0, &FloodConfig::default());
        assert!(out.all_received());
        assert_eq!(out.reliability(), 1.0);
        // Node k first receives in slot k on a line with a perfect channel.
        for (k, slot) in out.first_reception_slot.iter().enumerate() {
            assert_eq!(*slot, Some(k));
        }
    }

    #[test]
    fn flood_from_middle_reaches_both_ends() {
        let topo = Topology::line(7);
        let mut links = LinkModel::perfect();
        let out = simulate_flood(&topo, &mut links, 3, &FloodConfig::default());
        assert!(out.all_received());
    }

    #[test]
    fn total_loss_reaches_only_the_initiator() {
        let topo = Topology::line(4);
        let mut links = LinkModel::uniform(1.0, 3);
        let out = simulate_flood(&topo, &mut links, 0, &FloodConfig::default());
        assert_eq!(out.reception_count(), 1);
        assert!(!out.all_received());
    }

    #[test]
    fn transmissions_bounded_by_n_per_node() {
        let topo = Topology::grid(3, 3);
        let mut links = LinkModel::perfect();
        let cfg = FloodConfig {
            retransmissions: 2,
            max_slots: Some(20),
        };
        let out = simulate_flood(&topo, &mut links, 0, &cfg);
        assert!(out.transmissions <= 2 * topo.num_nodes());
        assert!(out.all_received());
    }

    #[test]
    fn retransmissions_improve_reliability_under_loss() {
        let topo = Topology::clustered_line(4, 3);
        let reliability = |n_tx: usize, seed: u64| {
            let mut links = LinkModel::uniform(0.3, seed);
            let cfg = FloodConfig {
                retransmissions: n_tx,
                max_slots: Some(topo.diameter() + 2 * n_tx + 4),
            };
            estimate_flood_reliability(&topo, &mut links, 0, &cfg, 300)
        };
        let low = reliability(1, 11);
        let high = reliability(3, 11);
        assert!(
            high >= low,
            "more retransmissions cannot hurt: N=1 → {low}, N=3 → {high}"
        );
        assert!(
            high > 0.9,
            "N=3 on a dense topology should be reliable: {high}"
        );
    }

    #[test]
    fn paper_claim_glossy_n2_is_highly_reliable() {
        // With N = 2 and realistic per-link reception (≥ 90 %), Glossy-style
        // flooding on a dense 4-hop topology delivers well above 99 % of floods.
        let topo = Topology::clustered_line(4, 3);
        let mut links = LinkModel::uniform(0.1, 23);
        let cfg = FloodConfig {
            retransmissions: 2,
            max_slots: Some(topo.diameter() + 2 * 2 + 4),
        };
        let reliability = estimate_flood_reliability(&topo, &mut links, 0, &cfg, 500);
        assert!(reliability > 0.98, "flood reliability {reliability}");
    }

    #[test]
    fn default_flood_lasts_eq_14_steps() {
        let shapes = [
            Topology::line(2),
            Topology::line(6),
            Topology::ring(7),
            Topology::star(5),
            Topology::grid(3, 4),
            Topology::clustered_line(4, 3),
        ];
        for topo in &shapes {
            for retransmissions in 1..=3 {
                let config = FloodConfig {
                    retransmissions,
                    max_slots: None,
                };
                let mut links = LinkModel::perfect();
                let out = simulate_flood(topo, &mut links, 0, &config);
                assert_eq!(
                    out.slots,
                    flood_steps(topo.diameter(), retransmissions),
                    "{topo:?}, N = {retransmissions}"
                );
            }
        }
        // A single node has diameter 0; its flood counts `H` as 1.
        let out = simulate_flood(
            &Topology::line(1),
            &mut LinkModel::perfect(),
            0,
            &FloodConfig::default(),
        );
        assert_eq!(out.slots, flood_steps(1, 2));
    }

    #[test]
    fn a_reused_flood_matches_fresh_one_shot_floods() {
        use crate::link::GilbertElliott;
        use crate::rng::SplitMix64;

        // Sizes grow and shrink between floods, so the engine's buffers are
        // both enlarged and truncated while holding a previous result.
        let shapes = [
            Topology::line(3),
            Topology::clustered_line(4, 3),
            Topology::star(5),
            Topology::grid(4, 4),
            Topology::line(1),
            Topology::ring(7),
            Topology::clustered_line(2, 2),
        ];
        let mut reused_links = LinkModel::uniform(0.3, 19).with_burst(
            GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.3,
                loss_good: 0.05,
                loss_bad: 0.8,
            },
            23,
        );
        let mut fresh_links = reused_links.clone();
        let mut rng = SplitMix64::new(5);
        let mut flood = Flood::new();
        for step in 0..64 {
            let topo = &shapes[rng.next_u64() as usize % shapes.len()];
            let initiator = rng.next_u64() as usize % topo.num_nodes();
            let retransmissions = 1 + rng.next_u64() as usize % 3;
            let max_slots = (rng.next_u64() % 2 == 0).then(|| rng.next_u64() as usize % 12);
            let config = FloodConfig {
                retransmissions,
                max_slots,
            };
            flood.run(topo, &mut reused_links, initiator, &config);
            let fresh = simulate_flood(topo, &mut fresh_links, initiator, &config);
            assert_eq!(flood.received(), fresh.received.as_slice(), "flood {step}");
            assert_eq!(
                flood.first_reception_slot(),
                fresh.first_reception_slot.as_slice(),
                "flood {step}"
            );
            assert_eq!(flood.slots(), fresh.slots, "flood {step}");
            assert_eq!(flood.transmissions(), fresh.transmissions, "flood {step}");
            assert_eq!(flood.all_received(), fresh.all_received(), "flood {step}");
        }
        // Both link models consumed exactly the same draws.
        let next = |links: &mut LinkModel| {
            (0..64)
                .map(|i| links.sample_reception(i % 5, (i + 1) % 5))
                .collect::<Vec<_>>()
        };
        assert_eq!(next(&mut reused_links), next(&mut fresh_links));
    }

    #[test]
    #[should_panic(expected = "initiator out of range")]
    fn invalid_initiator_rejected() {
        let topo = Topology::line(3);
        let mut links = LinkModel::perfect();
        simulate_flood(&topo, &mut links, 9, &FloodConfig::default());
    }
}
