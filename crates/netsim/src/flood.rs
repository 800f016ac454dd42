//! The Glossy flood engine.
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

/// Simulates one Glossy flood initiated by `initiator`.
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
    assert!(initiator < topology.num_nodes(), "initiator out of range");
    assert!(config.retransmissions >= 1, "N must be at least 1");

    let n = topology.num_nodes();
    let slots = config
        .max_slots
        .unwrap_or_else(|| flood_steps(topology.diameter().max(1), config.retransmissions));

    let mut received = vec![false; n];
    let mut first_reception = vec![None; n];
    let mut remaining_tx = vec![config.retransmissions; n];
    // Nodes scheduled to transmit in the current slot.
    let mut transmitting: Vec<usize> = vec![initiator];
    received[initiator] = true;
    first_reception[initiator] = Some(0);
    let mut transmissions = 0usize;

    for slot in 0..slots {
        if transmitting.is_empty() {
            break;
        }
        let mut newly_received: Vec<usize> = Vec::new();
        for &tx in &transmitting {
            transmissions += 1;
            for &rx in topology.neighbors(tx) {
                if !received[rx] && links.sample_reception(tx, rx) {
                    received[rx] = true;
                    first_reception[rx] = Some(slot + 1);
                    newly_received.push(rx);
                }
            }
        }
        for &tx in &transmitting {
            remaining_tx[tx] = remaining_tx[tx].saturating_sub(1);
        }
        // Next slot: nodes that just received plus nodes that still have
        // retransmissions left (Glossy alternates RX/TX; this compact model
        // keeps them transmitting until their budget is exhausted).
        let mut next: Vec<usize> = newly_received;
        for &tx in &transmitting {
            if remaining_tx[tx] > 0 {
                next.push(tx);
            }
        }
        next.sort_unstable();
        next.dedup();
        transmitting = next;
    }

    FloodOutcome {
        received,
        first_reception_slot: first_reception,
        slots,
        transmissions,
    }
}

/// Estimates the flood reliability (probability that a given node receives the
/// packet) by Monte-Carlo simulation over `trials` independent floods.
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
    let mut successes = 0usize;
    for _ in 0..trials {
        if simulate_flood(topology, links, initiator, config).all_received() {
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
    #[should_panic(expected = "initiator out of range")]
    fn invalid_initiator_rejected() {
        let topo = Topology::line(3);
        let mut links = LinkModel::perfect();
        simulate_flood(&topo, &mut links, 9, &FloodConfig::default());
    }
}
