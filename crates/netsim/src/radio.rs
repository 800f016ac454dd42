//! Per-node radio-on time accounting.
//!
//! The energy argument of the paper (Fig. 7) uses radio-on time as the energy
//! metric, because the radio dominates the power budget of low-power wireless
//! nodes. This module accumulates radio-on time per node while the runtime
//! executes rounds, using the same `ttw-timing` model as the analytical
//! evaluation so that simulated and analytical numbers are directly comparable.

use ttw_timing::{slot, GlossyConstants, NetworkParams};

/// Accumulated radio-on time (seconds) per node.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioAccounting {
    on_time: Vec<f64>,
    constants: GlossyConstants,
    network: NetworkParams,
}

impl RadioAccounting {
    /// Creates an accounting sheet for `num_nodes` nodes.
    pub fn new(num_nodes: usize, constants: GlossyConstants, network: NetworkParams) -> Self {
        RadioAccounting {
            on_time: vec![0.0; num_nodes],
            constants,
            network,
        }
    }

    /// Number of tracked nodes.
    pub fn num_nodes(&self) -> usize {
        self.on_time.len()
    }

    /// Records that every *participating* node kept its radio on for one slot
    /// carrying `payload` bytes (Eq. 18). Non-participating nodes (e.g. nodes
    /// that missed the beacon and skip the round) are passed in `participants`
    /// as `false` and accumulate nothing.
    pub fn record_slot(&mut self, participants: &[bool], payload: usize) {
        let t_on = slot::radio_on_time(
            &self.constants,
            self.network.diameter,
            self.network.retransmissions,
            payload,
        );
        for (node, &participating) in participants.iter().enumerate() {
            if participating {
                self.on_time[node] += t_on;
            }
        }
    }

    /// Radio-on time accumulated by `node`, in seconds.
    pub fn on_time(&self, node: usize) -> f64 {
        self.on_time[node]
    }

    /// Total radio-on time summed over all nodes, in seconds.
    pub fn total_on_time(&self) -> f64 {
        self.on_time.iter().sum()
    }

    /// Average per-node duty cycle over an observation window of `elapsed`
    /// seconds (radio-on time divided by elapsed wall-clock time).
    pub fn average_duty_cycle(&self, elapsed: f64) -> f64 {
        if elapsed <= 0.0 || self.on_time.is_empty() {
            return 0.0;
        }
        self.total_on_time() / (elapsed * self.on_time.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accounting(n: usize) -> RadioAccounting {
        RadioAccounting::new(
            n,
            GlossyConstants::table1(),
            NetworkParams::with_paper_retransmissions(4),
        )
    }

    #[test]
    fn non_participants_accumulate_nothing() {
        let mut acc = accounting(3);
        acc.record_slot(&[true, false, true], 10);
        assert!(acc.on_time(0) > 0.0);
        assert_eq!(acc.on_time(1), 0.0);
        assert!((acc.on_time(0) - acc.on_time(2)).abs() < 1e-12);
    }

    #[test]
    fn a_round_of_slots_matches_timing_model() {
        let constants = GlossyConstants::table1();
        let network = NetworkParams::with_paper_retransmissions(4);
        let mut acc = RadioAccounting::new(1, constants, network);
        acc.record_slot(&[true], constants.l_beacon);
        for _ in 0..5 {
            acc.record_slot(&[true], 10);
        }
        let expected = ttw_timing::round::round_radio_on_time(&constants, &network, 5, 10);
        assert!((acc.on_time(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_is_on_time_over_elapsed() {
        let mut acc = accounting(2);
        acc.record_slot(&[true, true], 16);
        let elapsed = 1.0;
        let expected = acc.total_on_time() / 2.0;
        assert!((acc.average_duty_cycle(elapsed) - expected).abs() < 1e-12);
        assert_eq!(acc.average_duty_cycle(0.0), 0.0);
    }
}
