//! Counters collected while executing TTW schedules.

/// Statistics accumulated by a [`crate::sim::Simulation`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Number of communication rounds executed by the host.
    pub rounds_executed: usize,
    /// Number of (node, round) pairs in which the node missed the beacon.
    pub beacons_missed: usize,
    /// Number of (node, round) pairs in which the node skipped the round
    /// because it missed the beacon (safe policy).
    pub rounds_skipped: usize,
    /// Number of message-instance transmissions attempted (scheduled slots
    /// whose initiator participated).
    pub messages_attempted: usize,
    /// Number of message instances delivered to *all* their destinations.
    pub messages_delivered: usize,
    /// Number of scheduled slots whose initiator did not transmit (it had
    /// missed the beacon), so the instance was lost.
    pub slots_unused: usize,
    /// Number of slots in which two or more nodes transmitted concurrently
    /// (only possible with the unsafe legacy policy).
    pub collisions: usize,
    /// Number of completed mode changes.
    pub mode_changes: usize,
    /// Simulated time in microseconds.
    pub elapsed_micros: u64,
    /// Number of (node, round) pairs in which the beacon arrived but failed
    /// its checksum (the bit-corruption fault, counted as a miss on top).
    pub beacons_corrupted: usize,
    /// Number of times a node under [`crate::BeaconLossPolicy::Resync`]
    /// exhausted its miss budget and desynchronized.
    pub resync_dropouts: usize,
    /// Number of times a desynchronized node decoded a beacon and rejoined.
    pub rejoins: usize,
    /// Total rounds spent desynchronized by nodes that eventually rejoined
    /// (`rejoin_rounds_total / rejoins` = average rejoin latency in rounds).
    pub rejoin_rounds_total: usize,
    /// Number of (node, round) pairs spent in continuous-listen rejoin mode
    /// (the radio-on cost of the `Resync` policy).
    pub rejoin_listen_rounds: usize,
    /// Number of executed rounds during which the host was crashed (no beacon
    /// was flooded).
    pub host_crash_rounds: usize,
    /// Total safety-invariant violations detected by the
    /// [`crate::SafetyMonitor`] (zero under the safe policies).
    pub safety_violations: usize,
}

impl RuntimeStats {
    /// Fraction of scheduled message instances delivered end-to-end.
    pub fn delivery_ratio(&self) -> f64 {
        let scheduled = self.messages_attempted + self.slots_unused;
        if scheduled == 0 {
            return 1.0;
        }
        self.messages_delivered as f64 / scheduled as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_counts_unused_slots_as_losses() {
        let stats = RuntimeStats {
            messages_attempted: 8,
            messages_delivered: 6,
            slots_unused: 2,
            ..RuntimeStats::default()
        };
        assert!((stats.delivery_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_a_perfect_delivery_ratio() {
        let stats = RuntimeStats::default();
        assert_eq!(stats.delivery_ratio(), 1.0);
    }
}
