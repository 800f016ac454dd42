//! Scheduler configuration: round length, slots per round, the optional
//! bounds on rounds, the analysis gate and the solver's budgets.
//!
//! The ILP's strict-inequality constant `mm` and big-M factor are fixed by
//! the formulation (see [`crate::ilp`]), not configured.

use crate::error::ScheduleError;
use crate::time::{micros_from_secs, Micros};
use ttw_milp::SolveParams;
use ttw_timing::{round, GlossyConstants, NetworkParams};

/// Configuration of the TTW schedule synthesis.
///
/// The round length `T_r` and the number of slots per round `B` are the two
/// central parameters of the paper (Fig. 6/7); the remaining fields bound the
/// rounds (constraint C2.2 and Algorithm 1's `R_max`), gate the analysis and
/// budget the MILP solver substitute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Round length `T_r` in microseconds (all slots plus the beacon).
    pub round_duration: Micros,
    /// Maximum number of data slots per round (`B`, the paper uses 5).
    pub slots_per_round: usize,
    /// Optional upper bound on the gap between consecutive rounds
    /// (`T_max`, constraint C2.2). `None` disables the constraint.
    pub max_inter_round_gap: Option<Micros>,
    /// Optional cap on the number of rounds Algorithm 1 will try; by default
    /// the cap is `R_max = ⌊LCM / T_r⌋`.
    pub max_rounds: Option<usize>,
    /// Run the static feasibility analysis before building any ILP and fail
    /// certified-infeasible modes immediately with an explanation (the
    /// `AnalyzeFirst` gate, on by default). The gate only rejects instances
    /// backed by a sound certificate — see [`crate::feasibility`] — so turning
    /// it off never changes the status of an instance, only how much work is
    /// spent proving infeasibility.
    pub analyze_first: bool,
    /// Budgets and tolerances of the underlying MILP solver.
    pub solver: SolveParams,
}

impl SchedulerConfig {
    /// Creates a configuration with the given round length (µs) and slot count,
    /// and defaults for everything else.
    pub fn new(round_duration: Micros, slots_per_round: usize) -> Self {
        SchedulerConfig {
            round_duration,
            slots_per_round,
            max_inter_round_gap: None,
            max_rounds: None,
            analyze_first: true,
            solver: SolveParams::default(),
        }
    }

    /// Derives the round length from the Glossy timing model of `ttw-timing`
    /// (Eq. 19) for the given network, slot count and payload size.
    ///
    /// This is the recommended constructor: it keeps the scheduler consistent
    /// with the energy/latency models used in the evaluation.
    pub fn from_timing(
        constants: &GlossyConstants,
        network: &NetworkParams,
        slots_per_round: usize,
        payload: usize,
    ) -> Self {
        let t_r = round::round_length(constants, network, slots_per_round, payload);
        Self::new(micros_from_secs(t_r), slots_per_round)
    }

    /// Sets the maximum inter-round gap (`T_max`, constraint C2.2).
    pub fn with_max_inter_round_gap(mut self, gap: Micros) -> Self {
        self.max_inter_round_gap = Some(gap);
        self
    }

    /// Sets an explicit cap on the number of rounds tried by Algorithm 1.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Enables or disables the `AnalyzeFirst` gate (on by default).
    pub fn with_analyze_first(mut self, analyze_first: bool) -> Self {
        self.analyze_first = analyze_first;
        self
    }

    /// Checks the configuration for obvious mistakes.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidConfig`] when the round length or slot
    /// count is zero, or when the inter-round gap is shorter than a round.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.round_duration == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "round_duration must be positive".into(),
            });
        }
        if self.slots_per_round == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "slots_per_round must be at least 1".into(),
            });
        }
        if let Some(gap) = self.max_inter_round_gap {
            if gap < self.round_duration {
                return Err(ScheduleError::InvalidConfig {
                    reason: "max_inter_round_gap must be at least one round length".into(),
                });
            }
        }
        Ok(())
    }
}

impl Default for SchedulerConfig {
    /// The paper's evaluation setting: a 5-slot round of 10-byte payloads on a
    /// 4-hop network with `N = 2` (`T_r ≈ 50 ms`).
    fn default() -> Self {
        Self::from_timing(
            &GlossyConstants::table1(),
            &NetworkParams::with_paper_retransmissions(4),
            5,
            10,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::millis;

    #[test]
    fn default_config_matches_paper_setting() {
        let c = SchedulerConfig::default();
        assert_eq!(c.slots_per_round, 5);
        // Fig. 6 anchor: ≈ 50 ms.
        assert!(c.round_duration > millis(45) && c.round_duration < millis(55));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_zero_round() {
        let c = SchedulerConfig::new(0, 5);
        assert!(matches!(
            c.validate(),
            Err(ScheduleError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn validation_catches_zero_slots() {
        let c = SchedulerConfig::new(millis(10), 0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_tiny_inter_round_gap() {
        let c = SchedulerConfig::new(millis(10), 5).with_max_inter_round_gap(millis(5));
        assert!(c.validate().is_err());
        let ok = SchedulerConfig::new(millis(10), 5).with_max_inter_round_gap(millis(30));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn builder_methods_set_fields() {
        let c = SchedulerConfig::new(millis(10), 3)
            .with_max_rounds(4)
            .with_max_inter_round_gap(millis(40));
        assert_eq!(c.max_rounds, Some(4));
        assert_eq!(c.max_inter_round_gap, Some(millis(40)));
    }
}
