//! Runtime error types.

use std::error::Error;
use std::fmt;
use ttw_core::{AppId, ModeId};

/// Errors raised while configuring or driving the TTW runtime simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// No schedule was provided for a mode the runtime was asked to execute.
    MissingSchedule {
        /// The mode without a schedule.
        mode: ModeId,
    },
    /// The topology has fewer positions than the system has nodes (plus the host).
    TopologyTooSmall {
        /// Nodes required (system nodes + host).
        required: usize,
        /// Nodes available in the topology.
        available: usize,
    },
    /// A node placement index is outside the topology.
    InvalidPlacement {
        /// The offending topology index.
        index: usize,
    },
    /// A mode id exceeded the 8-bit space of the beacon encoding.
    TooManyModes {
        /// Number of modes in the system.
        modes: usize,
    },
    /// A schedule has more rounds than the 8-bit round id of the beacon allows.
    TooManyRounds {
        /// Number of rounds in the offending schedule.
        rounds: usize,
    },
    /// A mode change was requested towards a mode unknown to the runtime.
    UnknownMode {
        /// The requested mode.
        mode: ModeId,
    },
    /// The configured [`ttw_netsim::FaultPlan`] is inconsistent with the
    /// system (out-of-range node, empty window, invalid probability, …).
    InvalidFaultPlan {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A mode change was requested between two modes whose schedules disagree
    /// on the offsets of a shared application. Executing the switch would
    /// silently re-time an application that keeps running across it, so a
    /// [`crate::Simulation`] refuses the request.
    SwitchInconsistent {
        /// The mode executing when the change was requested.
        from: ModeId,
        /// The requested target mode.
        to: ModeId,
        /// A shared application whose offsets disagree.
        app: AppId,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::MissingSchedule { mode } => {
                write!(f, "no schedule provided for mode {mode}")
            }
            RuntimeError::TopologyTooSmall {
                required,
                available,
            } => write!(
                f,
                "topology has {available} nodes but {required} are required"
            ),
            RuntimeError::InvalidPlacement { index } => {
                write!(f, "node placement index {index} is outside the topology")
            }
            RuntimeError::TooManyModes { modes } => {
                write!(f, "{modes} modes exceed the 8-bit beacon mode id")
            }
            RuntimeError::TooManyRounds { rounds } => {
                write!(f, "{rounds} rounds exceed the 8-bit beacon round id")
            }
            RuntimeError::UnknownMode { mode } => {
                write!(f, "mode {mode} is not known to the runtime")
            }
            RuntimeError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            RuntimeError::SwitchInconsistent { from, to, app } => write!(
                f,
                "switching {from} -> {to} would re-time shared application {app} \
                 (schedules are not switch-consistent)"
            ),
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::TopologyTooSmall {
            required: 6,
            available: 4,
        };
        assert!(e.to_string().contains('6'));
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<RuntimeError>();
    }
}
