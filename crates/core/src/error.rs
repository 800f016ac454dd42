//! Error types of the core crate.

use crate::ids::{AppId, MessageId, ModeId, TaskId};
use std::error::Error;
use std::fmt;

/// Errors raised while building or validating a [`crate::System`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// An entity name was used twice where uniqueness is required.
    DuplicateName {
        /// The offending name.
        name: String,
        /// What kind of entity it names (node, task, message, application, mode).
        kind: &'static str,
    },
    /// A name was referenced but never declared.
    UnknownName {
        /// The missing name.
        name: String,
        /// What kind of entity was expected.
        kind: &'static str,
    },
    /// An application declared a deadline larger than its period
    /// (the model requires `a.d ≤ a.p`).
    DeadlineExceedsPeriod {
        /// Application name.
        application: String,
        /// Declared relative deadline in microseconds.
        deadline: u64,
        /// Declared period in microseconds.
        period: u64,
    },
    /// A period, deadline or WCET was zero.
    ZeroDuration {
        /// Which quantity was zero.
        what: String,
    },
    /// A task's worst-case execution time exceeds its application period.
    WcetExceedsPeriod {
        /// Task name.
        task: String,
        /// WCET in microseconds.
        wcet: u64,
        /// Period in microseconds.
        period: u64,
    },
    /// A message has preceding tasks mapped to different nodes; the model
    /// requires all senders of a message to run on the same node.
    SendersOnDifferentNodes {
        /// Message name.
        message: String,
    },
    /// A message has no preceding task (every message needs a sender).
    MessageWithoutSender {
        /// Message name.
        message: String,
    },
    /// The precedence graph of an application contains a cycle.
    CyclicPrecedence {
        /// Application name.
        application: String,
    },
    /// A mode lists the same application twice. (Sharing an application
    /// *between* modes is allowed — that is the premise of the multi-mode
    /// design — but a single mode must list each application once.)
    ApplicationReuse {
        /// Application id that was reused.
        app: AppId,
    },
    /// A mode contains no application.
    EmptyMode {
        /// Name of the offending mode.
        name: String,
    },
    /// A mode graph was paired with a system it was not built over: every
    /// walk of the graph indexes the system's modes, so the two must agree
    /// on how many there are.
    ModeCountMismatch {
        /// Modes the graph covers.
        graph: usize,
        /// Modes the system has.
        system: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateName { name, kind } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            ModelError::UnknownName { name, kind } => write!(f, "unknown {kind} `{name}`"),
            ModelError::DeadlineExceedsPeriod {
                application,
                deadline,
                period,
            } => write!(
                f,
                "application `{application}` has deadline {deadline} µs larger than its period {period} µs"
            ),
            ModelError::ZeroDuration { what } => write!(f, "{what} must be non-zero"),
            ModelError::WcetExceedsPeriod { task, wcet, period } => write!(
                f,
                "task `{task}` has WCET {wcet} µs larger than its period {period} µs"
            ),
            ModelError::SendersOnDifferentNodes { message } => write!(
                f,
                "message `{message}` has preceding tasks mapped to different nodes"
            ),
            ModelError::MessageWithoutSender { message } => {
                write!(f, "message `{message}` has no preceding task")
            }
            ModelError::CyclicPrecedence { application } => write!(
                f,
                "the precedence graph of application `{application}` contains a cycle"
            ),
            ModelError::ApplicationReuse { app } => {
                write!(f, "application {app} is listed twice in the same mode")
            }
            ModelError::EmptyMode { name } => write!(f, "mode `{name}` contains no application"),
            ModelError::ModeCountMismatch { graph, system } => write!(
                f,
                "the mode graph covers {graph} modes, the system has {system}"
            ),
        }
    }
}

impl Error for ModelError {}

/// A decoded document that breaks a model rule is a malformed document.
impl From<ModelError> for crate::json::JsonError {
    fn from(e: ModelError) -> Self {
        crate::json::JsonError::custom(e.to_string())
    }
}

/// Errors raised by schedule synthesis (Algorithm 1) and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The mode admits no feasible schedule with any number of rounds up to
    /// `R_max = ⌊LCM / T_r⌋`.
    Infeasible {
        /// Mode that was being scheduled.
        mode: ModeId,
        /// Largest number of rounds that was attempted.
        max_rounds_tried: usize,
        /// Static infeasibility certificate (the violated inequality with its
        /// numbers), when the `AnalyzeFirst` gate proved infeasibility before
        /// any ILP was built. `None` when infeasibility was established the
        /// expensive way, by exhausting every round count.
        explanation: Option<String>,
    },
    /// The mode's ILP was not built because it would be too large: its C3
    /// block or its first round count exceeds
    /// [`crate::synthesis::MAX_MODE_SIZE`]. This proves nothing about
    /// feasibility.
    TooLarge {
        /// Mode that was being scheduled.
        mode: ModeId,
        /// `λ` binaries of the C3 block: `Σ (H/pᵢ)(H/pⱼ)` over same-node task
        /// pairs (see [`crate::feasibility::task_instance_pairs`]).
        task_pairs: u128,
        /// Round count of the first attempt, `⌈message instances / B⌉`.
        rounds: usize,
    },
    /// The underlying MILP solver failed (budget exhausted or malformed model).
    Solver(ttw_milp::SolveError),
    /// The system model itself is invalid.
    Model(ModelError),
    /// The scheduler configuration is invalid (e.g. zero round length or zero
    /// slots per round).
    InvalidConfig {
        /// Explanation of what is wrong.
        reason: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Infeasible {
                mode,
                max_rounds_tried,
                explanation,
            } => {
                write!(
                    f,
                    "mode {mode} is infeasible with up to {max_rounds_tried} communication rounds"
                )?;
                if let Some(certificate) = explanation {
                    write!(f, ": {certificate}")?;
                }
                Ok(())
            }
            ScheduleError::TooLarge {
                mode,
                task_pairs,
                rounds,
            } => write!(
                f,
                "mode {mode} is too large to synthesize: {task_pairs} same-node task instance \
                 pairs and {rounds} rounds in the first attempt, against a bound of {}",
                crate::synthesis::MAX_MODE_SIZE
            ),
            ScheduleError::Solver(e) => write!(f, "MILP solver error: {e}"),
            ScheduleError::Model(e) => write!(f, "invalid system model: {e}"),
            ScheduleError::InvalidConfig { reason } => {
                write!(f, "invalid scheduler configuration: {reason}")
            }
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Solver(e) => Some(e),
            ScheduleError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ttw_milp::SolveError> for ScheduleError {
    fn from(e: ttw_milp::SolveError) -> Self {
        ScheduleError::Solver(e)
    }
}

impl From<ModelError> for ScheduleError {
    fn from(e: ModelError) -> Self {
        ScheduleError::Model(e)
    }
}

/// A violation found by the independent schedule validator.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleViolation {
    /// Two rounds overlap in time.
    OverlappingRounds {
        /// Index of the first round.
        first: usize,
        /// Index of the second round.
        second: usize,
    },
    /// A round extends past the mode hyperperiod.
    RoundOutsideHyperperiod {
        /// Index of the round.
        round: usize,
    },
    /// A round carries more messages than the slot limit `B`.
    TooManySlots {
        /// Index of the round.
        round: usize,
        /// Number of allocated slots.
        allocated: usize,
        /// Allowed number of slots.
        limit: usize,
    },
    /// The number of slots allocated to a message over the hyperperiod does
    /// not match the number of instances it releases.
    WrongAllocationCount {
        /// The message.
        message: MessageId,
        /// Number of allocated slots.
        allocated: usize,
        /// Number of instances per hyperperiod.
        expected: usize,
    },
    /// A message instance is served before it is released (violates C4.1).
    ServedBeforeRelease {
        /// The message.
        message: MessageId,
        /// Index of the round serving it too early.
        round: usize,
    },
    /// A message instance misses its deadline (violates C4.2).
    DeadlineMiss {
        /// The message.
        message: MessageId,
        /// Time (µs, within the hyperperiod) at which the unserved deadline expired.
        at: f64,
    },
    /// Two task instances overlap on the same node (violates C3).
    TaskOverlapOnNode {
        /// First task.
        first: TaskId,
        /// Second task.
        second: TaskId,
    },
    /// A precedence edge is violated (successor starts before its predecessor
    /// finishes, accounting for period wrapping).
    PrecedenceViolation {
        /// Human-readable description of the edge.
        edge: String,
    },
    /// An application's end-to-end latency exceeds its deadline (violates C1.2).
    ApplicationDeadlineMiss {
        /// The application.
        app: AppId,
        /// Achieved end-to-end latency (µs).
        latency: f64,
        /// Required deadline (µs).
        deadline: f64,
    },
    /// A task or message offset lies outside `[0, period)`.
    OffsetOutOfRange {
        /// Description of the offending entity.
        what: String,
    },
    /// An application shared by two modes was given different timing in their
    /// schedules, which would break the paper's switch-consistency guarantee
    /// (a mode change must not disturb applications running across it).
    CrossModeOffsetMismatch {
        /// The shared application.
        app: AppId,
        /// Which offset disagrees (e.g. `task tau3 offset`).
        what: String,
        /// Mode whose schedule was taken as reference.
        first_mode: ModeId,
        /// Mode whose schedule disagrees.
        second_mode: ModeId,
        /// Value in the reference mode (µs).
        first: f64,
        /// Value in the disagreeing mode (µs).
        second: f64,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::OverlappingRounds { first, second } => {
                write!(f, "rounds {first} and {second} overlap")
            }
            ScheduleViolation::RoundOutsideHyperperiod { round } => {
                write!(f, "round {round} extends past the hyperperiod")
            }
            ScheduleViolation::TooManySlots {
                round,
                allocated,
                limit,
            } => write!(
                f,
                "round {round} allocates {allocated} slots (limit {limit})"
            ),
            ScheduleViolation::WrongAllocationCount {
                message,
                allocated,
                expected,
            } => write!(
                f,
                "message {message} is allocated {allocated} slots but releases {expected} instances"
            ),
            ScheduleViolation::ServedBeforeRelease { message, round } => {
                write!(
                    f,
                    "message {message} is served before release in round {round}"
                )
            }
            ScheduleViolation::DeadlineMiss { message, at } => {
                write!(f, "message {message} misses a deadline at {at} µs")
            }
            ScheduleViolation::TaskOverlapOnNode { first, second } => {
                write!(f, "tasks {first} and {second} overlap on their node")
            }
            ScheduleViolation::PrecedenceViolation { edge } => {
                write!(f, "precedence violated: {edge}")
            }
            ScheduleViolation::ApplicationDeadlineMiss {
                app,
                latency,
                deadline,
            } => write!(
                f,
                "application {app} has latency {latency} µs exceeding its deadline {deadline} µs"
            ),
            ScheduleViolation::OffsetOutOfRange { what } => {
                write!(f, "offset out of range: {what}")
            }
            ScheduleViolation::CrossModeOffsetMismatch {
                app,
                what,
                first_mode,
                second_mode,
                first,
                second,
            } => write!(
                f,
                "application {app}: {what} differs across modes ({first} µs in {first_mode} vs {second} µs in {second_mode})"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_error_display() {
        let e = ModelError::DeadlineExceedsPeriod {
            application: "ctrl".into(),
            deadline: 200,
            period: 100,
        };
        assert!(e.to_string().contains("ctrl"));
        assert!(e.to_string().contains("200"));
    }

    #[test]
    fn schedule_error_wraps_sources() {
        let model_err = ModelError::EmptyMode { name: "m".into() };
        let e: ScheduleError = model_err.clone().into();
        assert_eq!(e, ScheduleError::Model(model_err));
        assert!(e.source().is_some());
    }

    #[test]
    fn violation_display_mentions_entities() {
        let v = ScheduleViolation::DeadlineMiss {
            message: MessageId::from_index(2),
            at: 1234.0,
        };
        assert!(v.to_string().contains("m2"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ModelError>();
        assert_err::<ScheduleError>();
    }
}
