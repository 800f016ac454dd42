//! # ttw-core — system model and schedule synthesis of Time-Triggered Wireless
//!
//! This crate implements the primary contribution of the TTW paper: the joint,
//! offline co-scheduling of distributed **tasks**, **messages** and
//! **communication rounds** for low-power wireless CPS.
//!
//! * [`System`] / [`spec`] — the system model of Sec. III: nodes, applications
//!   described by precedence graphs of tasks and messages, and operation modes.
//! * [`ilp`] — the ILP formulation of the appendix (constraints C1–C4 and the
//!   latency objective), built on the [`ttw_milp`] solver.
//! * [`modegraph`] — the mode graph and minimal inheritance of Sec. V:
//!   applications shared between modes keep identical offsets, so mode
//!   changes never re-time a running application.
//! * [`synthesis`] — Algorithm 1 (minimal number of rounds, then minimal
//!   end-to-end latency) per mode ([`synthesis::synthesize_mode`]), lifted to
//!   the mode graph by [`synthesis::synthesize_system`] with inherited
//!   offsets pinned through the solver's bound-tightening API. One driver
//!   solves every mode, in the mode graph's synthesis order on the calling
//!   thread;
//!   the two doors below are the same driver behind the cache.
//! * [`cache`] — a content-keyed two-tier (memory, then disk) schedule
//!   cache: [`cache::synthesize_system_cached`] skips synthesis entirely when
//!   the same system/graph/config/backend was already solved by this build.
//! * [`resynth`] — [`resynth::resynthesize_system`]: the same driver started
//!   from a cached predecessor — unchanged modes kept verbatim and shared
//!   with the predecessor's cache entry, edited ones
//!   re-solved from their cached root basis — and [`delta`], the per-node
//!   patches that ship the difference.
//! * [`validate`] — an independent checker that re-verifies every synthesized
//!   schedule against the model semantics.
//! * [`analysis`] — the closed-form latency lower bound of Eq. 13.
//! * [`feasibility`] — sound static infeasibility certificates (utilization,
//!   round capacity, Eq. 13 deadlines) powering the `AnalyzeFirst` gate and
//!   the `ttw-analyze` diagnostics crate.
//! * [`fixtures`] — the Fig. 3 control application and synthetic workloads.
//!
//! ```
//! use ttw_core::{fixtures, synthesis, SchedulerConfig};
//! use ttw_core::time::millis;
//!
//! # fn main() -> Result<(), ttw_core::synthesis::SynthesisFailure> {
//! let (system, mode) = fixtures::fig3_system();
//! let config = SchedulerConfig::new(millis(10), 5);
//! let schedule = synthesis::synthesize_mode(&system, mode, &config)?;
//! assert_eq!(schedule.num_rounds(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod chains;
pub mod config;
pub mod delta;
pub mod error;
pub mod export;
pub mod feasibility;
pub mod fixtures;
pub mod ids;
pub mod ilp;
pub mod json;
pub mod modegraph;
pub mod resynth;
pub mod schedule;
pub mod spec;
pub mod synthesis;
pub mod system;
pub mod time;
pub mod validate;

pub use cache::{synthesize_system_cached, CacheOutcome, ScheduleCache, SynthesisArtifacts};
pub use chains::{Chain, ChainElement};
pub use config::SchedulerConfig;
pub use delta::{NodeDeployment, NodeModeTable, NodePatchOp, ScheduleDelta};
pub use error::{ModelError, ScheduleError, ScheduleViolation};
pub use feasibility::InfeasibilityCertificate;
pub use ids::{AppId, MessageId, ModeId, NodeId, TaskId};
pub use modegraph::{InheritedOffsets, ModeGraph};
pub use resynth::{resynthesize_system, ResynthesisReport};
pub use schedule::{ModeSchedule, ScheduledRound, SynthesisStats, SystemSchedule};
pub use spec::{ApplicationSpec, MessageSpec, TaskSpec};
pub use synthesis::{
    IlpSynthesizer, ModePrior, ModeWarmStart, SolvedMode, SynthesisFailure, Synthesizer,
    SystemSynthesisError,
};
pub use system::{Application, Message, Mode, Node, PrecedenceEdge, System, Task};
