//! # ttw — Time-Triggered Wireless
//!
//! A reproduction of *"TTW: A Time-Triggered Wireless design for CPS"*
//! (DATE 2018, extended version arXiv:1711.05581) as a Rust workspace. This
//! facade crate re-exports the individual crates so applications can depend on
//! a single entry point:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`analyze`] | `ttw-analyze` | static feasibility diagnostics: infeasibility certificates and near-infeasibility warnings |
//! | [`core`] | `ttw-core` | system model, ILP co-scheduling, Algorithm 1, validation, latency analysis |
//! | [`milp`] | `ttw-milp` | the MILP solver substrate (simplex + branch & bound) |
//! | [`timing`] | `ttw-timing` | Glossy timing/energy model (Table I, Fig. 5–7) |
//! | [`netsim`] | `ttw-netsim` | multi-hop topology + Glossy flood simulator |
//! | [`runtime`] | `ttw-runtime` | host/node state machines, beacons, mode changes |
//! | [`baselines`] | `ttw-baselines` | no-rounds and loosely-coupled comparison designs |
//! | [`service`] | `ttw-service` | synthesis-as-a-service: TCP scheduler server with cache tiers, request coalescing and admission control |
//! | [`testkit`] | `ttw-testkit` | seeded scenario generator for differential tests and scaling benches |
//!
//! The quickest way to see everything working end to end:
//!
//! ```
//! use ttw::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Describe the Fig. 3 control application and synthesize its schedule.
//! let (system, mode) = ttw::core::fixtures::fig3_system();
//! let config = SchedulerConfig::new(ttw::core::time::millis(10), 5);
//! let schedule = synthesize_mode(&system, mode, &config)?;
//! assert_eq!(schedule.num_rounds(), 2);
//!
//! // 2. Execute it over a lossy 4-hop network.
//! let mut sim = Simulation::with_clustered_topology(
//!     &system, &[schedule], mode, 4, SimulationConfig::default())?;
//! sim.run_hyperperiods(3);
//! assert_eq!(sim.stats().collisions, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ttw_analyze as analyze;
pub use ttw_baselines as baselines;
pub use ttw_core as core;
pub use ttw_milp as milp;
pub use ttw_netsim as netsim;
pub use ttw_runtime as runtime;
pub use ttw_service as service;
pub use ttw_testkit as testkit;
pub use ttw_timing as timing;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use ttw_analyze::{analyze_mode, analyze_system, AnalysisReport, Diagnostic, Severity};
    pub use ttw_baselines::{latency_improvement_factor, NoRoundsDesign};
    pub use ttw_core::synthesis::{
        synthesize_mode, synthesize_system, IlpSynthesizer, Synthesizer,
    };
    pub use ttw_core::validate::{is_valid_schedule, validate_schedule, validate_system_schedule};
    pub use ttw_core::{
        ApplicationSpec, ModeGraph, ModeSchedule, ScheduleError, SchedulerConfig, System,
        SystemSchedule,
    };
    pub use ttw_runtime::{BeaconLossPolicy, Simulation, SimulationConfig};
    pub use ttw_service::{
        BackendKind, Client, SchedulerService, ServerHandle, ServiceConfig, SynthesizeRequest,
    };
    pub use ttw_testkit::{generate, GeneratorConfig, GraphShape};
    pub use ttw_timing::{GlossyConstants, NetworkParams};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_resolve() {
        let constants = crate::timing::GlossyConstants::table1();
        assert!(constants.is_valid());
        let (system, _) = crate::core::fixtures::fig3_system();
        assert_eq!(system.num_nodes(), 5);
        let graph = crate::core::ModeGraph::complete(&system);
        let config = crate::core::SchedulerConfig::new(crate::core::time::millis(10), 5);
        assert!(crate::analyze::analyze_system(&system, &graph, &config).is_clean());
    }
}
