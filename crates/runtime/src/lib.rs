//! # ttw-runtime — executing TTW schedules over a simulated wireless network
//!
//! The scheduler of [`ttw_core`] produces static mode schedules; this crate
//! executes them the way a deployed TTW network would (Sec. II.B of the
//! paper):
//!
//! * the [`host::Host`] emits one [`beacon::Beacon`] per communication round
//!   and drives the two-phase mode change of Fig. 2;
//! * every node reads its slots from the [`slot_table::ModeTable`]s and only
//!   needs to receive a single beacon to know the full system state
//!   ([`slot_table::RoundDirectory`]);
//! * a node that misses a beacon stays silent for the round
//!   ([`node::BeaconLossPolicy::SkipRound`]), which guarantees that packet
//!   loss never causes message collisions — the unsafe
//!   [`node::BeaconLossPolicy::LegacyTransmit`] alternative is provided to
//!   quantify that guarantee;
//! * the [`sim::Simulation`] runs everything over the Glossy flood simulator
//!   of [`ttw_netsim`] and accounts radio-on time per node;
//! * a [`ttw_netsim::FaultPlan`] injects burst loss, partitions, clock
//!   drift, beacon corruption and host crashes, the
//!   [`node::BeaconLossPolicy::Resync`] policy models safe degradation with
//!   an explicit rejoin, and the online [`safety::SafetyMonitor`] checks the
//!   paper's safety invariants on every executed round.
//!
//! ```
//! use ttw_core::{fixtures, synthesis, SchedulerConfig};
//! use ttw_core::time::millis;
//! use ttw_runtime::sim::{Simulation, SimulationConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (system, mode) = fixtures::fig3_system();
//! let schedule = synthesis::synthesize_mode(&system, mode, &SchedulerConfig::new(millis(10), 5))?;
//! let mut sim = Simulation::with_clustered_topology(
//!     &system, &[schedule], mode, 4, SimulationConfig::default())?;
//! sim.run_hyperperiods(3);
//! assert_eq!(sim.stats().collisions, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod error;
pub mod host;
pub mod node;
pub mod safety;
pub mod sim;
pub mod slot_table;
pub mod stats;

pub use beacon::{Beacon, BeaconDecodeError};
pub use error::RuntimeError;
pub use node::BeaconLossPolicy;
pub use safety::{SafetyMonitor, SafetyViolation};
pub use sim::{NodePlacement, Simulation, SimulationConfig};
pub use stats::RuntimeStats;
