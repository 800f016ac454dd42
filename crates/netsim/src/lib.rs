//! # ttw-netsim — slot-stepped simulator of a Glossy-based multi-hop network
//!
//! TTW executes its static schedules over a low-power wireless multi-hop
//! network in which every communication is a network-wide [Glossy] flood.
//! The paper evaluates TTW analytically; this crate provides the simulation
//! substrate the reproduction uses to *execute* synthesized schedules: packet
//! loss, missed beacons and mode changes can then be exercised end-to-end by
//! the `ttw-runtime` crate.
//!
//! The crate contains:
//!
//! * [`topology`] — connectivity graphs (line, ring, grid, star, random
//!   geometric) with hop distances and diameter;
//! * [`link`] — per-link reception models (perfect, uniform loss, distance
//!   dependent);
//! * [`flood`] — the Glossy flood engine: slot-by-slot constructive flooding
//!   with `N` retransmissions per node. [`Flood`] is the engine and keeps its
//!   buffers from one flood to the next, so the runtime floods every slot
//!   without allocating; [`simulate_flood`] is its one-shot form;
//! * [`faults`] — declarative, seeded fault plans: burst loss, partitions,
//!   clock drift, beacon corruption, host crash windows;
//! * [`radio`] — per-node radio-on time accounting consistent with the
//!   `ttw-timing` model.
//!
//! [Glossy]: https://doi.org/10.1109/IPSN.2011.5779066
//!
//! ```
//! use ttw_netsim::topology::Topology;
//! use ttw_netsim::link::LinkModel;
//! use ttw_netsim::flood::{simulate_flood, Flood, FloodConfig};
//!
//! let topo = Topology::line(5);
//! assert_eq!(topo.diameter(), 4);
//! let mut links = LinkModel::perfect();
//! let outcome = simulate_flood(&topo, &mut links, 0, &FloodConfig::default());
//! assert!(outcome.all_received());
//!
//! // The same flood on a reusable engine, from the other end of the line.
//! let mut flood = Flood::new();
//! flood.run(&topo, &mut links, 4, &FloodConfig::default());
//! assert_eq!(flood.first_reception_slot()[0], Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod flood;
pub mod link;
pub mod radio;
pub mod rng;
pub mod topology;

pub use faults::{
    BeaconCorruption, ClockFault, ClockState, CrashWindow, FaultPlan, PartitionWindow,
};
pub use flood::{simulate_flood, Flood, FloodConfig, FloodOutcome};
pub use link::{GilbertElliott, LinkModel};
pub use topology::Topology;
