//! The four workloads. Each loads a different set of layers, so a change to
//! one layer has a workload that shows it and workloads that must not move.

pub mod admission_edit;
pub mod cold_solve;
pub mod runtime_faults;
pub mod warm_hit;
