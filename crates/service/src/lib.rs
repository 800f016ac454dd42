//! # ttw-service — synthesis as a service
//!
//! A long-running scheduler server in the `webserver` / `manager` /
//! `scheduler` / `backend` split: clients ship a system, mode graph and
//! scheduler configuration over TCP and get back a synthesized (or cached)
//! [`ttw_core::schedule::SystemSchedule`]. This is the "millions of users"
//! refactor of the ROADMAP: the scheduler stops being a CLI that solves one
//! problem and becomes a shared process in front of a shared cache.
//!
//! The layering, bottom-up:
//!
//! * [`frame`] — 4-byte big-endian length prefix + JSON payload over any
//!   `Read`/`Write` pair (no HTTP crate exists offline; the framing is the
//!   maelstrom-style minimum that survives TCP segmentation).
//! * [`protocol`] — typed request/response documents over the codec forms
//!   [`ttw_core::export`] declares, so wire payloads round-trip exactly like
//!   deployment JSON, and a decoded request hashes to the same cache key as
//!   its in-process twin (the key is a hash of those same codec bytes).
//! * [`stats`] — relaxed-atomic service counters and their wire snapshot;
//!   `requests == solved + incremental + coalesced + cache_hits + rejected +
//!   solve_errors` reconciles across the whole pipeline, every
//!   `repeat_hits` is a memory hit, and the bounded memory tier's
//!   `insertions == resident + evictions`.
//! * [`coalesce`] — the in-flight table: identical synthesis keys share one
//!   solve (leader/follower on a condvar), with panic-safe leader tokens.
//! * [`admission`] — a bounded semaphore with a bounded wait line in front
//!   of the solvers; saturation bounces with `overloaded` instead of
//!   queueing unboundedly.
//! * [`service`] — [`service::SchedulerService`]: budget-cap folding, the
//!   two-tier [`ttw_core::cache::ScheduleCache`] probe, the leadership
//!   re-probe that makes "identical concurrent requests solve exactly once"
//!   a hard invariant, and the solve through the ILP backend.
//! * [`server`] / [`client`] — the thread-per-connection TCP front end and
//!   its blocking counterpart. The server answers a payload whose exact
//!   bytes the memory tier already answered from that entry, undecoded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod coalesce;
pub mod frame;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stats;

pub use client::{Client, ClientError};
pub use protocol::{
    BackendKind, BudgetCaps, Request, Response, ResynthesizeRequest, ScheduleReply, ServedFrom,
    SynthesizeRequest,
};
pub use server::ServerHandle;
pub use service::{SchedulerService, ServiceConfig, ServiceError};
pub use stats::StatsSnapshot;
