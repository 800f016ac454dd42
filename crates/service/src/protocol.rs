//! Wire protocol: JSON request/response documents carried in frames.
//!
//! Each frame of [`crate::frame`] holds one JSON document with a `"type"`
//! discriminator. Every struct below declares its members in a
//! [`json_object!`](ttw_core::json_object) table and embeds the entity types
//! through the [`Json`] impls `ttw_core` gives them, so anything that
//! round-trips through the deployment JSON also round-trips through the
//! service — including the cache key, which hashes those same codec bytes. The
//! two tagged enums, [`Request`] and [`Response`], are written by hand around
//! those tables: a variant is its table's members with `"type"` merged in at
//! its sorted place, and a frame is read with the tables of every variant
//! held open until `"type"` — the last member our own writer emits — says
//! which one to finish.
//!
//! Documents are written straight into the frame buffer and read straight
//! from the payload ([`ttw_core::json::Writer`] / [`ttw_core::json::Reader`]);
//! no document tree is built on either side.
//!
//! Requests:
//!
//! ```json
//! {"type": "synthesize", "system": {...}, "mode_graph": {...},
//!  "config": {...}, "backend": "ilp", "budget": {"max_nodes": 1000}}
//! {"type": "stats"}
//! {"type": "shutdown"}
//! ```
//!
//! Responses:
//!
//! ```json
//! {"type": "schedule", "served": "cache-memory", "request_milp_nodes": 0,
//!  "service_micros": 42, "schedule": {...}}
//! {"type": "stats", ...counters...}
//! {"type": "error", "message": "..."}
//! {"type": "shutdown-ack"}
//! ```

use crate::stats::StatsSnapshot;
use std::sync::Arc;
use ttw_core::config::SchedulerConfig;
use ttw_core::json::{Json, JsonError, JsonObject, Partial, Reader, Slot, Writer};
use ttw_core::modegraph::ModeGraph;
use ttw_core::schedule::SystemSchedule;
use ttw_core::system::System;

/// The synthesis backend a request is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The exact ILP backend (`ilp-incremental`).
    Ilp,
}

impl BackendKind {
    /// The `"backend"` string on the wire.
    pub fn wire_name(self) -> &'static str {
        match self {
            BackendKind::Ilp => "ilp",
        }
    }

    /// Parses the `"backend"` string of a request.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the unknown backend.
    pub fn from_wire(name: &str) -> Result<Self, JsonError> {
        match name {
            "ilp" => Ok(BackendKind::Ilp),
            other => Err(JsonError::custom(format!("unknown backend `{other}`"))),
        }
    }
}

impl Json for BackendKind {
    fn write(&self, w: &mut Writer<'_>) {
        w.string(self.wire_name());
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let at = r.offset();
        Self::from_wire(&r.string()?).map_err(|error| error.at(at))
    }
}

/// Per-request solver budget caps, applied *on top of* the request's own
/// [`SchedulerConfig`] and the service-wide caps: the effective budget is
/// the minimum of all three. `None` leaves the corresponding config value
/// untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetCaps {
    /// Cap on branch-and-bound nodes for this request.
    pub max_nodes: Option<usize>,
    /// Cap on total simplex iterations for this request.
    pub max_simplex_iterations: Option<usize>,
}

ttw_core::json_object!(BudgetCaps as "`budget`" { max_nodes, max_simplex_iterations });

/// A synthesis request: the full problem statement plus routing and budget.
#[derive(Debug, Clone)]
pub struct SynthesizeRequest {
    /// The system to schedule.
    pub system: System,
    /// Its mode graph.
    pub graph: ModeGraph,
    /// Scheduler configuration (round length, slots, solver parameters).
    pub config: SchedulerConfig,
    /// Which backend solves it.
    pub backend: BackendKind,
    /// Optional per-request budget caps.
    pub budget: BudgetCaps,
}

// A request without a `budget`, or with `null` for one, is uncapped.
ttw_core::json_object!(SynthesizeRequest as "request" {
    system, graph as "mode_graph", config, backend, budget or default
} check graph_covers_system);

/// A mode graph over other modes than the system's would send every walk of
/// it past the system's mode table.
fn graph_covers_system(request: &SynthesizeRequest) -> Result<(), JsonError> {
    Ok(request.graph.check_covers(&request.system)?)
}

/// An incremental re-synthesis request: the successor problem statement
/// plus the cache key of the predecessor entry to re-synthesize from.
#[derive(Debug, Clone)]
pub struct ResynthesizeRequest {
    /// The successor problem, exactly as a fresh synthesis request.
    pub base: SynthesizeRequest,
    /// Cache key (fingerprint) of the predecessor entry. A missing or
    /// mismatched predecessor degrades to a full solve server-side, never
    /// an error.
    pub predecessor: String,
}

ttw_core::json_object!(ResynthesizeRequest as "request" { predecessor; ..base });

/// A request frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Synthesize a schedule (or serve it from cache).
    Synthesize(Box<SynthesizeRequest>),
    /// Re-synthesize incrementally from a cached predecessor.
    Resynthesize(Box<ResynthesizeRequest>),
    /// Report the service counters.
    Stats,
    /// Stop accepting connections and shut the server down.
    Shutdown,
}

/// Where a served schedule came from, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// A solver ran for this request.
    Solved,
    /// The request piggybacked on an identical in-flight solve.
    Coalesced,
    /// Served by the incremental re-synthesis path: unchanged modes reused
    /// from the cached predecessor, dirty modes re-solved (warm-started).
    Incremental,
    /// Served by the in-process memory tier.
    Memory,
    /// Served by the on-disk tier (and promoted to memory).
    Disk,
}

impl ServedFrom {
    /// The `"served"` string on the wire.
    pub fn wire_name(self) -> &'static str {
        match self {
            ServedFrom::Solved => "solved",
            ServedFrom::Coalesced => "coalesced",
            ServedFrom::Incremental => "incremental",
            ServedFrom::Memory => "cache-memory",
            ServedFrom::Disk => "cache-disk",
        }
    }

    /// Parses the `"served"` string of a response.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the unknown value.
    pub fn from_wire(name: &str) -> Result<Self, JsonError> {
        match name {
            "solved" => Ok(ServedFrom::Solved),
            "coalesced" => Ok(ServedFrom::Coalesced),
            "incremental" => Ok(ServedFrom::Incremental),
            "cache-memory" => Ok(ServedFrom::Memory),
            "cache-disk" => Ok(ServedFrom::Disk),
            other => Err(JsonError::custom(format!("unknown served kind `{other}`"))),
        }
    }

    /// `true` when no solver ran for this request (warm service). The
    /// incremental path may re-solve dirty modes, so it is not warm.
    pub fn is_warm(self) -> bool {
        !matches!(self, ServedFrom::Solved | ServedFrom::Incremental)
    }
}

impl Json for ServedFrom {
    fn write(&self, w: &mut Writer<'_>) {
        w.string(self.wire_name());
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let at = r.offset();
        Self::from_wire(&r.string()?).map_err(|error| error.at(at))
    }
}

/// A successfully served schedule plus per-request service metadata.
#[derive(Debug, Clone)]
pub struct ScheduleReply {
    /// The synthesized (or cached) system schedule.
    pub schedule: SystemSchedule,
    /// Where it came from.
    pub served: ServedFrom,
    /// Branch-and-bound nodes spent *by this request* — zero whenever
    /// `served` is warm (the acceptance bar for the cache tier).
    pub request_milp_nodes: usize,
    /// Wall-clock service time of this request in microseconds.
    pub service_micros: u64,
}

ttw_core::json_object!(ScheduleReply as "response" {
    schedule, served, request_milp_nodes, service_micros
});

/// A served schedule whose `"schedule"` member is already compact JSON — the
/// form the TCP front end ships, so that a memory-tier hit costs a copy of
/// the cached text instead of a deep clone and a re-encode of the schedule.
#[derive(Debug)]
pub(crate) struct EncodedReply {
    /// As [`ScheduleReply::served`].
    pub served: ServedFrom,
    /// As [`ScheduleReply::request_milp_nodes`].
    pub request_milp_nodes: usize,
    /// As [`ScheduleReply::service_micros`].
    pub service_micros: u64,
    /// [`Json::to_json`] of the schedule.
    pub body: Arc<str>,
}

impl EncodedReply {
    /// Appends the bytes [`Response::to_json`] renders for the
    /// [`Response::Schedule`] with these fields: the [`ScheduleReply`] table
    /// writes the envelope, with the body spliced in where it would encode
    /// its schedule.
    pub(crate) fn write_json(&self, out: &mut Vec<u8>) {
        out.reserve(self.body.len() + 128);
        let envelope = ScheduleReply {
            schedule: SystemSchedule::default(),
            served: self.served,
            request_milp_nodes: self.request_milp_nodes,
            service_micros: self.service_micros,
        };
        Writer::compact(out).table(
            &envelope,
            &[
                ("schedule", &|w| w.raw(&self.body)),
                ("type", &tag("schedule")),
            ],
        );
    }
}

/// A response frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// A schedule, served or solved.
    Schedule(Box<ScheduleReply>),
    /// The service counters.
    Stats(StatsSnapshot),
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Acknowledges a [`Request::Shutdown`].
    ShutdownAck,
}

/// What writes the `"type"` member of a tagged document.
fn tag(kind: &'static str) -> impl Fn(&mut Writer<'_>) {
    move |w| w.string(kind)
}

impl Json for Request {
    fn write(&self, w: &mut Writer<'_>) {
        match self {
            Request::Synthesize(request) => w.table(&**request, &[("type", &tag("synthesize"))]),
            Request::Resynthesize(request) => {
                w.table(&**request, &[("type", &tag("resynthesize"))]);
            }
            Request::Stats => w.object(&mut [("type", &tag("stats"))]),
            Request::Shutdown => w.object(&mut [("type", &tag("shutdown"))]),
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let (mut kind, mut predecessor) = (Slot::<String>::new(), Slot::new());
        let mut base = SynthesizeRequest::partial();
        let at = r.object("request must be a JSON object", |key, r| match key {
            "type" => kind.read(r, key),
            "predecessor" => predecessor.read(r, key),
            _ => base.offer_or_skip(key, r),
        })?;
        let mut finish = || match kind.take("type")?.as_str() {
            "synthesize" => Ok(Request::Synthesize(Box::new(base.finish()?))),
            "resynthesize" => {
                let predecessor = predecessor.take("predecessor")?;
                let base = base.finish()?;
                Ok(Request::Resynthesize(Box::new(ResynthesizeRequest {
                    base,
                    predecessor,
                })))
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(JsonError::custom(format!("unknown request type `{other}`"))),
        };
        finish().map_err(|error| error.at(at))
    }
}

impl Request {
    /// Serializes the request to a compact JSON document.
    pub fn to_json(&self) -> String {
        Json::to_json(self)
    }

    /// Parses a request frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed JSON, unknown request types and
    /// invalid entity payloads (including model-rule violations in the
    /// system document, and a mode graph over other modes than the
    /// system's).
    pub fn from_json(payload: &[u8]) -> Result<Self, JsonError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| JsonError::custom("request frame is not UTF-8"))?;
        Json::from_json(text)
    }
}

impl Json for Response {
    fn write(&self, w: &mut Writer<'_>) {
        match self {
            Response::Schedule(reply) => w.table(&**reply, &[("type", &tag("schedule"))]),
            Response::Stats(snapshot) => w.table(snapshot, &[("type", &tag("stats"))]),
            Response::Error { message } => {
                w.object(&mut [("message", &|w| message.write(w)), ("type", &tag("error"))])
            }
            Response::ShutdownAck => w.object(&mut [("type", &tag("shutdown-ack"))]),
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let (mut kind, mut message) = (Slot::<String>::new(), Slot::new());
        let (mut reply, mut stats) = (ScheduleReply::partial(), StatsSnapshot::partial());
        let at = r.object("response must be a JSON object", |key, r| match key {
            "type" => kind.read(r, key),
            "message" => message.read(r, key),
            _ => match reply.offer(key, r)? {
                true => Ok(()),
                false => stats.offer_or_skip(key, r),
            },
        })?;
        let mut finish = || match kind.take("type")?.as_str() {
            "schedule" => Ok(Response::Schedule(Box::new(reply.finish()?))),
            "stats" => Ok(Response::Stats(stats.finish()?)),
            "error" => Ok(Response::Error {
                message: message.take("message")?,
            }),
            "shutdown-ack" => Ok(Response::ShutdownAck),
            other => Err(JsonError::custom(format!(
                "unknown response type `{other}`"
            ))),
        };
        finish().map_err(|error| error.at(at))
    }
}

impl Response {
    /// Serializes the response to a compact JSON document.
    pub fn to_json(&self) -> String {
        Json::to_json(self)
    }

    /// Parses a response frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed JSON, unknown response types
    /// and invalid schedule payloads.
    pub fn from_json(payload: &[u8]) -> Result<Self, JsonError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| JsonError::custom("response frame is not UTF-8"))?;
        Json::from_json(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttw_core::fixtures;
    use ttw_core::time::millis;

    fn sample_request() -> Request {
        let (system, graph, _, _) = fixtures::two_mode_graph();
        Request::Synthesize(Box::new(SynthesizeRequest {
            system,
            graph,
            config: SchedulerConfig::new(millis(10), 5),
            backend: BackendKind::Ilp,
            budget: BudgetCaps {
                max_nodes: Some(500),
                max_simplex_iterations: None,
            },
        }))
    }

    #[test]
    fn synthesize_request_round_trips() {
        let request = sample_request();
        let back = Request::from_json(request.to_json().as_bytes()).expect("parses");
        let Request::Synthesize(original) = &request else {
            unreachable!()
        };
        let Request::Synthesize(parsed) = &back else {
            panic!("wrong variant: {back:?}")
        };
        assert_eq!(parsed.backend, BackendKind::Ilp);
        assert_eq!(parsed.budget, original.budget);
        // The config must round-trip to the same cache key.
        assert_eq!(parsed.config, original.config);
        assert_eq!(parsed.system, original.system);
        assert_eq!(parsed.graph, original.graph);
    }

    #[test]
    fn resynthesize_request_round_trips() {
        let Request::Synthesize(base) = sample_request() else {
            unreachable!()
        };
        let request = Request::Resynthesize(Box::new(ResynthesizeRequest {
            base: *base,
            predecessor: "deadbeef-cafe".into(),
        }));
        let back = Request::from_json(request.to_json().as_bytes()).expect("parses");
        let Request::Resynthesize(parsed) = &back else {
            panic!("wrong variant: {back:?}")
        };
        assert_eq!(parsed.predecessor, "deadbeef-cafe");
        assert_eq!(parsed.base.backend, BackendKind::Ilp);
        assert_eq!(parsed.base.budget.max_nodes, Some(500));
    }

    #[test]
    fn incremental_provenance_round_trips_and_is_not_warm() {
        assert_eq!(ServedFrom::Incremental.wire_name(), "incremental");
        assert_eq!(
            ServedFrom::from_wire("incremental").expect("parses"),
            ServedFrom::Incremental
        );
        assert!(!ServedFrom::Incremental.is_warm());
        assert!(ServedFrom::Memory.is_warm());
    }

    #[test]
    fn control_requests_round_trip() {
        for request in [Request::Stats, Request::Shutdown] {
            let back = Request::from_json(request.to_json().as_bytes()).expect("parses");
            assert_eq!(
                std::mem::discriminant(&request),
                std::mem::discriminant(&back)
            );
        }
    }

    #[test]
    fn schedule_response_round_trips() {
        let (system, graph, _, _) = fixtures::two_mode_graph();
        let config = SchedulerConfig::new(millis(10), 5);
        let schedule = ttw_core::synthesis::synthesize_system(
            &system,
            &graph,
            &config,
            &ttw_core::synthesis::IlpSynthesizer,
        )
        .expect("feasible");
        let reply = Response::Schedule(Box::new(ScheduleReply {
            request_milp_nodes: schedule.totals().nodes_explored,
            schedule,
            served: ServedFrom::Solved,
            service_micros: 1234,
        }));
        let back = Response::from_json(reply.to_json().as_bytes()).expect("parses");
        let Response::Schedule(parsed) = back else {
            panic!("wrong variant")
        };
        let Response::Schedule(original) = reply else {
            unreachable!()
        };
        assert_eq!(parsed.schedule, original.schedule);
        assert_eq!(parsed.served, ServedFrom::Solved);
        assert_eq!(parsed.service_micros, 1234);
    }

    #[test]
    fn spliced_reply_is_byte_identical_to_the_value_codec() {
        let (system, graph, _, _) = fixtures::two_mode_graph();
        let schedule = ttw_core::synthesis::synthesize_system(
            &system,
            &graph,
            &SchedulerConfig::new(millis(10), 5),
            &ttw_core::synthesis::IlpSynthesizer,
        )
        .expect("feasible");
        let body: Arc<str> = Arc::from(schedule.to_json());
        // Numbers at and beyond f64's integer range print as the tree's do.
        let numbers = [
            (0, 0),
            (117, 42),
            (usize::MAX, u64::MAX),
            (1 << 53, (1 << 53) + 1),
        ];
        for (request_milp_nodes, service_micros) in numbers {
            for served in [
                ServedFrom::Solved,
                ServedFrom::Coalesced,
                ServedFrom::Incremental,
                ServedFrom::Memory,
                ServedFrom::Disk,
            ] {
                let mut spliced = Vec::new();
                EncodedReply {
                    served,
                    request_milp_nodes,
                    service_micros,
                    body: Arc::clone(&body),
                }
                .write_json(&mut spliced);
                let reply = Response::Schedule(Box::new(ScheduleReply {
                    schedule: schedule.clone(),
                    served,
                    request_milp_nodes,
                    service_micros,
                }));
                assert_eq!(String::from_utf8(spliced).expect("utf-8"), reply.to_json());
            }
        }
    }

    #[test]
    fn error_and_ack_round_trip() {
        let error = Response::Error {
            message: "overloaded".into(),
        };
        let Response::Error { message } =
            Response::from_json(error.to_json().as_bytes()).expect("parses")
        else {
            panic!("wrong variant")
        };
        assert_eq!(message, "overloaded");
        assert!(matches!(
            Response::from_json(Response::ShutdownAck.to_json().as_bytes()),
            Ok(Response::ShutdownAck)
        ));
    }

    #[test]
    fn a_mistyped_member_is_named_by_path_and_byte_offset() {
        let honest = sample_request().to_json();
        let member = "\"max_nodes\":200000";
        let at = honest.find(member).expect("the solver's node limit") + 12;
        let hostile = honest.replacen(member, "\"max_nodes\":-1", 1);
        assert_eq!(
            Request::from_json(hostile.as_bytes())
                .expect_err("a negative limit")
                .to_string(),
            format!(
                "`config`: `solver`: `max_nodes`: expected a non-negative integer at byte {at}"
            )
        );
        // A member the variant has no use for may hold anything that is JSON.
        assert!(Request::from_json(br#"{"system":7,"type":"stats","config":[{}]}"#).is_ok());
        assert_eq!(
            Request::from_json(br#" {"type":"resynthesize"}"#)
                .expect_err("no members")
                .to_string(),
            "missing field `predecessor` at byte 1"
        );
    }

    #[test]
    fn unknown_types_and_backends_are_errors() {
        assert!(Request::from_json(b"{\"type\": \"frobnicate\"}").is_err());
        assert!(Request::from_json(b"not json").is_err());
        assert!(Request::from_json(&[0xff, 0xfe]).is_err());
        assert!(Response::from_json(b"{\"type\": \"nope\"}").is_err());
        assert!(BackendKind::from_wire("quantum").is_err());
        assert!(ServedFrom::from_wire("microwave").is_err());
    }
}
