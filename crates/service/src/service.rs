//! The scheduler service: cache tiers, coalescing, admission and routing.
//!
//! [`SchedulerService`] is the transport-independent core — the TCP server
//! of [`crate::server`] is a thin framing loop around
//! [`SchedulerService::handle_synthesize`] and
//! [`SchedulerService::handle_resynthesize`], and the load bench drives the
//! same entry points. Both are one pipeline that differs only in the
//! leader's solve step (5). A request flows:
//!
//! 1. **Budget caps** — the request's own [`BudgetCaps`](crate::protocol::BudgetCaps) and the
//!    service-wide caps are folded into the request config (minimum wins),
//!    *before* the cache key is computed, so differently-budgeted requests
//!    never alias one cache entry.
//! 2. **Cache probe** — memory tier, then disk tier (promoting). A hit is
//!    served with zero solver nodes.
//! 3. **Coalescing** — a miss joins the in-flight table. Followers block on
//!    the leader's flight. A fresh leader *re-probes* the cache: the prior
//!    leader for this key may have stored and retired between our probe and
//!    our join, and this re-probe is what makes "identical concurrent
//!    requests solve exactly once" a hard invariant rather than a race.
//! 4. **Admission** — leaders that still need a solver acquire a slot from
//!    the bounded [`AdmissionQueue`] (or bounce with `overloaded`).
//! 5. **Solve, store, publish** — the ILP backend runs (from scratch, or
//!    incrementally from the request's predecessor entry), the result lands
//!    in the cache — its file too, when the cache has a disk tier — *before*
//!    the flight retires, and followers wake.
//!
//! The TCP front end asks one thing first. A payload whose exact bytes were
//! already answered from the memory tier — recorded on the entry by its
//! first wire hit — is served from that entry as it stands
//! ([`ScheduleCache::probe_repeat`]): no decode, no key, no probe of the
//! disk tier. A decoded request depends only on its bytes, and the key only
//! on the request and this service's fixed [`ServiceConfig`], so the bytes
//! name the entry step 2 would find. A repeat counts as the request and
//! memory hit it is; bytes with no resident entry count nothing and are
//! decoded. Both doors turn a hit into the reply frame through one function.

use crate::admission::AdmissionQueue;
use crate::coalesce::{InflightTable, Role};
use crate::protocol::{
    EncodedReply, ResynthesizeRequest, ScheduleReply, ServedFrom, SynthesizeRequest,
};
use crate::stats::{ServiceStats, StatsSnapshot};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use ttw_core::cache::{synthesis_key, ScheduleCache};
use ttw_core::config::SchedulerConfig;
use ttw_core::json::Json;
use ttw_core::resynth::resynthesize_system;
use ttw_core::schedule::SystemSchedule;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer, Synthesizer};

/// Tuning knobs of a [`SchedulerService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Disk tier directory; `None` runs the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Maximum concurrent solver runs.
    pub max_active_solves: usize,
    /// Maximum requests queued for a solver slot before rejection.
    pub max_waiting: usize,
    /// Service-wide hard cap on branch-and-bound nodes per request.
    pub max_nodes_cap: Option<usize>,
    /// Service-wide hard cap on simplex iterations per request.
    pub max_simplex_cap: Option<usize>,
    /// Cap on schedules resident in the cache's memory tier; `None` is
    /// unbounded. The oldest-inserted entry is evicted first, accounted by
    /// the `insertions == resident + evictions` identity.
    pub memory_cap: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_dir: None,
            max_active_solves: 2,
            max_waiting: 64,
            max_nodes_cap: None,
            max_simplex_cap: None,
            memory_cap: None,
        }
    }
}

/// Why a request was not served with a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Bounced by the admission queue; retry later.
    Overloaded(String),
    /// The solve itself failed (infeasible, budget exhausted, …).
    Synthesis(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded(message) => write!(f, "overloaded: {message}"),
            ServiceError::Synthesis(message) => write!(f, "synthesis failed: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What the pipeline produced, before it is shaped for a caller: the
/// schedule is still the one shared with the cache entry or the flight.
struct Served {
    key: String,
    schedule: Arc<SystemSchedule>,
    served: ServedFrom,
    request_milp_nodes: usize,
    service_micros: u64,
}

impl Served {
    /// The owned reply of the in-process entry points.
    fn into_reply(self) -> ScheduleReply {
        ScheduleReply {
            schedule: Arc::try_unwrap(self.schedule).unwrap_or_else(|shared| (*shared).clone()),
            served: self.served,
            request_milp_nodes: self.request_milp_nodes,
            service_micros: self.service_micros,
        }
    }
}

/// The transport-independent scheduler service.
#[derive(Debug)]
pub struct SchedulerService {
    config: ServiceConfig,
    cache: ScheduleCache,
    inflight: InflightTable,
    admission: AdmissionQueue,
    stats: ServiceStats,
}

impl SchedulerService {
    /// Builds a service from its config.
    pub fn new(config: ServiceConfig) -> Self {
        let mut cache = match &config.cache_dir {
            Some(dir) => ScheduleCache::new(dir.clone()),
            None => ScheduleCache::in_memory(),
        };
        if let Some(cap) = config.memory_cap {
            cache = cache.with_memory_cap(cap);
        }
        let admission = AdmissionQueue::new(config.max_active_solves, config.max_waiting);
        SchedulerService {
            config,
            cache,
            inflight: InflightTable::new(),
            admission,
            stats: ServiceStats::default(),
        }
    }

    /// A memory-only service with default tuning — the test/bench default.
    pub fn in_memory() -> Self {
        Self::new(ServiceConfig::default())
    }

    /// The shared schedule cache (both tiers).
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// A point-in-time copy of every service and cache counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(&self.cache)
    }

    /// Folds per-request and service-wide budget caps into the config.
    /// Must run before the cache key is computed: the key hashes the
    /// config, so capped and uncapped requests are distinct entries.
    fn effective_config(&self, request: &SynthesizeRequest) -> SchedulerConfig {
        let mut config = request.config.clone();
        let node_caps = [request.budget.max_nodes, self.config.max_nodes_cap];
        for cap in node_caps.into_iter().flatten() {
            config.solver.max_nodes = config.solver.max_nodes.min(cap);
        }
        let simplex_caps = [
            request.budget.max_simplex_iterations,
            self.config.max_simplex_cap,
        ];
        for cap in simplex_caps.into_iter().flatten() {
            config.solver.max_simplex_iterations = config.solver.max_simplex_iterations.min(cap);
        }
        config
    }

    /// Serves one synthesis request through the cache → coalesce →
    /// admission → solve pipeline.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the admission queue bounces the
    /// request, [`ServiceError::Synthesis`] when the solve (own or
    /// coalesced) fails.
    pub fn handle_synthesize(
        &self,
        request: &SynthesizeRequest,
    ) -> Result<ScheduleReply, ServiceError> {
        self.serve(request, None).map(Served::into_reply)
    }

    /// The cache key this request resolves to after budget-cap folding —
    /// what a client should pass as `predecessor` in a follow-up
    /// [`ResynthesizeRequest`] for an edited system.
    pub fn request_key(&self, request: &SynthesizeRequest) -> String {
        let config = self.effective_config(request);
        let backend = IlpSynthesizer;
        synthesis_key(&request.system, &request.graph, &config, backend.name())
    }

    /// Counts the payload bytes of a response; called by the framing layer
    /// per response, before it hands the frame to the socket.
    pub fn note_reply_bytes(&self, bytes: usize) {
        ServiceStats::add(&self.stats.reply_bytes, bytes);
    }

    /// Serves one incremental re-synthesis request through the same cache →
    /// coalesce → admission pipeline as [`SchedulerService::handle_synthesize`],
    /// with the leader running [`ttw_core::resynth::resynthesize_system`]
    /// against the request's predecessor entry instead of a from-scratch
    /// solve. A missing or mismatched predecessor degrades to a full solve
    /// inside the incremental path — still reported as
    /// [`ServedFrom::Incremental`], with full solver cost visible in
    /// `request_milp_nodes`.
    ///
    /// # Errors
    ///
    /// As [`SchedulerService::handle_synthesize`].
    pub fn handle_resynthesize(
        &self,
        request: &ResynthesizeRequest,
    ) -> Result<ScheduleReply, ServiceError> {
        self.serve(&request.base, Some(&request.predecessor))
            .map(Served::into_reply)
    }

    /// The pipeline for the TCP front end: the same request served, with
    /// the schedule as the compact JSON the reply frame carries. `payload`
    /// is the bytes `request` (and `predecessor`) were decoded from; a warm
    /// reply records them on its entry for [`SchedulerService::serve_repeat`].
    ///
    /// # Errors
    ///
    /// As [`SchedulerService::handle_synthesize`].
    pub(crate) fn serve_encoded(
        &self,
        request: &SynthesizeRequest,
        predecessor: Option<&str>,
        payload: &[u8],
    ) -> Result<EncodedReply, ServiceError> {
        let served = self.serve(request, predecessor)?;
        Ok(self.encode(served, Some(payload)))
    }

    /// The reply to a request payload that was already answered from the
    /// memory tier, served from the entry its bytes were recorded on: one
    /// request and one memory hit, and nothing decoded. `None` when the
    /// bytes are not recorded or their entry has left the memory tier;
    /// nothing is counted then, and the caller decodes the payload and
    /// serves it through [`SchedulerService::serve_encoded`].
    pub(crate) fn serve_repeat(&self, payload: &[u8]) -> Option<EncodedReply> {
        let start = Instant::now();
        let (key, schedule) = self.cache.probe_repeat(payload)?;
        ServiceStats::bump(&self.stats.requests);
        let served = Served {
            key,
            schedule,
            served: ServedFrom::Memory,
            request_milp_nodes: 0,
            service_micros: start.elapsed().as_micros() as u64,
        };
        Some(self.encode(served, None))
    }

    /// Shapes a served request into its reply frame's fields; a warm reply
    /// also records `payload` on its entry.
    fn encode(&self, served: Served, payload: Option<&[u8]>) -> EncodedReply {
        let body = match served.served {
            // A hit's schedule is the memory tier's entry (a disk hit was
            // promoted into it): the first such reply builds the body and
            // records the request bytes, the entry keeps both, and every
            // later hit is a copy of that body.
            ServedFrom::Memory | ServedFrom::Disk => {
                let body = self.cache.wire_body(&served.key, &served.schedule);
                if let Some(payload) = payload {
                    self.cache
                        .record_request(&served.key, &served.schedule, payload);
                }
                body
            }
            // A fresh result is encoded for this reply alone: an edit stream
            // stores entry after entry that nobody asks for again.
            ServedFrom::Solved | ServedFrom::Coalesced | ServedFrom::Incremental => {
                Arc::from(served.schedule.to_json())
            }
        };
        EncodedReply {
            served: served.served,
            request_milp_nodes: served.request_milp_nodes,
            service_micros: served.service_micros,
            body,
        }
    }

    /// The pipeline of the module docs. `predecessor` selects the leader's
    /// solve-and-store step — a from-scratch solve, or an incremental one
    /// from that cache entry — and nothing else.
    fn serve(
        &self,
        request: &SynthesizeRequest,
        predecessor: Option<&str>,
    ) -> Result<Served, ServiceError> {
        ServiceStats::bump(&self.stats.requests);
        let start = Instant::now();
        let config = self.effective_config(request);
        let backend = IlpSynthesizer;
        let key = synthesis_key(&request.system, &request.graph, &config, backend.name());
        let reply = |schedule: Arc<SystemSchedule>, served, request_milp_nodes| Served {
            key: key.clone(),
            schedule,
            served,
            request_milp_nodes,
            service_micros: start.elapsed().as_micros() as u64,
        };
        let probe = || {
            let (schedule, from_disk) = self.cache.probe(&key).hit()?;
            let served = if from_disk {
                ServedFrom::Disk
            } else {
                ServedFrom::Memory
            };
            Some(reply(schedule, served, 0))
        };

        // 1. Cold probe: both cache tiers, before any coordination.
        if let Some(warm) = probe() {
            return Ok(warm);
        }

        // 2. Coalesce: one flight per key.
        let token = match self.inflight.join(&key) {
            Role::Follower(token) => {
                return match token.wait() {
                    Ok(schedule) => {
                        ServiceStats::bump(&self.stats.coalesced);
                        Ok(reply(schedule, ServedFrom::Coalesced, 0))
                    }
                    Err(message) => {
                        ServiceStats::bump(&self.stats.solve_errors);
                        Err(ServiceError::Synthesis(message))
                    }
                }
            }
            Role::Leader(token) => token,
        };

        // 3. Leadership re-probe: the previous leader may have stored +
        // retired between our probe and our join. Without this, that
        // interleaving would solve the same key twice.
        if let Some(warm) = probe() {
            self.inflight
                .complete(token, Ok(Arc::clone(&warm.schedule)));
            return Ok(warm);
        }

        // 4. Admission: bounded solver concurrency.
        let permit = match self.admission.admit() {
            Ok(permit) => permit,
            Err(overloaded) => {
                ServiceStats::bump(&self.stats.rejected);
                let message = overloaded.to_string();
                self.inflight.complete(token, Err(message.clone()));
                return Err(ServiceError::Overloaded(message));
            }
        };

        // 5. Solve, store, publish — in that order, so by the time followers
        // wake (and the key frees up) the cache is warm. A plain solve stores
        // the schedule alone; `resynthesize_system` stores it, with fresh
        // warm artifacts, under the successor key itself.
        let (system, graph) = (&request.system, &request.graph);
        let result = match predecessor {
            None => synthesize_system(system, graph, &config, &backend).map(|schedule| {
                self.cache.store(&key, &schedule);
                let nodes = schedule.totals().nodes_explored;
                (schedule, nodes)
            }),
            Some(predecessor) => {
                resynthesize_system(system, graph, &config, &backend, &self.cache, predecessor)
                    .map(|(schedule, report)| (schedule, report.solved_milp_nodes))
            }
        };
        drop(permit);
        match result {
            Ok((schedule, nodes)) => {
                let (served, counter) = match predecessor {
                    None => (ServedFrom::Solved, &self.stats.solved),
                    Some(_) => (ServedFrom::Incremental, &self.stats.incremental),
                };
                ServiceStats::bump(counter);
                let solved = reply(Arc::new(schedule), served, nodes);
                self.inflight
                    .complete(token, Ok(Arc::clone(&solved.schedule)));
                Ok(solved)
            }
            Err(error) => {
                ServiceStats::bump(&self.stats.solve_errors);
                let message = error.to_string();
                self.inflight.complete(token, Err(message.clone()));
                Err(ServiceError::Synthesis(message))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BackendKind, BudgetCaps};
    use ttw_core::fixtures;
    use ttw_core::time::millis;

    fn request() -> SynthesizeRequest {
        let (system, graph, _, _) = fixtures::two_mode_graph();
        SynthesizeRequest {
            system,
            graph,
            config: SchedulerConfig::new(millis(10), 5),
            backend: BackendKind::Ilp,
            budget: BudgetCaps::default(),
        }
    }

    /// Sends `base` as either request kind. The resynthesize predecessor
    /// does not exist, so the incremental path degrades to a cold solve and
    /// both kinds run the solver.
    fn send(
        service: &SchedulerService,
        resynthesize: bool,
        base: &SynthesizeRequest,
    ) -> Result<ScheduleReply, ServiceError> {
        if !resynthesize {
            return service.handle_synthesize(base);
        }
        service.handle_resynthesize(&ResynthesizeRequest {
            base: base.clone(),
            predecessor: "absent".into(),
        })
    }

    #[test]
    fn cold_then_warm_serves_from_memory_with_zero_nodes() {
        let service = SchedulerService::in_memory();
        let req = request();
        let cold = service.handle_synthesize(&req).expect("feasible");
        assert_eq!(cold.served, ServedFrom::Solved);
        assert!(cold.request_milp_nodes > 0);
        let warm = service.handle_synthesize(&req).expect("cached");
        assert_eq!(warm.served, ServedFrom::Memory);
        assert_eq!(warm.request_milp_nodes, 0);
        assert_eq!(warm.schedule, cold.schedule);
        let stats = service.snapshot();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.solved, 1);
        assert_eq!(stats.cache_mem_hits, 1);
        assert!(stats.reconciles(), "{stats:?}");
    }

    /// The bytes the TCP front end ships for a served request, checked
    /// against the `Value` codec: decoding them and encoding the result
    /// again must give the same bytes, and the schedule must be the one the
    /// in-process entry point returns.
    fn encoded(
        service: &SchedulerService,
        base: &SynthesizeRequest,
        predecessor: Option<&str>,
    ) -> ScheduleReply {
        use crate::protocol::{Request, Response};
        let request = match predecessor {
            None => Request::Synthesize(Box::new(base.clone())),
            Some(predecessor) => Request::Resynthesize(Box::new(ResynthesizeRequest {
                base: base.clone(),
                predecessor: predecessor.into(),
            })),
        };
        let mut bytes = Vec::new();
        service
            .serve_encoded(base, predecessor, request.to_json().as_bytes())
            .expect("served")
            .write_json(&mut bytes);
        let Ok(Response::Schedule(reply)) = Response::from_json(&bytes) else {
            panic!(
                "not a schedule response: {}",
                String::from_utf8_lossy(&bytes)
            );
        };
        assert_eq!(
            Response::Schedule(reply.clone()).to_json().as_bytes(),
            bytes,
            "spliced {:?} reply is not what the codec renders",
            reply.served
        );
        *reply
    }

    #[test]
    fn every_provenance_encodes_to_the_response_codec_bytes() {
        let dir = std::env::temp_dir().join(format!("ttw-service-splice-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk_backed = || {
            SchedulerService::new(ServiceConfig {
                cache_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            })
        };
        let req = request();

        let service = disk_backed();
        let solved = encoded(&service, &req, None);
        assert_eq!(solved.served, ServedFrom::Solved);
        // The first hit builds the entry's body, the second copies it.
        for _ in 0..2 {
            let hit = encoded(&service, &req, None);
            assert_eq!(hit.served, ServedFrom::Memory);
            assert_eq!(hit.schedule, solved.schedule);
        }
        let owned = service.handle_synthesize(&req).expect("cached");
        assert_eq!(owned.schedule, solved.schedule);

        // One WCET microsecond on: an incremental solve from that entry.
        let mut edited = req.clone();
        let task = edited
            .system
            .tasks()
            .map(|(id, _)| id)
            .next()
            .expect("task");
        let wcet = edited.system.task(task).wcet;
        edited
            .system
            .set_task_wcet(task, wcet + 1)
            .expect("non-zero");
        let incremental = encoded(&service, &edited, Some(&service.request_key(&req)));
        assert_eq!(incremental.served, ServedFrom::Incremental);
        assert_ne!(incremental.schedule, solved.schedule);
        assert!(service.snapshot().reconciles());
        drop(service);

        // A new process over the same directory: a disk hit, promoted, whose
        // body the promoted entry then keeps.
        let restarted = disk_backed();
        let disk = encoded(&restarted, &req, None);
        assert_eq!(disk.served, ServedFrom::Disk);
        assert_eq!(disk.schedule, solved.schedule);
        assert_eq!(encoded(&restarted, &req, None).served, ServedFrom::Memory);
        drop(restarted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_coalesced_reply_encodes_to_the_response_codec_bytes() {
        let req = request();
        let schedule = Arc::new(
            synthesize_system(&req.system, &req.graph, &req.config, &IlpSynthesizer)
                .expect("feasible"),
        );
        // This test is the leader, so the request below can only follow —
        // provided it joins before the flight lands. Nothing outside the
        // follower says when it has joined; a late one solves for itself,
        // which is a correct reply of another kind, and the round is re-run.
        let coalesced = (0..50).find_map(|_| {
            let service = SchedulerService::in_memory();
            let Role::Leader(token) = service.inflight.join(&service.request_key(&req)) else {
                unreachable!("fresh table")
            };
            std::thread::scope(|scope| {
                let follower = scope.spawn(|| encoded(&service, &req, None));
                // Its cold probe is the last thing it does before joining.
                while service.cache().misses() == 0 {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                service.inflight.complete(token, Ok(Arc::clone(&schedule)));
                let reply = follower.join().expect("follower");
                assert!(service.snapshot().reconciles());
                (reply.served == ServedFrom::Coalesced).then_some(reply)
            })
        });
        let coalesced = coalesced.expect("a follower joined in time in one of 50 rounds");
        assert_eq!(coalesced.schedule, *schedule);
        assert_eq!(coalesced.request_milp_nodes, 0);
    }

    #[test]
    fn budget_caps_change_the_cache_key_and_can_fail_the_solve() {
        for resynthesize in [false, true] {
            let service = SchedulerService::in_memory();
            let mut req = request();
            service.handle_synthesize(&req).expect("uncapped feasible");
            // A starved budget must not alias the uncapped entry: it has to
            // run (and fail) rather than hit the cache.
            req.budget = BudgetCaps {
                max_nodes: Some(0),
                max_simplex_iterations: Some(1),
            };
            let starved = send(&service, resynthesize, &req);
            assert!(matches!(starved, Err(ServiceError::Synthesis(_))));
            let stats = service.snapshot();
            assert_eq!(stats.solve_errors, 1);
            assert!(stats.reconciles(), "{stats:?}");
        }
    }

    #[test]
    fn service_wide_caps_apply_without_a_request_budget() {
        let config = ServiceConfig {
            max_nodes_cap: Some(0),
            max_simplex_cap: Some(1),
            ..ServiceConfig::default()
        };
        let service = SchedulerService::new(config);
        let starved = service.handle_synthesize(&request());
        assert!(matches!(starved, Err(ServiceError::Synthesis(_))));
    }

    #[test]
    fn concurrent_identical_requests_solve_exactly_once() {
        const CLIENTS: usize = 6;
        // All synthesize, all resynthesize, and the two kinds racing for the
        // same successor key.
        let mixed = [false, true, false, true, false, true];
        for kinds in [[false; CLIENTS], [true; CLIENTS], mixed] {
            let service = Arc::new(SchedulerService::in_memory());
            let req = request();
            let replies: Vec<ScheduleReply> = std::thread::scope(|scope| {
                let workers: Vec<_> = kinds
                    .iter()
                    .map(|&resynthesize| {
                        let (service, req) = (&service, &req);
                        scope.spawn(move || send(service, resynthesize, req).expect("feasible"))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("worker"))
                    .collect()
            });
            let stats = service.snapshot();
            assert_eq!(stats.requests, CLIENTS);
            // The hard invariant: one solve total, however the rest of the
            // requests split between coalescing and cache hits.
            assert_eq!(stats.solved + stats.incremental, 1, "{stats:?}");
            assert_eq!(stats.coalesced + stats.cache_hits, CLIENTS - 1, "{stats:?}");
            assert!(stats.reconciles(), "{stats:?}");
            let solved: Vec<_> = replies.iter().filter(|r| !r.served.is_warm()).collect();
            assert_eq!(solved.len(), 1);
            for reply in &replies {
                assert_eq!(reply.schedule, solved[0].schedule);
                if reply.served.is_warm() {
                    assert_eq!(reply.request_milp_nodes, 0);
                }
            }
        }
    }

    #[test]
    fn zero_wait_line_bounces_the_overflow() {
        // Distinct systems so the requests cannot coalesce.
        let (system_b, graph_b, _) = fixtures::four_mode_diamond();
        let reqs = [
            request(),
            SynthesizeRequest {
                system: system_b,
                graph: graph_b,
                ..request()
            },
        ];
        for resynthesize in [false, true] {
            let config = ServiceConfig {
                max_active_solves: 1,
                max_waiting: 0,
                ..ServiceConfig::default()
            };
            let service = Arc::new(SchedulerService::new(config));
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let workers: Vec<_> = reqs
                    .iter()
                    .map(|req| {
                        let service = &service;
                        scope.spawn(move || send(service, resynthesize, req).map(|r| r.served))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("worker"))
                    .collect()
            });
            let stats = service.snapshot();
            assert!(stats.reconciles(), "{stats:?}");
            // Either both squeezed through sequentially or one was bounced;
            // what must never happen is a lost request.
            let rejected = outcomes
                .iter()
                .filter(|o| matches!(o, Err(ServiceError::Overloaded(_))))
                .count();
            assert_eq!(stats.rejected, rejected);
            assert_eq!(stats.requests, 2);
        }
    }
}
