//! What the three service workloads share: a lap's fresh memory-only
//! service behind a loopback server with one blocking client, the schedule
//! checks, and the traced replay of a request through each layer.

use crate::estimate::median;
use crate::harness::{add, count, Counts, TIMED_SPAN};
use crate::trace::Tracer;
use std::sync::Arc;
use ttw_analyze::analyze_system;
use ttw_core::cache::ScheduleCache;
use ttw_core::export::{system_schedule_from_json, system_schedule_to_json, system_to_json};
use ttw_core::ilp::{build_ilp_inherited, extract_schedule};
use ttw_core::modegraph::InheritedOffsets;
use ttw_core::schedule::{SynthesisStats, SystemSchedule};
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw_core::validate::validate_system_schedule;
use ttw_service::frame::{read_frame, write_frame};
use ttw_service::{
    BackendKind, BudgetCaps, Client, Request, Response, ScheduleReply, SchedulerService,
    ServerHandle, SynthesizeRequest,
};
use ttw_testkit::Scenario;

/// One lap's service: built fresh, memory-only (the benchmark never opens a
/// disk tier), reached the way a user reaches it — one blocking client on
/// one loopback connection, closed loop.
pub struct ServiceLap {
    /// The service behind the server.
    pub scheduler: Arc<SchedulerService>,
    server: ServerHandle,
    client: Client,
    /// Requests sent over the connection, priming included.
    sent: usize,
    /// Where the traced pass times `store_with_artifacts` and `probe`
    /// without touching the service's own accounting.
    pub scratch: ScheduleCache,
}

impl ServiceLap {
    /// Builds the service, binds an OS-assigned loopback port, connects.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure.
    pub fn start() -> Result<Self, String> {
        let scheduler = Arc::new(SchedulerService::in_memory());
        let server = ServerHandle::bind(Arc::clone(&scheduler), "127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?;
        let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(ServiceLap {
            scheduler,
            server,
            client,
            sent: 0,
            scratch: ScheduleCache::in_memory(),
        })
    }

    /// One request over the connection: client call to decoded reply.
    ///
    /// # Errors
    ///
    /// A transport or protocol failure, a refusal, or a non-schedule reply.
    pub fn send(&mut self, request: &Request) -> Result<ScheduleReply, String> {
        self.sent += 1;
        match self.client.roundtrip(request) {
            Ok(Response::Schedule(reply)) => Ok(*reply),
            Ok(Response::Error { message }) => Err(format!("server error: {message}")),
            Ok(_) => Err("unexpected response type".into()),
            Err(error) => Err(error.to_string()),
        }
    }

    /// Checks the service's accounting identities against what was sent,
    /// then stops the server.
    ///
    /// # Errors
    ///
    /// Returns the identity that does not hold.
    pub fn finish(mut self) -> Result<(), String> {
        let stats = self.scheduler.snapshot();
        drop(self.client);
        self.server.shutdown();
        if !stats.reconciles() {
            return Err(format!("service counters do not reconcile: {stats:?}"));
        }
        if stats.requests != self.sent {
            return Err(format!(
                "{} requests sent, {} counted",
                self.sent, stats.requests
            ));
        }
        Ok(())
    }
}

/// The synthesize request a user would send for a generated scenario.
pub fn synthesize_request(scenario: &Scenario) -> SynthesizeRequest {
    SynthesizeRequest {
        system: scenario.system.clone(),
        graph: scenario.graph.clone(),
        config: scenario.scheduler_config(),
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    }
}

/// The problem statement inside a schedule request.
pub fn base_of(request: &Request) -> &SynthesizeRequest {
    match request {
        Request::Synthesize(base) => base,
        Request::Resynthesize(edit) => &edit.base,
        Request::Stats | Request::Shutdown => unreachable!("workloads only send schedule requests"),
    }
}

/// A served schedule must be valid for the system that asked.
///
/// # Errors
///
/// Returns the first violation.
pub fn check_valid(base: &SynthesizeRequest, schedule: &SystemSchedule) -> Result<(), String> {
    if schedule.num_modes() != base.graph.num_modes() {
        return Err(format!(
            "{} of {} modes scheduled",
            schedule.num_modes(),
            base.graph.num_modes()
        ));
    }
    match validate_system_schedule(&base.system, &base.config, schedule).first() {
        None => Ok(()),
        Some(violation) => Err(format!("invalid schedule: {violation:?}")),
    }
}

/// The deployable content of a schedule as bytes (work counters stripped).
pub fn content_json(schedule: &SystemSchedule) -> Result<String, String> {
    system_schedule_to_json(&schedule.content_only()).map_err(|e| e.to_string())
}

fn frame_roundtrip(payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut wire = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut wire, payload).map_err(|e| e.to_string())?;
    read_frame(&mut wire.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame buffer".to_string())
}

/// Traced lap only: the request `reply` answered over loopback, again
/// through `shadow`'s service in process — encode, frame, decode, handle,
/// encode, frame, decode — and then the calls the handler makes on the way,
/// one span per layer call.
///
/// # Errors
///
/// A codec or handler failure on the in-process path.
pub fn trace_request_layers(
    shadow: &ServiceLap,
    request: &Request,
    reply: &ScheduleReply,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let wire = tracer.span("protocol.encode_request", |_| request.to_json());
    let framed = tracer.span("frame.codec", |_| frame_roundtrip(wire.as_bytes()))?;
    let decoded = tracer
        .span("protocol.decode_request", |_| Request::from_json(&framed))
        .map_err(|e| e.to_string())?;
    let handled = tracer
        .span("service.handle", |_| match &decoded {
            Request::Synthesize(base) => shadow.scheduler.handle_synthesize(base),
            Request::Resynthesize(edit) => shadow.scheduler.handle_resynthesize(edit),
            Request::Stats | Request::Shutdown => unreachable!("decoded from a schedule request"),
        })
        .map_err(|e| e.to_string())?;
    // The reply carries its own service time; the digits of that number are
    // the only bytes of a reply that differ from run to run.
    let timing_digits = handled.service_micros.to_string().len();
    let response = Response::Schedule(Box::new(handled));
    let wire_reply = tracer.span("protocol.encode_reply", |_| response.to_json());
    let framed_reply = tracer.span("frame.codec", |_| frame_roundtrip(wire_reply.as_bytes()))?;
    tracer
        .span("protocol.decode_reply", |_| {
            Response::from_json(&framed_reply)
        })
        .map_err(|e| e.to_string())?;
    add(counts, "protocol.request_bytes", wire.len());
    add(
        counts,
        "protocol.reply_bytes",
        wire_reply.len() - timing_digits,
    );

    // The calls the handler makes on the way, each on its own.
    let base = base_of(request);
    let key = tracer.span("cache.key", |_| shadow.scheduler.request_key(base));
    let artifacts = tracer.span("cache.artifacts", |_| {
        shadow.scheduler.cache().artifacts(&key)
    });
    tracer.span("cache.store", |_| {
        shadow
            .scratch
            .store_with_artifacts(&key, &reply.schedule, artifacts.as_deref());
    });
    tracer.span("cache.probe", |_| shadow.scratch.probe(&key));
    tracer
        .span("export.system_to_json", |_| system_to_json(&base.system))
        .map_err(|e| e.to_string())?;
    let text = tracer
        .span("export.schedule_to_json", |_| {
            system_schedule_to_json(&reply.schedule)
        })
        .map_err(|e| e.to_string())?;
    tracer
        .span("export.schedule_from_json", |_| {
            system_schedule_from_json(&text)
        })
        .map_err(|e| e.to_string())?;
    tracer.span("analyze.gate", |_| {
        analyze_system(&base.system, &base.graph, &base.config)
    });
    tracer.span("validate.system", |_| {
        validate_system_schedule(&base.system, &base.config, &reply.schedule)
    });
    Ok(())
}

/// The solver layers under a served schedule, replayed call by call:
/// `synthesize_system` directly — whose result the served schedule must
/// equal byte for byte — then per mode Algorithm 1's own steps (`build_ilp*`,
/// `add_round`, `IlpInstance::solve` at every round count it attempted,
/// `extract_schedule`).
///
/// # Errors
///
/// A solver failure, or a served schedule that differs from the from-scratch
/// one.
pub fn trace_solver(
    base: &SynthesizeRequest,
    served: &SystemSchedule,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let (system, config) = (&base.system, &base.config);
    let direct = tracer
        .span("synthesis.system", |_| {
            synthesize_system(system, &base.graph, config, &IlpSynthesizer::default())
        })
        .map_err(|e| e.to_string())?;
    if content_json(&direct)? != content_json(served)? {
        return Err("served schedule differs from a from-scratch synthesize_system".into());
    }

    for (mode, done) in direct.iter() {
        let mut inherited = InheritedOffsets::none();
        for (&app, &donor) in direct.inheritance.get(&mode).into_iter().flatten() {
            if let Some(donor) = direct.get(donor) {
                inherited.import_application(system, app, donor);
            }
        }
        let attempts = &done.stats.rounds_attempted;
        let first = *attempts
            .first()
            .ok_or("a scheduled mode attempted no round count")?;
        let mut instance = tracer
            .span("ilp.build", |_| {
                build_ilp_inherited(system, mode, config, first, &inherited)
            })
            .map_err(|e| e.to_string())?;
        let mut solution = None;
        for &rounds in attempts {
            tracer.span("ilp.build", |_| {
                while instance.num_rounds() < rounds {
                    instance.add_round(system, mode, config);
                }
            });
            let solved = tracer
                .span("milp.solve", |_| instance.solve())
                .map_err(|e| e.to_string())?;
            add(counts, "probe.milp_nodes", solved.nodes_explored);
            solution = Some(solved);
        }
        let solution = solution
            .filter(|s| s.is_optimal())
            .ok_or("replayed sweep found no optimum")?;
        tracer.span("ilp.extract", |_| {
            extract_schedule(
                system,
                mode,
                config,
                &instance,
                &solution,
                SynthesisStats::default(),
            )
        });
        add(counts, "ilp.variables", instance.model.num_vars());
        add(counts, "ilp.constraints", instance.model.num_constraints());
        add(counts, "probe.attempts", attempts.len());
        add(counts, "probe.modes", 1);
    }
    Ok(())
}

/// Adds the solver counters of the stats blocks `touched` selects — the
/// modes a solver actually ran for in this op.
pub fn count_solver_work<'a>(
    counts: &mut Counts,
    touched: impl IntoIterator<Item = &'a SynthesisStats>,
) {
    for stats in touched {
        add(counts, "milp.simplex_iterations", stats.simplex_iterations);
        add(counts, "milp.cuts_added", stats.cuts_added);
        add(
            counts,
            "milp.strong_branch_probes",
            stats.strong_branch_probes,
        );
        add(counts, "milp.pump_incumbents", stats.pump_incumbents);
        add(
            counts,
            "milp.presolve_rows_removed",
            stats.presolve_rows_removed,
        );
    }
}

/// End of a traced service lap: the service's own counters, and the values
/// that combine several spans.
pub fn finish_trace(lap: &ServiceLap, tracer: &Tracer, counts: &mut Counts) {
    let stats = lap.scheduler.snapshot();
    counts.insert("service.solved", stats.solved as f64);
    counts.insert("service.incremental", stats.incremental as f64);
    counts.insert("service.cache_hits", stats.cache_hits as f64);
    counts.insert("service.coalesced", stats.coalesced as f64);
    counts.insert("service.rejected", stats.rejected as f64);
    counts.insert("service.solve_errors", stats.solve_errors as f64);
    counts.insert("cache.resident", stats.cache_resident as f64);
    let probes = (stats.cache_hits + stats.cache_misses).max(1);
    counts.insert("cache.hit_ratio", stats.cache_hits as f64 / probes as f64);

    // Loopback round trip minus the same request's in-process path: what
    // the socket, the syscalls and the thread hand-off cost.
    let in_process = [
        "protocol.encode_request",
        "protocol.decode_request",
        "service.handle",
        "protocol.encode_reply",
        "protocol.decode_reply",
    ];
    let parts: Vec<Vec<f64>> = in_process
        .iter()
        .map(|name| tracer.per_op_us(name))
        .collect();
    let roundtrips = tracer.per_op_us(TIMED_SPAN);
    let residuals: Vec<f64> = roundtrips
        .iter()
        .enumerate()
        .map(|(op, roundtrip)| roundtrip - parts.iter().map(|part| part[op]).sum::<f64>())
        .collect();
    counts.insert("server.transport_residual_us", median(&residuals));

    let solve_us: f64 = tracer.per_op_us("milp.solve").iter().sum();
    let (nodes, modes) = (
        count(counts, "probe.milp_nodes"),
        count(counts, "probe.modes"),
    );
    if nodes > 0.0 {
        counts.insert("milp.us_per_node", solve_us / nodes);
    }
    if modes > 0.0 {
        // Algorithm 1 solves per accepted schedule: the wasted-work ratio.
        counts.insert(
            "synthesis.rounds_attempted",
            count(counts, "probe.attempts") / modes,
        );
    }
}
