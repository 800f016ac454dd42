//! End-to-end tests of the scheduler service over real TCP connections.
//!
//! Everything here drives the full stack — client → framing → protocol →
//! service → cache/coalesce/admission → backend — on loopback sockets with
//! OS-assigned ports, so the tests run in parallel without port clashes.

use std::sync::Arc;
use ttw_core::cache::SynthesisArtifacts;
use ttw_core::config::SchedulerConfig;
use ttw_core::fixtures;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer, Synthesizer};
use ttw_core::time::millis;
use ttw_service::{
    BackendKind, BudgetCaps, Client, ClientError, SchedulerService, ServedFrom, ServerHandle,
    ServiceConfig, SynthesizeRequest,
};
use ttw_testkit::{generate, GeneratorConfig, GraphShape};

fn fig3_request() -> SynthesizeRequest {
    let (system, graph, _, _) = fixtures::two_mode_graph();
    SynthesizeRequest {
        system,
        graph,
        config: SchedulerConfig::new(millis(10), 5),
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    }
}

fn start_server() -> ServerHandle {
    ServerHandle::bind(Arc::new(SchedulerService::in_memory()), "127.0.0.1:0")
        .expect("bind loopback")
}

#[test]
fn cold_solve_then_warm_hit_over_tcp() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let cold = client.synthesize(fig3_request()).expect("cold solve");
    assert_eq!(cold.served, ServedFrom::Solved);
    assert!(cold.request_milp_nodes > 0);

    // Same request on a *different* connection: the cache is shared
    // process-wide, not per-connection.
    let mut second = Client::connect(server.addr()).expect("connect");
    let warm = second.synthesize(fig3_request()).expect("warm hit");
    assert_eq!(warm.served, ServedFrom::Memory);
    assert_eq!(warm.request_milp_nodes, 0);
    assert_eq!(warm.schedule, cold.schedule);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.solved, 1);
    assert_eq!(stats.cache_mem_hits, 1);
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn two_concurrent_identical_requests_solve_once() {
    let server = start_server();
    let addr = server.addr();
    const CLIENTS: usize = 4;
    let replies: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.synthesize(fig3_request()).expect("feasible")
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let stats = server.service().snapshot();
    // The coalescing invariant, observable via stats: exactly one solve
    // however the other requests split between followers and cache hits.
    assert_eq!(stats.solved, 1, "{stats:?}");
    assert_eq!(stats.coalesced + stats.cache_hits, CLIENTS - 1, "{stats:?}");
    assert!(stats.reconciles(), "{stats:?}");
    let solved = replies
        .iter()
        .filter(|r| r.served == ServedFrom::Solved)
        .count();
    assert_eq!(solved, 1);
    for reply in &replies {
        assert_eq!(reply.schedule, replies[0].schedule);
        if reply.served.is_warm() {
            assert_eq!(reply.request_milp_nodes, 0);
        }
    }
}

#[test]
fn generated_scenario_round_trips_through_the_wire() {
    let scenario = generate(&GeneratorConfig::small(3, GraphShape::Chain), 8);
    let request = SynthesizeRequest {
        config: scenario.scheduler_config(),
        system: scenario.system,
        graph: scenario.graph,
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    };
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let cold = client.synthesize(request.clone()).expect("feasible");
    let warm = client.synthesize(request).expect("warm");
    assert_eq!(warm.served, ServedFrom::Memory);
    assert_eq!(warm.schedule, cold.schedule);
}

/// A request for a backend the service does not have is refused with an
/// error frame: never a panic, and never another backend's schedule. The
/// connection keeps serving, and the refusal never counts as a request.
#[test]
fn an_unknown_backend_is_refused_and_the_connection_keeps_serving() {
    use ttw_service::Request;
    let server = start_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let honest = Request::Synthesize(Box::new(fig3_request())).to_json();
    let retired = honest.replacen("\"backend\":\"ilp\"", "\"backend\":\"heuristic\"", 1);
    assert_ne!(retired, honest, "a request names its backend");
    let refused = String::from_utf8(exchange_raw(&mut stream, retired.as_bytes())).expect("utf-8");
    assert!(refused.contains("\"error\""), "{refused}");
    assert!(refused.contains("unknown backend `heuristic`"), "{refused}");

    let solved = schedule_of(&exchange_raw(&mut stream, honest.as_bytes()));
    assert_eq!(solved.served, ServedFrom::Solved);
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!((stats.requests, stats.solved), (1, 1), "{stats:?}");
    assert!(stats.reconciles(), "{stats:?}");
}

#[test]
fn infeasible_budget_reports_a_remote_error_and_keeps_the_connection() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut starved = fig3_request();
    starved.budget = BudgetCaps {
        max_nodes: Some(0),
        max_simplex_iterations: Some(1),
    };
    match client.synthesize(starved) {
        Err(ClientError::Remote(message)) => {
            assert!(message.contains("synthesis failed"), "{message}")
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    // The connection survives an application-level error.
    let ok = client
        .synthesize(fig3_request())
        .expect("connection still usable");
    assert_eq!(ok.served, ServedFrom::Solved);
}

#[test]
fn a_starved_solve_fails_every_waiting_client_and_is_not_cached() {
    let server = start_server();
    let addr = server.addr();
    const CLIENTS: usize = 4;
    let mut starved = fig3_request();
    starved.budget = BudgetCaps {
        max_nodes: Some(0),
        max_simplex_iterations: Some(1),
    };
    let expect_failure = |client: &mut Client| match client.synthesize(starved.clone()) {
        Err(ClientError::Remote(message)) => {
            assert!(message.contains("synthesis failed"), "{message}")
        }
        other => panic!("expected a remote error, got {other:?}"),
    };
    // A client may follow the leader's flight, or arrive after it failed
    // and lead a flight of its own: either way it gets the failure.
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| expect_failure(&mut Client::connect(addr).expect("connect")));
        }
    });
    let stats = server.service().snapshot();
    assert_eq!(
        (stats.solve_errors, stats.solved),
        (CLIENTS, 0),
        "{stats:?}"
    );
    assert_eq!(stats.cache_resident, 0, "{stats:?}");
    assert!(stats.reconciles(), "{stats:?}");

    // A failure is not cached: the same request runs, and fails, again.
    let mut client = Client::connect(addr).expect("connect");
    expect_failure(&mut client);
    let stats = server.service().snapshot();
    assert_eq!(stats.solve_errors, CLIENTS + 1, "{stats:?}");
    assert_eq!(stats.cache_resident, 0, "{stats:?}");
    let ok = client
        .synthesize(fig3_request())
        .expect("a default budget solves");
    assert_eq!(ok.served, ServedFrom::Solved);
    assert!(server.service().snapshot().reconciles());
}

#[test]
fn malformed_frames_get_an_error_response_not_a_hangup() {
    use ttw_service::frame::{read_frame, write_frame};
    let server = start_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, b"this is not json").expect("write");
    let payload = read_frame(&mut stream).expect("read").expect("response");
    let text = String::from_utf8(payload).expect("utf-8");
    assert!(text.contains("\"error\""), "{text}");
    assert!(text.contains("bad request"), "{text}");
}

#[test]
fn disk_tier_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("ttw-service-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let first_nodes;
    {
        let server = ServerHandle::bind(
            Arc::new(SchedulerService::new(config.clone())),
            "127.0.0.1:0",
        )
        .expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let cold = client.synthesize(fig3_request()).expect("cold");
        first_nodes = cold.request_milp_nodes;
        assert!(first_nodes > 0);
    }
    // A brand-new server process-equivalent over the same cache dir: the
    // first request is served from disk, with zero solver nodes.
    let server =
        ServerHandle::bind(Arc::new(SchedulerService::new(config)), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let warm = client.synthesize(fig3_request()).expect("warm");
    assert_eq!(warm.served, ServedFrom::Disk);
    assert_eq!(warm.request_milp_nodes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache directory that cannot be created (its parent is a regular file)
/// degrades the service to memory only: requests are served, the failed
/// store leaves nothing behind, and a new service over the same path solves
/// again — a miss, not a corrupt entry.
#[test]
fn an_unwritable_cache_dir_serves_from_memory_and_leaves_no_temp_files() {
    let root = std::env::temp_dir().join(format!("ttw-service-unwritable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir");
    let blocker = root.join("blocker");
    std::fs::write(&blocker, "a regular file").expect("write");
    let config = ServiceConfig {
        cache_dir: Some(blocker.join("cache")),
        ..ServiceConfig::default()
    };
    let bind = || {
        ServerHandle::bind(
            Arc::new(SchedulerService::new(config.clone())),
            "127.0.0.1:0",
        )
        .expect("bind")
    };
    let request = fig3_request();

    let server = bind();
    let mut client = Client::connect(server.addr()).expect("connect");
    let solved = client.synthesize(request.clone()).expect("solves");
    assert_eq!(solved.served, ServedFrom::Solved);
    let hit = client.synthesize(request.clone()).expect("memory hit");
    assert_eq!(hit.served, ServedFrom::Memory);
    assert_eq!(hit.schedule, solved.schedule);
    let first = server.service().snapshot();
    assert_eq!((first.cache_insertions, first.cache_resident), (1, 1));
    assert!(first.reconciles(), "{first:?}");
    drop((client, server));
    let left: Vec<_> = std::fs::read_dir(&root)
        .expect("read root")
        .flatten()
        .map(|entry| entry.file_name())
        .collect();
    assert_eq!(left, ["blocker"], "no directory, entry or temp file");
    assert_eq!(
        std::fs::read_to_string(&blocker).expect("read"),
        "a regular file"
    );

    let server = bind();
    let mut client = Client::connect(server.addr()).expect("connect");
    let again = client.synthesize(request).expect("solves");
    assert_eq!(again.served, ServedFrom::Solved);
    assert_eq!(again.schedule, solved.schedule);
    let stats = server.service().snapshot();
    assert_eq!(
        (stats.cache_misses, stats.cache_corrupt, stats.cache_hits),
        (first.cache_misses, 0, 0),
        "the same misses as the first solve, and no corrupt entry: {stats:?}"
    );
    assert!(stats.reconciles(), "{stats:?}");
    drop((client, server));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_request_stops_the_accept_loop() {
    let server = start_server();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown_server().expect("acknowledged");
    // The accept loop drains within the poke; new connections must stop
    // being served. Allow a few scheduling quanta for the flag to land.
    let mut refused = false;
    for _ in 0..50 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        match Client::connect(addr) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(mut probe) => {
                // A connection accepted in the race window is fine as long
                // as the server stops accepting soon after; try again.
                drop(probe.stats());
            }
        }
    }
    assert!(refused, "server kept accepting connections after shutdown");
}

#[test]
fn resynthesize_over_tcp_reports_incremental_provenance() {
    let service = Arc::new(SchedulerService::new(ServiceConfig {
        memory_cap: Some(64),
        ..ServiceConfig::default()
    }));
    let server = ServerHandle::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Predecessor: a 4-mode chain solved cold.
    let scenario = generate(&GeneratorConfig::small(4, GraphShape::Chain), 3);
    let base = SynthesizeRequest {
        system: scenario.system.clone(),
        graph: scenario.graph.clone(),
        config: scenario.scheduler_config(),
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    };
    let cold = client.synthesize(base.clone()).expect("predecessor solves");
    assert_eq!(cold.served, ServedFrom::Solved);
    let predecessor = service.request_key(&base);
    // A plain `synthesize` stores no artifacts, and without them the edit
    // below would find no predecessor and solve every mode again. Attach the
    // inputs the schedule came from (no warm bases): unchanged modes are then
    // reused and only the edited one is solved.
    let artifacts = SynthesisArtifacts {
        system: base.system.clone(),
        graph: base.graph.clone(),
        config: base.config.clone(),
        backend: IlpSynthesizer.name().to_owned(),
        warm: Default::default(),
    };
    (service.cache()).store_with_artifacts(&predecessor, &cold.schedule, Some(&artifacts));

    // The edit: bump one WCET in the last mode's private application.
    let mut edited = scenario.system.clone();
    let last_mode = edited.modes().map(|(id, _)| id).last().expect("modes");
    let app = edited
        .mode(last_mode)
        .applications
        .iter()
        .copied()
        .find(|&a| edited.modes_of_application(a).len() == 1)
        .expect("the generator gives every mode a private application");
    let task = edited.application(app).tasks[0];
    let wcet = edited.task(task).wcet;
    edited.set_task_wcet(task, wcet + 1).expect("non-zero");

    let reply = client
        .resynthesize(ttw_service::ResynthesizeRequest {
            base: SynthesizeRequest {
                system: edited.clone(),
                ..base.clone()
            },
            predecessor,
        })
        .expect("incremental admission succeeds");
    assert_eq!(reply.served, ServedFrom::Incremental);
    assert!(!reply.served.is_warm(), "incremental may run solvers");
    assert!(
        reply.request_milp_nodes < cold.request_milp_nodes,
        "one-mode edit must cost less than the full cold solve \
         ({} vs {})",
        reply.request_milp_nodes,
        cold.request_milp_nodes
    );

    // The incremental result is what a from-scratch solve of the edited
    // system produces (content compared; warm starts change work counters).
    let scratch = ttw_core::synthesis::synthesize_system(
        &edited,
        &scenario.graph,
        &scenario.scheduler_config(),
        &ttw_core::synthesis::IlpSynthesizer,
    )
    .expect("scratch solve");
    assert_eq!(
        ttw_core::export::system_schedule_to_json(&scratch.content_only()).expect("json"),
        ttw_core::export::system_schedule_to_json(&reply.schedule.content_only()).expect("json"),
    );

    // Re-sending the identical edit hits the successor's cache entry.
    let repeat = client
        .resynthesize(ttw_service::ResynthesizeRequest {
            base: SynthesizeRequest {
                system: edited,
                ..base
            },
            predecessor: "does-not-matter-anymore".into(),
        })
        .expect("repeat served warm");
    assert_eq!(repeat.served, ServedFrom::Memory);
    assert_eq!(repeat.request_milp_nodes, 0);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.solved, 1);
    assert_eq!(stats.incremental, 1);
    assert_eq!(stats.cache_mem_hits, 1);
    assert!(stats.reply_bytes > 0, "server counts bytes on the wire");
    assert!(stats.reconciles(), "{stats:?}");
}

/// One frame kills the server: the JSON parser used to recurse once per `[`
/// with no limit, and a stack overflow aborts the process, not the thread.
#[test]
fn deeply_nested_frame_gets_an_error_and_the_server_keeps_serving() {
    use ttw_service::frame::{read_frame, write_frame};
    let server = start_server();
    let mut hostile = std::net::TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut hostile, &vec![b'['; 200_000]).expect("write");
    let payload = read_frame(&mut hostile).expect("read").expect("response");
    let text = String::from_utf8(payload).expect("utf-8");
    assert!(text.contains("\"error\""), "{text}");
    assert!(text.contains("nesting deeper than 128 levels"), "{text}");

    // The limit holds where the typed reader only passes over a value: in a
    // member no table knows, and in a known one of the wrong kind.
    let bomb = "[".repeat(200_000);
    for frame in [
        format!(r#"{{"type":"stats","x":{bomb}"#),
        format!(r#"{{"type":"synthesize","backend":{bomb}"#),
    ] {
        write_frame(&mut hostile, frame.as_bytes()).expect("write");
        let payload = read_frame(&mut hostile).expect("read").expect("response");
        let text = String::from_utf8(payload).expect("utf-8");
        // The request object is the first level, so the 128th `[` is one
        // too many.
        let offset = frame.find('[').expect("a bomb") + 127;
        let expected = format!("bad request: nesting deeper than 128 levels at byte {offset}");
        assert!(text.contains(&expected), "{text}");
    }

    // The same connection and a second client are both still served.
    write_frame(&mut hostile, br#"{"type":"stats"}"#).expect("write");
    assert!(read_frame(&mut hostile).expect("read").is_some());
    let mut client = Client::connect(server.addr()).expect("connect");
    let served = client
        .synthesize(fig3_request())
        .expect("the server survived");
    assert_eq!(served.served, ServedFrom::Solved);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.requests, 1,
        "the hostile frame never became a request"
    );
    assert!(stats.reconciles(), "{stats:?}");
}

/// `1e999` used to read as infinity, pass for an `f64` member and be written
/// back as `null`, which no such member reads. The tokenizer now refuses the
/// token, wherever it stands.
#[test]
fn a_number_no_f64_holds_is_a_bad_request_and_the_server_keeps_serving() {
    use ttw_service::frame::{read_frame, write_frame};
    use ttw_service::Request;
    let server = start_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let honest = Request::Synthesize(Box::new(fig3_request())).to_json();
    let round = "\"round_duration\":";
    let at = honest.find(round).expect("a config has a round length") + round.len();
    let end = at + honest[at..].find(',').expect("more members follow");
    let hostile = format!("{}1e999{}", &honest[..at], &honest[end..]);
    // A member the config no longer has is skipped, but its number is still
    // read, and refused.
    let config = honest.find("\"config\":{").expect("a config") + "\"config\":{".len();
    let legacy = format!(
        "{}\"epsilon\":1e999,{}",
        &honest[..config],
        &honest[config..]
    );
    for frame in [
        hostile.as_str(),
        legacy.as_str(),
        r#"{"type":"stats","unknown":[-1e999]}"#,
    ] {
        write_frame(&mut stream, frame.as_bytes()).expect("write");
        let payload = read_frame(&mut stream).expect("read").expect("a response");
        let text = String::from_utf8(payload).expect("utf-8");
        assert!(text.contains("\"error\""), "{text}");
        assert!(
            text.contains("bad request: number out of range at byte "),
            "{text}"
        );
    }

    write_frame(&mut stream, honest.as_bytes()).expect("write");
    let payload = read_frame(&mut stream).expect("read").expect("a response");
    assert!(String::from_utf8_lossy(&payload).contains("\"served\":\"solved\""));
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 1, "a bad request never becomes a request");
    assert!(stats.reconciles(), "{stats:?}");
}

/// A well-formed request whose mode graph and system disagree on the mode
/// count used to take the server down: one mode too many indexed past the
/// system's mode table (the connection thread panicked, no error frame, and
/// `requests` stayed bumped with no outcome), and a count of 2^53 aborted
/// the process in `vec![…; num_modes]`. Both are now bad requests.
#[test]
fn mode_graph_over_other_modes_than_the_systems_is_a_bad_request() {
    use ttw_core::json::{Json, Value};
    use ttw_service::frame::{read_frame, write_frame};
    use ttw_service::Request;
    let server = start_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let honest = Request::Synthesize(Box::new(fig3_request())).to_value();
    for (kind, num_modes) in [
        ("synthesize", 3.0),
        ("resynthesize", 3.0),
        ("synthesize", 9007199254740992.0),
        ("synthesize", 1.0),
    ] {
        let Value::Object(mut request) = honest.clone() else {
            panic!("a request is an object")
        };
        request.insert("type".into(), Value::String(kind.into()));
        request.insert("predecessor".into(), Value::String("none".into()));
        let Some(Value::Object(graph)) = request.get_mut("mode_graph") else {
            panic!("a request has a mode graph")
        };
        // Two modes in the system; the edges stay inside both counts.
        graph.insert("num_modes".into(), Value::Number(num_modes));
        graph.insert("edges".into(), Value::Array(Vec::new()));
        write_frame(&mut stream, Value::Object(request).to_json().as_bytes()).expect("write");
        let payload = read_frame(&mut stream).expect("read").expect("a response");
        let text = String::from_utf8(payload).expect("utf-8");
        assert!(text.contains("\"error\""), "{text}");
        assert!(
            text.contains("the system has 2"),
            "{kind} with {num_modes} modes: {text}"
        );
    }

    // The same connection still serves, and every request has an outcome.
    write_frame(&mut stream, honest.to_json().as_bytes()).expect("write");
    let payload = read_frame(&mut stream).expect("read").expect("a response");
    assert!(String::from_utf8_lossy(&payload).contains("\"served\":\"solved\""));
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 1, "a bad request never becomes a request");
    assert!(stats.reconciles(), "{stats:?}");
}

/// Two one-task applications on one node with co-prime periods near one
/// second: `H` ≈ 10¹² µs, so the mode's C3 block would be ≈ 10¹² binaries
/// while no infeasibility certificate fires. The service refuses it before
/// building anything, and the connection keeps serving.
#[test]
fn an_oversized_mode_is_a_solve_error_and_the_server_keeps_serving() {
    use ttw_core::spec::ApplicationSpec;
    let mut system = ttw_core::System::new();
    system.add_node("n0").expect("node");
    let apps = [("first", 999_983), ("second", 1_000_003)].map(|(name, period)| {
        let spec =
            ApplicationSpec::new(name, period, period).with_task(format!("{name}.t0"), "n0", 10);
        system.add_application(&spec).expect("valid app")
    });
    system.add_mode("m", &apps).expect("valid mode");
    let oversized = SynthesizeRequest {
        graph: ttw_core::ModeGraph::complete(&system),
        system,
        ..fig3_request()
    };

    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let started = std::time::Instant::now();
    match client.synthesize(oversized) {
        Err(ClientError::Remote(message)) => assert!(message.contains("too large"), "{message}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "the refusal took {:?}",
        started.elapsed()
    );
    let reply = client.synthesize(fig3_request()).expect("still serving");
    assert_eq!(reply.served, ServedFrom::Solved);
    let stats = client.stats().expect("stats");
    assert_eq!(
        (stats.requests, stats.solve_errors, stats.solved),
        (2, 1, 1)
    );
    assert_eq!(stats.cache_insertions, 1, "the refusal is not cached");
    assert!(stats.reconciles(), "{stats:?}");
}

/// The same pair handed to the service in process (no decoder in front of
/// it) is a failed solve with an outcome, not a panic with none.
#[test]
fn mismatched_mode_graph_in_process_is_a_counted_solve_error() {
    let service = SchedulerService::in_memory();
    let mut request = fig3_request();
    let (_, diamond, _) = fixtures::four_mode_diamond();
    request.graph = diamond;
    let error = service
        .handle_synthesize(&request)
        .expect_err("four modes in the graph, two in the system");
    assert!(error.to_string().contains("the system has 2"), "{error}");
    let stats = service.snapshot();
    assert_eq!((stats.requests, stats.solve_errors), (1, 1));
    assert!(stats.reconciles(), "{stats:?}");
}

/// The server splices a served schedule's envelope around an already encoded
/// body instead of running the response codec. Whatever produced the reply,
/// the frame must be the codec's bytes exactly, and `reply_bytes` must count
/// what was written.
#[test]
fn reply_frames_are_the_codec_bytes_and_are_counted() {
    use ttw_service::frame::{read_frame, write_frame};
    use ttw_service::{Request, Response, ResynthesizeRequest};
    let dir = std::env::temp_dir().join(format!("ttw-service-frames-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bind = || {
        let config = ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        ServerHandle::bind(Arc::new(SchedulerService::new(config)), "127.0.0.1:0").expect("bind")
    };
    // Sends one request as a raw frame; returns the reply's kind and length.
    let exchange = |stream: &mut std::net::TcpStream, request: &Request| {
        write_frame(stream, request.to_json().as_bytes()).expect("write");
        let payload = read_frame(stream).expect("read").expect("response");
        let response = Response::from_json(&payload).expect("decodes");
        assert_eq!(
            response.to_json().as_bytes(),
            payload,
            "frame differs from the codec's rendering of what it decodes to"
        );
        let Response::Schedule(reply) = response else {
            panic!("not a schedule: {}", String::from_utf8_lossy(&payload));
        };
        (reply.served, payload.len())
    };

    // A stats reply is built before its own frame is booked, so it reports
    // the bytes of every reply before it.
    let counted = |stream: &mut std::net::TcpStream| {
        write_frame(stream, Request::Stats.to_json().as_bytes()).expect("write");
        let payload = read_frame(stream).expect("read").expect("response");
        match Response::from_json(&payload).expect("decodes") {
            Response::Stats(stats) => {
                assert!(stats.reconciles(), "{stats:?}");
                stats.reply_bytes
            }
            other => panic!("not stats: {other:?}"),
        }
    };

    let base = fig3_request();
    let mut edited = base.clone();
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

    let server = bind();
    let synthesize = Request::Synthesize(Box::new(base.clone()));
    let resynthesize = Request::Resynthesize(Box::new(ResynthesizeRequest {
        base: edited,
        predecessor: server.service().request_key(&base),
    }));
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut written = 0;
    for (request, expected) in [
        (&synthesize, ServedFrom::Solved),
        (&synthesize, ServedFrom::Memory),
        (&synthesize, ServedFrom::Memory),
        (&resynthesize, ServedFrom::Incremental),
        (&resynthesize, ServedFrom::Memory),
    ] {
        let (served, len) = exchange(&mut stream, request);
        assert_eq!(served, expected);
        written += len;
    }
    // An error response goes through the codec and is counted too.
    write_frame(&mut stream, b"not json").expect("write");
    written += read_frame(&mut stream).expect("read").expect("error").len();
    assert_eq!(counted(&mut stream), written);
    drop((stream, server));

    // After a restart the first reply comes off the disk tier.
    let server = bind();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let (from_disk, disk_len) = exchange(&mut stream, &synthesize);
    assert_eq!(from_disk, ServedFrom::Disk);
    let (promoted, memory_len) = exchange(&mut stream, &synthesize);
    assert_eq!(promoted, ServedFrom::Memory);
    assert_eq!(counted(&mut stream), disk_len + memory_len);
    drop((stream, server));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The encoded body belongs to its cache entry: a later store under the key
/// replaces it, and the next hit serves the new schedule, not stale bytes.
#[test]
fn a_hit_after_an_overwrite_serves_the_new_schedule() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let request = fig3_request();
    let solved = client.synthesize(request.clone()).expect("solves");
    let hit = client.synthesize(request.clone()).expect("hit");
    assert_eq!(hit.served, ServedFrom::Memory);
    assert_eq!(hit.schedule, solved.schedule);

    let mut replaced = solved.schedule.clone();
    replaced.inheritance.clear();
    assert_ne!(replaced, solved.schedule);
    let key = server.service().request_key(&request);
    server
        .service()
        .cache()
        .store_with_artifacts(&key, &replaced, None);
    let after = client.synthesize(request).expect("hit");
    assert_eq!(after.served, ServedFrom::Memory);
    assert_eq!(after.schedule, replaced);
}

/// The root of a mode graph decides which mode fixes a shared application's
/// offsets, so the same graph rooted at another mode is another problem: it
/// is solved, not served the first root's schedule from the cache.
#[test]
fn the_same_graph_rooted_at_another_mode_is_solved_not_a_cache_hit() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let (_, _, _, emergency) = fixtures::two_mode_graph();
    let at_normal = fig3_request();
    let mut at_emergency = at_normal.clone();
    at_emergency.graph = at_normal
        .graph
        .clone()
        .with_root(emergency)
        .expect("a mode of the graph");
    let first = client.synthesize(at_normal).expect("solves");
    assert_eq!(first.served, ServedFrom::Solved);
    let second = client.synthesize(at_emergency.clone()).expect("solves");
    assert_eq!(second.served, ServedFrom::Solved);

    let fresh = synthesize_system(
        &at_emergency.system,
        &at_emergency.graph,
        &at_emergency.config,
        &IlpSynthesizer,
    )
    .expect("feasible");
    assert_eq!(second.schedule.inheritance, fresh.inheritance);
    assert_eq!(second.schedule.content_only(), fresh.content_only());
    assert_ne!(second.schedule.inheritance, first.schedule.inheritance);
}

/// Two connections take the first hit of one entry at the same moment: one
/// of them builds the body, both get the same schedule.
#[test]
fn concurrent_first_hits_of_one_entry_get_identical_replies() {
    let server = start_server();
    let addr = server.addr();
    let solved = Client::connect(addr)
        .expect("connect")
        .synthesize(fig3_request())
        .expect("solves");
    const CLIENTS: usize = 4;
    let barrier = std::sync::Barrier::new(CLIENTS);
    let hits: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    client.synthesize(fig3_request()).expect("hit")
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    for hit in &hits {
        assert_eq!(hit.served, ServedFrom::Memory);
        assert_eq!(hit.schedule, solved.schedule);
    }
    let stats = server.service().snapshot();
    assert_eq!(stats.cache_mem_hits, CLIENTS);
    assert!(stats.reconciles(), "{stats:?}");
}

/// Sends one raw payload and returns the reply frame's bytes.
fn exchange_raw(stream: &mut std::net::TcpStream, payload: &[u8]) -> Vec<u8> {
    use ttw_service::frame::{read_frame, write_frame};
    write_frame(stream, payload).expect("write");
    read_frame(stream).expect("read").expect("a response")
}

/// The schedule reply a frame holds.
fn schedule_of(frame: &[u8]) -> ttw_service::ScheduleReply {
    match ttw_service::Response::from_json(frame).expect("decodes") {
        ttw_service::Response::Schedule(reply) => *reply,
        other => panic!("not a schedule: {other:?}"),
    }
}

/// A reply frame with the digits of its `service_micros` blanked: the only
/// bytes two replies of one entry may differ in.
fn without_micros(frame: &[u8]) -> String {
    let text = String::from_utf8(frame.to_vec()).expect("utf-8");
    let member = "\"service_micros\":";
    let at = text.find(member).expect("a schedule reply") + member.len();
    let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}{}", &text[..at], &text[at + digits..])
}

/// The second hit of a payload is answered from the bytes its first hit
/// recorded, without decoding them: the frame is the decode path's frame to
/// the byte (`service_micros` aside), and it counts as the memory hit it is.
#[test]
fn a_repeated_request_is_answered_undecoded_with_the_decode_paths_frame() {
    use ttw_service::{Request, Response};
    let server = start_server();
    let service = server.service();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let payload = Request::Synthesize(Box::new(fig3_request())).to_json();

    let solved = exchange_raw(&mut stream, payload.as_bytes());
    assert_eq!(schedule_of(&solved).served, ServedFrom::Solved);
    assert_eq!(service.cache().recorded(), 0, "a solve records nothing");

    let decoded = exchange_raw(&mut stream, payload.as_bytes());
    assert_eq!(schedule_of(&decoded).served, ServedFrom::Memory);
    let stats = service.snapshot();
    assert_eq!((stats.cache_mem_hits, stats.repeat_hits), (1, 0));
    assert_eq!(service.cache().recorded(), 1, "the first hit records");

    let repeat = exchange_raw(&mut stream, payload.as_bytes());
    assert_eq!(without_micros(&repeat), without_micros(&decoded));
    let reply = schedule_of(&repeat);
    assert_eq!(reply.schedule, schedule_of(&solved).schedule);
    assert_eq!(
        Response::Schedule(Box::new(reply)).to_json().as_bytes(),
        repeat,
        "a repeat's frame is the response codec's bytes"
    );
    let stats = service.snapshot();
    assert_eq!(stats.requests, 3);
    assert_eq!((stats.cache_mem_hits, stats.repeat_hits), (2, 1));
    assert!(stats.reconciles(), "{stats:?}");
    assert!(service.cache().recorded() <= stats.cache_resident);
}

/// Bytes that decode to the same request but differ from the recorded ones
/// are decoded: the same schedule, served from memory, and no second
/// payload is recorded for the entry.
#[test]
fn padded_and_pretty_variants_of_a_request_take_the_decode_path_and_record_nothing() {
    use ttw_core::json::Json;
    use ttw_service::Request;
    let server = start_server();
    let service = server.service();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let request = Request::Synthesize(Box::new(fig3_request()));
    let compact = request.to_json();
    let solved = schedule_of(&exchange_raw(&mut stream, compact.as_bytes()));
    let recorded = exchange_raw(&mut stream, compact.as_bytes());
    assert_eq!(schedule_of(&recorded).served, ServedFrom::Memory);
    assert_eq!(service.cache().recorded(), 1);

    let padded = format!(" {compact}\n");
    for variant in [padded.as_str(), request.to_json_pretty().as_str()] {
        assert_ne!(variant, compact);
        for _ in 0..2 {
            let frame = exchange_raw(&mut stream, variant.as_bytes());
            let reply = schedule_of(&frame);
            assert_eq!(reply.served, ServedFrom::Memory);
            assert_eq!(reply.schedule, solved.schedule);
            assert_eq!(without_micros(&frame), without_micros(&recorded));
        }
    }
    let stats = service.snapshot();
    assert_eq!(stats.repeat_hits, 0, "{stats:?}");
    assert_eq!(stats.cache_mem_hits, 5, "{stats:?}");
    assert_eq!(service.cache().recorded(), 1, "one payload per entry");
    assert!(stats.reconciles(), "{stats:?}");

    // The recorded bytes themselves still repeat.
    exchange_raw(&mut stream, compact.as_bytes());
    assert_eq!(service.snapshot().repeat_hits, 1);
}

/// An entry the memory cap (or `evict`) removes takes its recorded payload
/// out of the index with it; the same bytes are then decoded and solved
/// again, and the new entry records them afresh.
#[test]
fn an_evicted_entrys_request_leaves_the_index_and_is_decoded_again() {
    let service = Arc::new(SchedulerService::new(ServiceConfig {
        memory_cap: Some(1),
        ..ServiceConfig::default()
    }));
    let server = ServerHandle::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let request = fig3_request();
    let key = service.request_key(&request);
    let recorded_and_repeated = |client: &mut Client| {
        let solved = client.synthesize(request.clone()).expect("solves");
        assert_eq!(solved.served, ServedFrom::Solved);
        let repeats = service.snapshot().repeat_hits;
        for served in [ServedFrom::Memory; 2] {
            let hit = client.synthesize(request.clone()).expect("hit");
            assert_eq!(hit.served, served);
            assert_eq!(hit.schedule, solved.schedule);
        }
        assert_eq!(service.snapshot().repeat_hits, repeats + 1);
        assert_eq!(service.cache().recorded(), 1);
        solved
    };

    let first = recorded_and_repeated(&mut client);
    // With a cap of one, one store of another key evicts the entry.
    service.cache().store("0000000000000000", &first.schedule);
    assert!(service.cache().peek(&key).is_none(), "evicted by the cap");
    assert_eq!(service.cache().recorded(), 0, "the payload left with it");
    assert!(service.cache().recorded() <= service.snapshot().cache_resident);
    let again = recorded_and_repeated(&mut client);
    assert_eq!(again.schedule, first.schedule);

    // An explicit eviction does the same.
    service.cache().evict(&key);
    assert_eq!(service.cache().recorded(), 0);
    recorded_and_repeated(&mut client);

    let stats = service.snapshot();
    assert_eq!((stats.solved, stats.repeat_hits), (3, 3), "{stats:?}");
    assert!(stats.reconciles(), "{stats:?}");
}

/// A payload that does not decode is never recorded, so it is decoded, and
/// refused, every time.
#[test]
fn a_bad_request_sent_twice_is_a_bad_request_twice() {
    use ttw_service::Request;
    let server = start_server();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    // Served once, so the memory tier has an entry a bad payload could alias.
    let honest = Request::Synthesize(Box::new(fig3_request())).to_json();
    for _ in 0..2 {
        exchange_raw(&mut stream, honest.as_bytes());
    }
    let mismatched = honest.replace("\"num_modes\":2", "\"num_modes\":3");
    assert_ne!(mismatched, honest);
    for bad in [b"not json".as_slice(), mismatched.as_bytes()] {
        for _ in 0..2 {
            let frame = exchange_raw(&mut stream, bad);
            let text = String::from_utf8(frame).expect("utf-8");
            assert!(text.contains("\"error\""), "{text}");
            assert!(text.contains("bad request"), "{text}");
        }
    }
    let stats = server.service().snapshot();
    assert_eq!((stats.requests, stats.repeat_hits), (2, 0), "{stats:?}");
    assert_eq!(server.service().cache().recorded(), 1);
    assert!(stats.reconciles(), "{stats:?}");
}

/// An overwrite takes the recorded payload with the replaced entry: the
/// next hit is decoded and serves the new schedule, records the bytes on the
/// new entry, and the repeat after it serves the new schedule too.
#[test]
fn a_repeat_after_an_overwrite_serves_the_new_schedule() {
    let server = start_server();
    let service = server.service();
    let mut client = Client::connect(server.addr()).expect("connect");
    let request = fig3_request();
    let solved = client.synthesize(request.clone()).expect("solves");
    for _ in 0..2 {
        assert_eq!(
            client.synthesize(request.clone()).expect("hit").schedule,
            solved.schedule
        );
    }
    assert_eq!(service.snapshot().repeat_hits, 1);

    let key = service.request_key(&request);
    let mut replaced = solved.schedule.clone();
    replaced.inheritance.clear();
    assert_ne!(replaced, solved.schedule);
    service.cache().store_with_artifacts(&key, &replaced, None);
    assert_eq!(service.cache().recorded(), 0, "the overwrite purged it");
    for repeats in [1, 2, 3] {
        let hit = client.synthesize(request.clone()).expect("hit");
        assert_eq!(hit.served, ServedFrom::Memory);
        assert_eq!(hit.schedule, replaced);
        assert_eq!(service.snapshot().repeat_hits, repeats);
    }
    let stats = service.snapshot();
    assert_eq!(stats.cache_mem_hits, 5, "{stats:?}");
    assert!(stats.reconciles(), "{stats:?}");
}

/// A client that hangs up while its request leads a solve takes nothing
/// with it: the solve finishes and is stored, a follower on another
/// connection is served the flight's result, and the server keeps serving.
#[test]
fn a_leader_whose_client_disconnects_still_serves_its_followers() {
    use ttw_service::frame::write_frame;
    use ttw_service::Request;
    // Sixteen modes: a solve long enough for a follower to join it.
    let scenario = generate(&GeneratorConfig::bench(16, GraphShape::Chain), 6);
    let request = SynthesizeRequest {
        config: scenario.scheduler_config(),
        system: scenario.system,
        graph: scenario.graph,
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    };
    let payload = Request::Synthesize(Box::new(request.clone())).to_json();
    // Nothing outside the server says when the follower has joined; one
    // that arrives after the flight landed is served from memory instead,
    // which is correct but not this case, and the round is run again.
    let round = || {
        let server = start_server();
        let service = Arc::clone(server.service());
        let mut leader = std::net::TcpStream::connect(server.addr()).expect("connect");
        write_frame(&mut leader, payload.as_bytes()).expect("write");
        // The leader's cold probe and its leadership re-probe both miss
        // before it solves.
        while service.snapshot().cache_misses < 2 {
            std::thread::yield_now();
        }
        drop(leader);
        let follower = Client::connect(server.addr())
            .expect("connect")
            .synthesize(request.clone())
            .expect("the follower is served");
        (server, follower)
    };
    let (server, follower) = (0..10)
        .map(|_| round())
        .find(|(_, follower)| follower.served == ServedFrom::Coalesced)
        .expect("a follower joined the flight in one of 10 rounds");
    assert_eq!(follower.request_milp_nodes, 0);
    let service = server.service();
    let key = service.request_key(&request);
    assert_eq!(
        service.cache().peek(&key).as_deref(),
        Some(&follower.schedule),
        "the disconnected leader's solve was cached"
    );
    let stats = service.snapshot();
    assert_eq!(
        (stats.requests, stats.solved, stats.coalesced),
        (2, 1, 1),
        "{stats:?}"
    );
    assert!(stats.reconciles(), "{stats:?}");

    let mut client = Client::connect(server.addr()).expect("connect");
    let hit = client
        .synthesize(request)
        .expect("the server keeps serving");
    assert_eq!(hit.served, ServedFrom::Memory);
    assert_eq!(hit.schedule, follower.schedule);
    assert!(client.stats().expect("stats").reconciles());
}

/// A slow-loris peer — the first two bytes of a frame header, then nothing —
/// holds up only its own connection: another client's Fig. 3 solve is
/// answered within 10 s, and `ServerHandle::shutdown` returns while the
/// stalled socket is still open.
#[test]
fn a_stalled_frame_header_holds_up_neither_another_client_nor_shutdown() {
    use std::io::Write;
    use std::sync::mpsc;
    use std::time::Duration;
    const BOUND: Duration = Duration::from_secs(10);
    let mut server = start_server();
    let addr = server.addr();
    let mut stalled = std::net::TcpStream::connect(addr).expect("connect");
    let header = 1024u32.to_be_bytes();
    stalled.write_all(&header[..2]).expect("two header bytes");
    stalled.flush().expect("flush");

    // Each step runs on its own thread, so a hang fails the test at the
    // bound instead of stalling it.
    let (solved, solved_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let _ = solved.send(client.synthesize(fig3_request()));
    });
    let reply = solved_rx
        .recv_timeout(BOUND)
        .expect("a second client is answered while a header stalls")
        .expect("feasible");
    assert_eq!(reply.served, ServedFrom::Solved);

    let (stopped, stopped_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = stopped.send(server);
    });
    let server = stopped_rx
        .recv_timeout(BOUND)
        .expect("shutdown returns while a header stalls");
    assert_eq!(server.service().snapshot().requests, 1);
    drop(stalled);
}
