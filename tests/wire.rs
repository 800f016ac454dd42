//! Tier-1 gates on what crosses a wire or a disk beside the typed documents:
//! the warm-start basis object (`Json::to_json` / `from_json` of a
//! `ttw_milp::Basis`, the `"basis"` members of a cache sidecar), the 4-byte
//! beacon and the frame header, each swept with the seeded generator and
//! mutator of `ttw_testkit::json_fuzz` — `decode(encode(x)) == x`, and
//! hostile bytes get `None` or an error, never a panic or an allocation the
//! bytes did not pay for — and the server's reply-byte accounting, which a
//! client must never be able to observe behind the replies it already holds.
//! Last, solver settings a request may carry cannot make the service serve
//! an invalid schedule.
//!
//! The three sweeps run a small budget here; CI runs the large one
//! (`-- --ignored decoder_fuzz_large_budget`).

use std::io::{self, Read};
use std::sync::Arc;
use ttw::core::json::Json;
use ttw::core::time::millis;
use ttw::core::validate::validate_system_schedule;
use ttw::core::{fixtures, SchedulerConfig};
use ttw::milp::{Basis, Model, Sense};
use ttw::netsim::rng::SplitMix64;
use ttw::runtime::Beacon;
use ttw::service::frame::{read_frame, write_frame, MAX_FRAME_LEN, READ_CHUNK};
use ttw::service::{
    BackendKind, BudgetCaps, Request, SchedulerService, ServerHandle, SynthesizeRequest,
};
use ttw::testkit::json_fuzz::mutate;
use ttw::testkit::{generate, GeneratorConfig, GraphShape};

fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    (rng.next_u64() % bound as u64) as usize
}

/// The optimal basis of a random bounded LP: up to six columns under up to
/// six `<=` rows with a feasible origin, so every draw solves.
fn random_basis(rng: &mut SplitMix64) -> Basis {
    let mut model = Model::new("fuzz");
    let vars: Vec<_> = (0..1 + below(rng, 6))
        .map(|i| model.add_continuous(format!("x{i}"), 0.0, 1.0 + below(rng, 9) as f64))
        .collect();
    let coefficients = |rng: &mut SplitMix64| -> Vec<_> {
        vars.iter()
            .map(|&var| (var, below(rng, 7) as f64))
            .collect()
    };
    let objective = coefficients(rng);
    model.set_objective(Sense::Maximize, &objective);
    for _ in 0..1 + below(rng, 6) {
        let row = coefficients(rng);
        model.add_le(&row, 1.0 + below(rng, 20) as f64);
    }
    let (_, basis) = model.solve_with_basis(None).expect("bounded and feasible");
    basis.expect("an optimal solve returns its basis")
}

/// `cases` random bases of `seed`'s stream: each basis document decodes back
/// to the same bits, one of a foreign solver build or cut short is refused,
/// and whatever a byte-level mutation still decodes to is a basis whose
/// document re-encodes stably.
fn check_basis_documents(seed: u64, cases: usize) {
    let mut rng = SplitMix64::new(seed);
    let bits = |basis: &Basis| {
        let devex: Vec<u64> = basis.devex().iter().map(|w| w.to_bits()).collect();
        (basis.status_letters(), basis.basic().to_vec(), devex)
    };
    for case in 0..cases {
        let at = format!("seed {seed}, case {case}");
        let basis = random_basis(&mut rng);
        let text = basis.to_json();
        let back = Basis::from_json(&text)
            .unwrap_or_else(|error| panic!("own text refused ({at}): {error}: {text}"));
        assert_eq!(back.dims(), basis.dims(), "{at}");
        assert_eq!(bits(&back), bits(&basis), "{at}");
        assert_eq!(back.to_json(), text, "{at}");

        // Another solver build wrote it: never trusted.
        let version = format!(r#""version":"{}""#, env!("CARGO_PKG_VERSION"));
        assert!(text.contains(&version), "{at}: {text}");
        let reversioned = text.replacen(&version, r#""version":"0.0.0-other""#, 1);
        assert!(Basis::from_json(&reversioned).is_err(), "{at}");
        // Cut anywhere, the object is not closed.
        let cut = below(&mut rng, text.len());
        assert!(
            Basis::from_json(&text[..cut]).is_err(),
            "{at}: cut at {cut}: {text}"
        );

        for _ in 0..8 {
            let mutated = mutate(&mut rng, text.as_bytes());
            let Ok(mutated) = String::from_utf8(mutated) else {
                continue;
            };
            if let Ok(other) = Basis::from_json(&mutated) {
                let canonical = other.to_json();
                let again = Basis::from_json(&canonical)
                    .unwrap_or_else(|error| panic!("{at}: {mutated} decoded to {error}"));
                assert_eq!(again.to_json(), canonical, "{at}: {mutated}");
            }
        }
    }
}

/// Every beacon decodes back to itself, and `patterns` random 4-byte
/// patterns of `seed`'s stream each decode to the beacon their first three
/// bytes spell or to a checksum error — which names the checksum that body
/// wanted, so the repaired pattern exercises the accepting branch as well.
fn check_beacons(seed: u64, patterns: usize) {
    for round_id in 0..=u8::MAX {
        for mode_id in 0..=u8::MAX {
            for trigger in [false, true] {
                let beacon = Beacon {
                    round_id,
                    mode_id,
                    trigger,
                };
                assert_eq!(Beacon::decode(beacon.encode()), Ok(beacon));
            }
        }
    }
    let spells = |beacon: Beacon, bytes: [u8; 4]| {
        assert_eq!(
            (beacon.round_id, beacon.mode_id, beacon.trigger),
            (bytes[0], bytes[1], bytes[2] != 0),
            "{bytes:?}"
        );
        // A trigger byte other than 0 or 1 is the one non-canonical spelling
        // the format admits.
        if bytes[2] <= 1 {
            assert_eq!(beacon.encode(), bytes);
        }
    };
    let mut rng = SplitMix64::new(seed);
    for _ in 0..patterns {
        let bytes = (rng.next_u64() as u32).to_be_bytes();
        match Beacon::decode(bytes) {
            Ok(beacon) => spells(beacon, bytes),
            Err(error) => {
                assert_eq!(error.found, bytes[3], "{bytes:?}");
                assert_ne!(error.expected, error.found, "{bytes:?}");
                let repaired = [bytes[0], bytes[1], bytes[2], error.expected];
                let beacon = Beacon::decode(repaired)
                    .unwrap_or_else(|error| panic!("{repaired:?} refused: {error}"));
                spells(beacon, repaired);
            }
        }
    }
}

/// A byte source that remembers the largest buffer it was asked to fill —
/// what the frame reader had reserved ahead of the bytes it had seen.
struct Metered<'a> {
    bytes: &'a [u8],
    largest_request: usize,
}

impl Read for Metered<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest_request = self.largest_request.max(buf.len());
        self.bytes.read(buf)
    }
}

/// `cases` frames of `seed`'s stream, each with a mutated header and
/// sometimes a body cut short: `read_frame` returns exactly what the bytes
/// on the wire say — the frame, or the error for a header that is
/// incomplete, over the limit or promising more than arrived — and never
/// asks its source for more than one chunk at a time, whatever the length
/// word claims.
fn check_frame_headers(seed: u64, cases: usize) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..cases {
        let at = format!("seed {seed}, case {case}");
        let body: Vec<u8> = match below(&mut rng, 8) {
            0 => vec![case as u8; READ_CHUNK + below(&mut rng, 2 * READ_CHUNK)],
            _ => (0..below(&mut rng, 300)).map(|i| i as u8).collect(),
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &body).expect("in-memory write");
        let mut wire = match below(&mut rng, 4) {
            // Any length word at all, the limit and its neighbours included.
            0 => (rng.next_u64() as u32).to_be_bytes().to_vec(),
            1 => ((MAX_FRAME_LEN - 1 + below(&mut rng, 3)) as u32)
                .to_be_bytes()
                .to_vec(),
            _ => mutate(&mut rng, &frame[..4]),
        };
        let arrived = match below(&mut rng, 2) {
            0 => body.len(),
            _ => below(&mut rng, body.len() + 1),
        };
        wire.extend_from_slice(&body[..arrived]);

        let mut source = Metered {
            bytes: &wire,
            largest_request: 0,
        };
        let outcome = read_frame(&mut source);
        assert!(
            source.largest_request <= READ_CHUNK,
            "{at}: asked for {} bytes at once",
            source.largest_request
        );
        let kind = outcome.as_ref().map_err(io::Error::kind);
        if wire.is_empty() {
            assert!(matches!(kind, Ok(None)), "{at}: {kind:?}");
        } else if wire.len() < 4 {
            assert_eq!(kind.unwrap_err(), io::ErrorKind::UnexpectedEof, "{at}");
        } else {
            let promised = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize;
            if promised > MAX_FRAME_LEN {
                assert_eq!(kind.unwrap_err(), io::ErrorKind::InvalidData, "{at}");
            } else if promised > wire.len() - 4 {
                assert_eq!(kind.unwrap_err(), io::ErrorKind::UnexpectedEof, "{at}");
            } else {
                assert_eq!(
                    outcome.expect("a whole frame arrived").as_deref(),
                    Some(&wire[4..4 + promised]),
                    "{at}"
                );
            }
        }
    }
}

#[test]
fn basis_snapshot_fuzz_small_budget() {
    check_basis_documents(1, 150);
}

#[test]
fn beacon_fuzz_small_budget() {
    check_beacons(1, 50_000);
}

#[test]
fn frame_header_fuzz_small_budget() {
    check_frame_headers(1, 400);
}

#[test]
#[ignore = "the large budget; a named CI step runs it"]
fn decoder_fuzz_large_budget() {
    for seed in 2..6 {
        check_basis_documents(seed, 5_000);
        check_beacons(seed, 5_000_000);
        check_frame_headers(seed, 20_000);
    }
}

/// The server books a reply's bytes before it writes them, so a client that
/// has read its reply finds it in every snapshot it takes afterwards. (Booked
/// after the write, the last replies of one phase of the service load report
/// showed up in the next.)
#[test]
fn a_reply_the_client_has_read_is_already_counted() {
    let service = Arc::new(SchedulerService::in_memory());
    let server = ServerHandle::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let (system, graph, _, _) = fixtures::two_mode_graph();
    let synthesize = Request::Synthesize(Box::new(SynthesizeRequest {
        system,
        graph,
        config: SchedulerConfig::new(millis(10), 5),
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    }))
    .to_json();
    let stats = Request::Stats.to_json();

    let mut received = 0;
    for exchange in 0..400 {
        // One cold solve, then memory-tier hits and stats replies: large and
        // small frames, every one of them counted.
        let request = if exchange % 2 == 0 {
            &synthesize
        } else {
            &stats
        };
        write_frame(&mut stream, request.as_bytes()).expect("write");
        received += read_frame(&mut stream)
            .expect("read")
            .expect("a reply")
            .len();
        let snapshot = service.snapshot();
        assert!(
            snapshot.reply_bytes >= received,
            "exchange {exchange}: {received} bytes read, {} counted",
            snapshot.reply_bytes
        );
        assert!(snapshot.reconciles(), "{snapshot:?}");
    }
    assert_eq!(service.snapshot().reply_bytes, received);
}

/// The integrality tolerance is the solver's, not the client's. A request
/// whose `solver` object still names it — with the other members the solver
/// has dropped — decodes, the members are skipped, and the schedule served
/// is valid. Taken from the request, a tolerance of 0.01 let branch-and-bound
/// accept a fractional LP point as integral: on this seed the rounded
/// schedule missed an application deadline (125.5 ms against 100 ms). The
/// ILP's `mm` and big-M and the solver's gap and cut-round count left the
/// wire the same way; hostile values for them are skipped as well.
#[test]
fn a_request_carrying_a_loose_integrality_tolerance_gets_a_valid_schedule() {
    let scenario = generate(&GeneratorConfig::small(2, GraphShape::Chain), 6);
    let request = Request::Synthesize(Box::new(SynthesizeRequest {
        system: scenario.system.clone(),
        graph: scenario.graph.clone(),
        config: scenario.scheduler_config(),
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    }))
    .to_json();
    // The solver object holds no nested object: its members end at the
    // first `}`. Each removed member is set once, whatever the encoder wrote.
    let removed = [
        ("feasibility_tolerance", "0.000001"),
        ("integrality_tolerance", "0.01"),
        ("max_cut_rounds", "0"),
        ("pump", "true"),
        ("relative_gap", "0.5"),
        ("reliability", "4"),
        ("strong_branch_limit", "128"),
    ];
    let start = request.find("\"solver\":{").expect("a solver object") + "\"solver\":{".len();
    let end = start + request[start..].find('}').expect("a closed solver object");
    let kept = request[start..end].split(',').filter(|member| {
        !(removed.iter()).any(|(name, _)| member.starts_with(&format!("\"{name}\":")))
    });
    let members: Vec<String> = (removed.iter())
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .chain(kept.map(str::to_owned))
        .collect();
    let request = format!(
        "{}{}{}",
        &request[..start],
        members.join(","),
        &request[end..]
    );
    // A strict inequality relaxed by 0.9 rounds and a big-M of one
    // hyperperiod, first in the config object.
    let config = request.find("\"config\":{").expect("a config object") + "\"config\":{".len();
    let request = format!(
        "{}\"epsilon\":0.9,\"big_m_factor\":1,{}",
        &request[..config],
        &request[config..]
    );

    let Request::Synthesize(request) = Request::from_json(request.as_bytes()).expect("decodes")
    else {
        panic!("not a synthesize request");
    };
    let reply = SchedulerService::in_memory()
        .handle_synthesize(&request)
        .expect("the scenario is feasible");
    let violations = validate_system_schedule(&request.system, &request.config, &reply.schedule);
    assert!(violations.is_empty(), "{violations:?}");
}
