//! Tier-1 gates on the JSON codec every wire and disk format sits on: its
//! complexity class, without a stopwatch; the seeded fuzz sweeps of
//! `ttw_testkit::json_fuzz` on a small budget (the testkit's own unit tests
//! run the large one; `typed_fuzz_large_budget` here, ignored, runs it with
//! the service's frames) — over `Value` and over every typed document, the
//! service's request and response frames included; and the committed
//! documents of `tests/fixtures/codec`, each of which must be this build's
//! output and decode and encode back to its own bytes. Last, the warm-start
//! sidecar: hostile basis objects are refused, a sidecar whose bases are in
//! the text form of earlier builds (`tests/fixtures/legacy`) goes cold, not
//! wrong, one that still names its backend warm-starts, and one filed under
//! another key reads as no artifacts. And a
//! system, which is written from its borrowed entities, renders the bytes
//! of its applications' specs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use ttw::core::cache::{
    artifacts_from_json, artifacts_to_json, synthesis_key, synthesize_system_cached, CacheProbe,
    ScheduleCache,
};
use ttw::core::delta::{delta_from_json, delta_to_json, diff, node_deployments};
use ttw::core::export::{
    app_spec_from_json, app_spec_to_json, mode_graph_from_json, mode_graph_to_json,
    schedule_from_json, schedule_to_json, scheduler_config_from_json, scheduler_config_to_json,
    system_from_json, system_schedule_from_json, system_schedule_to_json, system_schedule_to_value,
    system_to_json,
};
use ttw::core::json::{Json, JsonError, Value, Writer};
use ttw::core::resynth::{resynthesize_system, ResynthesisReport};
use ttw::core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw::core::time::millis;
use ttw::core::{
    fixtures, ApplicationSpec, MessageSpec, NodePatchOp, SchedulerConfig, System, TaskId, TaskSpec,
};
use ttw::milp::Basis;
use ttw::netsim::rng::SplitMix64;
use ttw::service::{
    BackendKind, BudgetCaps, Request, Response, ResynthesizeRequest, ScheduleReply, ServedFrom,
    StatsSnapshot, SynthesizeRequest,
};
use ttw::testkit::json_fuzz::{
    check_document, check_json_codec, check_typed_documents, random_string, retimed_deployment,
    TypedSample,
};
use ttw::testkit::{generate, GeneratorConfig, GraphShape};

/// ~4 MiB of long strings. The parser used to re-validate the rest of the
/// document for every character of every string — about 10^13 byte visits
/// here, hours of work — so this test finishing at all is the assertion that
/// parsing is linear; there is deliberately no wall-clock bound in it.
#[test]
fn four_mebibyte_document_of_long_strings_round_trips() {
    // Plain ASCII, 2-, 3- and 4-byte code points, and every kind of escape,
    // so both the run copy and the escape path see megabytes.
    let unit = "schedule-κόσμος-時間-😀 \"quoted\" back\\slash\ttab\nline\u{1}\u{1f} ";
    let long = unit.repeat(4096);
    assert!(long.len() > 256 << 10);
    let document = Value::Object(BTreeMap::from([
        (
            "strings".to_owned(),
            Value::Array(vec![Value::String(long.clone()); 12]),
        ),
        (long.clone(), Value::Number(40000.5)),
    ]));

    for rendered in [document.to_json(), document.to_json_pretty()] {
        assert!(rendered.len() > 4 << 20, "{} bytes", rendered.len());
        assert_eq!(Value::parse(&rendered).expect("parses"), document);
    }
}

#[test]
fn seeded_json_fuzz_small_budget() {
    for seed in [1, 2, 3] {
        check_json_codec(seed, 120).unwrap_or_else(|failure| panic!("{failure}"));
    }
}

const SERVED: [ServedFrom; 5] = [
    ServedFrom::Solved,
    ServedFrom::Coalesced,
    ServedFrom::Incremental,
    ServedFrom::Memory,
    ServedFrom::Disk,
];

/// A counter as the wire carries one: small, large, and at the edge of what
/// an `f64` holds exactly.
fn random_count(rng: &mut SplitMix64) -> usize {
    match rng.next_u64() % 3 {
        0 => (rng.next_u64() % 100) as usize,
        1 => (rng.next_u64() >> 24) as usize,
        _ => 1 << 53,
    }
}

fn same_request(a: &SynthesizeRequest, b: &SynthesizeRequest) -> bool {
    a.system == b.system
        && a.graph == b.graph
        && a.config == b.config
        && a.backend == b.backend
        && a.budget == b.budget
}

/// A snapshot whose counters are `value(position)`, position as in
/// [`StatsSnapshot::fields`], built from the names `fields` lists and checked
/// to hold each value under its own name.
fn stats_with(mut value: impl FnMut(usize) -> usize) -> Result<StatsSnapshot, String> {
    let mut position = 0;
    let drawn = StatsSnapshot::default().fields().map(|(name, _)| {
        position += 1;
        (name, value(position))
    });
    let members: Vec<String> = drawn
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    let text = format!("{{\"type\":\"stats\",{}}}", members.join(","));
    match Response::from_json(text.as_bytes()) {
        Ok(Response::Stats(snapshot)) if snapshot.fields() == drawn => Ok(snapshot),
        other => Err(format!("stats: {text} decoded to {other:?}")),
    }
}

/// The frames of `ttw-service` built from one sample: every request and
/// response variant, the envelope fields (budget, predecessor, provenance,
/// counters, message) drawn at random around the sample's system, mode
/// graph, configuration and schedule.
fn check_protocol_documents(sample: &TypedSample, rng: &mut SplitMix64) -> Result<(), String> {
    let cap = |rng: &mut SplitMix64| (rng.next_u64() % 2 == 0).then(|| random_count(rng));
    let base = SynthesizeRequest {
        system: sample.scenario.system.clone(),
        graph: sample.scenario.graph.clone(),
        config: sample.config.clone(),
        backend: BackendKind::Ilp,
        budget: BudgetCaps {
            max_nodes: cap(rng),
            max_simplex_iterations: cap(rng),
        },
    };
    let requests = [
        Request::Synthesize(Box::new(base.clone())),
        Request::Resynthesize(Box::new(ResynthesizeRequest {
            base,
            predecessor: random_string(rng),
        })),
        Request::Stats,
        Request::Shutdown,
    ];
    for request in &requests {
        check_document(
            "request",
            request,
            Request::to_json,
            Request::from_json,
            |a, b| match (a, b) {
                (Request::Synthesize(a), Request::Synthesize(b)) => same_request(a, b),
                (Request::Resynthesize(a), Request::Resynthesize(b)) => {
                    same_request(&a.base, &b.base) && a.predecessor == b.predecessor
                }
                (Request::Stats, Request::Stats) | (Request::Shutdown, Request::Shutdown) => true,
                _ => false,
            },
            rng,
        )?;
    }

    let responses = [
        Response::Schedule(Box::new(ScheduleReply {
            schedule: sample.schedule.clone(),
            served: SERVED[(rng.next_u64() % 5) as usize],
            request_milp_nodes: random_count(rng),
            service_micros: random_count(rng) as u64,
        })),
        Response::Stats(stats_with(|_| random_count(rng))?),
        Response::Error {
            message: random_string(rng),
        },
        Response::ShutdownAck,
    ];
    for response in &responses {
        check_document(
            "response",
            response,
            Response::to_json,
            Response::from_json,
            |a, b| match (a, b) {
                (Response::Schedule(a), Response::Schedule(b)) => {
                    a.schedule == b.schedule
                        && a.served == b.served
                        && a.request_milp_nodes == b.request_milp_nodes
                        && a.service_micros == b.service_micros
                }
                (Response::Stats(a), Response::Stats(b)) => a == b,
                (Response::Error { message: a }, Response::Error { message: b }) => a == b,
                (Response::ShutdownAck, Response::ShutdownAck) => true,
                _ => false,
            },
            rng,
        )?;
    }
    Ok(())
}

/// Besides the properties of `check_document`, the sweep's deltas must
/// reach every patch op kind and a node that leaves, so the delta codec is
/// fuzzed over all of its shapes.
#[test]
fn seeded_typed_fuzz_small_budget() {
    let mut rendered = String::new();
    check_typed_documents(1, 3, |sample, rng| {
        for delta in &sample.deltas {
            rendered.push_str(&delta_to_json(delta));
        }
        check_protocol_documents(sample, rng)
    })
    .unwrap_or_else(|failure| panic!("{failure}"));
    for op in [
        "set_mode",
        "remove_mode",
        "set_task",
        "remove_task",
        "set_round",
        "truncate_rounds",
    ] {
        assert!(rendered.contains(op), "never generated {op}");
    }
    assert!(
        rendered.contains("\"removed_nodes\":[0,"),
        "no node ever left"
    );
}

/// The same sweep — every property of `check_document`, the direct writer
/// against the generic tree and the foreign renderings included — over every
/// typed and protocol document of 4 seeds × 6 scenarios. A CI step:
/// `cargo test --release -q --test json_codec -- --ignored typed_fuzz_large_budget`.
#[test]
#[ignore = "large budget; run by name in CI"]
fn typed_fuzz_large_budget() {
    for seed in 0..4 {
        check_typed_documents(seed, 6, check_protocol_documents)
            .unwrap_or_else(|failure| panic!("{failure}"));
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec")
}

type Recode = fn(&str) -> Result<String, JsonError>;

/// The key `examples/mode_change` stores its schedule under.
const MODE_CHANGE_KEY: &str = "a25972618d19d494";

/// Every committed document with the decoder and encoder that own it. The
/// files are this build's output of [`codec_fixtures`]
/// (`committed_fixtures_are_this_builds_output`).
const FIXTURES: &[(&str, Recode)] = &[
    ("app_spec.json", |text| {
        app_spec_to_json(&app_spec_from_json(text)?)
    }),
    ("system.json", |text| {
        system_to_json(&system_from_json(text)?)
    }),
    ("mode_graph.json", |text| {
        mode_graph_to_json(&mode_graph_from_json(text)?)
    }),
    ("scheduler_config.json", |text| {
        scheduler_config_to_json(&scheduler_config_from_json(text)?)
    }),
    ("mode_schedule.json", |text| {
        schedule_to_json(&schedule_from_json(text)?)
    }),
    ("system_schedule.json", |text| {
        system_schedule_to_json(&system_schedule_from_json(text)?)
    }),
    ("system_schedule.compact.json", |text| {
        Ok(system_schedule_to_value(&system_schedule_from_json(text)?).to_json())
    }),
    ("schedule_delta.json", |text| {
        Ok(delta_to_json(&delta_from_json(text)?))
    }),
    ("request_synthesize.json", recode_request),
    ("request_resynthesize.json", recode_request),
    ("request_stats.json", recode_request),
    ("request_shutdown.json", recode_request),
    ("response_schedule.json", recode_response),
    ("response_stats.json", recode_response),
    ("response_error.json", recode_response),
    ("response_shutdown_ack.json", recode_response),
    ("ttw-a25972618d19d494.json", |text| {
        system_schedule_to_json(&system_schedule_from_json(text)?)
    }),
    ("ttw-a25972618d19d494.warm.json", |text| {
        Ok(artifacts_to_json(&artifacts_from_json(text)?))
    }),
];

fn recode_request(text: &str) -> Result<String, JsonError> {
    Ok(Request::from_json(text.as_bytes())?.to_json())
}

fn recode_response(text: &str) -> Result<String, JsonError> {
    Ok(Response::from_json(text.as_bytes())?.to_json())
}

#[test]
fn every_fixture_decodes_and_encodes_back_to_its_bytes() {
    for (name, recode) in FIXTURES {
        let path = fixture_dir().join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|error| panic!("{}: {error}", path.display()));
        let again = recode(&text).unwrap_or_else(|error| panic!("{name} does not decode: {error}"));
        assert_eq!(again, text, "{name} does not encode back to its bytes");
    }
    let mut committed: Vec<_> = std::fs::read_dir(fixture_dir())
        .expect("fixture directory")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    committed.sort();
    let mut listed: Vec<_> = FIXTURES.iter().map(|(name, _)| name.to_string()).collect();
    listed.sort();
    assert_eq!(
        committed, listed,
        "a fixture without a decoder, or the reverse"
    );
}

/// A cache directory written before this build is still warm: the entry
/// `examples/mode_change` stored is found under the key this build computes
/// for the same inputs, by the first probe, with its warm-start sidecar.
#[test]
fn disk_entry_written_by_the_previous_build_is_a_first_probe_hit() {
    let dir = std::env::temp_dir().join(format!("ttw-codec-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for suffix in ["json", "warm.json"] {
        let name = format!("ttw-{MODE_CHANGE_KEY}.{suffix}");
        std::fs::copy(fixture_dir().join(&name), dir.join(&name)).expect("copy");
    }
    let cache = ScheduleCache::new(&dir);
    let artifacts = cache.artifacts(MODE_CHANGE_KEY).expect("sidecar decodes");
    assert_eq!(
        synthesis_key(&artifacts.system, &artifacts.graph, &artifacts.config),
        MODE_CHANGE_KEY
    );
    assert!(matches!(cache.probe(MODE_CHANGE_KEY), CacheProbe::Disk(_)));
    assert_eq!((cache.hits(), cache.misses(), cache.corrupt()), (1, 0, 0));
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
}

/// A fresh, empty directory under the system's temp dir for one test.
fn empty_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttw-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The warm-start sidecar at `path` as a generic document.
fn read_sidecar(path: &Path) -> Value {
    Value::parse(&std::fs::read_to_string(path).expect("read")).expect("parses")
}

/// The basis of mode 0 in a sidecar document.
fn first_basis(sidecar: &mut Value) -> &mut Value {
    let mut value = sidecar;
    for name in ["warm", "0", "basis"] {
        let Value::Object(members) = value else {
            panic!("`{name}` is not in an object");
        };
        value = members.get_mut(name).expect("member");
    }
    value
}

/// Every invariant a basis object is checked for, broken in turn — plus an
/// unknown status letter, each missing member, a foreign version, the text
/// form bases had before they were objects, garbage and truncations — is a
/// decode error, never a panic, and a sidecar holding such a basis reads as
/// no artifacts.
#[test]
fn hostile_basis_objects_are_refused_and_their_sidecar_reads_as_no_artifacts() {
    let name = format!("ttw-{MODE_CHANGE_KEY}.warm.json");
    let mut sidecar = read_sidecar(&fixture_dir().join(&name));
    let basis = first_basis(&mut sidecar);
    let valid = Basis::from_value(basis).expect("the committed basis decodes");
    // The sidecar with the first basis left to each case.
    *basis = Value::String("hostile basis".to_owned());
    let with_basis = |text: &str| {
        sidecar
            .to_json_pretty()
            .replacen("\"hostile basis\"", text, 1)
    };
    let Value::Object(good) = valid.to_value() else {
        panic!("a basis is an object");
    };
    let with = |name: &str, value: Value| {
        let mut members = good.clone();
        members.insert(name.to_owned(), value);
        Value::Object(members).to_json()
    };
    let numbers =
        |numbers: Vec<f64>| Value::Array(numbers.into_iter().map(Value::Number).collect());
    let letters = |edit: &dyn Fn(&mut Vec<char>)| {
        let mut letters: Vec<char> = valid.status_letters().chars().collect();
        edit(&mut letters);
        Value::String(letters.into_iter().collect())
    };
    let basic = |edit: &dyn Fn(&mut Vec<f64>)| {
        let mut basic: Vec<f64> = valid.basic().iter().map(|&j| j as f64).collect();
        edit(&mut basic);
        numbers(basic)
    };
    let devex = |edit: &dyn Fn(&mut Vec<f64>)| {
        let mut devex = valid.devex().to_vec();
        edit(&mut devex);
        numbers(devex)
    };
    let columns = valid.status_letters().len();
    let nonbasic = valid
        .status_letters()
        .find(|c| c != 'B')
        .expect("some column is nonbasic");
    let text_form = first_basis(&mut read_sidecar(Path::new(LEGACY_SIDECAR))).to_json();
    let valid_text = valid.to_json();

    let mut cases = vec![
        // Columns are the status letters: the weights must match them.
        (
            "one status letter short",
            with("status", letters(&|s| s.truncate(s.len() - 1))),
        ),
        (
            "one weight more than columns",
            with("devex", devex(&|d| d.push(1.0))),
        ),
        // Rows are the basic entries, no more than the columns.
        (
            "more rows than columns",
            with("basic", numbers((0..=columns).map(|j| j as f64).collect())),
        ),
        (
            "a duplicate basic entry",
            with("basic", basic(&|b| b[1] = b[0])),
        ),
        (
            "a basic entry one past the columns",
            with("basic", basic(&|b| b[0] = columns as f64)),
        ),
        (
            "a basic entry far out of range",
            with("basic", basic(&|b| b[0] = 9999.0)),
        ),
        // No buffer is sized by a number: 2^53 allocates nothing.
        (
            "a basic entry of 2^53",
            with("basic", basic(&|b| b[0] = 2f64.powi(53))),
        ),
        (
            "a basic entry at a nonbasic column",
            with("basic", basic(&|b| b[0] = nonbasic as f64)),
        ),
        (
            "a B no basic entry names",
            with("status", letters(&|s| s[nonbasic] = 'B')),
        ),
        (
            "a basic entry that is no integer",
            with("basic", basic(&|b| b[0] += 0.5)),
        ),
        ("a zero weight", with("devex", devex(&|d| d[0] = 0.0))),
        ("a negative weight", with("devex", devex(&|d| d[0] = -1.0))),
        // A NaN weight is written `null`, an infinite one overflows.
        ("a NaN weight", with("devex", devex(&|d| d[0] = f64::NAN))),
        (
            "an infinite weight",
            with("devex", devex(&|d| d[0] = 12345.5)).replacen("12345.5", "1e999", 1),
        ),
        (
            "an unknown status letter",
            with("status", letters(&|s| s[0] = 'X')),
        ),
        (
            "a lowercase status letter",
            with("status", letters(&|s| s[0] = 'b')),
        ),
        (
            "a two-byte status letter",
            with("status", letters(&|s| s[0] = 'é')),
        ),
        (
            "a foreign version",
            with("version", Value::String("0.0.0-other".to_owned())),
        ),
        // The text form's format number has no place in the object.
        ("a version number", with("version", Value::Number(1.0))),
        // Ported from the text form's own refusals.
        ("the text form", text_form),
        ("an empty document", String::new()),
        ("garbage", "not a basis".to_owned()),
        (
            "half of a basis",
            valid_text[..valid_text.len() / 2].to_owned(),
        ),
        ("an array", numbers(vec![1.0]).to_json()),
    ];
    for name in ["basic", "devex", "status", "version"] {
        let mut members = good.clone();
        members.remove(name);
        cases.push(("a missing member", Value::Object(members).to_json()));
    }

    let dir = empty_temp_dir("hostile-basis");
    let artifacts = |text: &str| {
        std::fs::write(dir.join(&name), with_basis(text)).expect("write");
        ScheduleCache::new(&dir).artifacts(MODE_CHANGE_KEY)
    };
    assert!(artifacts(&valid_text).is_some(), "the valid basis is read");
    for (what, text) in cases {
        assert!(Basis::from_json(&text).is_err(), "{what}: {text}");
        assert!(artifacts(&text).is_none(), "{what}: {text}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The warm-start sidecar of [`MODE_CHANGE_KEY`] as the build before bases
/// became JSON objects wrote it, each basis in that build's text form.
const LEGACY_SIDECAR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/legacy/ttw-a25972618d19d494.warm.json"
);

/// The warm-start sidecar of [`MODE_CHANGE_KEY`] as the build before
/// [`SynthesisArtifacts`] lost their `"backend"` member wrote it.
const BACKEND_SIDECAR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/legacy/ttw-a25972618d19d494.with-backend.warm.json"
);

/// `system` with its first task's WCET one microsecond longer: an edit that
/// only tightens the mode.
fn longer_first_task(system: &System) -> System {
    let mut edited = system.clone();
    let (task, wcet) = system
        .tasks()
        .map(|(id, task)| (id, task.wcet))
        .next()
        .expect("a task");
    edited
        .set_task_wcet(task, wcet + 1)
        .expect("a larger WCET is valid");
    edited
}

/// Re-synthesizes `edited` from the entry under `key` in `cache`, and checks
/// the result against a from-scratch solve: byte for byte, solver counters
/// included, when no predecessor was found (every mode solved cold), and by
/// content when a warm start may have saved work.
fn resynthesize_like_scratch(
    cache: &ScheduleCache,
    edited: &System,
    key: &str,
) -> ResynthesisReport {
    let ((_, graph, _, _), config) = (fixtures::two_mode_graph(), mode_change_config());
    let (schedule, report) =
        resynthesize_system(edited, &graph, &config, &IlpSynthesizer, cache, key)
            .expect("feasible");
    let scratch = synthesize_system(edited, &graph, &config, &IlpSynthesizer).expect("feasible");
    if report.predecessor_found {
        assert_eq!(
            system_schedule_to_json(&schedule.content_only()),
            system_schedule_to_json(&scratch.content_only())
        );
    } else {
        assert_eq!(
            system_schedule_to_json(&schedule),
            system_schedule_to_json(&scratch)
        );
    }
    report
}

fn mode_change_config() -> SchedulerConfig {
    SchedulerConfig::new(millis(10), 5)
}

/// A fresh directory holding the committed schedule entry of
/// [`MODE_CHANGE_KEY`] and `sidecar` as its warm-start sidecar.
fn mode_change_entry_beside(tag: &str, sidecar: &str) -> PathBuf {
    let dir = empty_temp_dir(tag);
    let entry = format!("ttw-{MODE_CHANGE_KEY}.json");
    std::fs::copy(fixture_dir().join(&entry), dir.join(&entry)).expect("copy");
    std::fs::copy(
        sidecar,
        dir.join(format!("ttw-{MODE_CHANGE_KEY}.warm.json")),
    )
    .expect("copy");
    dir
}

/// A cache directory whose sidecar holds bases in the text form goes cold,
/// not wrong: the sidecar reads as no artifacts, the schedule entry beside it
/// is still a disk hit, and a re-synthesis of an edit from that key solves
/// every mode cold to the from-scratch schedule.
#[test]
fn a_sidecar_of_text_bases_degrades_to_a_cold_resynthesis() {
    let dir = mode_change_entry_beside("text-bases", LEGACY_SIDECAR);
    let cache = ScheduleCache::new(&dir);
    assert!(cache.artifacts(MODE_CHANGE_KEY).is_none());
    assert!(matches!(cache.probe(MODE_CHANGE_KEY), CacheProbe::Disk(_)));

    let (system, graph, _, _) = fixtures::two_mode_graph();
    assert_eq!(
        synthesis_key(&system, &graph, &mode_change_config()),
        MODE_CHANGE_KEY
    );
    let report = resynthesize_like_scratch(&cache, &longer_first_task(&system), MODE_CHANGE_KEY);
    assert!(!report.predecessor_found);
    assert_eq!(report.warm_started_modes, 0);
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
}

/// A sidecar written while artifacts still named their backend decodes, the
/// `"backend"` member skipped, under its own key, and warm-starts the
/// re-synthesis of an edit.
#[test]
fn a_sidecar_with_a_backend_member_still_warm_starts() {
    let dir = mode_change_entry_beside("backend-member", BACKEND_SIDECAR);
    let cache = ScheduleCache::new(&dir);
    let artifacts = cache.artifacts(MODE_CHANGE_KEY).expect("sidecar decodes");
    assert_eq!(
        synthesis_key(&artifacts.system, &artifacts.graph, &artifacts.config),
        MODE_CHANGE_KEY
    );
    let (system, _, _, _) = fixtures::two_mode_graph();
    let report = resynthesize_like_scratch(&cache, &longer_first_task(&system), MODE_CHANGE_KEY);
    assert!(report.predecessor_found);
    assert!(report.warm_started_modes >= 1, "{report:?}");
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
}

/// A sidecar is trusted by its key: another system's valid sidecar, copied
/// over the sidecar of an entry on disk, reads as no artifacts, and a
/// re-synthesis from that entry solves cold to the from-scratch schedule
/// instead of diffing against the foreign system.
#[test]
fn a_sidecar_filed_under_another_key_reads_as_no_artifacts() {
    let dir = empty_temp_dir("foreign-sidecar");
    let (system, graph, _, _) = fixtures::two_mode_graph();
    let config = mode_change_config();
    let predecessor = longer_first_task(&system);
    let key = synthesis_key(&predecessor, &graph, &config);
    assert_ne!(key, MODE_CHANGE_KEY);
    synthesize_system_cached(&predecessor, &graph, &config, &ScheduleCache::new(&dir))
        .expect("feasible");
    let sidecar = dir.join(format!("ttw-{key}.warm.json"));
    assert!(ScheduleCache::new(&dir).artifacts(&key).is_some());
    let foreign = fixture_dir().join(format!("ttw-{MODE_CHANGE_KEY}.warm.json"));
    assert!(artifacts_from_json(&std::fs::read_to_string(&foreign).expect("read")).is_ok());
    std::fs::copy(foreign, sidecar).expect("copy");

    let cache = ScheduleCache::new(&dir);
    assert!(cache.artifacts(&key).is_none());
    let report = resynthesize_like_scratch(&cache, &longer_first_task(&predecessor), &key);
    assert!(!report.predecessor_found);
    assert_eq!(report.warm_started_modes, 0);
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
}

/// Every document of `tests/fixtures/codec` as this build writes it, by
/// file name.
fn codec_fixtures() -> Vec<(String, String)> {
    let (system, graph, _, _) = fixtures::two_mode_graph();
    let mut config = mode_change_config();
    let schedule = synthesize_system(&system, &graph, &config, &IlpSynthesizer).expect("feasible");
    // What turns the deployment into its retimed copy (retimed tasks,
    // replaced and truncated rounds), plus the op kinds that only a change
    // of the system itself produces.
    let deployed = node_deployments(&system, &schedule);
    let mut delta = diff(&deployed, &retimed_deployment(&deployed));
    let (node, deployment) = deployed.iter().next().expect("a node");
    let (mode, table) = deployment.modes.iter().next().expect("a mode");
    let task = *table.task_offsets.keys().next().expect("a task");
    delta.nodes.entry(*node).or_default().extend([
        NodePatchOp::SetMode(*mode, table.clone()),
        NodePatchOp::RemoveTask(*mode, task),
        NodePatchOp::RemoveMode(*mode),
    ]);
    delta.removed_nodes.push(*node);

    // The entry pair `examples/mode_change` leaves in its cache directory.
    let dir = std::env::temp_dir().join(format!("ttw-codec-write-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ScheduleCache::new(&dir);
    synthesize_system_cached(&system, &graph, &config, &cache).expect("feasible");
    let entry = |suffix: &str| {
        let name = format!("ttw-{MODE_CHANGE_KEY}.{suffix}");
        let text = std::fs::read_to_string(dir.join(&name)).expect("entry written");
        (name, text)
    };
    let (entry, sidecar) = (entry("json"), entry("warm.json"));
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);

    // Every optional field of the configuration set, for the standalone
    // document and the requests.
    config.max_inter_round_gap = Some(millis(70));
    config.max_rounds = Some(12);
    let base = SynthesizeRequest {
        system: system.clone(),
        graph: graph.clone(),
        config: config.clone(),
        backend: BackendKind::Ilp,
        budget: BudgetCaps {
            max_nodes: Some(500),
            max_simplex_iterations: None,
        },
    };
    let app = ApplicationSpec::new("control", millis(100), millis(80))
        .with_task("sense", "sensor", millis(2))
        .with_task("act", "actuator", millis(1))
        .with_message("measurement", ["sense"], ["act"]);
    let mode_schedule = schedule.iter().next().expect("a mode").1;
    let documents = [
        ("app_spec.json".to_owned(), app_spec_to_json(&app)),
        ("system.json".to_owned(), system_to_json(&system)),
        ("mode_graph.json".to_owned(), mode_graph_to_json(&graph)),
        (
            "scheduler_config.json".to_owned(),
            scheduler_config_to_json(&config),
        ),
        (
            "mode_schedule.json".to_owned(),
            schedule_to_json(mode_schedule),
        ),
        (
            "system_schedule.json".to_owned(),
            system_schedule_to_json(&schedule),
        ),
        (
            "system_schedule.compact.json".to_owned(),
            Ok(system_schedule_to_value(&schedule).to_json()),
        ),
        ("schedule_delta.json".to_owned(), Ok(delta_to_json(&delta))),
        (
            "request_synthesize.json".to_owned(),
            Ok(Request::Synthesize(Box::new(base.clone())).to_json()),
        ),
        (
            "request_resynthesize.json".to_owned(),
            Ok(Request::Resynthesize(Box::new(ResynthesizeRequest {
                base,
                predecessor: MODE_CHANGE_KEY.to_owned(),
            }))
            .to_json()),
        ),
        (
            "request_stats.json".to_owned(),
            Ok(Request::Stats.to_json()),
        ),
        (
            "request_shutdown.json".to_owned(),
            Ok(Request::Shutdown.to_json()),
        ),
        (
            "response_schedule.json".to_owned(),
            Ok(Response::Schedule(Box::new(ScheduleReply {
                schedule: schedule.clone(),
                served: ServedFrom::Disk,
                request_milp_nodes: 117,
                service_micros: 4242,
            }))
            .to_json()),
        ),
        (
            "response_stats.json".to_owned(),
            Ok(Response::Stats(stats_with(|position| position).expect("decodes")).to_json()),
        ),
        (
            "response_error.json".to_owned(),
            Ok(Response::Error {
                message: "synthesis failed: \"quoted\" \\ é 😀\n".to_owned(),
            }
            .to_json()),
        ),
        (
            "response_shutdown_ack.json".to_owned(),
            Ok(Response::ShutdownAck.to_json()),
        ),
        (entry.0, Ok(entry.1)),
        (sidecar.0, Ok(sidecar.1)),
    ];
    documents
        .into_iter()
        .map(|(name, text)| (name, text.expect("encodes")))
        .collect()
}

/// Writes `tests/fixtures/codec` from this build:
/// `cargo test --test json_codec -- --ignored write_codec_fixtures`. A
/// deliberate change of a wire or disk format, or of the solver counters a
/// schedule carries, is the reason to run it.
#[test]
#[ignore = "overwrites the committed fixtures"]
fn write_codec_fixtures() {
    std::fs::create_dir_all(fixture_dir()).expect("mkdir");
    for (name, text) in codec_fixtures() {
        std::fs::write(fixture_dir().join(name), text).expect("write");
    }
}

/// The committed fixtures are this build's output, byte for byte: a change
/// that moves a wire or disk byte, or a counter a schedule carries, fails
/// here until the fixtures are written again (`write_codec_fixtures`).
/// [`every_fixture_decodes_and_encodes_back_to_its_bytes`] only re-encodes
/// what is committed, so it cannot see a stale file.
#[test]
fn committed_fixtures_are_this_builds_output() {
    for (name, text) in codec_fixtures() {
        let path = fixture_dir().join(&name);
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|error| panic!("{}: {error}", path.display()));
        assert_eq!(committed, text, "{name} is not this build's output");
    }
}

/// The rendering of a system through its applications' specs: each one
/// rebuilt as the [`ApplicationSpec`] it was added from — tasks and messages
/// in id order, every reference by name — and written by that spec's table.
/// The oracle the borrowed rendering of `impl Json for System` must match.
fn system_through_specs(system: &System, pretty: bool) -> String {
    let task_names = |tasks: &[TaskId]| {
        let names = tasks.iter().map(|&task| system.task(task).name.clone());
        names.collect()
    };
    let specs: Vec<ApplicationSpec> = system
        .applications()
        .map(|(_, app)| ApplicationSpec {
            name: app.name.clone(),
            period: app.period,
            deadline: app.deadline,
            tasks: (app.tasks.iter())
                .map(|&task| {
                    let task = system.task(task);
                    TaskSpec {
                        name: task.name.clone(),
                        node: system.node(task.node).name.clone(),
                        wcet: task.wcet,
                    }
                })
                .collect(),
            messages: (app.messages.iter())
                .map(|&message| {
                    let message = system.message(message);
                    MessageSpec {
                        name: message.name.clone(),
                        sources: task_names(&message.preceding_tasks),
                        destinations: task_names(&message.successor_tasks),
                    }
                })
                .collect(),
        })
        .collect();
    let mut out = Vec::new();
    let mut w = match pretty {
        true => Writer::pretty(&mut out),
        false => Writer::compact(&mut out),
    };
    w.object(&mut [
        ("nodes", &|w| {
            w.array(system.nodes(), |w, (_, node)| node.name.write(w));
        }),
        ("applications", &|w| specs.write(w)),
        ("modes", &|w| {
            w.array(system.modes(), |w, (_, mode)| mode.write(w));
        }),
    ]);
    String::from_utf8(out).expect("the writer emits UTF-8")
}

/// Every testkit family — the nine `small` shapes, the same with multi-rate
/// periods, `bench(4/8/16, Chain)`, seeds 0–19 each — and every fixture
/// system renders the bytes of its specs, compact and pretty.
#[test]
fn a_system_renders_the_bytes_of_its_application_specs() {
    const SMALL_SHAPES: [(usize, GraphShape); 9] = [
        (2, GraphShape::Chain),
        (2, GraphShape::RandomDag),
        (3, GraphShape::Chain),
        (3, GraphShape::LayeredDag { width: 3 }),
        (3, GraphShape::RandomDag),
        (4, GraphShape::Chain),
        (4, GraphShape::Diamond),
        (4, GraphShape::LayeredDag { width: 3 }),
        (4, GraphShape::RandomDag),
    ];
    let small = SMALL_SHAPES.map(|(modes, shape)| GeneratorConfig::small(modes, shape));
    let families = (small.iter().cloned())
        .chain(small.iter().map(|config| config.clone().with_multi_rate()))
        .chain([4, 8, 16].map(|modes| GeneratorConfig::bench(modes, GraphShape::Chain)));
    let mut systems: Vec<System> = families
        .flat_map(|config| (0..20).map(move |seed| generate(&config, seed).system))
        .collect();
    systems.extend([
        fixtures::fig3_system_single_app().0,
        fixtures::fig3_system().0,
        fixtures::two_mode_system().0,
        fixtures::two_mode_graph().0,
        fixtures::four_mode_diamond().0,
        fixtures::synthetic_mode(3, 4, 5, millis(100)).0,
    ]);
    assert_eq!(systems.len(), 21 * 20 + 6);
    for (i, system) in systems.iter().enumerate() {
        assert_eq!(
            system.to_json(),
            system_through_specs(system, false),
            "system {i}"
        );
        let pretty = system_through_specs(system, true);
        assert_eq!(
            system_to_json(system).expect("renders"),
            pretty,
            "system {i}"
        );
    }
}
