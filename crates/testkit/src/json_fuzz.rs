//! Seeded fuzzing of the JSON codec ([`ttw_core::json`]) — the first decoder
//! under the "every decoder rejects hostile input without panicking"
//! promise, and the one every other wire and disk format sits on.
//!
//! [`check_json_codec`] draws random [`Value`] trees whose strings are built
//! to sit on the parser's seams (an escape first, last, and between two
//! plain runs; control characters; 2-, 3- and 4-byte code points) and checks
//! three properties per case:
//!
//! 1. `parse(to_json(v)) == v` and `parse(to_json_pretty(v)) == v`;
//! 2. every string, written with *every* character as a `\uXXXX` escape
//!    (surrogate pairs above the BMP), parses back to itself;
//! 3. byte-level mutations of the rendered text — flips, insertions of
//!    structural bytes, deletions, truncation, a `0` or `+` in front of a
//!    string's leading digit (how an index key stops being canonical) —
//!    return `Ok` or `Err` and never panic, whether or not the result is
//!    still UTF-8.
//!
//! [`check_typed_documents`] points the same mutator one layer up, at the
//! typed documents: for the system, mode graph and scheduler configuration of
//! a generated [`Scenario`], its synthesized mode and system schedules, the
//! warm-start artifacts sidecar and a [`ScheduleDelta`] between two
//! schedules, [`check_document`] asserts
//!
//! 1. `decode(encode(x)) == x`;
//! 2. `encode(decode(encode(x)))` is byte-identical to `encode(x)`;
//! 3. eight byte-level mutations of the text decode to `Ok` or `Err` and
//!    never panic;
//! 4. `encode(x)` is what the generic tree renders for it —
//!    `Value::parse(encode(x))` written compact or pretty gives the same
//!    bytes — so the typed writer, which never builds that tree, is pinned
//!    from outside: sorted members, number and string forms and all;
//! 5. the text of a foreign writer decodes to the same value: members
//!    shuffled at every object level, a duplicate of a member (as often as
//!    not of the wrong shape) in front of the original, members no table
//!    knows (scalars and nested containers) in between, and either layout.
//!
//! The wire protocol of `ttw-service` sits above this crate, so its
//! documents are checked by the caller: [`check_typed_documents`] hands every
//! [`TypedSample`] to a closure that runs [`check_document`] on whatever it
//! builds from it.
//!
//! Like the scenario generator both sweeps are deterministic in their seed,
//! and a failure names the seed and case that reproduce it.

use crate::{generate, GeneratorConfig, GraphShape, Scenario};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use ttw_core::cache::{
    artifacts_from_json, artifacts_to_json, synthesize_system_cached, ScheduleCache,
    SynthesisArtifacts,
};
use ttw_core::delta::{
    delta_from_json, delta_to_json, diff, node_deployments, NodeDeployment, ScheduleDelta,
};
use ttw_core::export::{
    mode_graph_from_json, mode_graph_to_json, schedule_from_json, schedule_to_json,
    scheduler_config_from_json, scheduler_config_to_json, system_from_json,
    system_schedule_from_json, system_schedule_to_json, system_to_json,
};
use ttw_core::json::{Json, JsonError, Object, Value};
use ttw_core::synthesis::{IlpSynthesizer, Synthesizer};
use ttw_core::{NodeId, SchedulerConfig, SystemSchedule};
use ttw_netsim::rng::SplitMix64;

/// Characters chosen for where they land in the codec: the two run
/// terminators, every short escape, controls that need `\u00XX`, the
/// escape-free ASCII neighbours of those, and one code point of each UTF-8
/// length up to the last scalar value.
const SEAM_CHARS: [char; 24] = [
    '"',
    '\\',
    '/',
    '\u{8}',
    '\u{c}',
    '\n',
    '\r',
    '\t',
    '\0',
    '\u{1}',
    '\u{1f}',
    ' ',
    '!',
    '~',
    '\u{7f}',
    '\u{80}',
    'é',
    '\u{7ff}',
    '\u{800}',
    '€',
    '\u{ffff}',
    '\u{10000}',
    '😀',
    '\u{10ffff}',
];

/// Bytes the grammar gives a meaning to; inserting or substituting one is
/// far likelier to reach a new parser state than a random byte is.
const STRUCTURAL_BYTES: &[u8] = b"\"\\[]{}:,-+.eEu0123456789tfn \n\x00\x1f\x7f\x80\xc3\xe2\xf0\xff";

fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    rng.next_u64() as usize % bound
}

/// A short string biased towards the parser's seam characters — also
/// what the free-text members of the typed documents (an error message, a
/// predecessor key) are drawn from.
pub fn random_string(rng: &mut SplitMix64) -> String {
    let len = below(rng, 12);
    (0..len)
        .map(|_| {
            if below(rng, 3) == 0 {
                char::from(b'a' + below(rng, 26) as u8)
            } else {
                SEAM_CHARS[below(rng, SEAM_CHARS.len())]
            }
        })
        .collect()
}

fn random_number(rng: &mut SplitMix64) -> f64 {
    match below(rng, 5) {
        // Integers of every size an index, offset or counter takes.
        0 => below(rng, 100) as f64,
        1 => (rng.next_u64() >> 11) as f64,
        2 => -((rng.next_u64() >> 40) as f64),
        // Fractions, and magnitudes whose shortest form is long.
        3 => rng.next_f64() - 0.5,
        _ => (rng.next_f64() - 0.5) * 10f64.powi(below(rng, 600) as i32 - 300),
    }
}

/// A random document at most `depth` containers deep.
fn random_value(rng: &mut SplitMix64, depth: usize) -> Value {
    let kinds = if depth == 0 { 4 } else { 6 };
    match below(rng, kinds) {
        0 => Value::Null,
        1 => Value::Bool(below(rng, 2) == 0),
        2 => Value::Number(random_number(rng)),
        3 => Value::String(random_string(rng)),
        4 => Value::Array(
            (0..below(rng, 5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..below(rng, 5))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// One byte-level mutation of `text`: a substitution, an insertion, a
/// deletion, a truncation, or a `0` or `+` pushed in front of the digit that
/// opens a string — the index keys of the typed documents are such strings,
/// and `"07"` and `"+7"` are how two keys come to name one index. Public for
/// the decoders that sit below and beside JSON (basis snapshots, frame
/// headers), whose sweeps live where their crates are visible.
pub fn mutate(rng: &mut SplitMix64, text: &[u8]) -> Vec<u8> {
    let mut bytes = text.to_vec();
    let byte = if below(rng, 2) == 0 {
        STRUCTURAL_BYTES[below(rng, STRUCTURAL_BYTES.len())]
    } else {
        rng.next_u64() as u8
    };
    let at = below(rng, bytes.len() + 1);
    match below(rng, 5) {
        0 if at < bytes.len() => bytes[at] = byte,
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        2 => bytes.truncate(at),
        3 => {
            let digit_strings: Vec<usize> = bytes
                .windows(2)
                .enumerate()
                .filter(|(_, pair)| pair[0] == b'"' && pair[1].is_ascii_digit())
                .map(|(at, _)| at + 1)
                .collect();
            match digit_strings.get(below(rng, digit_strings.len().max(1))) {
                Some(&digit) => bytes.insert(digit, b"0+"[below(rng, 2)]),
                None => bytes.insert(at, byte),
            }
        }
        _ => bytes.insert(at, byte),
    }
    bytes
}

/// `text` as a JSON string literal in which every character is a `\uXXXX`
/// escape — a surrogate pair above the BMP — so the parser's escape path
/// decodes what its plain-run path otherwise copies.
fn fully_escaped(text: &str) -> String {
    let mut out = String::from("\"");
    let mut units = [0u16; 2];
    for c in text.chars() {
        for unit in c.encode_utf16(&mut units) {
            let _ = write!(out, "\\u{unit:04x}");
        }
    }
    out.push('"');
    out
}

fn strings_of<'a>(value: &'a Value, out: &mut Vec<&'a str>) {
    match value {
        Value::String(s) => out.push(s),
        Value::Array(items) => items.iter().for_each(|item| strings_of(item, out)),
        Value::Object(map) => {
            for (key, item) in map {
                out.push(key);
                strings_of(item, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Number(_) => {}
    }
}

/// Runs `cases` random documents of `seed`'s stream through the three
/// properties of the [module docs](self).
///
/// # Errors
///
/// Returns a description of the first violated round trip, with the seed and
/// case index that reproduce it. (A panic inside the parser is the other
/// failure mode; the test harness reports it with the same seed in scope.)
pub fn check_json_codec(seed: u64, cases: usize) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    for case in 0..cases {
        let fail = |what: &str, text: &str| {
            Err(format!(
                "json codec: {what} (seed {seed}, case {case}): {text}"
            ))
        };
        let value = random_value(&mut rng, 4);
        let compact = value.to_json();
        for rendered in [&compact, &value.to_json_pretty()] {
            if Value::parse(rendered).as_ref() != Ok(&value) {
                return fail("parse(render(v)) != v", rendered);
            }
        }
        let mut strings = Vec::new();
        strings_of(&value, &mut strings);
        for text in strings {
            let escaped = fully_escaped(text);
            if Value::parse(&escaped) != Ok(Value::String(text.to_owned())) {
                return fail("an all-escapes string does not parse back", &escaped);
            }
        }
        for _ in 0..8 {
            let mutated = mutate(&mut rng, compact.as_bytes());
            // The frame layer hands the parser bytes; only UTF-8 reaches it.
            if let Ok(text) = std::str::from_utf8(&mutated) {
                let _ = Value::parse(text);
            }
        }
    }
    Ok(())
}

/// Whether every key of `map` is an index in decimal: the object is an
/// index-keyed map, which takes no member by another name. (An empty object
/// is one, too; no table is empty.)
fn is_index_keyed(map: &Object) -> bool {
    map.keys()
        .all(|key| !key.is_empty() && key.bytes().all(|b| b.is_ascii_digit()))
}

/// `value` as a writer other than ours might send it, and any reader must
/// take it: at every object level the members in random order, half the time
/// a second copy of one of them — or something else entirely under its name
/// — ahead of the original, and up to two members nobody knows.
fn scrambled(value: &Value, rng: &mut SplitMix64, out: &mut String) {
    if let Some(items) = value.as_array() {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            scrambled(item, rng, out);
        }
        out.push(']');
        return;
    }
    let Some(map) = value.as_object() else {
        return out.push_str(&value.to_json());
    };
    let mut members: Vec<(String, String)> = map
        .iter()
        .map(|(key, member)| {
            let mut text = String::new();
            scrambled(member, rng, &mut text);
            (key.clone(), text)
        })
        .collect();
    for i in (1..members.len()).rev() {
        members.swap(i, below(rng, i + 1));
    }
    if !members.is_empty() && below(rng, 2) == 0 {
        let original = below(rng, members.len());
        let (key, text) = members[original].clone();
        let text = match below(rng, 2) {
            0 => text,
            _ => random_value(rng, 2).to_json(),
        };
        members.insert(below(rng, original + 1), (key, text));
    }
    if !is_index_keyed(map) {
        for _ in 0..below(rng, 3) {
            let key = format!("unknown {}", random_string(rng));
            let member = (key, random_value(rng, 3).to_json());
            members.insert(below(rng, members.len() + 1), member);
        }
    }
    out.push('{');
    for (i, (key, text)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&Value::String(key.clone()).to_json());
        out.push(':');
        out.push_str(text);
    }
    out.push('}');
}

/// Checks one typed document against the five properties of the
/// [module docs](self): `decode(encode(value))` is `same` as `value`,
/// encoding that again reproduces the bytes, eight mutations of the bytes
/// decode without panicking, the bytes are the generic tree's, and four
/// foreign renderings of the document — and both of ours — decode to the
/// same value.
///
/// `decode` takes bytes because a frame payload is bytes; [`utf8`] adapts a
/// `&str` decoder.
///
/// # Errors
///
/// Returns a description of the first violated property, prefixed with
/// `what`.
pub fn check_document<T>(
    what: &str,
    value: &T,
    encode: impl Fn(&T) -> String,
    decode: impl Fn(&[u8]) -> Result<T, JsonError>,
    same: impl Fn(&T, &T) -> bool,
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let text = encode(value);
    let back = decode(text.as_bytes())
        .map_err(|error| format!("{what}: decode(encode(x)) failed: {error}: {text}"))?;
    if !same(value, &back) {
        return Err(format!("{what}: decode(encode(x)) != x: {text}"));
    }
    let again = encode(&back);
    if again != text {
        return Err(format!(
            "{what}: encode(decode(encode(x))) differs: {text} became {again}"
        ));
    }
    for _ in 0..8 {
        let _ = decode(&mutate(rng, text.as_bytes()));
    }

    let tree = Value::parse(&text)
        .map_err(|error| format!("{what}: encode(x) is not JSON: {error}: {text}"))?;
    let mut renderings = vec![tree.to_json(), tree.to_json_pretty()];
    if !renderings.contains(&text) {
        return Err(format!(
            "{what}: encode(x) is not how the generic tree renders it: {text} against {}",
            renderings[0]
        ));
    }
    renderings.extend((0..4).map(|_| {
        let mut foreign = String::new();
        scrambled(&tree, rng, &mut foreign);
        foreign
    }));
    for rendering in renderings {
        match decode(rendering.as_bytes()) {
            Ok(decoded) if same(&back, &decoded) => {}
            Ok(_) => return Err(format!("{what}: another value from {rendering}")),
            Err(error) => return Err(format!("{what}: {error}: {rendering}")),
        }
    }
    Ok(())
}

/// Adapts a `&str` decoder to the byte decoder [`check_document`] takes:
/// bytes that are not UTF-8 are an error, as they are at the frame layer.
pub fn utf8<T>(
    decode: impl Fn(&str) -> Result<T, JsonError>,
) -> impl Fn(&[u8]) -> Result<T, JsonError> {
    move |bytes| match std::str::from_utf8(bytes) {
        Ok(text) => decode(text),
        Err(_) => Err(JsonError::custom("document is not UTF-8")),
    }
}

/// What one generated scenario contributes to the typed sweep: its inputs
/// and everything synthesized from them.
#[derive(Debug)]
pub struct TypedSample {
    /// The generated system and mode graph.
    pub scenario: Scenario,
    /// The scenario's scheduler configuration with every optional field and
    /// solver parameter drawn at random — for the codec only, never solved.
    pub config: SchedulerConfig,
    /// The ILP schedule of the scenario (under its own configuration).
    pub schedule: SystemSchedule,
    /// The warm-start artifacts the schedule cache keeps for `schedule`.
    pub artifacts: SynthesisArtifacts,
    /// Deltas of every patch op kind between the deployment of `schedule`
    /// and its baselines, [`retimed_deployment`] among them.
    pub deltas: Vec<ScheduleDelta>,
}

/// A configuration whose every field differs from the default somewhere in
/// the stream: both states of each optional field and switch, integers of
/// every size.
fn random_config(rng: &mut SplitMix64, base: &SchedulerConfig) -> SchedulerConfig {
    let mut config = base.clone();
    let coin = |rng: &mut SplitMix64| below(rng, 2) == 0;
    config.max_inter_round_gap = coin(rng).then(|| rng.next_u64() >> 20);
    config.max_rounds = coin(rng).then(|| below(rng, 64));
    config.analyze_first = coin(rng);
    let solver = &mut config.solver;
    solver.max_nodes = below(rng, 1 << 20);
    solver.max_simplex_iterations = (rng.next_u64() >> 12) as usize;
    solver.presolve = coin(rng);
    solver.cuts = coin(rng);
    solver.pseudocost = coin(rng);
    config
}

fn same_artifacts(a: &SynthesisArtifacts, b: &SynthesisArtifacts) -> bool {
    let warm = |x: &SynthesisArtifacts| -> Vec<_> {
        x.warm
            .iter()
            .map(|(mode, start)| (*mode, start.rounds, start.basis.to_json()))
            .collect()
    };
    a.backend == b.backend
        && a.config == b.config
        && a.system == b.system
        && a.graph == b.graph
        && warm(a) == warm(b)
}

/// Runs the typed documents of `scenarios` generated scenarios of `seed`'s
/// stream through [`check_document`], then hands each [`TypedSample`] to
/// `extra` for the documents of the layers above this crate.
///
/// A scenario the ILP cannot schedule within the family's budget is skipped
/// (the next seed is drawn), so `scenarios` is the number actually checked.
///
/// # Errors
///
/// Returns the first failure of [`check_document`] or of `extra`, with the
/// seed and scenario index that reproduce it.
pub fn check_typed_documents(
    seed: u64,
    scenarios: usize,
    mut extra: impl FnMut(&TypedSample, &mut SplitMix64) -> Result<(), String>,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let mut previous: Option<TypedSample> = None;
    let mut checked = 0;
    let mut draw = 0;
    while checked < scenarios {
        let scenario = draw_scenario(seed, draw);
        draw += 1;
        if draw > 8 * scenarios + 8 {
            return Err(format!(
                "typed documents: too few schedulable scenarios (seed {seed})"
            ));
        }
        let Some(sample) = synthesize_sample(scenario, previous.as_ref(), &mut rng) else {
            continue;
        };
        let at = |failure: String| format!("{failure} (seed {seed}, scenario {checked})");
        check_sample(&sample, &mut rng).map_err(at)?;
        extra(&sample, &mut rng).map_err(at)?;
        previous = Some(sample);
        checked += 1;
    }
    Ok(())
}

/// The `draw`-th scenario of `seed`'s stream: two to four modes, every graph
/// shape in turn, so consecutive samples differ in their modes and nodes.
fn draw_scenario(seed: u64, draw: usize) -> Scenario {
    let shape = GraphShape::ALL[draw % GraphShape::ALL.len()];
    let family = GeneratorConfig::small(2 + draw % 3, shape);
    generate(&family, seed.wrapping_mul(1000).wrapping_add(draw as u64))
}

fn synthesize_sample(
    scenario: Scenario,
    previous: Option<&TypedSample>,
    rng: &mut SplitMix64,
) -> Option<TypedSample> {
    let solve_config = scenario.scheduler_config();
    let backend = IlpSynthesizer;
    let cache = ScheduleCache::in_memory();
    let (schedule, _) = synthesize_system_cached(
        &scenario.system,
        &scenario.graph,
        &solve_config,
        &backend,
        &cache,
    )
    .ok()?;
    let key = ttw_core::cache::synthesis_key(
        &scenario.system,
        &scenario.graph,
        &solve_config,
        backend.name(),
    );
    let artifacts = SynthesisArtifacts::clone(&*cache.artifacts(&key)?);
    // Deltas of every op kind: the deployment against its retimed copy
    // (retimed tasks, replaced and truncated rounds), against nothing (whole
    // mode tables) and against the previous scenario's deployment (modes and
    // nodes that come and go) — each in both directions.
    let deployed = node_deployments(&scenario.system, &schedule);
    let mut baselines = vec![Default::default(), retimed_deployment(&deployed)];
    if let Some(previous) = previous {
        baselines.push(node_deployments(
            &previous.scenario.system,
            &previous.schedule,
        ));
    }
    let deltas = baselines
        .iter()
        .flat_map(|baseline| [diff(baseline, &deployed), diff(&deployed, baseline)])
        .collect();
    Some(TypedSample {
        config: random_config(rng, &solve_config),
        scenario,
        schedule,
        artifacts,
        deltas,
    })
}

/// How far [`retimed_deployment`] moves every task and its first round, µs.
const RETIME_STEP: f64 = 1_000.0;

/// `deployed` with every task offset moved by a fixed step, the first round
/// of each mode table moved by the same step and the last one dropped.
/// Against the deployment it came from, it yields retimed tasks and
/// replaced, appended and truncated rounds, without a second solve.
pub fn retimed_deployment(
    deployed: &BTreeMap<NodeId, NodeDeployment>,
) -> BTreeMap<NodeId, NodeDeployment> {
    let mut retimed = deployed.clone();
    for table in retimed
        .values_mut()
        .flat_map(|node| node.modes.values_mut())
    {
        for offset in table.task_offsets.values_mut() {
            *offset += RETIME_STEP;
        }
        if let Some(first) = table.rounds.first_mut() {
            first.start += RETIME_STEP;
        }
        table.rounds.pop();
    }
    retimed
}

fn check_sample(sample: &TypedSample, rng: &mut SplitMix64) -> Result<(), String> {
    let TypedSample {
        scenario,
        config,
        schedule,
        artifacts,
        deltas,
    } = sample;
    let (system, graph) = (&scenario.system, &scenario.graph);
    let infallible = |result: Result<String, JsonError>| result.unwrap_or_default();

    check_document(
        "system",
        system,
        |s| infallible(system_to_json(s)),
        utf8(system_from_json),
        |a, b| a == b,
        rng,
    )?;
    check_document(
        "mode graph",
        graph,
        |g| infallible(mode_graph_to_json(g)),
        utf8(mode_graph_from_json),
        |a, b| a == b,
        rng,
    )?;
    check_document(
        "scheduler config",
        config,
        |c| infallible(scheduler_config_to_json(c)),
        utf8(scheduler_config_from_json),
        |a, b| a == b,
        rng,
    )?;
    for (_, mode_schedule) in schedule.iter() {
        check_document(
            "mode schedule",
            mode_schedule,
            |s| infallible(schedule_to_json(s)),
            utf8(schedule_from_json),
            |a, b| a == b,
            rng,
        )?;
    }
    check_document(
        "system schedule",
        schedule,
        |s| infallible(system_schedule_to_json(s)),
        utf8(system_schedule_from_json),
        |a, b| a == b,
        rng,
    )?;
    check_document(
        "artifacts sidecar",
        artifacts,
        artifacts_to_json,
        utf8(artifacts_from_json),
        same_artifacts,
        rng,
    )?;

    for delta in deltas {
        check_document(
            "schedule delta",
            delta,
            delta_to_json,
            utf8(delta_from_json),
            |a, b| a == b,
            rng,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The large budget; tier-1 (`tests/json_codec.rs`) runs a small one.
    #[test]
    fn json_codec_survives_the_seeded_sweep() {
        for seed in 0..16 {
            check_json_codec(seed, 400).unwrap_or_else(|failure| panic!("{failure}"));
        }
    }

    /// The large budget of the typed sweep; tier-1 runs two scenarios.
    #[test]
    fn typed_documents_survive_the_seeded_sweep() {
        for seed in 0..4 {
            check_typed_documents(seed, 6, |_, _| Ok(()))
                .unwrap_or_else(|failure| panic!("{failure}"));
        }
    }

    #[test]
    fn typed_sweep_reports_a_decoder_that_loses_data() {
        let mut rng = SplitMix64::new(1);
        let failure = check_document(
            "lossy",
            &7usize,
            |n| n.to_string(),
            utf8(|_| Ok(8usize)),
            |a, b| a == b,
            &mut rng,
        )
        .expect_err("8 is not 7");
        assert!(failure.contains("decode(encode(x)) != x"), "{failure}");
    }

    #[test]
    fn generator_reaches_every_kind_and_seam() {
        let mut rng = SplitMix64::new(3);
        let rendered: String = (0..200)
            .map(|_| random_value(&mut rng, 4).to_json())
            .collect();
        for needle in [
            "null", "true", "[", "{", "\\u0000", "\\\"", "\\\\", "\\n", "é", "😀", "-", ".",
        ] {
            assert!(rendered.contains(needle), "never generated {needle:?}");
        }
        // Mutations change the text and can break its UTF-8.
        let text = "{\"é\":[1,2.5,\"x\"]}".as_bytes();
        let mutants: Vec<Vec<u8>> = (0..200).map(|_| mutate(&mut rng, text)).collect();
        assert!(mutants.iter().any(|m| m != text));
        assert!(mutants.iter().any(|m| std::str::from_utf8(m).is_err()));
    }
}
