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
//!    structural bytes, deletions, truncation — return `Ok` or `Err` and
//!    never panic, whether or not the result is still UTF-8.
//!
//! Like the scenario generator it is deterministic in its seed, and a
//! failure names the seed and case that reproduce it.

use std::fmt::Write as _;
use ttw_core::json::Value;
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

fn random_string(rng: &mut SplitMix64) -> String {
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
/// deletion or a truncation.
fn mutate(rng: &mut SplitMix64, text: &[u8]) -> Vec<u8> {
    let mut bytes = text.to_vec();
    let byte = if below(rng, 2) == 0 {
        STRUCTURAL_BYTES[below(rng, STRUCTURAL_BYTES.len())]
    } else {
        rng.next_u64() as u8
    };
    let at = below(rng, bytes.len() + 1);
    match below(rng, 4) {
        0 if at < bytes.len() => bytes[at] = byte,
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        2 => bytes.truncate(at),
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
