//! Tier-1 gates on the JSON codec every wire and disk format sits on: its
//! complexity class, without a stopwatch, and the seeded fuzz sweep of
//! `ttw_testkit::json_fuzz` on a small budget (the testkit's own unit test
//! runs the large one).

use std::collections::BTreeMap;
use ttw::core::json::Value;
use ttw::testkit::json_fuzz::check_json_codec;

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
