//! The cache key of a synthesis request: the FNV-1a 64 hash of one compact
//! JSON document, written by the codec every wire and disk document goes
//! through. See the [parent module](super) for what the key covers and how
//! it goes stale.

use crate::config::SchedulerConfig;
use crate::json::{Json, Writer};
use crate::modegraph::ModeGraph;
use crate::synthesis::IlpSynthesizer;
use crate::system::System;

/// Bumped whenever the cached representation (or anything influencing the
/// synthesized bytes that the key document does not already capture — e.g.
/// a same-version solver change that lands on a different co-optimal
/// schedule) changes. See the [parent module](super) for the invalidation
/// rule.
const CACHE_FORMAT_VERSION: u64 = 2;

/// Writes the key document of a request to `out`: one object of the format
/// and crate versions, [`IlpSynthesizer::NAME`] and the codec's forms of
/// `system`, `graph` (root included) and `config`. Two requests share a key
/// exactly when these bytes are equal, so a field the codec carries cannot
/// be left out of the key.
fn write_key_document(
    out: &mut Vec<u8>,
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
) {
    Writer::compact(out).object(&mut [
        ("format", &|w| w.integer(CACHE_FORMAT_VERSION)),
        ("version", &|w| w.string(env!("CARGO_PKG_VERSION"))),
        ("backend", &|w| w.string(IlpSynthesizer::NAME)),
        ("config", &|w| config.write(w)),
        ("mode_graph", &|w| graph.write(w)),
        ("system", &|w| system.write(w)),
    ]);
}

/// FNV-1a 64-bit over the key document — stable across platforms and runs.
///
/// 64 bits make a collision unlikely within one cache directory, not
/// impossible, and an entry does not keep the document it was keyed by, so
/// a hit is trusted on the hash alone. A collision would serve a valid
/// schedule of *another* system, which for a scheduler is a safety risk,
/// not a wasted lookup. Storing the document (or a 128-bit digest) in the
/// entry and comparing it on every hit is the open fix.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Computes the cache key for a synthesis request.
pub fn synthesis_key(system: &System, graph: &ModeGraph, config: &SchedulerConfig) -> String {
    let mut document = Vec::new();
    write_key_document(&mut document, system, graph, config);
    format!("{:016x}", fnv1a64(&document))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::time::millis;

    fn config() -> SchedulerConfig {
        SchedulerConfig::new(millis(10), 5)
    }

    #[test]
    fn key_separates_config_and_structure() {
        let (sys, graph, _, emergency) = fixtures::two_mode_graph();
        let base = synthesis_key(&sys, &graph, &config());
        let other_config = SchedulerConfig::new(millis(20), 5);
        assert_ne!(
            base,
            synthesis_key(&sys, &graph, &other_config),
            "config must be part of the key"
        );
        let mut presolve_off = config();
        presolve_off.solver.presolve = false;
        assert_ne!(
            base,
            synthesis_key(&sys, &graph, &presolve_off),
            "solver params must be part of the key"
        );
        let mut tighter_budget = config();
        tighter_budget.solver.max_nodes = 10;
        assert_ne!(
            base,
            synthesis_key(&sys, &graph, &tighter_budget),
            "per-request solver budgets must be part of the key"
        );
        let (diamond_sys, diamond_graph, _) = fixtures::four_mode_diamond();
        assert_ne!(
            base,
            synthesis_key(&diamond_sys, &diamond_graph, &config()),
            "system structure must be part of the key"
        );
        // The root decides which mode fixes a shared application's offsets,
        // so the same graph rooted elsewhere synthesizes another schedule.
        let rerooted = graph
            .clone()
            .with_root(emergency)
            .expect("a mode of the graph");
        assert_ne!(
            base,
            synthesis_key(&sys, &rerooted, &config()),
            "the mode-graph root must be part of the key"
        );
    }

    /// Disk entries and `request_key` predecessors outlive a build, so the
    /// key values are part of the format. They move only with
    /// `CACHE_FORMAT_VERSION`, the crate version, or a change to a codec
    /// form the key document embeds.
    #[test]
    fn key_values_are_pinned() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        assert_eq!(synthesis_key(&sys, &graph, &config()), "a25972618d19d494");
        let (diamond_sys, diamond_graph, _) = fixtures::four_mode_diamond();
        assert_eq!(
            synthesis_key(&diamond_sys, &diamond_graph, &config()),
            "294f2d91e7d179a3"
        );
    }

    /// The key document embeds each input's codec bytes verbatim, members in
    /// sorted order.
    #[test]
    fn key_document_is_the_codec_forms_of_the_request() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let mut document = Vec::new();
        write_key_document(&mut document, &sys, &graph, &config());
        let expected = format!(
            "{{\"backend\":\"ilp-incremental\",\"config\":{},\"format\":2,\"mode_graph\":{},\
             \"system\":{},\"version\":\"{}\"}}",
            config().to_json(),
            graph.to_json(),
            sys.to_json(),
            env!("CARGO_PKG_VERSION"),
        );
        assert_eq!(String::from_utf8(document).expect("utf-8"), expected);
    }
}
