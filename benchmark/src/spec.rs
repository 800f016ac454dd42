//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` is rendered from these tables
//! (`-- manifest`), and a self-test holds the committed file to them.

use crate::estimate::Better;
use std::collections::BTreeMap;
use ttw_core::json::Value;

/// Seconds one run measures for (`run_seconds`, passed back as `--seconds`).
pub const RUN_SECONDS: u64 = 24;

/// A workload and the one-line reason it exists.
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which layers it loads and which it must leave alone.
    pub why: &'static str,
}

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "cold_solve",
        why: "never-seen systems: ttw-milp and core::ilp do >90% of the work, so solver changes show here and service changes must not",
    },
    WorkloadSpec {
        name: "warm_hit",
        why: "memory-tier hits of two reply sizes: protocol, frame, export, cache key/probe and the socket do all the work, the solver none",
    },
    WorkloadSpec {
        name: "admission_edit",
        why: "one-WCET edits resynthesized from cached predecessors: cache writes, basis-warm solves and whole-schedule reply encodes together",
    },
    WorkloadSpec {
        name: "runtime_faults",
        why: "mode-change storms under injected faults: ttw-runtime and ttw-netsim do all the work, synthesis and the service none",
    },
];

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    /// Metric name, unique across both lists.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Which direction is good.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, the same on every workload. Times are at nominal
/// machine speed (`reference`); over ten seeds their quartile spread is 0.4
/// to 3.6 % (once 5.4 %) against the 0.10 they are bound by. `setup_s` is a few
/// milliseconds on two workloads and sampled once a lap, so it gets the
/// widest bound. Failures are not in this list: a metric here may never be
/// 0, so failed ops travel in the result's `attempted`/`failed` and in
/// `correct`.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.10),
    e2e("latency_ms_p50", "ms", Better::Lower, 0.10),
    e2e("latency_ms_p90", "ms", Better::Lower, 0.10),
    e2e("cpu_ms_per_op", "ms", Better::Lower, 0.10),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const LOW: Better = Better::Lower;
const HIGH: Better = Better::Higher;

/// The per-layer metrics of the traced pass; layer = module. Times are
/// medians per op, counts are exact per lap. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricSpec; 67] = [
    // service::protocol
    layer("protocol.encode_request_us", "us", LOW),
    layer("protocol.decode_request_us", "us", LOW),
    layer("protocol.encode_reply_us", "us", LOW),
    layer("protocol.decode_reply_us", "us", LOW),
    layer("protocol.request_bytes", "bytes", LOW),
    layer("protocol.reply_bytes", "bytes", LOW),
    // service::frame / service::server
    layer("frame.codec_us", "us", LOW),
    layer("server.transport_residual_us", "us", LOW),
    // service::service
    layer("service.handle_us", "us", LOW),
    layer("service.solved", "count", LOW),
    layer("service.incremental", "count", LOW),
    layer("service.cache_hits", "count", HIGH),
    layer("service.coalesced", "count", HIGH),
    layer("service.rejected", "count", LOW),
    layer("service.solve_errors", "count", LOW),
    // core::cache
    layer("cache.key_us", "us", LOW),
    layer("cache.probe_us", "us", LOW),
    layer("cache.store_us", "us", LOW),
    layer("cache.artifacts_us", "us", LOW),
    layer("cache.resident", "count", LOW),
    layer("cache.hit_ratio", "ratio", HIGH),
    // core::export
    layer("export.system_to_json_us", "us", LOW),
    layer("export.schedule_to_json_us", "us", LOW),
    layer("export.schedule_from_json_us", "us", LOW),
    // analyze
    layer("analyze.gate_us", "us", LOW),
    // core::ilp
    layer("ilp.build_us", "us", LOW),
    layer("ilp.extract_us", "us", LOW),
    layer("ilp.variables", "count", LOW),
    layer("ilp.constraints", "count", LOW),
    // milp
    layer("milp.solve_us", "us", LOW),
    layer("milp.nodes", "count", LOW),
    layer("milp.simplex_iterations", "count", LOW),
    layer("milp.cuts_added", "count", LOW),
    layer("milp.strong_branch_probes", "count", LOW),
    layer("milp.pump_incumbents", "count", HIGH),
    layer("milp.presolve_rows_removed", "count", HIGH),
    layer("milp.us_per_node", "us", LOW),
    // core::synthesis / core::validate
    layer("synthesis.system_us", "us", LOW),
    layer("synthesis.rounds_attempted", "ratio", LOW),
    layer("validate.system_us", "us", LOW),
    // core::resynth / core::delta
    layer("resynth.system_us", "us", LOW),
    layer("resynth.modes_reused", "count", HIGH),
    layer("resynth.modes_resolved", "count", LOW),
    layer("resynth.warm_started_modes", "count", HIGH),
    layer("resynth.reuse_ratio", "ratio", HIGH),
    layer("delta.diff_us", "us", LOW),
    layer("delta.encode_us", "us", LOW),
    layer("delta.bytes", "bytes", LOW),
    layer("delta.full_bytes", "bytes", LOW),
    layer("delta.byte_ratio", "ratio", LOW),
    // runtime / netsim / testkit
    layer("runtime.build_us", "us", LOW),
    layer("runtime.slot_tables_us", "us", LOW),
    layer("runtime.run_us_per_round", "us", LOW),
    layer("runtime.beacon_codec_ns", "ns", LOW),
    layer("runtime.rounds", "count", HIGH),
    layer("runtime.beacons_missed", "count", LOW),
    layer("runtime.messages_attempted", "count", HIGH),
    layer("runtime.messages_delivered", "count", HIGH),
    layer("runtime.rejoins", "count", HIGH),
    layer("runtime.mode_changes", "count", HIGH),
    layer("runtime.safety_violations", "count", LOW),
    layer("netsim.flood_us", "us", LOW),
    layer("testkit.generate_us", "us", LOW),
    layer("testkit.fault_plan_us", "us", LOW),
    // harness
    layer("harness.op_self_us", "us", LOW),
    layer("harness.lap_spread", "ratio", LOW),
    layer("harness.trace_overhead_share", "ratio", LOW),
];

/// Per-layer counts — everything counted rather than timed or divided —
/// must repeat exactly between two runs of the same code on the same seed
/// (`repeat` fails when one differs).
pub fn repeats_exactly(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|spec| spec.name == name && matches!(spec.unit, "count" | "bytes"))
}

fn metric_value(spec: &MetricSpec, with_bound: bool) -> Value {
    let mut map = BTreeMap::new();
    map.insert("name".to_string(), Value::String(spec.name.into()));
    map.insert("unit".to_string(), Value::String(spec.unit.into()));
    map.insert(
        "better".to_string(),
        Value::String(spec.better.word().into()),
    );
    if with_bound {
        map.insert("bound".to_string(), Value::Number(spec.bound));
    }
    Value::Object(map)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Value {
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::String((*s).into())).collect());
    let mut root = BTreeMap::new();
    root.insert(
        "command".to_string(),
        strings(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
    );
    root.insert("paths".to_string(), strings(&["benchmark"]));
    root.insert("run_seconds".to_string(), Value::Number(RUN_SECONDS as f64));
    root.insert(
        "workloads".to_string(),
        Value::Array(
            WORKLOADS
                .iter()
                .map(|workload| {
                    let mut map = BTreeMap::new();
                    map.insert("name".to_string(), Value::String(workload.name.into()));
                    map.insert("why".to_string(), Value::String(workload.why.into()));
                    Value::Object(map)
                })
                .collect(),
        ),
    );
    root.insert(
        "end_to_end".to_string(),
        Value::Array(END_TO_END.iter().map(|m| metric_value(m, true)).collect()),
    );
    root.insert(
        "per_layer".to_string(),
        Value::Array(PER_LAYER.iter().map(|m| metric_value(m, false)).collect()),
    );
    Value::Object(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for workload in &WORKLOADS {
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
    }

    #[test]
    fn limits_of_the_contract_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for metric in &END_TO_END {
            assert!(metric.bound > 0.0 && metric.bound <= setup.bound && setup.bound <= 0.25);
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(metric.unit.len() <= 16, "{}", metric.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = Value::parse(&committed).expect("BENCHMARK.json parses");
        assert!(
            committed == manifest(),
            "BENCHMARK.json is stale: regenerate it with `-- manifest`"
        );
    }

    #[test]
    fn exact_repeat_counts_are_counts() {
        assert!(repeats_exactly("milp.nodes"));
        assert!(repeats_exactly("protocol.reply_bytes"));
        assert!(repeats_exactly("service.cache_hits"));
        assert!(!repeats_exactly("milp.solve_us"));
        assert!(!repeats_exactly("harness.lap_spread"));
        assert!(repeats_exactly("cache.resident"));
        assert!(!repeats_exactly("cache.hit_ratio"));
    }
}
