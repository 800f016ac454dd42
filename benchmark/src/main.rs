//! The repo benchmark.
//!
//! ```text
//! ttw-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--record]
//! ttw-benchmark run [--workload W] [--seed N] [--seconds S] [--trace]
//! ttw-benchmark repeat K [--seed N] [--seconds S]
//! ttw-benchmark manifest
//! ```
//!
//! The first form measures one workload in one process, which it first pins
//! to one CPU (`pin`), and prints, as the last line of its standard output,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `run` and `repeat` re-execute the binary in that form, once per
//! workload, so every workload's peak RSS is its own. See `README.md` for
//! what is measured and why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimate;
mod expected;
mod harness;
mod ops;
mod pin;
mod procfs;
mod reference;
mod service_lap;
mod spec;
mod trace;
mod workloads;

use crate::estimate::worsening;
use crate::harness::{run_traced, run_untraced, RunReport, Workload};
use crate::spec::{repeats_exactly, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::workloads::admission_edit::AdmissionEdit;
use crate::workloads::cold_solve::ColdSolve;
use crate::workloads::runtime_faults::RuntimeFaults;
use crate::workloads::warm_hit::WarmHit;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use ttw_core::json::Value;

/// Options shared by every form of the command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        record: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--seed" => options.seed = number(value("a number")?)?,
            "--seconds" => options.seconds = number(value("a number")?)?,
            "--record" => options.record = true,
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                options.trace = match args.clone().next().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &options.workload {
        if !WORKLOADS.iter().any(|workload| workload.name == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}` (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(options)
}

fn measure<W: Workload>(workload: &W, options: &Options) -> Result<RunReport, String> {
    let report = if options.trace {
        run_traced(workload, options.seconds)
    } else if options.record {
        // One lap is all a recording needs; its checks are the slow part.
        run_untraced(workload, 0)
    } else {
        run_untraced(workload, options.seconds)
    }?;
    if report.failures.failed == 0 {
        workload.expected().save()?;
    }
    Ok(report)
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &RunReport) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|metric| {
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), Value::Number(metric.value));
            entry.insert("unit".to_string(), Value::String(metric.unit.into()));
            (metric.name.to_string(), Value::Object(entry))
        })
        .collect();
    let mut root = BTreeMap::new();
    root.insert(
        "correct".to_string(),
        Value::Bool(report.failures.failed == 0),
    );
    root.insert(
        "attempted".to_string(),
        Value::Number(report.failures.attempted as f64),
    );
    root.insert(
        "failed".to_string(),
        Value::Number(report.failures.failed as f64),
    );
    root.insert("metrics".to_string(), Value::Object(metrics));
    Value::Object(root).to_json()
}

/// Measures one workload in this process and prints its report.
fn run_one(options: &Options) -> Result<bool, String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    let (seed, record) = (options.seed, options.record);
    let report = match name {
        "cold_solve" => measure(&ColdSolve::new(seed, record)?, options),
        "warm_hit" => measure(&WarmHit::new(seed, record)?, options),
        "admission_edit" => measure(&AdmissionEdit::new(seed, record)?, options),
        "runtime_faults" => measure(&RuntimeFaults::new(seed, record)?, options),
        other => unreachable!("parse_options let `{other}` through"),
    }?;

    println!(
        "{name}: seed {seed}, op list {:016x}, {} ops/lap, {} untraced laps, closed loop, 1 client",
        report.digest,
        report.ops_per_lap,
        report.laps.len()
    );
    for metric in &report.metrics {
        print!(
            "  {:<32} {:>14.4} {:<6}",
            metric.name, metric.value, metric.unit
        );
        if !metric.per_lap.is_empty() {
            let laps: Vec<String> = metric.per_lap.iter().map(|v| format!("{v:.4}")).collect();
            print!("  middle of {} laps [{}]", laps.len(), laps.join(" "));
        }
        println!();
    }
    let per_lap = |value: fn(&harness::LapResult) -> f64| {
        let shown: Vec<String> = report
            .laps
            .iter()
            .map(|lap| format!("{:.4}", value(lap)))
            .collect();
        shown.join(" ")
    };
    println!(
        "  times above are at nominal machine speed (reference slice = {} us); as the clocks \
         read it: throughput [{}] 1/s, reference slice [{}] us",
        reference::NOMINAL_SLICE_MS * 1e3,
        per_lap(|lap| lap.clock_ops_s),
        per_lap(|lap| lap.slowdown * reference::NOMINAL_SLICE_MS * 1e3)
    );
    println!(
        "  latency_ms_p99 (not a metric) {:.4} ms over {} ops, {} beyond it",
        report.p99_ms.0, report.ops_per_lap, report.p99_ms.1
    );
    println!(
        "  ops attempted {}, failed {}",
        report.failures.attempted, report.failures.failed
    );
    for reason in &report.failures.reasons {
        eprintln!("  FAILED {reason}");
    }
    if let Some(tracer) = &report.tracer {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{name}.jsonl"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        tracer
            .write_jsonl(&mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {} spans in {}; every op span = its children + its self time (harness.op_self_us)",
            tracer.spans().len(),
            path.display()
        );
    }
    println!("{}", result_line(&report));
    Ok(report.failures.failed == 0)
}

/// What a child run printed on its result line.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Re-executes this binary for one workload, passes its report through and
/// parses its result line.
fn run_child(workload: &str, options: &Options, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    for line in lines {
        println!("{line}");
    }
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let result = Value::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let malformed = || format!("{workload}: malformed result line");
    let root = result.as_object().ok_or_else(malformed)?;
    let metrics = root
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(malformed)?
        .iter()
        .map(|(name, entry)| {
            let value = entry
                .as_object()
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64);
            Ok((name.clone(), value.ok_or_else(malformed)?))
        })
        .collect::<Result<_, String>>()?;
    Ok(ChildResult {
        correct: root
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or_else(malformed)?,
        metrics,
    })
}

fn selected(options: &Options) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|workload| workload.name)
        .filter(|name| {
            options
                .workload
                .as_deref()
                .map_or(true, |wanted| wanted == *name)
        })
        .collect()
}

/// `run`: every selected workload once, each in its own process.
fn run_all(options: &Options) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in selected(options) {
        all_correct &= run_child(workload, options, false)?.correct;
        if options.trace {
            all_correct &= run_child(workload, options, true)?.correct;
        }
    }
    Ok(all_correct)
}

/// `repeat K`: K full sets back to back; every end-to-end metric must agree
/// across the sets within its bound, every exact count exactly.
fn repeat(sets: usize, options: &Options) -> Result<bool, String> {
    let workloads = selected(options);
    let mut results: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut all_pass = true;
    for set in 1..=sets {
        println!("== set {set} of {sets} ==");
        let mut values = BTreeMap::new();
        for workload in &workloads {
            for trace in [false, true] {
                let child = run_child(workload, options, trace)?;
                all_pass &= child.correct;
                for (metric, value) in child.metrics {
                    values.insert(format!("{workload}/{metric}"), value);
                }
            }
        }
        results.push(values);
    }

    println!("== agreement of {sets} sets, seed {} ==", options.seed);
    for workload in &workloads {
        for spec in &END_TO_END {
            let key = format!("{workload}/{}", spec.name);
            let values: Vec<f64> = results.iter().map(|set| set[&key]).collect();
            let spread = worsening(&values, spec.better);
            let pass = spread <= spec.bound;
            all_pass &= pass;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{key:<36} [{}] {} worst is {:.2}% worse than best, bound {:.0}% {}",
                shown.join(" "),
                spec.unit,
                spread * 100.0,
                spec.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        for spec in PER_LAYER.iter().filter(|spec| repeats_exactly(spec.name)) {
            let key = format!("{workload}/{}", spec.name);
            let values: Vec<f64> = results.iter().map(|set| set[&key]).collect();
            if values.iter().any(|&v| v != values[0]) {
                all_pass = false;
                println!("{key:<36} {values:?} exact count differs FAIL");
            }
        }
    }
    println!("exact-repeat counts: identical unless listed above");
    println!("{}", if all_pass { "ALL PASS" } else { "FAILED" });
    Ok(all_pass)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let code = |all_correct| {
        if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match args.first().map(String::as_str) {
        Some("manifest") => {
            println!("{}", spec::manifest().to_json_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run_all(&parse_options(&args[1..])?).map(code),
        Some("repeat") => {
            let sets = args
                .get(1)
                .and_then(|k| k.parse::<usize>().ok())
                .filter(|&k| k >= 2)
                .ok_or("repeat needs a set count of at least 2")?;
            repeat(sets, &parse_options(&args[2..])?).map(code)
        }
        _ => {
            let options = parse_options(args)?;
            match pin::rerun_pinned(args) {
                Some(exit) => Ok(exit),
                None => run_one(&options).map(code),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|reason| {
        eprintln!("ttw-benchmark: {reason}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Failures, Measured};

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let options =
            parse_options(&args("--workload warm_hit --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(options.workload.as_deref(), Some("warm_hit"));
        assert_eq!((options.seed, options.seconds, options.trace), (7, 3, true));
        assert!(
            !parse_options(&args("--workload warm_hit --trace 0"))
                .unwrap()
                .trace
        );
        assert!(parse_options(&args("--trace --seed 2")).unwrap().trace);
        assert_eq!(parse_options(&args("--trace --seed 2")).unwrap().seed, 2);
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--seed x")).is_err());
        assert!(parse_options(&args("--bogus")).is_err());
    }

    #[test]
    fn same_seed_same_op_list_other_seed_other_list() {
        fn digest<W: Workload>(workload: &W) -> u64 {
            let ids = workload.op_ids();
            ops::digest(ids.iter().map(String::as_str))
        }
        // Recording mode: no expected file needed to build the op list.
        assert_eq!(
            digest(&ColdSolve::new(1, true).unwrap()),
            digest(&ColdSolve::new(1, true).unwrap())
        );
        assert_ne!(
            digest(&ColdSolve::new(1, true).unwrap()),
            digest(&ColdSolve::new(2, true).unwrap())
        );
        assert_ne!(
            digest(&WarmHit::new(1, true).unwrap()),
            digest(&WarmHit::new(2, true).unwrap())
        );
        assert_ne!(
            digest(&AdmissionEdit::new(1, true).unwrap()),
            digest(&AdmissionEdit::new(2, true).unwrap())
        );
        assert_ne!(
            digest(&RuntimeFaults::new(1, true).unwrap()),
            digest(&RuntimeFaults::new(2, true).unwrap())
        );
        // Every lap has at least a hundred ops, so p90 leaves ten beyond it.
        assert!(ColdSolve::new(1, true).unwrap().op_ids().len() >= 100);
    }

    #[test]
    fn every_seed_replays_the_same_op_set() {
        let sorted = |seed| {
            let mut ids = AdmissionEdit::new(seed, true).unwrap().op_ids();
            ids.sort();
            ids
        };
        assert_eq!(sorted(1), sorted(99));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            digest: 0,
            ops_per_lap: 100,
            laps: Vec::new(),
            metrics: vec![Measured {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
                per_lap: vec![0.9, 0.8127],
            }],
            p99_ms: (1.0, 1),
            failures: Failures {
                attempted: 200,
                failed: 0,
                reasons: Vec::new(),
            },
            tracer: None,
        };
        let line = result_line(&report);
        assert_eq!(
            line,
            "{\"attempted\":200,\"correct\":true,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"unit\":\"s\",\"value\":0.8127}}}"
        );
    }

    #[test]
    fn every_declared_metric_is_one_the_driver_prints() {
        // Untraced runs print END_TO_END by construction of `end_to_end`,
        // traced runs print PER_LAYER by construction of `run_traced`; what
        // is left to hold is that the per-lap metrics are all computable.
        let lap = harness::LapResult {
            setup_s: 1.0,
            latencies_ms: vec![1.0; 4],
            cpu_ms_per_op: 1.0,
            peak_rss_mb: 1.0,
            clock_ops_s: 1.0,
            slowdown: 1.0,
        };
        for spec in END_TO_END.iter().filter(|spec| spec.name != "peak_rss_mb") {
            assert!(lap.metric(spec.name) > 0.0, "{}", spec.name);
        }
    }
}
