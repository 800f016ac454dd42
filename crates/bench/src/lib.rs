//! # ttw-bench — the report programs behind the evaluation, and their helpers
//!
//! Every table and figure of the paper's evaluation is regenerated by one
//! target in `benches/`: a plain `main` that solves each scenario once,
//! prints the reproduced data series to stderr and asserts the invariants it
//! computes. Five of them also write a `BENCH_*.json` at the workspace root
//! through [`Report`]. Those files are exact counter snapshots — integers,
//! booleans and labels, no clock reading — so regenerating them on an
//! unchanged tree leaves `git diff` empty, and a diff in one always means a
//! counter moved. Wall time is `benchmark/`'s job; what a target prints of it
//! stays on stderr.
//!
//! The row-formatting and workload-construction helpers live here so the
//! examples and the report programs print identical numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;
use ttw_core::json::{Json, JsonObject, Object, Value};
use ttw_core::time::millis;
use ttw_core::{fixtures, ModeId, SchedulerConfig, System};

/// One object of a `BENCH_*.json` snapshot — the single writer of those
/// files. Members come out in key order, whatever order they were set in.
#[derive(Default)]
pub struct Report(Object);

impl Report {
    /// The root object of a snapshot, labelled with the target that writes
    /// it and the workload it runs.
    pub fn new(bench: &str, workload: &str) -> Self {
        Report::default()
            .set("bench", bench.to_string())
            .set("workload", workload.to_string())
    }

    /// One leaf: a counter, a flag or a label.
    pub fn set(mut self, key: &str, value: impl Json) -> Self {
        self.0.insert(key.into(), value.to_value());
        self
    }

    /// Every field of `table` as a leaf of this object, under the names its
    /// `json_object!` table (or, for the solver's counters, its
    /// `solver_counters!` table) declares.
    pub fn fields(mut self, table: &impl JsonObject) -> Self {
        let members = table.to_value();
        let members = members.as_object().into_iter().flatten();
        self.0
            .extend(members.map(|(key, value)| (key.clone(), value.clone())));
        self
    }

    /// A nested object.
    pub fn section(mut self, key: &str, section: Report) -> Self {
        self.0.insert(key.into(), section.into_value());
        self
    }

    fn into_value(self) -> Value {
        Value::Object(self.0)
    }

    /// Writes the snapshot to `file_name` at the workspace root.
    ///
    /// # Errors
    ///
    /// The I/O error of the write: the gate diffs the file, so a target that
    /// could not write it must not exit 0.
    pub fn write(self, file_name: &str) -> std::io::Result<()> {
        let path = format!("{}/../../{file_name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, self.into_value().to_json_pretty() + "\n")?;
        eprintln!("wrote {path}");
        Ok(())
    }
}

/// Runs `f` once and returns its result with the wall-clock seconds it took
/// — for the comparisons the targets print, never for a snapshot.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Renders the Fig. 6 data series (`T_r` in milliseconds, one row per network
/// diameter, one column per slot count).
pub fn fig6_rows() -> Vec<String> {
    let constants = ttw_timing::GlossyConstants::table1();
    let grid = ttw_timing::sweep::fig6_paper_grid(&constants);
    let slots: Vec<usize> = (1..=10).collect();
    let mut rows = Vec::new();
    rows.push(format!(
        "H\\B {}",
        slots.iter().map(|b| format!("{b:>7}")).collect::<String>()
    ));
    for h in 1..=8 {
        let mut row = format!("H={h} ");
        for &b in &slots {
            let point = grid
                .iter()
                .find(|p| p.diameter == h && p.slots == b)
                .expect("grid point exists");
            row.push_str(&format!("{:>7.1}", point.round_length * 1e3));
        }
        rows.push(row);
    }
    rows
}

/// Renders the Fig. 7 data series (relative saving in percent, one row per
/// payload size, one column per slot count).
pub fn fig7_rows() -> Vec<String> {
    let constants = ttw_timing::GlossyConstants::table1();
    let grid = ttw_timing::sweep::fig7_paper_grid(&constants);
    let slots: Vec<usize> = (1..=10).collect();
    let mut rows = Vec::new();
    rows.push(format!(
        "l\\B {}",
        slots.iter().map(|b| format!("{b:>7}")).collect::<String>()
    ));
    for payload in [8usize, 16, 32, 64, 128] {
        let mut row = format!("l={payload:<3} ");
        for &b in &slots {
            let point = grid
                .iter()
                .find(|p| p.payload == payload && p.slots == b)
                .expect("grid point exists");
            row.push_str(&format!("{:>6.1}%", point.saving * 100.0));
        }
        rows.push(row);
    }
    rows
}

/// The scheduler configuration used by the synthesis benches: 10 ms rounds
/// with 5 slots (small enough to keep the MILP instances fast while exercising
/// the full formulation).
pub fn bench_scheduler_config() -> SchedulerConfig {
    SchedulerConfig::new(millis(10), 5)
}

/// The Fig. 3 workload used across the benches.
pub fn fig3_workload() -> (System, ModeId) {
    fixtures::fig3_system()
}

/// A slightly larger synthetic workload (two 3-task pipelines over 3 nodes).
pub fn pipeline_workload() -> (System, ModeId) {
    fixtures::synthetic_mode(2, 3, 3, millis(100))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_rows_have_header_and_eight_diameters() {
        let rows = fig6_rows();
        assert_eq!(rows.len(), 9);
        assert!(rows[4].starts_with("H=4"));
    }

    #[test]
    fn fig7_rows_have_header_and_five_payloads() {
        let rows = fig7_rows();
        assert_eq!(rows.len(), 6);
        assert!(rows[1].contains('%'));
    }

    struct Probes {
        hits: usize,
        misses: usize,
    }
    ttw_core::json_object!(Probes as "probes" { hits, misses });

    #[test]
    fn report_flattens_tables_and_nests_sections() {
        let probes = Probes { hits: 1, misses: 2 };
        let report = Report::new("b", "w")
            .set("modes", 4usize)
            .set("consistent", true)
            .section("cache", Report::default().fields(&probes));
        assert_eq!(
            report.into_value().to_json(),
            r#"{"bench":"b","cache":{"hits":1,"misses":2},"consistent":true,"modes":4,"workload":"w"}"#
        );
    }

    #[test]
    fn workloads_build() {
        let (sys, mode) = fig3_workload();
        assert!(!sys.tasks_in_mode(mode).is_empty());
        let (sys, mode) = pipeline_workload();
        assert_eq!(sys.messages_in_mode(mode).len(), 4);
    }
}
