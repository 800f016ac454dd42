//! # ttw-bench — the report programs behind the `BENCH_*.json` snapshots
//!
//! Each target in `benches/` is a plain `main` that solves its scenarios
//! once, prints what it measured to stderr, asserts the invariants it
//! computes and writes one `BENCH_*.json` at the workspace root through
//! [`Report`]. Those files are exact counter snapshots — integers, booleans
//! and labels, no clock reading — so regenerating them on an unchanged tree
//! leaves `git diff` empty, and a diff in one always means a counter moved.
//! Wall time is `benchmark/`'s job; what a target prints of it stays on
//! stderr. The paper's Fig. 6, Fig. 7 and latency tables are printed by the
//! workspace examples and asserted by its integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;
use ttw_core::json::{Json, JsonObject, Object, Value};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
