//! Committed expected outputs: `expected/<workload>.json` maps an op
//! identifier to the numbers its output must reproduce. Written by
//! `--record`, only ever in a change to the benchmark itself; because the op
//! set of a workload is the same for every seed, one file covers them all.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use ttw_core::json::Value;
use ttw_core::schedule::SystemSchedule;

/// Relative tolerance of a comparison against the committed numbers.
const TOLERANCE: f64 = 1e-6;

/// The expected outputs of one workload, in checking or recording mode.
#[derive(Debug)]
pub struct Expected {
    path: PathBuf,
    recording: bool,
    /// The committed numbers — or, while recording, what was observed so far.
    entries: RefCell<BTreeMap<String, Vec<f64>>>,
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.json"))
}

impl Expected {
    /// Loads the committed file, or starts an empty recording.
    ///
    /// # Errors
    ///
    /// Returns the reason when checking and the file is missing or malformed.
    pub fn open(workload: &str, record: bool) -> Result<Self, String> {
        let path = expected_path(workload);
        if record {
            return Ok(Expected {
                path,
                recording: true,
                entries: RefCell::default(),
            });
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e} (write it with --record)", path.display()))?;
        let value = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let malformed = || format!("{}: not a map of number arrays", path.display());
        let mut committed = BTreeMap::new();
        for (id, numbers) in value.as_object().ok_or_else(malformed)? {
            let numbers: Option<Vec<f64>> = numbers
                .as_array()
                .ok_or_else(malformed)?
                .iter()
                .map(Value::as_f64)
                .collect();
            committed.insert(id.clone(), numbers.ok_or_else(malformed)?);
        }
        Ok(Expected {
            path,
            recording: false,
            entries: RefCell::new(committed),
        })
    }

    /// `true` while recording instead of checking.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Holds `observed` against the committed numbers of `id` — or, while
    /// recording, notes them (a second, different observation of the same
    /// op is still an error: laps must agree with each other).
    ///
    /// # Errors
    ///
    /// Returns what differed.
    pub fn observe(&self, id: &str, observed: &[f64]) -> Result<(), String> {
        let mut entries = self.entries.borrow_mut();
        if self.recording && !entries.contains_key(id) {
            entries.insert(id.to_string(), observed.to_vec());
        }
        let wanted = entries
            .get(id)
            .ok_or_else(|| format!("no expected output committed for `{id}`"))?;
        let close = |a: f64, b: f64| (a - b).abs() <= TOLERANCE * a.abs().max(b.abs());
        if wanted.len() == observed.len() && wanted.iter().zip(observed).all(|(&a, &b)| close(a, b))
        {
            Ok(())
        } else {
            Err(format!("expected {wanted:?}, got {observed:?}"))
        }
    }

    /// Writes the recording out; a no-op when checking.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure.
    pub fn save(&self) -> Result<(), String> {
        if !self.recording {
            return Ok(());
        }
        let map = self
            .entries
            .borrow()
            .iter()
            .map(|(id, numbers)| {
                let numbers = numbers.iter().map(|&n| Value::Number(n)).collect();
                (id.clone(), Value::Array(numbers))
            })
            .collect();
        // One op per line: compact enough to commit, diffable per op.
        let text = Value::Object(map).to_json().replace("],\"", "],\n\"") + "\n";
        std::fs::write(&self.path, text).map_err(|e| format!("{}: {e}", self.path.display()))
    }
}

/// What a schedule's expected entry holds: per mode, in mode-id order, the
/// total latency (the ILP objective) and then the round count.
pub fn schedule_numbers(schedule: &SystemSchedule) -> Vec<f64> {
    let latencies = schedule.iter().map(|(_, mode)| mode.total_latency);
    let rounds = schedule.iter().map(|(_, mode)| mode.num_rounds() as f64);
    latencies.chain(rounds).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checking(entries: &[(&str, &[f64])]) -> Expected {
        Expected {
            path: PathBuf::new(),
            recording: false,
            entries: RefCell::new(
                entries
                    .iter()
                    .map(|(id, numbers)| (id.to_string(), numbers.to_vec()))
                    .collect(),
            ),
        }
    }

    #[test]
    fn checking_compares_within_the_tolerance() {
        let expected = checking(&[("a", &[28000.0, 2.0])]);
        assert!(expected.observe("a", &[28000.0, 2.0]).is_ok());
        assert!(expected.observe("a", &[28000.01, 2.0]).is_ok());
        assert!(expected.observe("a", &[28001.0, 2.0]).is_err());
        assert!(expected.observe("a", &[28000.0]).is_err());
        assert!(expected.observe("b", &[1.0]).is_err());
    }

    #[test]
    fn recording_keeps_the_first_observation_and_checks_the_rest() {
        let expected = Expected {
            path: PathBuf::new(),
            recording: true,
            entries: RefCell::default(),
        };
        assert!(expected.observe("a", &[1.0, 2.0]).is_ok());
        assert!(expected.observe("a", &[1.0, 2.0]).is_ok());
        assert!(expected.observe("a", &[1.0, 3.0]).is_err());
    }
}
