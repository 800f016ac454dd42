//! The reference slice: a fixed piece of work, owned by the benchmark and
//! calling nothing of the repository, timed between the ops of a lap to read
//! how fast the machine is running *right then*.
//!
//! The box shares its cores with other tenants and the same binary runs 25 to
//! 50 % slower for seconds or minutes at a time — longer than a run, so no
//! choice of laps inside a run sees through it. What does: the slowdown hits
//! the reference slice as it hits the op beside it, so a latency divided by
//! the slice time measured around it, times the slice's nominal time, is the
//! latency on a machine running at the nominal speed. Every end-to-end time
//! is reported that way; the clocks' own readings are printed beside them.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// What one slice takes on this box when nothing disturbs it, in
/// milliseconds. A constant of the benchmark: it only fixes the scale of the
/// normalised times (at this speed they equal the clocks' readings).
pub const NOMINAL_SLICE_MS: f64 = 0.027;

/// One slice: three short kernels whose mix stands for what the program
/// under test is made of. Picked by measurement: over runs that the clocks
/// read 14 to 25 % apart, times divided by this mix agreed within 2 to 5 %;
/// each kernel alone did worse on one workload or another, and a
/// pointer-chasing kernel (cache misses) tracked nothing at all.
pub fn slice() -> u64 {
    black_box(text_kernel()) ^ black_box(float_kernel()).to_bits() ^ black_box(tree_kernel())
}

/// Formats 256 pseudo-random integers into a string and parses them back:
/// allocation, byte shuffling, integer arithmetic — the codecs.
fn text_kernel() -> u64 {
    let mut text = String::with_capacity(4096);
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..256 {
        state = step(state);
        let _ = write!(text, "{},", state >> 40);
    }
    text.split_terminator(',')
        .map(|number| number.parse::<u64>().expect("digits written above"))
        .sum()
}

/// Sweeps a 64-element vector 400 times with multiply-adds and a division
/// per sweep: dense floating point — the simplex.
fn float_kernel() -> f64 {
    let mut row = [0.0_f64; 64];
    for (index, value) in row.iter_mut().enumerate() {
        *value = 1.0 + index as f64 * 0.01;
    }
    let mut sum = 0.0;
    for sweep in 0..400 {
        let pivot = row[sweep % 64];
        for value in &mut row {
            *value = (*value * 1.000_001 - pivot * 0.0001).abs() + 0.5;
        }
        sum += row[(sweep * 7) % 64] / (1.0 + pivot);
    }
    sum
}

/// Fills a `BTreeMap` with 96 small vectors and walks it: many small
/// allocations, branches, pointer-following — the cache, the model builders,
/// the simulator's tables.
fn tree_kernel() -> u64 {
    let mut tree = BTreeMap::new();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for index in 0..96_u64 {
        state = step(state);
        tree.insert(state >> 48, vec![index; 4]);
    }
    tree.iter().map(|(key, value)| key + value[0]).sum()
}

fn step(state: u64) -> u64 {
    state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Times `slices` slices back to back, after one untimed slice that brings
/// the kernels' own code and data back into the caches the op before it
/// emptied; milliseconds per slice.
pub fn measure(slices: usize) -> f64 {
    black_box(slice());
    let started = Instant::now();
    for _ in 0..slices {
        black_box(slice());
    }
    started.elapsed().as_secs_f64() * 1e3 / slices as f64
}

/// How much slower than nominal the machine ran, given slice times measured
/// around the moment of interest: their median over the nominal time. The
/// median, because a slice that was preempted says nothing about speed.
pub fn slowdown(slice_ms: &[f64]) -> f64 {
    crate::estimate::median(slice_ms) / NOMINAL_SLICE_MS
}

/// Each op's latency at nominal machine speed: the latency over the slowdown
/// read from the slices after the `HALF_WINDOW` ops before it, itself and the
/// `HALF_WINDOW` ops after it.
pub fn normalise(latencies_ms: &[f64], slice_ms: &[f64]) -> Vec<f64> {
    /// Neighbours on each side whose slices count: wide enough that one
    /// preempted slice cannot move the median, narrow enough (a few ops) to
    /// follow a change of speed within a lap.
    const HALF_WINDOW: usize = 2;
    assert_eq!(latencies_ms.len(), slice_ms.len());
    latencies_ms
        .iter()
        .enumerate()
        .map(|(op, latency)| {
            let from = op.saturating_sub(HALF_WINDOW);
            let to = (op + HALF_WINDOW + 1).min(slice_ms.len());
            latency / slowdown(&slice_ms[from..to])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slice_is_the_same_work_every_time() {
        assert_eq!(slice(), slice());
        assert!(measure(3) > 0.0);
    }

    #[test]
    fn a_uniformly_slow_machine_normalises_away() {
        let latencies = [2.0, 4.0, 6.0, 8.0];
        let nominal = [NOMINAL_SLICE_MS; 4];
        assert_eq!(normalise(&latencies, &nominal), latencies);
        let half_speed = [2.0 * NOMINAL_SLICE_MS; 4];
        assert_eq!(normalise(&latencies, &half_speed), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn the_window_follows_a_change_of_speed_and_ignores_one_preempted_slice() {
        let n = NOMINAL_SLICE_MS;
        // Ten ops at nominal speed, ten at half speed; op 4's slice was
        // preempted for a long time.
        let mut slices = [[n; 10], [2.0 * n; 10]].concat();
        slices[4] = 50.0 * n;
        let latencies = [[1.0; 10], [2.0; 10]].concat();
        let normalised = normalise(&latencies, &slices);
        for (op, value) in normalised.iter().enumerate() {
            assert!((value - 1.0).abs() < 1e-12, "op {op}: {value}");
        }
    }
}
