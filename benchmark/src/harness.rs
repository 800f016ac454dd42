//! The lap runner: replays a workload's op list lap after lap, each lap on
//! fresh state, keeps the clocks off the output checks, reads the machine's
//! speed between the ops, and turns the laps into the end-to-end metrics
//! (untraced) or the per-layer metrics (traced).

use crate::estimate::{best_lap, median, percentile, Better};
use crate::expected::Expected;
use crate::procfs;
use crate::reference;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Per-layer counts and derived values of the traced lap, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds to a count.
pub fn add(counts: &mut Counts, name: &'static str, amount: usize) {
    *counts.entry(name).or_insert(0.0) += amount as f64;
}

/// Reads a count; what was never counted is zero.
pub fn count(counts: &Counts, name: &str) -> f64 {
    counts.get(name).copied().unwrap_or(0.0)
}

/// The span the traced lap wraps around [`Workload::run_op`] — exactly what
/// the untraced laps time, so the two can be held against each other.
pub const TIMED_SPAN: &str = "op.timed";

/// Ops between two pauses in which the clocks stop, the outputs so far are
/// checked and dropped and the next inputs are built. Small, so that what
/// the harness holds (a batch of inputs and outputs) stays out of the peak
/// RSS it reports.
pub const BATCH: usize = 16;

/// Reference measurements, of four slices each, timed after a set-up.
const SETUP_MEASUREMENTS: usize = 50;

/// A lap sets up again, dropping the state before, until this much clock
/// time has gone into set-ups or [`MAX_SETUPS`] were made: a set-up of a few
/// milliseconds (`cold_solve`, `runtime_faults`) is then sampled several
/// times a lap, one of half a second once.
const SETUP_SAMPLING_S: f64 = 0.05;
const MAX_SETUPS: usize = 8;

/// One of the four workloads: a fixed op list replayed on fresh state.
///
/// `setup` and `run_op` run under the clocks and nothing else does.
pub trait Workload {
    /// State of one lap: a fresh service with its server and client, or the
    /// runtime fixtures.
    type Lap;
    /// What an op hands back for checking once the clocks have stopped.
    type Output;

    /// Reference slices timed after every op: a few per cent of an op's time.
    const SLICES_PER_OP: usize;

    /// The committed outputs ops are held to (or recorded into).
    fn expected(&self) -> &Expected;

    /// The identifier of every op of a lap, in the order `--seed` picked.
    fn op_ids(&self) -> Vec<String>;

    /// Builds the lap's state from nothing: service, connection, priming.
    /// Timed as `setup_s`.
    fn setup(&self) -> Result<Self::Lap, String>;

    /// Builds the inputs of the ops in `ops` (a batch), clocks stopped — for
    /// a workload whose inputs are too big to build all at once in `setup`.
    fn prepare(&self, _lap: &mut Self::Lap, _ops: Range<usize>) -> Result<(), String> {
        Ok(())
    }

    /// Runs op `op` of the lap the way a user would. Timed. Traced and
    /// untraced laps run this same code; the spans it opens inside itself
    /// cost nothing when `tracer` is switched off.
    fn run_op(
        &self,
        lap: &mut Self::Lap,
        op: usize,
        tracer: &mut Tracer,
    ) -> Result<Self::Output, String>;

    /// Checks one output and lets go of the op's input; an `Err` makes the
    /// op a failed op.
    fn check_op(&self, lap: &mut Self::Lap, op: usize, output: Self::Output) -> Result<(), String>;

    /// Lap-level checks (counter identities) and teardown.
    fn finish(&self, lap: Self::Lap) -> Result<(), String>;

    /// Traced lap only, after `run_op`: the calls into each layer the op
    /// went through, replayed in process against `shadow` (a second,
    /// separately set-up lap) under their own spans. Exact counts go into
    /// `counts`.
    fn trace_layers(
        &self,
        lap: &mut Self::Lap,
        shadow: &mut Self::Lap,
        op: usize,
        output: &Self::Output,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(), String>;

    /// End of the traced lap: lap-level counts and the values derived from
    /// more than one span.
    fn trace_finish(&self, lap: &Self::Lap, tracer: &Tracer, counts: &mut Counts);
}

/// What one untraced lap measured. Times are at nominal machine speed (see
/// [`reference`]) unless they say otherwise.
#[derive(Debug, Clone)]
pub struct LapResult {
    /// Seconds of `setup`: the middle one of the lap's set-ups.
    pub setup_s: f64,
    /// Latency of every op, in op order.
    pub latencies_ms: Vec<f64>,
    /// Process CPU milliseconds per op over the timed part of the lap.
    pub cpu_ms_per_op: f64,
    /// The process's resident-set high-water mark when the lap ended.
    pub peak_rss_mb: f64,
    /// As the clocks read it: ops per second of op time.
    pub clock_ops_s: f64,
    /// How much slower than nominal the machine ran during the lap's ops.
    pub slowdown: f64,
}

impl LapResult {
    /// Ops per second of op time (the sum of the lap's op latencies).
    pub fn throughput_ops_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / (self.latencies_ms.iter().sum::<f64>() / 1e3)
    }

    /// This lap's value of an end-to-end metric.
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "throughput_ops_s" => self.throughput_ops_s(),
            "latency_ms_p50" => percentile(&self.latencies_ms, 0.50),
            "latency_ms_p90" => percentile(&self.latencies_ms, 0.90),
            "cpu_ms_per_op" => self.cpu_ms_per_op,
            other => panic!("{other} is not a per-lap metric"),
        }
    }
}

/// Failed ops of a run: how many, out of how many, and the first reasons.
#[derive(Debug, Default)]
pub struct Failures {
    /// Ops attempted over all laps.
    pub attempted: usize,
    /// Ops that errored, were refused or returned a wrong output.
    pub failed: usize,
    /// The first few reasons, for the operator.
    pub reasons: Vec<String>,
}

impl Failures {
    fn record(&mut self, context: &str, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!("{context}: {reason}"));
        }
    }

    fn check<W: Workload>(
        &mut self,
        workload: &W,
        lap: &mut W::Lap,
        (op, id): (usize, &str),
        output: Result<W::Output, String>,
    ) {
        self.attempted += 1;
        if let Err(reason) = output.and_then(|out| workload.check_op(lap, op, out)) {
            self.record(id, reason);
        }
    }
}

fn batches(ops: usize) -> impl Iterator<Item = Range<usize>> {
    (0..ops)
        .step_by(BATCH)
        .map(move |from| from..(from + BATCH).min(ops))
}

/// Replays one untraced lap.
fn run_lap<W: Workload>(
    workload: &W,
    ids: &[String],
    failures: &mut Failures,
) -> Result<LapResult, String> {
    let mut setups_s = Vec::new();
    let mut setups_clock_s = 0.0;
    let mut lap = loop {
        let started = Instant::now();
        let lap = workload.setup()?;
        let clock_s = started.elapsed().as_secs_f64();
        let slices: Vec<f64> = (0..SETUP_MEASUREMENTS)
            .map(|_| reference::measure(4))
            .collect();
        setups_s.push(clock_s / reference::slowdown(&slices));
        setups_clock_s += clock_s;
        if setups_clock_s >= SETUP_SAMPLING_S || setups_s.len() == MAX_SETUPS {
            break lap;
        }
    };

    let mut tracer = Tracer::off();
    let mut latencies_ms = Vec::with_capacity(ids.len());
    let mut slice_ms = Vec::with_capacity(ids.len());
    let mut outputs = Vec::with_capacity(BATCH);
    // CPU is read once around the whole op phase — its 10 ms ticks would
    // swamp a batch — and the untimed parts, all single-threaded compute on
    // this thread, are taken off by their wall time.
    let phase_started = Instant::now();
    let cpu_from = procfs::cpu_seconds();
    for batch in batches(ids.len()) {
        workload.prepare(&mut lap, batch.clone())?;
        for op in batch.clone() {
            let started = Instant::now();
            let output = workload.run_op(&mut lap, op, &mut tracer);
            latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
            outputs.push(output);
            slice_ms.push(reference::measure(W::SLICES_PER_OP));
        }
        for (op, output) in batch.zip(outputs.drain(..)) {
            failures.check(workload, &mut lap, (op, &ids[op]), output);
        }
    }
    let cpu_s = procfs::cpu_seconds() - cpu_from;
    let op_clock_s = latencies_ms.iter().sum::<f64>() / 1e3;
    let untimed_s = phase_started.elapsed().as_secs_f64() - op_clock_s;
    if let Err(reason) = workload.finish(lap) {
        failures.record("lap", reason);
    }

    let ops = ids.len() as f64;
    let latencies_ms = reference::normalise(&latencies_ms, &slice_ms);
    // The lap's slowdown, each moment weighted by the op time spent in it:
    // what the CPU time, known for the lap as a whole only, is divided by.
    let slowdown = op_clock_s / (latencies_ms.iter().sum::<f64>() / 1e3);
    Ok(LapResult {
        setup_s: median(&setups_s),
        latencies_ms,
        cpu_ms_per_op: (cpu_s - untimed_s).max(0.0) * 1e3 / ops / slowdown,
        peak_rss_mb: procfs::peak_rss_mb(),
        clock_ops_s: ops / op_clock_s,
        slowdown,
    })
}

/// Replays untraced laps until another would overrun `budget`; always at
/// least `min_laps`.
fn run_laps<W: Workload>(
    workload: &W,
    ids: &[String],
    budget: Duration,
    min_laps: usize,
    failures: &mut Failures,
) -> Result<Vec<LapResult>, String> {
    let started = Instant::now();
    let mut laps = Vec::new();
    loop {
        let lap_started = Instant::now();
        laps.push(run_lap(workload, ids, failures)?);
        let next_would_end = started.elapsed() + lap_started.elapsed();
        if laps.len() >= min_laps && next_would_end > budget {
            return Ok(laps);
        }
    }
}

/// A metric value with its unit, as the result line carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit from the metric tables.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// End-to-end: the per-lap values the estimate was taken from.
    pub per_lap: Vec<f64>,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct RunReport {
    /// Digest of the op list, equal for equal seeds.
    pub digest: u64,
    /// Ops per lap.
    pub ops_per_lap: usize,
    /// The untraced laps, in the order they ran.
    pub laps: Vec<LapResult>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Measured>,
    /// 99th percentile of the median lap with the samples beyond it —
    /// printed, not a named metric: it does not repeat on a shared box.
    pub p99_ms: (f64, usize),
    /// Failed ops.
    pub failures: Failures,
    /// The traced lap's spans, when there was one.
    pub tracer: Option<Tracer>,
}

fn end_to_end(laps: &[LapResult]) -> Vec<Measured> {
    END_TO_END
        .iter()
        .map(|spec| {
            if spec.name == "peak_rss_mb" {
                // One process per workload, and the mark after the first lap:
                // the same amount of work whatever the number of laps that
                // fitted, so a faster machine does not read as more memory.
                return Measured {
                    name: spec.name,
                    unit: spec.unit,
                    value: laps[0].peak_rss_mb,
                    per_lap: Vec::new(),
                };
            }
            // With the machine's speed divided out, what is left of the
            // noise falls on either side, so the middle lap it is.
            let per_lap: Vec<f64> = laps.iter().map(|lap| lap.metric(spec.name)).collect();
            Measured {
                name: spec.name,
                unit: spec.unit,
                value: median(&per_lap),
                per_lap,
            }
        })
        .collect()
}

fn p99_of_median_lap(laps: &[LapResult]) -> (f64, usize) {
    let throughputs: Vec<f64> = laps.iter().map(LapResult::throughput_ops_s).collect();
    let middle = median(&throughputs);
    let lap = laps
        .iter()
        .find(|lap| lap.throughput_ops_s() == middle)
        .expect("the median is one of the laps");
    let p99 = percentile(&lap.latencies_ms, 0.99);
    let beyond = lap.latencies_ms.iter().filter(|&&ms| ms > p99).count();
    (p99, beyond)
}

/// The untraced run: laps for `seconds`, end-to-end metrics.
///
/// # Errors
///
/// Returns the reason when a lap could not even be set up.
pub fn run_untraced<W: Workload>(workload: &W, seconds: u64) -> Result<RunReport, String> {
    let ids = workload.op_ids();
    let mut failures = Failures::default();
    let budget = Duration::from_secs(seconds);
    let laps = run_laps(workload, &ids, budget, 1, &mut failures)?;
    Ok(RunReport {
        digest: crate::ops::digest(ids.iter().map(String::as_str)),
        ops_per_lap: ids.len(),
        metrics: end_to_end(&laps),
        p99_ms: p99_of_median_lap(&laps),
        laps,
        failures,
        tracer: None,
    })
}

/// The traced run: a few untraced laps as the baseline, then one traced lap
/// on separate state; per-layer metrics only, as the clocks read them.
///
/// # Errors
///
/// As [`run_untraced`].
pub fn run_traced<W: Workload>(workload: &W, seconds: u64) -> Result<RunReport, String> {
    let ids = workload.op_ids();
    let mut failures = Failures::default();
    let baseline = run_laps(
        workload,
        &ids,
        Duration::from_secs(seconds) / 3,
        2,
        &mut failures,
    )?;

    let mut tracer = Tracer::default();
    let mut counts = Counts::new();
    let mut lap = workload.setup()?;
    let mut shadow = workload.setup()?;
    for batch in batches(ids.len()) {
        workload.prepare(&mut lap, batch.clone())?;
        for op in batch {
            tracer.set_op(op);
            let output = tracer.span("op", |tracer| {
                let output =
                    tracer.span(TIMED_SPAN, |tracer| workload.run_op(&mut lap, op, tracer))?;
                workload.trace_layers(&mut lap, &mut shadow, op, &output, tracer, &mut counts)?;
                Ok(output)
            });
            failures.check(workload, &mut lap, (op, &ids[op]), output);
        }
    }
    workload.trace_finish(&lap, &tracer, &mut counts);
    if let Err(reason) = workload.finish(lap) {
        failures.record("traced lap", reason);
    }
    if !tracer.nesting_is_sound() {
        failures.record(
            "trace",
            "a span escapes its parent or overlaps a sibling".into(),
        );
    }

    let clock_ops_s: Vec<f64> = baseline.iter().map(|lap| lap.clock_ops_s).collect();
    let best = best_lap(&clock_ops_s, Better::Higher);
    let worst = best_lap(&clock_ops_s, Better::Lower);
    counts.insert("harness.lap_spread", (best - worst) / best);
    let traced_op_s = tracer.per_op_us(TIMED_SPAN).iter().sum::<f64>() / 1e6;
    let best_op_s = ids.len() as f64 / best;
    counts.insert(
        "harness.trace_overhead_share",
        traced_op_s / best_op_s - 1.0,
    );
    let self_us: Vec<f64> = (0..tracer.spans().len())
        .filter(|&index| tracer.spans()[index].parent.is_none())
        .map(|index| tracer.self_time_us(index))
        .collect();
    counts.insert("harness.op_self_us", median(&self_us));

    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            // A value the workload derived wins; otherwise a time metric is
            // the per-op median of the span it is named after.
            let value = counts.get(spec.name).copied().unwrap_or_else(|| {
                spec.name
                    .strip_suffix("_us")
                    .map_or(0.0, |span| median(&tracer.per_op_us(span)))
            });
            Measured {
                name: spec.name,
                unit: spec.unit,
                value,
                per_lap: Vec::new(),
            }
        })
        .collect();
    Ok(RunReport {
        digest: crate::ops::digest(ids.iter().map(String::as_str)),
        ops_per_lap: ids.len(),
        metrics,
        p99_ms: p99_of_median_lap(&baseline),
        laps: baseline,
        failures,
        tracer: Some(tracer),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lap(setup_s: f64, latencies_ms: Vec<f64>, cpu_ms_per_op: f64) -> LapResult {
        LapResult {
            setup_s,
            latencies_ms,
            cpu_ms_per_op,
            peak_rss_mb: 12.5,
            clock_ops_s: 1.0,
            slowdown: 1.0,
        }
    }

    #[test]
    fn lap_metrics_follow_their_definitions() {
        let lap = lap(0.25, (1..=100).map(f64::from).collect(), 60.0);
        assert_eq!(lap.metric("setup_s"), 0.25);
        // 100 ops in 5.05 s of op time.
        assert!((lap.metric("throughput_ops_s") - 100.0 / 5.05).abs() < 1e-9);
        assert_eq!(lap.metric("latency_ms_p50"), 51.0);
        assert_eq!(lap.metric("latency_ms_p90"), 90.0);
        assert_eq!(lap.metric("cpu_ms_per_op"), 60.0);
    }

    #[test]
    fn end_to_end_takes_the_middle_lap_per_metric() {
        let laps = [
            lap(0.3, vec![2.0; 10], 5.0),
            lap(0.2, vec![4.0; 10], 4.0),
            lap(0.1, vec![5.0; 10], 6.0),
        ];
        let metrics = end_to_end(&laps);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("setup_s"), 0.2);
        assert_eq!(value("throughput_ops_s"), 250.0);
        assert_eq!(value("latency_ms_p50"), 4.0);
        assert_eq!(value("cpu_ms_per_op"), 5.0);
        assert_eq!(value("peak_rss_mb"), 12.5);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(p99_of_median_lap(&laps), (4.0, 0));
    }

    #[test]
    fn batches_cover_every_op_once() {
        let covered: Vec<usize> = batches(2 * BATCH + 3).flatten().collect();
        assert_eq!(covered, (0..2 * BATCH + 3).collect::<Vec<_>>());
        assert_eq!(batches(2 * BATCH + 3).count(), 3);
        assert_eq!(batches(0).count(), 0);
    }
}
