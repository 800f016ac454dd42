//! Robustness bench: the fault matrix (burst loss, partitions, clock drift,
//! host crashes, beacon corruption, compound) executed under all three
//! beacon-loss policies, with the safety and recovery counters recorded into
//! `BENCH_faults.json` at the workspace root.
//!
//! The headline numbers are the per-fault-kind safety counters:
//!
//! * `safety_violations_skip` / `safety_violations_resync` — must be **zero**
//!   for every kind: asserted below, so a violation under a safe policy makes
//!   this program exit non-zero before it writes anything;
//! * `legacy_violations` — how often the same faults break the unsafe
//!   `LegacyTransmit` baseline (the quantified value of the paper's
//!   missed-beacon silence rule);
//! * delivered / attempted message counts per policy and the `Resync`
//!   recovery economics (rejoins, the rounds they took in total, the
//!   continuous-listen rounds paid for them, radio duty in parts per
//!   million) — all integers, so the file repeats byte for byte and the CI
//!   perf-regression job can diff it against the committed copy.

use ttw_bench::fault_matrix::{build_fixture, run_cell, Fixture, RESYNC_MAX_MISSES};
use ttw_bench::Report;
use ttw_runtime::{BeaconLossPolicy, Simulation};
use ttw_testkit::{FaultKind, GraphShape};

/// Fault-plan seeds swept per fault kind and fixture.
const FAULT_SEEDS: u64 = 10;

/// Per-policy aggregates over one fault kind's (shape × seed) sweep.
#[derive(Default)]
struct PolicyAggregate {
    runs: usize,
    violations: usize,
    collisions: usize,
    attempted: usize,
    delivered: usize,
    beacons_missed: usize,
    beacons_corrupted: usize,
    rounds: usize,
    rejoins: usize,
    rejoin_rounds_total: usize,
    rejoin_listen_rounds: usize,
    host_crash_rounds: usize,
    duty_sum: f64,
}

impl PolicyAggregate {
    fn absorb(&mut self, sim: &Simulation) {
        let stats = sim.stats();
        self.runs += 1;
        self.violations += sim.safety().total_violations();
        self.collisions += stats.collisions;
        self.attempted += stats.messages_attempted;
        self.delivered += stats.messages_delivered;
        self.beacons_missed += stats.beacons_missed;
        self.beacons_corrupted += stats.beacons_corrupted;
        self.rounds += stats.rounds_executed;
        self.rejoins += stats.rejoins;
        self.rejoin_rounds_total += stats.rejoin_rounds_total;
        self.rejoin_listen_rounds += stats.rejoin_listen_rounds;
        self.host_crash_rounds += stats.host_crash_rounds;
        self.duty_sum += sim
            .radio()
            .average_duty_cycle(stats.elapsed_micros as f64 / 1e6);
    }

    fn delivery_ratio(&self) -> f64 {
        self.delivered as f64 / (self.attempted as f64).max(1.0)
    }

    /// Mean radio duty cycle over the runs in parts per million — rounded, so
    /// the last bits of the on-time sums stay out of the snapshot.
    fn avg_duty_ppm(&self) -> usize {
        (self.duty_sum / (self.runs as f64).max(1.0) * 1e6).round() as usize
    }
}

fn sweep_kind(fixtures: &[Fixture], kind: FaultKind, policy: BeaconLossPolicy) -> PolicyAggregate {
    let mut agg = PolicyAggregate::default();
    for fixture in fixtures {
        for fault_seed in 0..FAULT_SEEDS {
            let sim = run_cell(fixture, kind, fault_seed, policy)
                .expect("a fault-matrix cell builds and runs");
            agg.absorb(&sim);
        }
    }
    agg
}

fn kind_report(
    skip: &PolicyAggregate,
    resync: &PolicyAggregate,
    legacy: &PolicyAggregate,
) -> Report {
    Report::default()
        .set("runs_per_policy", skip.runs)
        .set("safety_violations_skip", skip.violations)
        .set("safety_violations_resync", resync.violations)
        .set("legacy_violations", legacy.violations)
        .set("legacy_collisions", legacy.collisions)
        .set("messages_attempted_skip", skip.attempted)
        .set("messages_delivered_skip", skip.delivered)
        .set("messages_attempted_resync", resync.attempted)
        .set("messages_delivered_resync", resync.delivered)
        .set("messages_attempted_legacy", legacy.attempted)
        .set("messages_delivered_legacy", legacy.delivered)
        .set("beacons_missed_skip", skip.beacons_missed)
        .set("beacons_corrupted_skip", skip.beacons_corrupted)
        .set("host_crash_rounds_skip", skip.host_crash_rounds)
        .set("resync_rejoins", resync.rejoins)
        .set("rejoin_rounds_total", resync.rejoin_rounds_total)
        .set("rejoin_listen_rounds", resync.rejoin_listen_rounds)
        .set("avg_radio_duty_ppm_skip", skip.avg_duty_ppm())
        .set("avg_radio_duty_ppm_resync", resync.avg_duty_ppm())
}

fn main() {
    let fixtures = [GraphShape::Chain, GraphShape::Diamond]
        .map(|shape| build_fixture(shape).expect("a feasible divergent scenario within 32 seeds"));

    eprintln!("\n=== Fault matrix: safety and recovery per fault kind ===");
    eprintln!(
        "{:<18} {:>6} {:>6} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "kind", "skip", "resync", "legacy", "del skip", "del legacy", "rejoins", "rejoin lat"
    );
    let mut kinds = Report::default();
    let mut legacy_total = 0;
    for kind in FaultKind::ALL {
        let skip = sweep_kind(&fixtures, kind, BeaconLossPolicy::SkipRound);
        let resync = sweep_kind(
            &fixtures,
            kind,
            BeaconLossPolicy::Resync {
                max_misses: RESYNC_MAX_MISSES,
            },
        );
        let legacy = sweep_kind(&fixtures, kind, BeaconLossPolicy::LegacyTransmit);
        eprintln!(
            "{:<18} {:>6} {:>6} {:>8} {:>9.3} {:>10.3} {:>10} {:>10.1}",
            kind.name(),
            skip.violations,
            resync.violations,
            legacy.violations,
            skip.delivery_ratio(),
            legacy.delivery_ratio(),
            resync.rejoins,
            resync.rejoin_rounds_total as f64 / (resync.rejoins as f64).max(1.0),
        );
        // The acceptance bar: the safe policies survive every fault kind
        // with zero violations and zero collisions.
        assert_eq!(
            skip.violations,
            0,
            "{}: SkipRound violated safety",
            kind.name()
        );
        assert_eq!(skip.collisions, 0, "{}: SkipRound collided", kind.name());
        assert_eq!(
            resync.violations,
            0,
            "{}: Resync violated safety",
            kind.name()
        );
        assert_eq!(resync.collisions, 0, "{}: Resync collided", kind.name());
        legacy_total += legacy.violations;
        kinds = kinds.section(kind.name(), kind_report(&skip, &resync, &legacy));
    }
    assert!(
        legacy_total >= 1,
        "the matrix reproduced no LegacyTransmit violation at all"
    );
    eprintln!();

    Report::new(
        "fault_matrix",
        "ttw-testkit GeneratorConfig::small(2, _) chain/diamond scenarios with \
         divergent mode pairs, seeded FaultPlan per kind, 8-change mode storm, \
         SkipRound vs Resync{max_misses: 2} vs LegacyTransmit",
    )
    .set("fault_seeds_per_kind", FAULT_SEEDS * fixtures.len() as u64)
    .section("kinds", kinds)
    .write("BENCH_faults.json")
    .expect("write the snapshot");
}
