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

use ttw_bench::Report;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw_core::{ModeId, System, SystemSchedule};
use ttw_netsim::rng::SplitMix64;
use ttw_runtime::{BeaconLossPolicy, Simulation, SimulationConfig};
use ttw_testkit::{generate, generate_fault_plan, FaultKind, GeneratorConfig, GraphShape};

/// Hyperperiods per scenario, with one mode-change request at every
/// hyperperiod boundary (the same storm the `fault_matrix` integration test
/// drives).
const STORM_HYPERPERIODS: usize = 8;
/// Miss budget of the benched `Resync` policy.
const RESYNC_MAX_MISSES: u32 = 2;
/// Fault-free per-link loss floor of every run.
const BASE_LINK_LOSS: f64 = 0.05;
/// Fault-plan seeds swept per fault kind and fixture.
const FAULT_SEEDS: u64 = 10;

struct Fixture {
    system: System,
    schedule: SystemSchedule,
    modes: Vec<ModeId>,
}

/// `true` if the two benched modes ever disagree on a slot initiator at the
/// same round/slot position — the precondition for a stale `LegacyTransmit`
/// node to collide at all (see `tests/fault_matrix.rs`).
fn modes_diverge(system: &System, schedule: &SystemSchedule) -> bool {
    let v = schedule.to_vec();
    let (a, b) = (&v[0].rounds, &v[1].rounds);
    if a.is_empty() || b.is_empty() {
        return false;
    }
    let gcd = |mut x: usize, mut y: usize| {
        while y != 0 {
            (x, y) = (y, x % y);
        }
        x
    };
    let lcm = a.len() / gcd(a.len(), b.len()) * b.len();
    (0..lcm).any(|p| {
        let (ra, rb) = (&a[p % a.len()], &b[p % b.len()]);
        (0..ra.slots.len().min(rb.slots.len())).any(|s| {
            system.message(ra.slots[s]).source_node != system.message(rb.slots[s]).source_node
        })
    })
}

fn build_fixture(shape: GraphShape) -> Fixture {
    for seed in 0..32 {
        let scenario = generate(&GeneratorConfig::small(2, shape), seed);
        let modes = scenario.modes();
        if modes.len() < 2 {
            continue;
        }
        let result = synthesize_system(
            &scenario.system,
            &scenario.graph,
            &scenario.scheduler_config(),
            &IlpSynthesizer,
        );
        if let Ok(schedule) = result {
            if !modes_diverge(&scenario.system, &schedule) {
                continue;
            }
            return Fixture {
                system: scenario.system,
                schedule,
                modes,
            };
        }
    }
    panic!("no feasible divergent {shape:?} scenario within 32 seeds");
}

fn build_sim(
    fixture: &Fixture,
    policy: BeaconLossPolicy,
    plan: Option<ttw_netsim::FaultPlan>,
) -> Simulation {
    let config = SimulationConfig {
        link_loss: BASE_LINK_LOSS,
        seed: 11,
        policy,
        faults: plan,
        ..SimulationConfig::default()
    };
    Simulation::with_clustered_topology(
        &fixture.system,
        &fixture.schedule.to_vec(),
        fixture.modes[0],
        4,
        config,
    )
    .expect("fault-matrix simulation builds")
}

fn run_storm(sim: &mut Simulation, fixture: &Fixture, storm_seed: u64) {
    let mut rng = SplitMix64::new(storm_seed ^ 0x73746f726d);
    for _ in 0..STORM_HYPERPERIODS {
        let target = fixture.modes[rng.next_u64() as usize % fixture.modes.len()];
        sim.request_mode_change(target).expect("known mode");
        sim.run_hyperperiods(1);
    }
}

fn run_cell(
    fixture: &Fixture,
    kind: FaultKind,
    fault_seed: u64,
    policy: BeaconLossPolicy,
) -> Simulation {
    let probe = build_sim(fixture, policy, None);
    let horizon = probe.rounds_per_hyperperiod() * STORM_HYPERPERIODS;
    let plan = generate_fault_plan(kind, fixture.system.num_nodes(), horizon, fault_seed);
    let mut sim = build_sim(fixture, policy, Some(plan));
    run_storm(&mut sim, fixture, fault_seed);
    sim
}

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
            let sim = run_cell(fixture, kind, fault_seed, policy);
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
    let fixtures = [
        build_fixture(GraphShape::Chain),
        build_fixture(GraphShape::Diamond),
    ];

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
