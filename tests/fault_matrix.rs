//! Fault-matrix differential harness: seeded fault plans × topologies ×
//! mode-change storms, executed end to end through the runtime simulation.
//!
//! The invariants proved here are the paper's runtime-robustness story:
//!
//! * **Safety under faults** — for every generated fault plan (burst loss,
//!   partitions, clock drift, host crashes, beacon corruption, and all of
//!   them combined) and every mode-change storm, the safe beacon-loss
//!   policies (`SkipRound` and `Resync`) finish with *zero* safety-monitor
//!   violations and zero collisions.
//! * **Unsafety of the baseline** — the same fault matrix reliably reproduces
//!   violations under `LegacyTransmit`, plus one fully deterministic pinned
//!   reproduction that needs no sweep at all.
//! * **Transparency** — with faults off (`faults: None` *and* the vacuous
//!   `FaultPlan::none()`), runs are byte-identical to the pre-fault-layer
//!   runtime: same `RuntimeStats` (pinned against hardcoded baseline values
//!   captured before this layer existed) and same radio accounting.
//! * **Recovery** — under `Resync`, desynchronized nodes actually drop out
//!   and rejoin across the sweep (the policy is exercised, not vacuous), and
//!   an isolated-then-healed node rejoins within the heal window.
//!
//! Seed windows follow the conventions of `tests/differential.rs`
//! (`TTW_TEST_SEEDS` / `TTW_TEST_SEED_START`); every assertion prints a
//! repro string naming the fault kind, shape, seed and policy.

use ttw::core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw::core::ModeId;
use ttw::netsim::{BeaconCorruption, FaultPlan};
use ttw::runtime::{BeaconLossPolicy, RuntimeStats, Simulation, SimulationConfig};
use ttw::testkit::{FaultKind, GraphShape};
use ttw_bench::fault_matrix::{
    build_fixture, build_sim, run_cell, run_storm, Fixture, RESYNC_MAX_MISSES,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn seed_count(default: usize) -> usize {
    env_usize("TTW_TEST_SEEDS", default)
}

fn seed_start() -> u64 {
    env_usize("TTW_TEST_SEED_START", 0) as u64
}

fn knobs_overridden() -> bool {
    std::env::var("TTW_TEST_SEEDS").is_ok() || std::env::var("TTW_TEST_SEED_START").is_ok()
}

/// One cell of the fault matrix.
struct Cell<'a> {
    fixture: &'a Fixture,
    kind: FaultKind,
    fault_seed: u64,
    policy: BeaconLossPolicy,
}

impl Cell<'_> {
    /// Runs the cell: installs the generated fault plan, runs a mode-change
    /// storm, returns the finished simulation for inspection.
    fn run(&self) -> Simulation {
        run_cell(self.fixture, self.kind, self.fault_seed, self.policy)
            .unwrap_or_else(|e| panic!("{e} — {}", self.repro()))
    }

    fn repro(&self) -> String {
        format!(
            "kind={} shape={:?} scenario_seed={} fault_seed={} policy={:?} \
             (rerun: TTW_TEST_SEEDS=1 TTW_TEST_SEED_START={} cargo test --test fault_matrix)",
            self.kind.name(),
            self.fixture.shape,
            self.fixture.scenario_seed,
            self.fault_seed,
            self.policy,
            self.fault_seed,
        )
    }
}

/// A simulation of `fixture` with an optional fault plan, for the runs
/// outside the matrix's cells.
fn probe_sim(fixture: &Fixture, policy: BeaconLossPolicy, faults: Option<FaultPlan>) -> Simulation {
    build_sim(fixture, policy, faults).expect("simulation builds")
}

fn fixture(shape: GraphShape) -> Fixture {
    build_fixture(shape)
        .unwrap_or_else(|| panic!("no feasible divergent {shape:?} scenario within 32 seeds"))
}

fn fixtures() -> Vec<Fixture> {
    vec![fixture(GraphShape::Chain), fixture(GraphShape::Diamond)]
}

/// Safety: zero monitor violations and zero collisions under `SkipRound` and
/// `Resync` for every fault kind × shape × seed (the acceptance sweep:
/// 6 kinds × 2 shapes × 10 seeds × 2 policies = 240 safe runs over 120
/// distinct fault scenarios by default).
#[test]
fn safe_policies_survive_the_fault_matrix() {
    let fixtures = fixtures();
    let seeds = seed_count(10);
    let start = seed_start();
    let mut scenarios = 0usize;
    let mut rejoins = 0usize;
    let mut dropouts = 0usize;
    for fixture in &fixtures {
        for kind in FaultKind::ALL {
            for fault_seed in start..start + seeds as u64 {
                for policy in [
                    BeaconLossPolicy::SkipRound,
                    BeaconLossPolicy::Resync {
                        max_misses: RESYNC_MAX_MISSES,
                    },
                ] {
                    let cell = Cell {
                        fixture,
                        kind,
                        fault_seed,
                        policy,
                    };
                    let sim = cell.run();
                    let stats = sim.stats();
                    assert!(
                        sim.safety().is_safe(),
                        "safety violations under a safe policy: {:?} — {}",
                        sim.safety().violations(),
                        cell.repro()
                    );
                    assert_eq!(stats.collisions, 0, "collision — {}", cell.repro());
                    assert_eq!(
                        stats.safety_violations,
                        0,
                        "stats/monitor disagree — {}",
                        cell.repro()
                    );
                    if matches!(policy, BeaconLossPolicy::Resync { .. }) {
                        rejoins += stats.rejoins;
                        dropouts += stats.resync_dropouts;
                        assert!(
                            stats.rejoins <= stats.resync_dropouts,
                            "more rejoins than dropouts — {}",
                            cell.repro()
                        );
                    }
                    scenarios += 1;
                }
            }
        }
    }
    eprintln!("fault matrix: {scenarios} safe runs, {dropouts} resync dropouts, {rejoins} rejoins");
    if !knobs_overridden() {
        assert!(
            scenarios >= 200,
            "the default sweep must cover >= 100 fault scenarios per policy"
        );
        assert!(
            dropouts > 0 && rejoins > 0,
            "the sweep never exercised the Resync dropout/rejoin path (vacuous)"
        );
    }
}

/// The unsafe baseline reliably violates safety under the same matrix.
/// Per-kind counts are logged; the assertion gates the aggregate plus a
/// minimum number of distinct fault kinds that independently reproduce a
/// violation. Two kinds structurally cannot collide on these workloads and
/// are expected at zero: pure burst loss (Glossy floods absorb the generated
/// burst rates, so multi-round stale windows are vanishingly rare) and host
/// crashes (every node misses the same beacons, so their stale beliefs stay
/// in lockstep and owners never conflict).
#[test]
fn legacy_policy_reproduces_violations_across_the_matrix() {
    let fixtures = fixtures();
    let seeds = seed_count(10);
    let start = seed_start();
    let mut total = 0usize;
    let mut kinds_with_violations = 0usize;
    for kind in FaultKind::ALL {
        let mut violations = 0usize;
        let mut collisions = 0usize;
        for fixture in &fixtures {
            for fault_seed in start..start + seeds as u64 {
                let cell = Cell {
                    fixture,
                    kind,
                    fault_seed,
                    policy: BeaconLossPolicy::LegacyTransmit,
                };
                let sim = cell.run();
                violations += sim.safety().total_violations();
                collisions += sim.stats().collisions;
                assert_eq!(
                    sim.stats().safety_violations,
                    sim.safety().total_violations(),
                    "stats/monitor disagree — {}",
                    cell.repro()
                );
            }
        }
        eprintln!(
            "legacy under {}: {violations} violations, {collisions} collisions",
            kind.name()
        );
        if violations > 0 {
            kinds_with_violations += 1;
        }
        total += violations;
    }
    if !knobs_overridden() {
        assert!(
            total >= FaultKind::ALL.len(),
            "sweep-wide violation floor not met: {total} violations"
        );
        assert!(
            kinds_with_violations >= 3,
            "only {kinds_with_violations} fault kinds reproduced a LegacyTransmit violation"
        );
    }
}

/// Deterministic pinned reproduction (no sweep, no env knobs): a node that
/// misses exactly the trigger beacon under `LegacyTransmit` collides with the
/// new mode's slot owner and the monitor flags it; the same scenario under
/// `SkipRound` and `Resync` is clean.
#[test]
fn pinned_legacy_violation_reproduction() {
    let run = |policy: BeaconLossPolicy| {
        let (sys, _, _) = ttw::core::fixtures::two_mode_system();
        let config = ttw::core::SchedulerConfig::new(ttw::core::time::millis(10), 5);
        let graph = ttw::core::ModeGraph::complete(&sys);
        let schedules = synthesize_system(&sys, &graph, &config, &IlpSynthesizer)
            .expect("feasible")
            .to_vec();
        let modes: Vec<ModeId> = sys.modes().map(|(id, _)| id).collect();
        let sensor1 = sys.node_id("sensor1").expect("node").index();
        let sim_config = SimulationConfig {
            policy,
            faults: Some(FaultPlan {
                beacon_corruption: Some(BeaconCorruption {
                    probability: 0.0,
                    forced: vec![(3, sensor1), (4, sensor1)],
                }),
                ..FaultPlan::none()
            }),
            ..SimulationConfig::default()
        };
        let mut sim =
            Simulation::with_clustered_topology(&sys, &schedules, modes[0], 4, sim_config)
                .expect("builds");
        sim.run_hyperperiods(1);
        sim.request_mode_change(modes[1]).expect("known mode");
        sim.run_hyperperiods(4);
        (sim.safety().total_violations(), sim.stats().clone())
    };

    let (legacy_violations, legacy_stats) = run(BeaconLossPolicy::LegacyTransmit);
    assert!(
        legacy_violations >= 1,
        "the pinned legacy scenario must be flagged"
    );
    assert!(legacy_stats.collisions >= 1);
    assert_eq!(legacy_stats.safety_violations, legacy_violations);
    // The channel is perfect, so it delivers both forced beacons and each
    // fails its checksum.
    assert_eq!(legacy_stats.beacons_corrupted, 2);

    for policy in [
        BeaconLossPolicy::SkipRound,
        BeaconLossPolicy::Resync { max_misses: 2 },
    ] {
        let (violations, stats) = run(policy);
        assert_eq!(violations, 0, "safe policy flagged under {policy:?}");
        assert_eq!(stats.collisions, 0);
        assert_eq!(stats.beacons_corrupted, 2);
    }
}

/// Faults-off transparency, part 1: `faults: None` runs are byte-identical to
/// the pre-fault-layer runtime. The expected values are hardcoded from a
/// probe run captured at the parent commit of this layer — if any of these
/// change, the fault machinery leaked into the fault-free path.
#[test]
fn faults_off_matches_the_pre_fault_layer_baseline() {
    let run = |loss: f64, seed: u64, policy: BeaconLossPolicy| {
        let (sys, _, _) = ttw::core::fixtures::two_mode_system();
        let config = ttw::core::SchedulerConfig::new(ttw::core::time::millis(10), 5);
        let graph = ttw::core::ModeGraph::complete(&sys);
        let schedules = synthesize_system(&sys, &graph, &config, &IlpSynthesizer)
            .expect("feasible")
            .to_vec();
        let modes: Vec<ModeId> = sys.modes().map(|(id, _)| id).collect();
        let sim_config = SimulationConfig {
            link_loss: loss,
            seed,
            policy,
            ..SimulationConfig::default()
        };
        let mut sim =
            Simulation::with_clustered_topology(&sys, &schedules, modes[0], 4, sim_config)
                .expect("builds");
        sim.run_hyperperiods(3);
        sim.request_mode_change(modes[1]).expect("known");
        sim.run_hyperperiods(5);
        let radio = sim.radio().total_on_time();
        (sim.stats().clone(), radio)
    };

    // Captured pre-PR: perfect_skip / lossy_skip / lossy_legacy probe runs.
    let cases = [
        (
            0.0,
            1,
            BeaconLossPolicy::SkipRound,
            (16, 0, 0, 32, 32, 0, 0, 1, 727_000),
            1.259_520_000,
        ),
        (
            0.5,
            7,
            BeaconLossPolicy::SkipRound,
            (16, 1, 1, 32, 32, 0, 0, 1, 727_000),
            1.249_728_000,
        ),
        (
            0.5,
            7,
            BeaconLossPolicy::LegacyTransmit,
            (16, 1, 0, 32, 32, 0, 0, 1, 727_000),
            1.259_520_000,
        ),
    ];
    for (loss, seed, policy, expected, expected_radio) in cases {
        let (stats, radio) = run(loss, seed, policy);
        let (rounds, missed, skipped, attempted, delivered, unused, collisions, changes, elapsed) =
            expected;
        let expected_stats = RuntimeStats {
            rounds_executed: rounds,
            beacons_missed: missed,
            rounds_skipped: skipped,
            messages_attempted: attempted,
            messages_delivered: delivered,
            slots_unused: unused,
            collisions,
            mode_changes: changes,
            elapsed_micros: elapsed,
            // Every fault counter must stay at its default (zero) with
            // faults off.
            ..RuntimeStats::default()
        };
        assert_eq!(
            stats, expected_stats,
            "stats drifted from the pre-fault-layer baseline (loss={loss} seed={seed} policy={policy:?})"
        );
        assert!(
            (radio - expected_radio).abs() < 1e-9,
            "radio accounting drifted: {radio} vs {expected_radio} (loss={loss} seed={seed} policy={policy:?})"
        );
    }
}

/// Faults-off transparency, part 2: installing the vacuous `FaultPlan::none()`
/// is byte-identical to installing no plan at all, across shapes and
/// policies, storms included.
#[test]
fn vacuous_fault_plan_is_transparent() {
    for fixture in fixtures() {
        for policy in [
            BeaconLossPolicy::SkipRound,
            BeaconLossPolicy::LegacyTransmit,
            BeaconLossPolicy::Resync { max_misses: 2 },
        ] {
            let mut without = probe_sim(&fixture, policy, None);
            run_storm(&mut without, &fixture, 5).expect("known mode");
            let mut with = probe_sim(&fixture, policy, Some(FaultPlan::none()));
            run_storm(&mut with, &fixture, 5).expect("known mode");
            assert_eq!(
                without.stats(),
                with.stats(),
                "FaultPlan::none() perturbed the run (shape={:?} policy={policy:?})",
                fixture.shape
            );
            for node in 0..without.radio().num_nodes() {
                assert!(
                    (without.radio().on_time(node) - with.radio().on_time(node)).abs() < 1e-12,
                    "FaultPlan::none() perturbed radio accounting for node {node} \
                     (shape={:?} policy={policy:?})",
                    fixture.shape
                );
            }
        }
    }
}

/// Recovery: a node isolated by a partition under `Resync` drops out, then
/// rejoins after the partition heals — deterministically, with a perfect
/// channel so the partition is the only fault.
#[test]
fn resync_node_rejoins_after_partition_heals() {
    let fixture = fixture(GraphShape::Chain);
    let plan = FaultPlan {
        partitions: vec![ttw::netsim::PartitionWindow {
            from_round: 2,
            until_round: 7,
            islands: vec![vec![0]],
        }],
        ..FaultPlan::none()
    };
    let config = SimulationConfig {
        link_loss: 0.0,
        policy: BeaconLossPolicy::Resync { max_misses: 2 },
        faults: Some(plan),
        ..SimulationConfig::default()
    };
    let mut sim = Simulation::with_clustered_topology(
        &fixture.system,
        &fixture.schedule.to_vec(),
        fixture.modes[0],
        4,
        config,
    )
    .expect("builds");
    sim.run_rounds(12);
    let stats = sim.stats();
    assert_eq!(stats.resync_dropouts, 1, "node 0 must drop out");
    assert_eq!(stats.rejoins, 1, "node 0 must rejoin after the heal");
    assert!(
        stats.rejoin_listen_rounds > 0,
        "rejoin listening must be accounted"
    );
    assert!(sim.safety().is_safe());
    assert_eq!(stats.collisions, 0);
}

/// Build-time validation: an out-of-range forced beacon loss is rejected
/// instead of silently never firing, and an invalid fault plan is rejected
/// with the offending reason.
#[test]
fn invalid_configs_are_rejected_at_build_time() {
    let fixture = fixture(GraphShape::Chain);
    let nodes = fixture.system.num_nodes();

    let forced_out_of_range = FaultPlan {
        beacon_corruption: Some(BeaconCorruption {
            probability: 0.0,
            forced: vec![(0, nodes)],
        }),
        ..FaultPlan::none()
    };
    let config = SimulationConfig {
        faults: Some(forced_out_of_range),
        ..SimulationConfig::default()
    };
    let err = Simulation::with_clustered_topology(
        &fixture.system,
        &fixture.schedule.to_vec(),
        fixture.modes[0],
        4,
        config,
    )
    .unwrap_err();
    assert!(
        matches!(
            &err,
            ttw::runtime::RuntimeError::InvalidFaultPlan { reason }
                if reason.contains(&format!("node {nodes}"))
        ),
        "got {err:?}"
    );

    let bad_plan = FaultPlan {
        clock_faults: vec![ttw::netsim::ClockFault {
            node: nodes,
            ppm: 1000.0,
            offset_us: 0.0,
        }],
        ..FaultPlan::none()
    };
    let config = SimulationConfig {
        faults: Some(bad_plan),
        ..SimulationConfig::default()
    };
    let err = Simulation::with_clustered_topology(
        &fixture.system,
        &fixture.schedule.to_vec(),
        fixture.modes[0],
        4,
        config,
    )
    .unwrap_err();
    assert!(
        matches!(err, ttw::runtime::RuntimeError::InvalidFaultPlan { .. }),
        "got {err:?}"
    );
}

/// A host crash window across a pending mode change: the change is
/// re-announced after the restart, completes exactly once, and every
/// connected node observes it — end to end through the simulation.
#[test]
fn mode_change_survives_a_host_crash_end_to_end() {
    let fixture = fixture(GraphShape::Chain);
    let probe = probe_sim(&fixture, BeaconLossPolicy::SkipRound, None);
    let rph = probe.rounds_per_hyperperiod();
    drop(probe);

    // Crash the host from mid-first-hyperperiod across the round that would
    // have carried the trigger, for a full hyperperiod.
    let plan = FaultPlan {
        host_crashes: vec![ttw::netsim::CrashWindow {
            from_round: rph / 2,
            until_round: rph / 2 + rph,
        }],
        ..FaultPlan::none()
    };
    let config = SimulationConfig {
        link_loss: 0.0,
        policy: BeaconLossPolicy::SkipRound,
        faults: Some(plan),
        ..SimulationConfig::default()
    };
    let mut sim = Simulation::with_clustered_topology(
        &fixture.system,
        &fixture.schedule.to_vec(),
        fixture.modes[0],
        4,
        config,
    )
    .expect("builds");
    sim.request_mode_change(fixture.modes[1]).expect("known");
    sim.run_hyperperiods(4);
    let stats = sim.stats();
    assert_eq!(stats.mode_changes, 1, "the change completes exactly once");
    assert_eq!(sim.current_mode(), fixture.modes[1]);
    assert!(stats.host_crash_rounds >= rph, "the crash window executed");
    assert!(sim.safety().is_safe());
    assert_eq!(stats.collisions, 0);
    assert_eq!(
        sim.safety().commits().len(),
        2,
        "initial mode + exactly one committed change"
    );
}
