//! The fault-matrix harness the `fault_matrix` report program and the
//! workspace's `fault_matrix` integration test share: seeded two-mode
//! workloads, each run under a generated [`FaultPlan`] through an 8-change
//! mode-change storm.

use ttw_core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw_core::{ModeId, ModeSchedule, System, SystemSchedule};
use ttw_netsim::rng::SplitMix64;
use ttw_netsim::FaultPlan;
use ttw_runtime::{BeaconLossPolicy, RuntimeError, Simulation, SimulationConfig};
use ttw_testkit::{generate, generate_fault_plan, FaultKind, GeneratorConfig, GraphShape};

/// Hyperperiods executed per cell, with one mode-change request at every
/// hyperperiod boundary: an 8-change storm.
const STORM_HYPERPERIODS: usize = 8;
/// Miss budget of the `Resync` policy the matrix runs.
pub const RESYNC_MAX_MISSES: u32 = 2;
/// Fault-free per-link loss of every run: small enough that the injected
/// faults dominate, non-zero so the base RNG stream is live.
const BASE_LINK_LOSS: f64 = 0.05;

/// A synthesized two-mode workload the fault matrix executes.
pub struct Fixture {
    /// The generated system.
    pub system: System,
    /// Its synthesized schedule.
    pub schedule: SystemSchedule,
    /// The system's modes; the storm starts in the first one.
    pub modes: Vec<ModeId>,
    /// The mode-graph shape the system was generated with.
    pub shape: GraphShape,
    /// The generator seed the system came from.
    pub scenario_seed: u64,
}

/// `true` if the first two modes of `schedule` ever disagree on the slot
/// initiator at the same round/slot position. With inherited synthesis, many
/// generated mode pairs are prefix-identical (mode 1 = mode 0 plus appended
/// slots) — under such a pair a stale `LegacyTransmit` node can never collide
/// with the new mode's owner, so the unsafety half of the matrix would be
/// vacuous. The matrix only uses scenarios where ownership genuinely diverges.
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
    // A stale node's ghost round position and the live round position advance
    // in lockstep (one round per round), each cycling its own mode, so the
    // alignment of interest is exactly `p mod len` on both sides.
    (0..lcm).any(|p| {
        let (ra, rb) = (&a[p % a.len()], &b[p % b.len()]);
        (0..ra.slots.len().min(rb.slots.len())).any(|s| {
            system.message(ra.slots[s]).source_node != system.message(rb.slots[s]).source_node
        })
    })
}

/// The first feasible two-mode scenario of `shape` among generator seeds
/// `0..32` whose mode pair has divergent slot ownership (deterministic; in
/// practice this lands within a few seeds), or `None` if there is none.
pub fn build_fixture(shape: GraphShape) -> Option<Fixture> {
    (0..32).find_map(|seed| {
        let scenario = generate(&GeneratorConfig::small(2, shape), seed);
        let modes = scenario.modes();
        if modes.len() < 2 {
            return None;
        }
        let schedule = synthesize_system(
            &scenario.system,
            &scenario.graph,
            &scenario.scheduler_config(),
            &IlpSynthesizer,
        )
        .ok()?;
        modes_diverge(&scenario.system, &schedule).then_some(Fixture {
            system: scenario.system,
            schedule,
            modes,
            shape,
            scenario_seed: seed,
        })
    })
}

/// A simulation of `fixture` in its first mode over a 4-hop clustered
/// topology, with the matrix's base loss and channel seed and an optional
/// fault plan; fails as [`Simulation::with_clustered_topology`] does.
pub fn build_sim(
    fixture: &Fixture,
    policy: BeaconLossPolicy,
    faults: Option<FaultPlan>,
) -> Result<Simulation, RuntimeError> {
    let config = SimulationConfig {
        link_loss: BASE_LINK_LOSS,
        seed: 11,
        policy,
        faults,
        ..SimulationConfig::default()
    };
    Simulation::with_clustered_topology(
        &fixture.system,
        &fixture.schedule.to_vec(),
        fixture.modes[0],
        4,
        config,
    )
}

/// Runs the mode-change storm: one (seeded) mode-change request per
/// hyperperiod boundary. Fails on a refused change, which generated
/// (switch-consistent) fixtures never meet.
pub fn run_storm(
    sim: &mut Simulation,
    fixture: &Fixture,
    storm_seed: u64,
) -> Result<(), RuntimeError> {
    let mut rng = SplitMix64::new(storm_seed ^ 0x73746f726d);
    for _ in 0..STORM_HYPERPERIODS {
        let target = fixture.modes[rng.next_u64() as usize % fixture.modes.len()];
        sim.request_mode_change(target)?;
        sim.run_hyperperiods(1);
    }
    Ok(())
}

/// Executes one cell of the matrix: generates the `kind` fault plan of
/// `fault_seed` over the storm's horizon, installs it and runs the storm
/// seeded with `fault_seed`. Returns the finished simulation for inspection.
pub fn run_cell(
    fixture: &Fixture,
    kind: FaultKind,
    fault_seed: u64,
    policy: BeaconLossPolicy,
) -> Result<Simulation, RuntimeError> {
    // The storm starts in the first mode; a missing schedule is refused by
    // `build_sim` below, whatever horizon the plan got.
    let rounds = fixture
        .schedule
        .get(fixture.modes[0])
        .map_or(0, ModeSchedule::num_rounds);
    let horizon = rounds * STORM_HYPERPERIODS;
    let plan = generate_fault_plan(kind, fixture.system.num_nodes(), horizon, fault_seed);
    let mut sim = build_sim(fixture, policy, Some(plan))?;
    run_storm(&mut sim, fixture, fault_seed)?;
    Ok(sim)
}
