//! `runtime_faults`: every op executes one cell of the fault matrix — a
//! synthesized two-mode schedule run through a long mode-change storm on the
//! simulated network, under one injected fault kind and one safe beacon-loss
//! policy. `ttw-runtime` and `ttw-netsim` do all the work; synthesis happens
//! once per lap, in set-up, and the service is never involved.

use crate::estimate::median;
use crate::expected::Expected;
use crate::harness::{add, count, Counts, Workload};
use crate::ops::shuffled;
use crate::trace::Tracer;
use std::hint::black_box;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw_core::{ModeId, ModeSchedule, System};
use ttw_netsim::rng::SplitMix64;
use ttw_netsim::{simulate_flood, FaultPlan, FloodConfig, LinkModel, Topology};
use ttw_runtime::slot_table::build_mode_tables;
use ttw_runtime::{Beacon, BeaconLossPolicy, RuntimeStats, Simulation, SimulationConfig};
use ttw_testkit::{generate, generate_fault_plan, FaultKind, GeneratorConfig, GraphShape};

/// Hyperperiods per cell, with a mode-change request at every boundary.
const STORM_HYPERPERIODS: usize = 256;
/// Fault-plan seeds per (kind, fixture, policy): 6 × 2 × 2 × 48 = 1152 ops.
const FAULT_SEEDS: u64 = 48;
/// Fault-free per-link loss floor of every cell.
const BASE_LINK_LOSS: f64 = 0.05;
/// Diameter of the clustered topology the cells run over.
const DIAMETER: usize = 4;
/// Beacon encode/decode pairs timed per traced op.
const BEACON_CODEC_PAIRS: usize = 1000;

const FIXTURES: [(&str, GraphShape, u64); 2] = [
    ("chain", GraphShape::Chain, 1),
    ("diamond", GraphShape::Diamond, 2),
];
const POLICIES: [(&str, BeaconLossPolicy); 2] = [
    ("skip", BeaconLossPolicy::SkipRound),
    ("resync2", BeaconLossPolicy::Resync { max_misses: 2 }),
];

struct Cell {
    id: String,
    kind: FaultKind,
    fixture: usize,
    policy: BeaconLossPolicy,
    fault_seed: u64,
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in FaultKind::ALL {
        for (fixture, (fixture_name, ..)) in FIXTURES.iter().enumerate() {
            for (policy_name, policy) in POLICIES {
                for fault_seed in 0..FAULT_SEEDS {
                    cells.push(Cell {
                        id: format!("{}/{fixture_name}/{policy_name}/{fault_seed}", kind.name()),
                        kind,
                        fixture,
                        policy,
                        fault_seed,
                    });
                }
            }
        }
    }
    cells
}

/// A synthesized two-mode system to execute.
pub struct Fixture {
    system: System,
    schedules: Vec<ModeSchedule>,
    modes: Vec<ModeId>,
}

impl Fixture {
    /// Executed rounds a storm lasts when no mode change alters the count.
    fn horizon_rounds(&self) -> usize {
        self.schedules[0].num_rounds() * STORM_HYPERPERIODS
    }

    fn plan(&self, cell: &Cell) -> FaultPlan {
        generate_fault_plan(
            cell.kind,
            self.system.num_nodes(),
            self.horizon_rounds(),
            cell.fault_seed,
        )
    }

    fn simulation(&self, cell: &Cell, plan: FaultPlan) -> Result<Simulation, String> {
        let config = SimulationConfig {
            link_loss: BASE_LINK_LOSS,
            seed: 11,
            policy: cell.policy,
            faults: Some(plan),
            ..SimulationConfig::default()
        };
        Simulation::with_clustered_topology(
            &self.system,
            &self.schedules,
            self.modes[0],
            DIAMETER,
            config,
        )
        .map_err(|e| e.to_string())
    }

    fn storm(&self, sim: &mut Simulation, cell: &Cell) -> Result<(), String> {
        let mut rng = SplitMix64::new(cell.fault_seed ^ 0x73_746f_726d);
        for _ in 0..STORM_HYPERPERIODS {
            let target = self.modes[rng.next_u64() as usize % self.modes.len()];
            sim.request_mode_change(target).map_err(|e| e.to_string())?;
            sim.run_hyperperiods(1);
        }
        Ok(())
    }
}

/// What a cell's run left behind.
pub struct CellOutcome {
    stats: RuntimeStats,
    safety_violations: usize,
}

impl CellOutcome {
    fn of(sim: &Simulation) -> Self {
        CellOutcome {
            stats: sim.stats().clone(),
            safety_violations: sim.safety().total_violations(),
        }
    }
}

/// The workload: the fixed cell set in the order the seed picked.
pub struct RuntimeFaults {
    ops: Vec<Cell>,
    expected: Expected,
}

impl RuntimeFaults {
    /// # Errors
    ///
    /// Returns the reason when the expected outputs cannot be loaded.
    pub fn new(seed: u64, record: bool) -> Result<Self, String> {
        Ok(RuntimeFaults {
            ops: shuffled(cells(), seed),
            expected: Expected::open("runtime_faults", record)?,
        })
    }
}

impl Workload for RuntimeFaults {
    type Lap = Vec<Fixture>;
    type Output = CellOutcome;
    /// Two slices ≈ 50 µs after ops of 2.4 ms.
    const SLICES_PER_OP: usize = 2;

    fn expected(&self) -> &Expected {
        &self.expected
    }

    fn op_ids(&self) -> Vec<String> {
        self.ops.iter().map(|cell| cell.id.clone()).collect()
    }

    fn setup(&self) -> Result<Vec<Fixture>, String> {
        FIXTURES
            .iter()
            .map(|&(name, shape, seed)| {
                let scenario = generate(&GeneratorConfig::small(2, shape), seed);
                let schedule = synthesize_system(
                    &scenario.system,
                    &scenario.graph,
                    &scenario.scheduler_config(),
                    &IlpSynthesizer::default(),
                )
                .map_err(|e| format!("{name} fixture: {e}"))?;
                Ok(Fixture {
                    modes: scenario.modes(),
                    schedules: schedule.to_vec(),
                    system: scenario.system,
                })
            })
            .collect()
    }

    fn run_op(
        &self,
        lap: &mut Vec<Fixture>,
        op: usize,
        tracer: &mut Tracer,
    ) -> Result<CellOutcome, String> {
        let cell = &self.ops[op];
        let fixture = &lap[cell.fixture];
        let plan = tracer.span("testkit.fault_plan", |_| fixture.plan(cell));
        let mut sim = tracer.span("runtime.build", |_| fixture.simulation(cell, plan))?;
        tracer.span("runtime.run", |_| fixture.storm(&mut sim, cell))?;
        Ok(CellOutcome::of(&sim))
    }

    fn check_op(&self, _: &mut Vec<Fixture>, op: usize, out: CellOutcome) -> Result<(), String> {
        // Both policies are safe ones: whatever the faults, no two nodes may
        // ever transmit in one slot.
        if out.safety_violations != 0 || out.stats.collisions != 0 {
            return Err(format!(
                "{} safety violations, {} collisions under a safe policy",
                out.safety_violations, out.stats.collisions
            ));
        }
        let observed = [
            out.stats.messages_attempted,
            out.stats.messages_delivered,
            out.stats.beacons_missed,
            out.stats.rejoins,
        ];
        self.expected
            .observe(&self.ops[op].id, &observed.map(|count| count as f64))
    }

    fn finish(&self, _: Vec<Fixture>) -> Result<(), String> {
        Ok(())
    }

    fn trace_layers(
        &self,
        lap: &mut Vec<Fixture>,
        _shadow: &mut Vec<Fixture>,
        op: usize,
        outcome: &CellOutcome,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let cell = &self.ops[op];
        let fixture = &lap[cell.fixture];
        // The layers under a cell, each on its own.
        tracer
            .span("runtime.slot_tables", |_| {
                build_mode_tables(&fixture.system, &fixture.schedules)
            })
            .map_err(|e| e.to_string())?;
        tracer.span("runtime.beacon_codec", |_| {
            for round in 0..BEACON_CODEC_PAIRS {
                let beacon = Beacon {
                    round_id: round as u8,
                    mode_id: 1,
                    trigger: round % 2 == 0,
                };
                let _ = black_box(Beacon::decode(black_box(beacon.encode())));
            }
        });
        let nodes = fixture.system.num_nodes() + 1;
        let topology = Topology::clustered_line(DIAMETER, nodes.div_ceil(DIAMETER + 1));
        let mut links = LinkModel::uniform(BASE_LINK_LOSS, cell.fault_seed);
        tracer.span("netsim.flood", |_| {
            simulate_flood(&topology, &mut links, 0, &FloodConfig::default())
        });

        let stats = &outcome.stats;
        for (name, amount) in [
            ("runtime.rounds", stats.rounds_executed),
            ("runtime.beacons_missed", stats.beacons_missed),
            ("runtime.messages_attempted", stats.messages_attempted),
            ("runtime.messages_delivered", stats.messages_delivered),
            ("runtime.rejoins", stats.rejoins),
            ("runtime.mode_changes", stats.mode_changes),
            ("runtime.safety_violations", outcome.safety_violations),
        ] {
            add(counts, name, amount);
        }
        Ok(())
    }

    fn trace_finish(&self, _: &Vec<Fixture>, tracer: &Tracer, counts: &mut Counts) {
        let run_us: f64 = tracer.per_op_us("runtime.run").iter().sum();
        let rounds = count(counts, "runtime.rounds").max(1.0);
        counts.insert("runtime.run_us_per_round", run_us / rounds);
        let codec_us = median(&tracer.per_op_us("runtime.beacon_codec"));
        counts.insert(
            "runtime.beacon_codec_ns",
            codec_us * 1e3 / BEACON_CODEC_PAIRS as f64,
        );
    }
}
