//! # ttw-testkit — seeded scenario generation for the TTW pipeline
//!
//! The hand-built fixtures of `ttw-core` stop at two- and four-mode systems,
//! which exercises the synthesis pipeline on a handful of shapes only. This
//! crate is the workspace's standing *scenario engine*: a deterministic,
//! seeded generator that produces random [`System`]s together with a matching
//! [`ModeGraph`] from a declarative [`GeneratorConfig`] — N modes in one of
//! several graph shapes, applications shared between modes (so minimal
//! inheritance has real work to do), randomized precedence chains, WCETs and
//! periods.
//!
//! Determinism is the central contract: **equal `(config, seed)` pairs produce
//! identical scenarios** (same entity names, ids, periods, WCETs, edges), so
//! any failure found by a randomized harness is reproducible from the printed
//! seed alone. Randomness comes from the same SplitMix64 generator the link
//! simulator uses ([`ttw_netsim::rng`]); no global state, no platform
//! dependence.
//!
//! ## Scenario structure
//!
//! Every generated mode contains up to [`GeneratorConfig::apps_per_mode`]
//! applications drawn from three groups:
//!
//! * a **global shared application** that joins each mode with probability
//!   [`GeneratorConfig::shared_app_fraction`] (always present in the root
//!   mode when the fraction is positive) — the paper's "control application
//!   keeps running everywhere" premise;
//! * a **handoff application**: each non-root mode re-runs the local
//!   application of one of its mode-graph parents, which chains the
//!   inheritance plan along the graph edges — in a [`GraphShape::Chain`]
//!   every mode inherits from the one before it, while in a
//!   [`GraphShape::Diamond`] the middle modes inherit only from the root;
//! * **local/private applications** exclusive to the mode.
//!
//! ```
//! use ttw_testkit::{generate, GeneratorConfig, GraphShape};
//!
//! let config = GeneratorConfig::small(4, GraphShape::Diamond);
//! let scenario = generate(&config, 42);
//! assert_eq!(scenario.graph.num_modes(), 4);
//! // Same seed, same scenario — failures are reproducible from the seed.
//! let again = generate(&config, 42);
//! assert_eq!(scenario.system, again.system);
//! assert_eq!(scenario.graph, again.graph);
//! ```

//!
//! ## Decoder fuzzing
//!
//! [`json_fuzz`] is the same idea pointed at a decoder instead of the
//! synthesis pipeline: seeded random documents and byte-level mutations of
//! them, checked for exact round trips and for errors instead of panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json_fuzz;

use ttw_core::ids::{AppId, ModeId};
use ttw_core::spec::ApplicationSpec;
use ttw_core::time::{millis, Micros};
use ttw_core::{ModeGraph, SchedulerConfig, System};
use ttw_netsim::faults::{BeaconCorruption, ClockFault, CrashWindow, FaultPlan, PartitionWindow};
use ttw_netsim::link::GilbertElliott;
use ttw_netsim::rng::SplitMix64;

/// Topology of the generated mode graph (the shape of the legal-switch DAG).
///
/// The shape drives the *inheritance plan* because each non-root mode
/// inherits an application from one of its graph parents: in a chain every
/// mode inherits from its predecessor, in a diamond the middle modes inherit
/// only from the root and never from each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphShape {
    /// `M0 → M1 → … → M(N−1)`: maximal inheritance depth.
    Chain,
    /// `M0 → {M1 … M(N−2)} → M(N−1)`: `N − 2` middle modes that inherit
    /// only from the root.
    Diamond,
    /// Layers of `width` modes; every mode of a layer switches to every mode
    /// of the next layer. A mode inherits only from earlier layers, so the
    /// donor chains are ≈ `N / width` modes deep.
    LayeredDag {
        /// Number of modes per layer (≥ 1).
        width: usize,
    },
    /// Every mode `Mj` (j ≥ 1) gets one or two random parents among
    /// `M0 … M(j−1)` — an irregular DAG still rooted at `M0`.
    RandomDag,
}

impl GraphShape {
    /// All shapes, in a fixed order (used by harnesses cycling through them).
    pub const ALL: [GraphShape; 4] = [
        GraphShape::Chain,
        GraphShape::Diamond,
        GraphShape::LayeredDag { width: 3 },
        GraphShape::RandomDag,
    ];

    /// Short machine-friendly name (used as a JSON key by the benches).
    pub fn name(&self) -> &'static str {
        match self {
            GraphShape::Chain => "chain",
            GraphShape::Diamond => "diamond",
            GraphShape::LayeredDag { .. } => "layered",
            GraphShape::RandomDag => "random",
        }
    }

    /// The directed switch edges of this shape over `n` modes (indexes).
    fn edges(&self, n: usize, rng: &mut SplitMix64) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        match *self {
            GraphShape::Chain => {
                for i in 1..n {
                    edges.push((i - 1, i));
                }
            }
            GraphShape::Diamond => {
                if n <= 2 {
                    for i in 1..n {
                        edges.push((i - 1, i));
                    }
                } else {
                    for mid in 1..n - 1 {
                        edges.push((0, mid));
                        edges.push((mid, n - 1));
                    }
                }
            }
            GraphShape::LayeredDag { width } => {
                // The root is a layer of its own; modes 1.. form layers of
                // `width`, fully connected to the previous layer.
                let width = width.max(1);
                for j in 1..n {
                    let layer = (j - 1) / width + 1;
                    if layer == 1 {
                        edges.push((0, j));
                        continue;
                    }
                    let prev_start = (layer - 2) * width + 1;
                    let prev_end = ((layer - 1) * width + 1).min(n);
                    for i in prev_start..prev_end {
                        edges.push((i, j));
                    }
                }
            }
            GraphShape::RandomDag => {
                for j in 1..n {
                    let num_parents = 1 + (rng.next_u64() as usize % 2).min(j - 1);
                    let mut parents = std::collections::BTreeSet::new();
                    while parents.len() < num_parents {
                        parents.insert(rng.next_u64() as usize % j);
                    }
                    for p in parents {
                        edges.push((p, j));
                    }
                }
            }
        }
        edges
    }
}

/// Which provable-infeasibility flavor [`GeneratorConfig::infeasible`]
/// produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfeasibleKind {
    /// The execution demand on a node exceeds the hyperperiod (violates C3).
    OverUtilized,
    /// The Eq. 13 latency lower bound exceeds every deadline.
    ImpossibleDeadline,
    /// More message instances than `B · R_max` slots (violates C4).
    OverCapacityRounds,
}

impl InfeasibleKind {
    /// Every flavor, for sweeping.
    pub const ALL: [InfeasibleKind; 3] = [
        InfeasibleKind::OverUtilized,
        InfeasibleKind::ImpossibleDeadline,
        InfeasibleKind::OverCapacityRounds,
    ];

    /// Short stable name (bench JSON keys, repro lines).
    pub fn name(&self) -> &'static str {
        match self {
            InfeasibleKind::OverUtilized => "over_utilized",
            InfeasibleKind::ImpossibleDeadline => "impossible_deadline",
            InfeasibleKind::OverCapacityRounds => "over_capacity_rounds",
        }
    }
}

/// Declarative description of a scenario family; [`generate`] turns a
/// `(GeneratorConfig, seed)` pair into one concrete [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of operation modes (N).
    pub num_modes: usize,
    /// Topology of the mode graph.
    pub shape: GraphShape,
    /// Number of network nodes tasks are mapped onto.
    pub num_nodes: usize,
    /// Target number of applications per mode (a lower bound: the structural
    /// shared/handoff applications are always included).
    pub apps_per_mode: usize,
    /// Probability that the global shared application joins a given non-root
    /// mode (`0.0` disables the global shared application entirely).
    pub shared_app_fraction: f64,
    /// Inclusive range of tasks per generated application chain.
    pub tasks_per_app: (usize, usize),
    /// Inclusive range of task WCETs in microseconds.
    pub wcet_range_us: (Micros, Micros),
    /// Application periods are drawn uniformly from this set; more than one
    /// distinct value makes multi-rate modes possible.
    pub period_choices_us: Vec<Micros>,
    /// End-to-end deadline as a fraction of the period (`1.0` = deadline
    /// equals period, the most permissive setting).
    pub deadline_factor: f64,
    /// Message payload size in bytes (recorded for timing-derived round
    /// lengths; the co-scheduling model itself is payload-agnostic).
    pub payload_bytes: usize,
    /// Round length `T_r` (µs) of the scheduler configuration.
    pub round_duration_us: Micros,
    /// Data slots per round (`B`).
    pub slots_per_round: usize,
    /// Optional round budget: cap on the `R_M` sweep of Algorithm 1.
    pub max_rounds: Option<usize>,
}

impl GeneratorConfig {
    /// A small, comfortably feasible single-rate workload: 100 ms periods,
    /// 10 ms rounds with 5 slots, light node utilization. The default family
    /// of the differential harness — small enough that the exact ILP solves
    /// in milliseconds per mode.
    pub fn small(num_modes: usize, shape: GraphShape) -> Self {
        GeneratorConfig {
            num_modes,
            shape,
            num_nodes: 5,
            apps_per_mode: 2,
            shared_app_fraction: 0.75,
            tasks_per_app: (2, 3),
            wcet_range_us: (500, 3_000),
            period_choices_us: vec![millis(100)],
            deadline_factor: 1.0,
            payload_bytes: 10,
            round_duration_us: millis(10),
            slots_per_round: 5,
            max_rounds: Some(5),
        }
    }

    /// The scaling-benchmark family: like [`GeneratorConfig::small`] but with
    /// more slack — two-task applications (one message each), an uncapped
    /// round budget, and the global shared application in *every* mode — so
    /// that deep inheritance chains (N up to 32 modes, each pinning its
    /// parent's application) stay comfortably feasible and the benchmark
    /// measures synthesis speed, not infeasibility detection.
    ///
    /// The `shared_app_fraction = 1.0` is load-bearing for feasibility: with
    /// probabilistic membership, a mode can inherit two applications that
    /// were never co-scheduled in any single donor (its parent skipped the
    /// global application), and their independently chosen offsets may
    /// conflict on a node — a legitimate infeasibility the differential
    /// harness exercises, but noise for a scaling benchmark.
    pub fn bench(num_modes: usize, shape: GraphShape) -> Self {
        GeneratorConfig {
            tasks_per_app: (3, 3),
            max_rounds: None,
            shared_app_fraction: 1.0,
            ..Self::small(num_modes, shape)
        }
    }

    /// The adversarial family for the static analyzer: every mode of every
    /// generated scenario is provably infeasible in the way `kind` names, so
    /// the soundness invariant (analyzer-certified ⇒ ILP-infeasible) and the
    /// `AnalyzeFirst` gate's fast-fail rate have guaranteed coverage.
    ///
    /// The configurations stay *model-valid* (WCET ≤ period, deadline ≤
    /// period, non-empty modes): infeasibility comes from scheduling
    /// arithmetic, never from a malformed system.
    pub fn infeasible(num_modes: usize, shape: GraphShape, kind: InfeasibleKind) -> Self {
        match kind {
            // One node, two+ apps of three 50–90 ms tasks each: the demand on
            // the single node exceeds the 100 ms hyperperiod several times
            // over (violates C3 capacity).
            InfeasibleKind::OverUtilized => GeneratorConfig {
                num_nodes: 1,
                tasks_per_app: (3, 3),
                wcet_range_us: (50_000, 90_000),
                ..Self::small(num_modes, shape)
            },
            // Three-task chains carry two messages, so the Eq. 13 latency
            // lower bound is at least 2 · 10 ms + ΣWCET > 21 ms, while the
            // deadline is 15% of the 100 ms period (15 ms).
            InfeasibleKind::ImpossibleDeadline => GeneratorConfig {
                tasks_per_app: (3, 3),
                deadline_factor: 0.15,
                ..Self::small(num_modes, shape)
            },
            // Every application releases two message instances per
            // hyperperiod, but only one round of one slot is allowed
            // (violates the C4 slot capacity `B · R_max`).
            InfeasibleKind::OverCapacityRounds => GeneratorConfig {
                tasks_per_app: (3, 3),
                slots_per_round: 1,
                max_rounds: Some(1),
                ..Self::small(num_modes, shape)
            },
        }
    }

    /// Switches the family to mixed 50/100 ms periods, so generated modes can
    /// contain applications whose period differs from the mode hyperperiod
    /// (the multi-rate case, with several instances of a task per
    /// hyperperiod).
    pub fn with_multi_rate(mut self) -> Self {
        self.period_choices_us = vec![millis(50), millis(100)];
        self
    }

    /// The [`SchedulerConfig`] scenarios of this family are synthesized with.
    ///
    /// The MILP budgets are tightened (relative to the solver defaults) so a
    /// pathological draw exhausts its budget and surfaces as
    /// [`ttw_core::ScheduleError::Solver`] within seconds instead of stalling
    /// a randomized harness; callers sweeping many seeds should treat that
    /// error as "skip scenario".
    pub fn scheduler_config(&self) -> SchedulerConfig {
        let mut config = SchedulerConfig::new(self.round_duration_us, self.slots_per_round);
        if let Some(cap) = self.max_rounds {
            config = config.with_max_rounds(cap);
        }
        config.solver.max_nodes = 1_500;
        config
    }

    /// Panics with a descriptive message when the family is self-inconsistent
    /// (empty ranges, WCET larger than the smallest period, …).
    fn check(&self) {
        assert!(self.num_modes >= 1, "num_modes must be at least 1");
        assert!(self.num_nodes >= 1, "num_nodes must be at least 1");
        let (t_lo, t_hi) = self.tasks_per_app;
        assert!(
            (1..=t_hi).contains(&t_lo),
            "tasks_per_app range ({t_lo}, {t_hi}) is empty"
        );
        let (w_lo, w_hi) = self.wcet_range_us;
        assert!(
            (1..=w_hi).contains(&w_lo),
            "wcet_range_us range ({w_lo}, {w_hi}) is empty"
        );
        assert!(
            !self.period_choices_us.is_empty(),
            "period_choices_us must not be empty"
        );
        let min_period = *self.period_choices_us.iter().min().expect("non-empty");
        assert!(
            w_hi <= min_period,
            "largest WCET {w_hi} µs exceeds the smallest period {min_period} µs"
        );
        assert!(
            self.deadline_factor > 0.0 && self.deadline_factor <= 1.0,
            "deadline_factor must be in (0, 1], got {}",
            self.deadline_factor
        );
        assert!(
            (0.0..=1.0).contains(&self.shared_app_fraction),
            "shared_app_fraction must be in [0, 1], got {}",
            self.shared_app_fraction
        );
    }
}

/// One concrete generated workload: the system, its mode graph, and the
/// `(config, seed)` pair that reproduces it — the same pair generates an
/// equal `system` and `graph` again.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generated system (nodes, applications, modes).
    pub system: System,
    /// The generated mode graph (root = first mode).
    pub graph: ModeGraph,
    /// The family this scenario was drawn from.
    pub config: GeneratorConfig,
    /// The seed it was drawn with.
    pub seed: u64,
}

impl Scenario {
    /// The scheduler configuration this scenario is meant to be synthesized
    /// with (delegates to [`GeneratorConfig::scheduler_config`]).
    pub fn scheduler_config(&self) -> SchedulerConfig {
        self.config.scheduler_config()
    }

    /// All mode ids of the system, in id order.
    pub fn modes(&self) -> Vec<ModeId> {
        self.system.modes().map(|(id, _)| id).collect()
    }

    /// `true` if `mode` contains an application whose period differs from the
    /// mode hyperperiod.
    pub fn is_multi_rate(&self, mode: ModeId) -> bool {
        let hyper = self.system.hyperperiod(mode);
        self.system
            .mode(mode)
            .applications
            .iter()
            .any(|&a| self.system.application(a).period != hyper)
    }

    /// The modes for which [`Scenario::is_multi_rate`] holds, in id order.
    pub fn multi_rate_modes(&self) -> Vec<ModeId> {
        self.modes()
            .into_iter()
            .filter(|&m| self.is_multi_rate(m))
            .collect()
    }

    /// One-line reproduction hint for harness assertion messages: the seed
    /// and the full configuration, enough to regenerate this exact scenario.
    pub fn repro(&self) -> String {
        format!(
            "seed {} (rerun: TTW_TEST_SEEDS=1 TTW_TEST_SEED_START={} cargo test --test differential) config {:?}",
            self.seed, self.seed, self.config
        )
    }
}

/// Generates the scenario determined by `(config, seed)`.
///
/// Determinism contract: equal inputs produce byte-identical systems and
/// graphs (entity creation order, names, ids, durations and edges all derive
/// from one SplitMix64 stream seeded with `seed`).
///
/// # Panics
///
/// Panics if `config` is self-inconsistent (see the field invariants on
/// [`GeneratorConfig`]); generated entities themselves always satisfy the
/// system-model rules.
pub fn generate(config: &GeneratorConfig, seed: u64) -> Scenario {
    config.check();
    let mut rng = SplitMix64::new(seed);
    let mut system = System::new();
    for n in 0..config.num_nodes {
        system
            .add_node(format!("node{n}"))
            .expect("generated node names are unique");
    }

    // The switch topology is drawn first: the handoff applications below
    // follow its edges, which is what chains the inheritance plan along the
    // graph.
    let edge_list = config.shape.edges(config.num_modes, &mut rng);
    let parents_of = |mode: usize| -> Vec<usize> {
        edge_list
            .iter()
            .filter(|&&(_, to)| to == mode)
            .map(|&(from, _)| from)
            .collect()
    };

    // Global shared application (the "control loop that runs everywhere").
    let global: Option<AppId> = (config.shared_app_fraction > 0.0)
        .then(|| generate_app(&mut system, &mut rng, config, "shared"));

    let mut local_apps: Vec<AppId> = Vec::with_capacity(config.num_modes);
    let mut mode_ids: Vec<ModeId> = Vec::with_capacity(config.num_modes);
    for m in 0..config.num_modes {
        let mut apps: Vec<AppId> = Vec::new();
        if let Some(g) = global {
            // The root always carries the global app (so it owns it); later
            // modes join with the configured probability.
            if m == 0 || rng.next_f64() < config.shared_app_fraction {
                apps.push(g);
            }
        }
        if m > 0 {
            // Handoff: keep one parent's local application running across the
            // switch into this mode.
            let parents = parents_of(m);
            let parent = parents[rng.next_u64() as usize % parents.len()];
            let handoff = local_apps[parent];
            if !apps.contains(&handoff) {
                apps.push(handoff);
            }
        }
        let local = generate_app(&mut system, &mut rng, config, &format!("m{m}local"));
        local_apps.push(local);
        apps.push(local);
        let mut extra = 0usize;
        while apps.len() < config.apps_per_mode {
            apps.push(generate_app(
                &mut system,
                &mut rng,
                config,
                &format!("m{m}priv{extra}"),
            ));
            extra += 1;
        }
        mode_ids.push(
            system
                .add_mode(format!("mode{m}"), &apps)
                .expect("generated modes are valid"),
        );
    }

    let mut graph = ModeGraph::new(&system);
    for &(from, to) in &edge_list {
        graph
            .add_edge(mode_ids[from], mode_ids[to])
            .expect("generated edges reference generated modes");
    }

    Scenario {
        system,
        graph,
        config: config.clone(),
        seed,
    }
}

/// Generates one linear-chain application `t0 → m0 → t1 → …` with randomized
/// node mapping, WCETs and period, and adds it to the system.
fn generate_app(
    system: &mut System,
    rng: &mut SplitMix64,
    config: &GeneratorConfig,
    name: &str,
) -> AppId {
    let (t_lo, t_hi) = config.tasks_per_app;
    let num_tasks = t_lo + (rng.next_u64() as usize % (t_hi - t_lo + 1));
    let period = config.period_choices_us[rng.next_u64() as usize % config.period_choices_us.len()];
    let deadline = ((period as f64 * config.deadline_factor).round() as Micros).clamp(1, period);
    let (w_lo, w_hi) = config.wcet_range_us;

    let mut spec = ApplicationSpec::new(name, period, deadline);
    for t in 0..num_tasks {
        let node = rng.next_u64() as usize % config.num_nodes;
        let wcet = w_lo + rng.next_u64() % (w_hi - w_lo + 1);
        spec = spec.with_task(format!("{name}.t{t}"), format!("node{node}"), wcet);
    }
    for t in 0..num_tasks - 1 {
        spec = spec.with_message(
            format!("{name}.msg{t}"),
            [format!("{name}.t{t}")],
            [format!("{name}.t{}", t + 1)],
        );
    }
    system
        .add_application(&spec)
        .expect("generated applications obey the system-model rules")
}

/// Families of runtime faults the fault-plan generator can produce.
///
/// Each kind exercises one failure mode of the deployed network; `Compound`
/// mixes them all, which is the adversarial end of the fault matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Correlated (Gilbert–Elliott) loss on every link.
    BurstLoss,
    /// A timed network partition that isolates a node group and heals.
    Partition,
    /// Exaggerated clock drift/offset on one or two nodes.
    ClockDrift,
    /// A host crash/restart window.
    HostCrash,
    /// Random bit-corruption of received beacons.
    BeaconCorruption,
    /// All of the above at once.
    Compound,
}

impl FaultKind {
    /// Every fault kind, in a fixed order for sweeps.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::BurstLoss,
        FaultKind::Partition,
        FaultKind::ClockDrift,
        FaultKind::HostCrash,
        FaultKind::BeaconCorruption,
        FaultKind::Compound,
    ];

    /// Stable lowercase name (for bench JSON keys and repro strings).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::BurstLoss => "burst_loss",
            FaultKind::Partition => "partition",
            FaultKind::ClockDrift => "clock_drift",
            FaultKind::HostCrash => "host_crash",
            FaultKind::BeaconCorruption => "beacon_corruption",
            FaultKind::Compound => "compound",
        }
    }

    fn index(&self) -> u64 {
        FaultKind::ALL.iter().position(|k| k == self).unwrap_or(0) as u64
    }
}

/// Generates a seeded [`FaultPlan`] of the given kind for a system with
/// `num_nodes` nodes, scaled to a run of roughly `horizon_rounds` executed
/// rounds.
///
/// Deterministic: the same `(kind, num_nodes, horizon_rounds, seed)` always
/// produces the same plan, and different kinds derive decorrelated streams
/// from the same seed. All generated plans pass
/// [`FaultPlan::validate`] for the given `num_nodes`.
pub fn generate_fault_plan(
    kind: FaultKind,
    num_nodes: usize,
    horizon_rounds: usize,
    seed: u64,
) -> FaultPlan {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(kind.index()));
    let mut plan = FaultPlan {
        seed: rng.next_u64(),
        ..FaultPlan::none()
    };
    let horizon = horizon_rounds.max(4);

    if matches!(kind, FaultKind::BurstLoss | FaultKind::Compound) {
        plan.burst = Some(GilbertElliott {
            p_good_to_bad: 0.05 + 0.25 * rng.next_f64(),
            p_bad_to_good: 0.2 + 0.4 * rng.next_f64(),
            loss_good: 0.05 * rng.next_f64(),
            loss_bad: 0.6 + 0.35 * rng.next_f64(),
        });
    }
    if matches!(kind, FaultKind::Partition | FaultKind::Compound) && num_nodes >= 2 {
        let windows = 1 + (rng.next_u64() as usize % 2);
        for _ in 0..windows {
            let from_round = rng.next_u64() as usize % (horizon / 2);
            let length = 2 + rng.next_u64() as usize % (horizon / 2).max(2);
            // Isolate a random non-empty strict subset of the nodes.
            let island_size = 1 + rng.next_u64() as usize % (num_nodes / 2).max(1);
            let mut island: Vec<usize> = Vec::new();
            while island.len() < island_size {
                let node = rng.next_u64() as usize % num_nodes;
                if !island.contains(&node) {
                    island.push(node);
                }
            }
            island.sort_unstable();
            plan.partitions.push(PartitionWindow {
                from_round,
                until_round: from_round + length,
                islands: vec![island],
            });
        }
    }
    if matches!(kind, FaultKind::ClockDrift | FaultKind::Compound) {
        let faulted = 1 + (rng.next_u64() as usize % 2).min(num_nodes.saturating_sub(1));
        for _ in 0..faulted {
            let node = rng.next_u64() as usize % num_nodes;
            if plan.clock_faults.iter().any(|f| f.node == node) {
                continue;
            }
            // Half the faults are step offsets past the tolerance (deaf from
            // round 0 until a rejoin resyncs them), half pure exaggerated
            // drift that bites once beacons stop arriving for a while.
            if rng.next_u64() % 2 == 0 {
                plan.clock_faults.push(ClockFault {
                    node,
                    ppm: 200.0 + 800.0 * rng.next_f64(),
                    offset_us: plan.clock_tolerance_us * (1.5 + rng.next_f64()),
                });
            } else {
                plan.clock_faults.push(ClockFault {
                    node,
                    ppm: 2_000.0 + 4_000.0 * rng.next_f64(),
                    offset_us: 0.0,
                });
            }
        }
    }
    if matches!(kind, FaultKind::HostCrash | FaultKind::Compound) {
        let from_round = 1 + rng.next_u64() as usize % (horizon / 2).max(1);
        let length = 2 + rng.next_u64() as usize % (horizon / 4).max(2);
        plan.host_crashes.push(CrashWindow {
            from_round,
            until_round: from_round + length,
        });
    }
    if matches!(kind, FaultKind::BeaconCorruption | FaultKind::Compound) {
        plan.beacon_corruption = Some(BeaconCorruption {
            probability: 0.05 + 0.2 * rng.next_f64(),
            forced: Vec::new(),
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use ttw_core::synthesis::{synthesize_system, IlpSynthesizer};
    use ttw_core::validate::validate_system_schedule;

    #[test]
    fn equal_seeds_generate_identical_scenarios() {
        for shape in GraphShape::ALL {
            let config = GeneratorConfig::small(4, shape);
            let a = generate(&config, 7);
            let b = generate(&config, 7);
            assert_eq!(a.system, b.system);
            assert_eq!(a.graph, b.graph);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let config = GeneratorConfig::small(3, GraphShape::Chain);
        let a = generate(&config, 1);
        let b = generate(&config, 2);
        assert!(a.system != b.system || a.graph != b.graph);
    }

    #[test]
    fn modes_meet_the_apps_per_mode_target() {
        let config = GeneratorConfig::small(5, GraphShape::RandomDag);
        let scenario = generate(&config, 11);
        for (_, mode) in scenario.system.modes() {
            assert!(mode.applications.len() >= config.apps_per_mode);
        }
    }

    #[test]
    fn infeasible_family_is_certified_in_every_mode() {
        for kind in InfeasibleKind::ALL {
            for seed in 0..4 {
                let config = GeneratorConfig::infeasible(3, GraphShape::ALL[seed % 4], kind);
                let scenario = generate(&config, seed as u64);
                let scheduler = scenario.scheduler_config();
                for mode in scenario.modes() {
                    let certs = ttw_core::feasibility::mode_certificates(
                        &scenario.system,
                        mode,
                        &scheduler,
                    );
                    assert!(
                        !certs.is_empty(),
                        "{} mode {mode} not certified; {}",
                        kind.name(),
                        scenario.repro()
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_kinds_produce_their_advertised_certificates() {
        let expectations = [
            (InfeasibleKind::OverUtilized, "node-over-utilized"),
            (InfeasibleKind::ImpossibleDeadline, "deadline-unattainable"),
            (
                InfeasibleKind::OverCapacityRounds,
                "round-capacity-exceeded",
            ),
        ];
        for (kind, code) in expectations {
            let config = GeneratorConfig::infeasible(2, GraphShape::Chain, kind);
            let scenario = generate(&config, 42);
            let scheduler = scenario.scheduler_config();
            let mode = scenario.modes()[0];
            let certs =
                ttw_core::feasibility::mode_certificates(&scenario.system, mode, &scheduler);
            assert!(
                certs.iter().any(|c| c.code() == code),
                "{} lacks `{code}`: {certs:?}; {}",
                kind.name(),
                scenario.repro()
            );
        }
    }

    /// Per mode index, the indexes of the modes it inherits from.
    fn donors(scenario: &Scenario) -> Vec<BTreeSet<usize>> {
        let plan = scenario.graph.inheritance_plan(&scenario.system);
        let donors_of = |mode| plan[&mode].values().map(|donor| donor.index()).collect();
        scenario.modes().into_iter().map(donors_of).collect()
    }

    #[test]
    fn chain_shape_hands_each_mode_to_the_next() {
        let config = GeneratorConfig::small(5, GraphShape::Chain);
        let donors = donors(&generate(&config, 3));
        assert!(donors[0].is_empty(), "the root inherits nothing");
        for (k, donors) in donors.iter().enumerate().skip(1) {
            assert!(donors.contains(&(k - 1)), "M{k} inherits from M{}", k - 1);
            assert!(donors.iter().all(|&d| d < k), "M{k} inherits {donors:?}");
        }
    }

    #[test]
    fn diamond_shape_middle_modes_inherit_only_from_the_root() {
        let config = GeneratorConfig::small(6, GraphShape::Diamond);
        let donors = donors(&generate(&config, 3));
        for (mid, donors) in donors.iter().enumerate().take(5).skip(1) {
            assert_eq!(donors, &BTreeSet::from([0]), "M{mid} inherits {donors:?}");
        }
        assert!(
            donors[5].iter().any(|d| (1..5).contains(d)),
            "the sink inherits from a middle mode: {:?}",
            donors[5]
        );
    }

    #[test]
    fn layered_shape_inherits_only_from_earlier_layers() {
        // Layers {M0}, {M1, M2}, {M3, M4}, {M5, M6}.
        let config = GeneratorConfig::small(7, GraphShape::LayeredDag { width: 2 });
        let layer = |mode: usize| mode.div_ceil(2);
        for (mode, donors) in donors(&generate(&config, 9)).iter().enumerate().skip(1) {
            assert!(
                donors.iter().any(|&d| layer(d) + 1 == layer(mode)),
                "M{mode} inherits from the previous layer: {donors:?}"
            );
            assert!(donors.iter().all(|&d| layer(d) < layer(mode)));
        }
    }

    #[test]
    fn random_dag_is_rooted_and_acyclic() {
        for seed in 0..8 {
            let config = GeneratorConfig::small(6, GraphShape::RandomDag);
            let scenario = generate(&config, seed);
            assert!(
                scenario.graph.edges().all(|(from, to)| from < to),
                "edges only point forward (seed {seed})"
            );
            assert_eq!(
                scenario.graph.reachable().len(),
                6,
                "every mode is reachable from the root (seed {seed})"
            );
        }
    }

    #[test]
    fn single_rate_family_never_generates_multi_rate_modes() {
        let config = GeneratorConfig::small(4, GraphShape::Diamond);
        let scenario = generate(&config, 21);
        assert!(scenario.multi_rate_modes().is_empty());
    }

    #[test]
    fn multi_rate_family_generates_multi_rate_modes() {
        let config = GeneratorConfig::small(4, GraphShape::Chain).with_multi_rate();
        let found = (0..16).any(|seed| !generate(&config, seed).multi_rate_modes().is_empty());
        assert!(found, "mixed 50/100 ms periods must yield multi-rate modes");
    }

    #[test]
    fn generated_scenario_synthesizes_and_validates() {
        let config = GeneratorConfig::small(3, GraphShape::Chain);
        let scenario = generate(&config, 5);
        let schedule = synthesize_system(
            &scenario.system,
            &scenario.graph,
            &scenario.scheduler_config(),
            &IlpSynthesizer,
        )
        .expect("small single-rate scenarios are feasible");
        let violations =
            validate_system_schedule(&scenario.system, &scenario.scheduler_config(), &schedule);
        assert!(violations.is_empty(), "validator found: {violations:?}");
    }

    #[test]
    fn repro_hint_names_the_seed() {
        let scenario = generate(&GeneratorConfig::small(2, GraphShape::Chain), 1234);
        let hint = scenario.repro();
        assert!(hint.contains("1234"));
        assert!(hint.contains("GeneratorConfig"));
    }

    #[test]
    #[should_panic(expected = "wcet_range_us")]
    fn inconsistent_config_panics_with_a_message() {
        let mut config = GeneratorConfig::small(2, GraphShape::Chain);
        config.wcet_range_us = (10, 5);
        generate(&config, 0);
    }

    #[test]
    fn fault_plans_are_deterministic_and_valid() {
        for kind in FaultKind::ALL {
            for seed in 0..20 {
                let plan = generate_fault_plan(kind, 5, 16, seed);
                assert_eq!(
                    plan,
                    generate_fault_plan(kind, 5, 16, seed),
                    "same inputs, same plan ({}, seed {seed})",
                    kind.name()
                );
                plan.validate(5).unwrap_or_else(|reason| {
                    panic!(
                        "generated plan invalid ({}, seed {seed}): {reason}",
                        kind.name()
                    )
                });
                assert!(
                    !plan.is_vacuous(),
                    "generated plans must inject something ({}, seed {seed})",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn fault_kinds_fill_only_their_facet() {
        let burst = generate_fault_plan(FaultKind::BurstLoss, 4, 12, 3);
        assert!(burst.burst.is_some());
        assert!(burst.partitions.is_empty() && burst.host_crashes.is_empty());
        assert!(burst.clock_faults.is_empty() && burst.beacon_corruption.is_none());

        let partition = generate_fault_plan(FaultKind::Partition, 4, 12, 3);
        assert!(!partition.partitions.is_empty());
        assert!(partition.burst.is_none());

        let drift = generate_fault_plan(FaultKind::ClockDrift, 4, 12, 3);
        assert!(!drift.clock_faults.is_empty());

        let crash = generate_fault_plan(FaultKind::HostCrash, 4, 12, 3);
        assert!(!crash.host_crashes.is_empty());

        let corruption = generate_fault_plan(FaultKind::BeaconCorruption, 4, 12, 3);
        assert!(corruption.beacon_corruption.is_some());

        let compound = generate_fault_plan(FaultKind::Compound, 4, 12, 3);
        assert!(compound.burst.is_some() && compound.beacon_corruption.is_some());
        assert!(!compound.partitions.is_empty() && !compound.host_crashes.is_empty());
        assert!(!compound.clock_faults.is_empty());
    }

    #[test]
    fn different_kinds_decorrelate_from_the_same_seed() {
        let a = generate_fault_plan(FaultKind::BurstLoss, 4, 12, 9);
        let b = generate_fault_plan(FaultKind::Compound, 4, 12, 9);
        assert_ne!(
            a.burst, b.burst,
            "kind index must perturb the generator stream"
        );
    }

    #[test]
    fn single_node_systems_get_degenerate_but_valid_plans() {
        for kind in FaultKind::ALL {
            let plan = generate_fault_plan(kind, 1, 8, 0);
            assert!(plan.validate(1).is_ok(), "kind {}", kind.name());
            assert!(
                plan.partitions.is_empty(),
                "one node cannot be partitioned from itself"
            );
        }
    }
}
