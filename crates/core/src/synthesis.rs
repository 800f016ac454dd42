//! Schedule synthesis driver — Algorithm 1 of the paper, lifted to the mode
//! graph (Sec. V).
//!
//! Single-mode synthesis works as before: the number of communication rounds
//! `R_M` is not known in advance, so the driver formulates the ILP for
//! `R_M = ⌈message instances / slots per round⌉, …, R_max` (fewer rounds
//! cannot carry every message instance) and returns the first feasible
//! schedule, which is therefore optimal in the number of rounds; the latency
//! objective of each ILP then makes that schedule latency-optimal among all
//! schedules using `R_M` rounds. The sweep is *incremental*: one ILP instance is built and
//! grown round by round ([`crate::ilp::IlpInstance::add_round`]) instead of
//! being rebuilt per attempt. A re-synthesis may start the sweep higher, at a
//! round count below which every count is already proven infeasible
//! ([`ModePrior::floor`]; see [`crate::resynth`]).
//!
//! Multi-mode synthesis ([`synthesize_system`]) walks a [`ModeGraph`] in
//! [`ModeGraph::synthesis_order`], on the calling thread, and applies
//! *minimal inheritance*: every application already scheduled in an earlier
//! mode has its task and message offsets pinned when later modes are
//! synthesized, so all modes sharing an application agree on its timing — the
//! switch-consistency property the runtime's two-phase mode change relies on.
//! One private driver does that walk for every system-level entry point, cached
//! ([`crate::cache::synthesize_system_cached`]) and incremental
//! ([`crate::resynth::resynthesize_system`]) ones included, and is the only
//! place a mode is ever solved.
//!
//! Each mode is solved through the [`Synthesizer`] trait, whose one
//! implementation is the exact ILP sweep ([`IlpSynthesizer`]).

use crate::cache::SynthesisArtifacts;
use crate::config::SchedulerConfig;
use crate::error::ScheduleError;
use crate::feasibility;
use crate::ids::ModeId;
use crate::ilp;
use crate::modegraph::{InheritedOffsets, ModeGraph};
use crate::resynth::{mode_start, ModeStart, ResynthesisReport};
use crate::schedule::{ModeSchedule, SynthesisStats, SystemSchedule};
use crate::system::System;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A failed synthesis attempt, carrying the statistics of the work performed
/// before the failure (rounds attempted, B&B nodes, simplex pivots).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisFailure {
    /// Why the mode could not be scheduled.
    pub error: ScheduleError,
    /// The work performed before giving up.
    pub stats: SynthesisStats,
}

impl fmt::Display for SynthesisFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl Error for SynthesisFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

impl From<ScheduleError> for SynthesisFailure {
    fn from(error: ScheduleError) -> Self {
        SynthesisFailure {
            error,
            stats: SynthesisStats::default(),
        }
    }
}

/// MILP warm-start material captured from one mode's successful synthesis.
///
/// The root basis of the winning `R_M` attempt, together with the round
/// count it was taken at, is everything a later re-synthesis of a *similar*
/// mode needs to skip most of the simplex work: the basis is seeded into the
/// attempt at the same round count and the solver repairs feasibility from
/// there. A stale or shape-mismatched basis is degraded to a cold start by
/// the solver, never an error, so callers may cache these aggressively.
///
/// The basis is shared: a re-synthesis that keeps a mode keeps its basis by
/// reference, so a clone of a warm start copies no basis.
#[derive(Debug, Clone)]
pub struct ModeWarmStart {
    /// Round count (`R_M`) of the attempt the basis was captured at.
    pub rounds: usize,
    /// Root basis of that attempt's MILP solve.
    pub basis: Arc<ttw_milp::Basis>,
}

/// What a cached predecessor hands the solve of one mode (see
/// [`crate::resynth`]). The default is a solve from nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModePrior<'a> {
    /// A root basis to seed the attempt at `warm.rounds` rounds with.
    pub warm: Option<&'a ModeWarmStart>,
    /// Every round count below this one is proven infeasible for the mode,
    /// so the `R_M` sweep may start here.
    pub floor: usize,
}

/// One mode's solve: its schedule, the warm-start material it leaves for
/// the next re-synthesis, and whether the prior's basis reached the solver.
#[derive(Debug, Clone)]
pub struct SolvedMode {
    /// The mode's schedule.
    pub schedule: ModeSchedule,
    /// Root basis of the winning attempt, ready to be cached.
    pub warm: Option<ModeWarmStart>,
    /// Whether [`ModePrior::warm`] was installed into an attempt: the sweep
    /// arrived at its round count and its shape fit the model there.
    pub seeded: bool,
}

/// A per-mode schedule synthesis backend.
///
/// Implementations receive the offsets inherited from already-synthesized
/// modes and must honor them exactly.
pub trait Synthesizer {
    /// Human-readable backend name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Synthesizes the schedule of one mode under the given inherited
    /// offsets, consuming and producing MILP warm-start material.
    ///
    /// `prior.warm` seeds the attempt at the matching round count from a
    /// cached basis (a stale basis degrades to a cold start, never an error);
    /// `prior.floor` lets the `R_M` sweep skip counts already proven
    /// infeasible. The returned [`SolvedMode::warm`] is the root basis of
    /// the winning attempt, ready to be cached. Neither changes which optimum
    /// the deterministic tie-breaking selects: the schedule is **identical**
    /// with and without them.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisFailure`] wrapping the underlying
    /// [`ScheduleError`] together with the statistics of the attempted work.
    // The Err carries the full per-attempt counter block by design (partial
    // progress reporting); it crossed clippy's 128-byte threshold when the
    // presolve/pricing counters landed, and boxing it would push the
    // boilerplate onto every backend implementation for a cold error path.
    #[allow(clippy::result_large_err)]
    fn synthesize(
        &self,
        system: &System,
        mode: ModeId,
        config: &SchedulerConfig,
        inherited: &InheritedOffsets,
        prior: ModePrior<'_>,
    ) -> Result<SolvedMode, SynthesisFailure>;
}

/// Largest C3 block (`λ` binaries, [`feasibility::task_instance_pairs`]) and
/// largest first round count (`⌈message instances / B⌉`) of a mode whose ILP
/// [`IlpSynthesizer`] builds. A larger mode is refused with
/// [`ScheduleError::TooLarge`] before any allocation: two co-prime periods
/// near one second give a hyperperiod of 10¹² µs and a C3 block of 10¹²
/// binaries, which no certificate catches. The bound is on rounds too
/// because the C4.1/C4.2 rows of round `j` hold `j` allocation terms per
/// message, so the round block grows with the square of the round count.
pub const MAX_MODE_SIZE: u128 = 1_000;

/// The exact backend: Algorithm 1 over the ILP of Sec. IV, as one instance
/// grown round by round — the round-independent constraint blocks
/// (precedence, deadlines, the quadratic task non-overlap block) are built
/// once per mode, not once per `R_M` attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpSynthesizer;

impl Synthesizer for IlpSynthesizer {
    /// Part of every cache key: another name would move every key.
    fn name(&self) -> &'static str {
        "ilp-incremental"
    }

    /// The `R_M` sweep from `prior.floor` (or the slot bound, if higher),
    /// optionally seeding the attempt at `warm.rounds` rounds from a cached
    /// basis.
    fn synthesize(
        &self,
        system: &System,
        mode: ModeId,
        config: &SchedulerConfig,
        inherited: &InheritedOffsets,
        prior: ModePrior<'_>,
    ) -> Result<SolvedMode, SynthesisFailure> {
        config.validate()?;

        let r_max = feasibility::r_max_for_mode(system, mode, config);
        let mut stats = SynthesisStats::default();
        // Lower bound on the number of rounds: enough slots must exist for
        // every message instance of the hyperperiod. Starting there skips
        // ILPs that are trivially infeasible, without affecting optimality.
        let min_rounds =
            feasibility::message_instances(system, mode).div_ceil(config.slots_per_round);

        let infeasible = |stats: SynthesisStats| SynthesisFailure {
            error: ScheduleError::Infeasible {
                mode,
                max_rounds_tried: r_max,
                explanation: None,
            },
            stats,
        };
        if min_rounds > r_max {
            return Err(infeasible(stats));
        }
        let task_pairs = feasibility::task_instance_pairs(system, mode);
        if task_pairs > MAX_MODE_SIZE || min_rounds as u128 > MAX_MODE_SIZE {
            return Err(SynthesisFailure {
                error: ScheduleError::TooLarge {
                    mode,
                    task_pairs,
                    rounds: min_rounds,
                },
                stats,
            });
        }

        // Counts below the floor are not attempted, but the instance still
        // grows through them: it is built exactly as a sweep from the slot
        // bound would have built it.
        let mut current = ilp::build_ilp_inherited(system, mode, config, min_rounds, inherited)
            .map_err(SynthesisFailure::from)?;
        let mut seeded = false;

        for num_rounds in min_rounds.max(prior.floor)..=r_max {
            while current.num_rounds() < num_rounds {
                current.add_round(system, mode, config);
            }
            // Seed the cached predecessor basis into the attempt at its own
            // round count. The seed replaces the basis chained from smaller
            // attempts — it came from the optimum of a nearly identical model
            // of exactly this shape, which is the better starting point.
            if let Some(warm) = prior.warm.filter(|warm| warm.rounds == num_rounds) {
                seeded = current.seed_warm_basis(ttw_milp::Basis::clone(&warm.basis));
            }
            stats.rounds_attempted.push(num_rounds);
            stats.variables = current.model.num_vars();
            stats.constraints = current.model.num_constraints();
            let solution = match current.solve() {
                Ok(solution) => solution,
                Err(e) => {
                    return Err(SynthesisFailure {
                        error: ScheduleError::Solver(e),
                        stats,
                    })
                }
            };
            stats.solver.add_attempt(&solution.counters);
            if solution.is_optimal() {
                let artifact = current.root_basis().cloned().map(|basis| ModeWarmStart {
                    rounds: num_rounds,
                    basis: Arc::new(basis),
                });
                let schedule =
                    ilp::extract_schedule(system, mode, config, &current, &solution, stats);
                return Ok(SolvedMode {
                    schedule,
                    warm: artifact,
                    seeded,
                });
            }
        }

        Err(infeasible(stats))
    }
}

/// Synthesizes the schedule of one pin-free mode (Algorithm 1) with the
/// default exact backend, exactly as the system pipeline would: the
/// `AnalyzeFirst` gate first (when [`SchedulerConfig::analyze_first`] is
/// set), the `R_M` sweep second.
///
/// Tries `R_M = ⌈message instances / B⌉, …, R_max` rounds, where `B` is the
/// slot count of a round and `R_max = ⌊LCM / T_r⌋` (or the explicit cap from
/// the configuration), and returns the first feasible — hence round-minimal
/// — schedule.
///
/// # Errors
///
/// A [`SynthesisFailure`] whose `stats` carry the work of the failed attempt
/// (`analyze_fast_fails`, solver counters) and whose `error` is
///
/// * [`ScheduleError::Infeasible`] if no round count up to `R_max` admits a
///   feasible schedule — with the certificate as its explanation and zero
///   solver work when the gate certified it;
/// * [`ScheduleError::InvalidConfig`] if the configuration is malformed;
/// * [`ScheduleError::Solver`] if the MILP solver exhausts its budgets.
// Same unboxed-Err trade-off as `Synthesizer::synthesize`.
#[allow(clippy::result_large_err)]
pub fn synthesize_mode(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
) -> Result<ModeSchedule, SynthesisFailure> {
    let (backend, pins) = (IlpSynthesizer, InheritedOffsets::none());
    solve_mode(system, mode, config, &backend, &pins, ModePrior::default())
        .map(|solved| solved.schedule)
}

/// A multi-mode synthesis failure: which mode failed, why, and everything that
/// *was* synthesized before the failure.
///
/// The partial [`SystemSchedule`] keeps the schedules of every mode completed
/// earlier **and** the statistics of the failed attempt itself, so callers can
/// report partial progress instead of losing it.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSynthesisError {
    /// The mode whose synthesis failed.
    pub mode: ModeId,
    /// Why it failed.
    pub error: ScheduleError,
    /// Schedules and statistics accumulated before (and during) the failure.
    pub partial: SystemSchedule,
}

impl fmt::Display for SystemSynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "synthesis of mode {} failed after {} mode(s) succeeded: {}",
            self.mode,
            self.partial.num_modes(),
            self.error
        )
    }
}

impl Error for SystemSynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

/// Synthesizes every mode of the system over a mode graph with minimal
/// inheritance (paper Sec. V).
///
/// Modes are solved one after the other on the calling thread, in
/// [`ModeGraph::synthesis_order`]. The inheritance plan is first-wins along
/// that order, so every mode an heir inherits from is solved before the heir
/// pins its offsets, and the outcome is deterministic.
///
/// # Errors
///
/// Returns a boxed [`SystemSynthesisError`] carrying the partial
/// [`SystemSchedule`] if any mode cannot be scheduled: the first mode of the
/// synthesis order that fails. The partial result contains exactly the modes
/// ahead of it in that order (plus the failed mode's statistics).
pub fn synthesize_system(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
    backend: &dyn Synthesizer,
) -> Result<SystemSchedule, Box<SystemSynthesisError>> {
    synthesize_in_order(system, graph, config, backend, None).map(|(schedule, ..)| schedule)
}

/// The `AnalyzeFirst` gate: when enabled, converts a mode with a static
/// infeasibility certificate into an immediate failure — zero ILPs built,
/// zero branch-and-bound nodes — with the certificate as the explanation.
///
/// Every certificate of [`crate::feasibility`] is a *sound* necessary
/// condition and is independent of any inherited pins, so the gate can never
/// reject a mode any backend would have scheduled.
fn analyze_gate(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
) -> Option<SynthesisFailure> {
    if !config.analyze_first {
        return None;
    }
    let certificate = feasibility::certify_mode_infeasible(system, mode, config)?;
    Some(SynthesisFailure {
        error: ScheduleError::Infeasible {
            mode,
            max_rounds_tried: feasibility::r_max_for_mode(system, mode, config),
            explanation: Some(certificate.to_string()),
        },
        stats: SynthesisStats {
            analyze_fast_fails: 1,
            ..SynthesisStats::default()
        },
    })
}

/// The one place a mode is solved: gate, then backend (started from what a
/// cached predecessor offers for the mode).
// Same unboxed-Err trade-off as `Synthesizer::synthesize`.
#[allow(clippy::result_large_err)]
fn solve_mode(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
    backend: &dyn Synthesizer,
    inherited: &InheritedOffsets,
    prior: ModePrior<'_>,
) -> Result<SolvedMode, SynthesisFailure> {
    match analyze_gate(system, mode, config) {
        Some(failure) => Err(failure),
        None => backend.synthesize(system, mode, config, inherited, prior),
    }
}

/// The driver behind every system-level entry point: walks the mode graph in
/// [`ModeGraph::synthesis_order`], pins the inherited offsets, and per mode
/// either keeps the `predecessor`'s schedule or solves it through
/// [`solve_mode`] (see [`crate::resynth::mode_start`]), one mode after the
/// other on the calling thread. A kept mode shares the predecessor's schedule
/// and basis, copying neither. Returns the schedule, each mode's warm-start
/// material and what was reused against what was solved.
pub(crate) fn synthesize_in_order(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
    backend: &dyn Synthesizer,
    predecessor: Option<(&SystemSchedule, &SynthesisArtifacts)>,
) -> Result<
    (
        SystemSchedule,
        BTreeMap<ModeId, ModeWarmStart>,
        ResynthesisReport,
    ),
    Box<SystemSynthesisError>,
> {
    // The single door of every system-level entry point: a graph over other
    // modes than the system's would index past them, or size a table by a
    // count nobody checked.
    graph
        .check_covers(system)
        .map_err(|error| SystemSynthesisError {
            mode: graph.root(),
            error: error.into(),
            partial: SystemSchedule::new(),
        })?;
    let mut plan = graph.inheritance_plan(system);
    let mut result = SystemSchedule::new();
    let mut artifacts = BTreeMap::new();
    let mut report = ResynthesisReport {
        predecessor_found: predecessor.is_some(),
        ..ResynthesisReport::default()
    };

    // The plan is first-wins along the synthesis order, so every donor's
    // schedule is merged before an heir pins it, and the first failure leaves
    // exactly the modes ahead of it in `partial`.
    for mode in graph.synthesis_order() {
        let sources = plan.remove(&mode).unwrap_or_default();
        let mut inherited = InheritedOffsets::none();
        for (&app, &source) in &sources {
            if let Some(donor) = result.get(source) {
                inherited.import_application(system, app, donor);
            }
        }
        // The predecessor's root basis of the mode is kept by reference with
        // a reused schedule and is the warm start of a re-solve.
        let warm = predecessor.and_then(|(_, artifacts)| artifacts.warm.get(&mode));
        let start = predecessor.map_or(ModeStart::Solve { floor: 0 }, |(schedule, artifacts)| {
            mode_start(system, mode, &sources, &inherited, artifacts, schedule)
        });
        let (schedule, warm) = match start {
            ModeStart::Reuse(schedule) => {
                report.modes_reused += 1;
                (Arc::clone(schedule), warm.cloned())
            }
            ModeStart::Solve { floor } => {
                let prior = ModePrior { warm, floor };
                let solved = match solve_mode(system, mode, config, backend, &inherited, prior) {
                    Ok(solved) => solved,
                    Err(failure) => {
                        result.stats.insert(mode, failure.stats);
                        return Err(Box::new(SystemSynthesisError {
                            mode,
                            error: failure.error,
                            partial: result,
                        }));
                    }
                };
                report.modes_resolved += 1;
                report.warm_started_modes += usize::from(solved.seeded);
                report.solved_milp_nodes += solved.schedule.stats.nodes_explored;
                report.solved_simplex_iterations += solved.schedule.stats.simplex_iterations;
                (Arc::new(solved.schedule), solved.warm)
            }
        };
        result.stats.insert(mode, schedule.stats.clone());
        result.inheritance.insert(mode, sources);
        result.schedules.insert(mode, schedule);
        if let Some(artifact) = warm {
            artifacts.insert(mode, artifact);
        }
    }
    Ok((result, artifacts, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::time::millis;
    use crate::validate::{validate_schedule, validate_system_schedule};

    fn config() -> SchedulerConfig {
        SchedulerConfig::new(millis(10), 5)
    }

    #[test]
    fn fig3_needs_exactly_two_rounds() {
        let (sys, mode) = fixtures::fig3_system();
        let schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        assert_eq!(
            schedule.num_rounds(),
            2,
            "Fig. 3 needs two rounds (m1, m2 | m3)"
        );
        assert!(schedule.stats.rounds_attempted.contains(&2));
        // The sweep starts where the slots can first carry every instance.
        let instances = feasibility::message_instances(&sys, mode);
        assert_eq!(
            schedule.stats.rounds_attempted[0],
            instances.div_ceil(config().slots_per_round)
        );
        let violations = validate_schedule(&sys, mode, &config(), &schedule);
        assert!(violations.is_empty(), "validator found: {violations:?}");
    }

    /// A graph built over another system used to index past this system's
    /// modes inside `inheritance_plan`; every driver entry point now refuses
    /// the pair before walking it.
    #[test]
    fn mode_graph_over_another_system_is_refused_at_the_door() {
        let (sys, _, _, _) = fixtures::two_mode_graph();
        let (_, diamond, _) = fixtures::four_mode_diamond();
        let expected = ScheduleError::Model(crate::error::ModelError::ModeCountMismatch {
            graph: 4,
            system: 2,
        });
        let backend = IlpSynthesizer;
        let error = synthesize_system(&sys, &diamond, &config(), &backend).expect_err("mismatch");
        assert_eq!(error.error, expected);
        assert!(error.partial.stats.is_empty(), "nothing was attempted");
        let cache = crate::cache::ScheduleCache::in_memory();
        let cached =
            crate::cache::synthesize_system_cached(&sys, &diamond, &config(), &backend, &cache);
        assert_eq!(cached.expect_err("mismatch").error, expected);
        let resynthesized =
            crate::resynth::resynthesize_system(&sys, &diamond, &config(), &backend, &cache, "k");
        assert_eq!(resynthesized.expect_err("mismatch").error, expected);
    }

    #[test]
    fn fig3_latency_respects_lower_bound() {
        // Eq. 13: latency ≥ Σ WCET + (#messages)·T_r along the longest chain.
        let (sys, mode) = fixtures::fig3_system();
        let schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        let app = sys.application_id("ctrl").expect("app exists");
        let achieved = schedule.app_latencies[&app];
        let bound = crate::analysis::min_latency_bound(&sys, app, millis(10)) as f64;
        assert!(
            achieved + 1e-6 >= bound,
            "achieved {achieved} must respect the Eq. 13 bound {bound}"
        );
        // The optimizer should get reasonably close to the bound for this
        // small instance (within one round length).
        assert!(achieved <= bound + millis(10) as f64 + 1e-6);
    }

    #[test]
    fn tasks_only_mode_needs_zero_rounds() {
        let (sys, mode) = fixtures::synthetic_mode(2, 1, 2, millis(50));
        let schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        assert_eq!(schedule.num_rounds(), 0);
        assert_eq!(schedule.total_slots_used(), 0);
    }

    #[test]
    fn infeasible_when_rounds_do_not_fit() {
        // Period 5 ms with 10 ms rounds: R_max = 0 but messages exist.
        let (sys, mode) = fixtures::synthetic_mode(1, 2, 2, millis(5));
        let err = synthesize_mode(&sys, mode, &config()).unwrap_err();
        assert!(matches!(err.error, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn analyze_gate_fast_fails_certified_modes_with_an_explanation() {
        // Period 5 ms with 10 ms rounds: R_max = 0 but messages exist — the
        // static round-capacity certificate fires before any ILP is built.
        let (sys, mode) = fixtures::synthetic_mode(1, 2, 2, millis(5));
        let graph = ModeGraph::complete(&sys);
        let err = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer)
            .expect_err("certified infeasible");
        match &err.error {
            ScheduleError::Infeasible { explanation, .. } => {
                let text = explanation.as_deref().expect("gate attaches a certificate");
                assert!(text.contains("R_max"), "certificate lacks numbers: {text}");
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        // The gate did all the work: no ILP, no branch-and-bound.
        let stats = &err.partial.stats[&mode];
        assert_eq!(stats.analyze_fast_fails, 1);
        assert_eq!(stats.nodes_explored, 0);
        assert!(stats.rounds_attempted.is_empty());
        assert_eq!(err.partial.totals().analyze_fast_fails, 1);
    }

    #[test]
    fn analyze_gate_off_reaches_the_same_verdict_without_a_certificate() {
        let (sys, mode) = fixtures::synthetic_mode(1, 2, 2, millis(5));
        let graph = ModeGraph::complete(&sys);
        let config = config().with_analyze_first(false);
        let err = synthesize_system(&sys, &graph, &config, &IlpSynthesizer)
            .expect_err("still infeasible");
        assert!(matches!(
            err.error,
            ScheduleError::Infeasible {
                explanation: None,
                ..
            }
        ));
        assert_eq!(err.partial.stats[&mode].analyze_fast_fails, 0);
    }

    #[test]
    fn analyze_gate_is_invisible_on_feasible_systems() {
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let on = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer).expect("feasible");
        let off = synthesize_system(
            &sys,
            &graph,
            &config().with_analyze_first(false),
            &IlpSynthesizer,
        )
        .expect("feasible");
        assert_eq!(on, off);
        assert_eq!(on.totals().analyze_fast_fails, 0);
    }

    #[test]
    fn pipeline_mode_schedules_and_validates() {
        let (sys, mode) = fixtures::synthetic_mode(2, 3, 3, millis(100));
        let schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        assert!(schedule.num_rounds() >= 1);
        let violations = validate_schedule(&sys, mode, &config(), &schedule);
        assert!(violations.is_empty(), "validator found: {violations:?}");
    }

    #[test]
    fn complete_graph_synthesis_covers_every_mode() {
        let (sys, normal, emergency) = fixtures::two_mode_system();
        let graph = ModeGraph::complete(&sys);
        let result = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer)
            .expect("both modes feasible");
        assert_eq!(result.num_modes(), 2);
        assert!(result.get(normal).is_some());
        assert!(result.get(emergency).is_some());
        assert_eq!(
            result.get(normal).expect("scheduled").hyperperiod,
            millis(100)
        );
        assert_eq!(
            result.get(emergency).expect("scheduled").hyperperiod,
            millis(100)
        );
        // Stats were recorded for both modes.
        assert_eq!(result.stats.len(), 2);
        assert!(result.totals().nodes_explored > 0);
    }

    #[test]
    fn inherited_synthesis_makes_shared_apps_switch_consistent() {
        let (sys, graph, normal, emergency) = fixtures::two_mode_graph();
        let result = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer)
            .expect("both modes feasible");

        // The shared control application keeps its exact offsets across modes.
        let ctrl = sys.application_id("ctrl").expect("app exists");
        let normal_sched = result.get(normal).expect("scheduled");
        let emergency_sched = result.get(emergency).expect("scheduled");
        for &t in &sys.application(ctrl).tasks {
            assert!(
                (normal_sched.task_offsets[&t] - emergency_sched.task_offsets[&t]).abs() < 1e-6,
                "task {t} offset differs across modes"
            );
        }
        for &m in &sys.application(ctrl).messages {
            assert!(
                (normal_sched.message_offsets[&m] - emergency_sched.message_offsets[&m]).abs()
                    < 1e-6
            );
            assert!(
                (normal_sched.message_deadlines[&m] - emergency_sched.message_deadlines[&m]).abs()
                    < 1e-6
            );
        }

        // Inheritance metadata records where the offsets came from.
        assert_eq!(result.inherited_source(emergency, ctrl), Some(normal));
        assert_eq!(result.inherited_source(normal, ctrl), None);

        // Both per-mode schedules and the cross-mode property validate.
        let violations = validate_system_schedule(&sys, &config(), &result);
        assert!(violations.is_empty(), "validator found: {violations:?}");
    }

    #[test]
    fn diamond_mode_graph_synthesizes_switch_consistently() {
        // boot → normal → {emergency, maintenance}: boot pins the shared
        // control application for the other three modes. The result must be
        // deterministic and switch-consistent.
        let (sys, graph, [boot, normal, emergency, maintenance]) = fixtures::four_mode_diamond();
        let result = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer)
            .expect("all four modes feasible");
        assert_eq!(result.num_modes(), 4);
        let ctrl = sys.application_id("ctrl").expect("app exists");
        assert_eq!(result.inherited_source(boot, ctrl), None);
        for mode in [normal, emergency, maintenance] {
            assert_eq!(result.inherited_source(mode, ctrl), Some(boot));
        }
        let violations = validate_system_schedule(&sys, &config(), &result);
        assert!(violations.is_empty(), "validator found: {violations:?}");

        // Running it again produces the identical schedules.
        let again = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer)
            .expect("all four modes feasible");
        for (mode, schedule) in result.iter() {
            let other = again.get(mode).expect("same modes");
            assert_eq!(schedule.task_offsets, other.task_offsets);
            assert_eq!(schedule.message_offsets, other.message_offsets);
        }
    }

    #[test]
    fn failed_mode_keeps_partial_progress_and_stats() {
        // Mode 0 is schedulable; mode 1 has a 5 ms period that cannot fit a
        // single 10 ms round, so it fails — but mode 0's schedule and both
        // modes' stats must survive in the partial result.
        let mut sys = System::new();
        sys.add_node("a").expect("node");
        sys.add_node("b").expect("node");
        let ok = sys
            .add_application(
                &crate::spec::ApplicationSpec::new("ok", millis(100), millis(100))
                    .with_task("ok.t0", "a", millis(1))
                    .with_task("ok.t1", "b", millis(1))
                    .with_message("ok.m", ["ok.t0"], ["ok.t1"]),
            )
            .expect("valid app");
        let bad = sys
            .add_application(
                &crate::spec::ApplicationSpec::new("bad", millis(5), millis(5))
                    .with_task("bad.t0", "a", millis(1))
                    .with_task("bad.t1", "b", millis(1))
                    .with_message("bad.m", ["bad.t0"], ["bad.t1"]),
            )
            .expect("valid app");
        let m0 = sys.add_mode("first", &[ok]).expect("valid mode");
        let m1 = sys.add_mode("second", &[bad]).expect("valid mode");

        let graph = ModeGraph::complete(&sys);
        let err = *synthesize_system(&sys, &graph, &config(), &IlpSynthesizer)
            .expect_err("second mode infeasible");
        assert_eq!(err.mode, m1);
        assert!(matches!(err.error, ScheduleError::Infeasible { .. }));
        // Partial progress: the first mode's schedule and stats survive.
        assert!(err.partial.get(m0).is_some());
        assert!(err.partial.stats.contains_key(&m0));
        assert!(
            err.partial.stats.contains_key(&m1),
            "the failed mode's attempted work is reported too"
        );
    }

    /// A system of two applications with co-prime periods near one second
    /// (`H` ≈ 10¹² µs): `same_node` puts their tasks on one node, which makes
    /// the C3 block ≈ 10¹² binaries; otherwise the first app sends
    /// `H / 999,983` ≈ 10⁶ message instances between two other nodes.
    fn coprime_periods_mode(same_node: bool) -> (System, ModeId) {
        use crate::spec::ApplicationSpec;
        let mut sys = System::new();
        for node in ["a", "b", "c"] {
            sys.add_node(node).expect("node");
        }
        let mut first =
            ApplicationSpec::new("first", 999_983, 999_983).with_task("first.t0", "a", 10);
        if !same_node {
            first = first.with_task("first.t1", "b", 10).with_message(
                "first.m",
                ["first.t0"],
                ["first.t1"],
            );
        }
        let second_node = if same_node { "a" } else { "c" };
        let second = ApplicationSpec::new("second", 1_000_003, 1_000_003).with_task(
            "second.t0",
            second_node,
            10,
        );
        let apps = [first, second].map(|spec| sys.add_application(&spec).expect("valid app"));
        let mode = sys.add_mode("m", &apps).expect("valid mode");
        (sys, mode)
    }

    #[test]
    fn an_oversized_c3_block_is_refused_before_the_ilp_is_built() {
        let (sys, mode) = coprime_periods_mode(true);
        assert!(feasibility::certify_mode_infeasible(&sys, mode, &config()).is_none());
        let failure = synthesize_mode(&sys, mode, &config()).expect_err("refused");
        let ScheduleError::TooLarge {
            task_pairs, rounds, ..
        } = failure.error
        else {
            panic!("expected TooLarge, got {:?}", failure.error);
        };
        assert_eq!(task_pairs, 999_983 * 1_000_003);
        assert_eq!(rounds, 0);
        assert!(task_pairs > MAX_MODE_SIZE);
        // Refused before any model was allocated.
        assert_eq!(failure.stats, SynthesisStats::default());
    }

    #[test]
    fn an_oversized_first_round_count_is_refused_before_the_ilp_is_built() {
        let (sys, mode) = coprime_periods_mode(false);
        let config = SchedulerConfig::new(millis(10), 1);
        assert!(feasibility::certify_mode_infeasible(&sys, mode, &config).is_none());
        let failure = synthesize_mode(&sys, mode, &config).expect_err("refused");
        assert_eq!(
            failure.error,
            ScheduleError::TooLarge {
                mode,
                task_pairs: 0,
                rounds: 1_000_003,
            }
        );
        assert!(
            failure.error.to_string().contains("too large"),
            "{}",
            failure.error
        );
        assert_eq!(failure.stats, SynthesisStats::default());
    }

    /// `M0 → M1 → M2`: `M1` inherits `ctrl` from `M0` and fails, `M2`
    /// inherits nothing. The walk stops at `M1`, so `M2` is never solved,
    /// although it does not depend on the failed mode.
    #[test]
    fn a_failing_heir_stops_the_walk_in_synthesis_order() {
        use crate::spec::ApplicationSpec;
        let (mut sys, _) = fixtures::fig3_system();
        let ctrl = sys.application_id("ctrl").expect("fixture app");
        let [bad, lone] = [("bad", millis(5)), ("lone", millis(100))].map(|(name, period)| {
            let spec = ApplicationSpec::new(name, period, period)
                .with_task(format!("{name}.t0"), "sensor1", millis(1))
                .with_task(format!("{name}.t1"), "actuator1", millis(1))
                .with_message(
                    format!("{name}.m"),
                    [format!("{name}.t0")],
                    [format!("{name}.t1")],
                );
            sys.add_application(&spec).expect("valid app")
        });
        let m0 = ModeId::from_index(0);
        let m1 = sys.add_mode("heir", &[ctrl, bad]).expect("valid mode");
        let m2 = sys.add_mode("lone", &[lone]).expect("valid mode");
        let mut graph = ModeGraph::new(&sys);
        graph.add_edge(m0, m1).expect("edge");
        graph.add_edge(m1, m2).expect("edge");
        assert_eq!(graph.synthesis_order(), [m0, m1, m2]);
        let plan = graph.inheritance_plan(&sys);
        assert_eq!(plan[&m1].get(&ctrl), Some(&m0));
        assert!(plan[&m2].is_empty(), "the last mode inherits nothing");

        let err = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer).expect_err("M1");
        assert_eq!(err.mode, m1);
        assert!(matches!(err.error, ScheduleError::Infeasible { .. }));
        let solved: Vec<ModeId> = err.partial.iter().map(|(mode, _)| mode).collect();
        assert_eq!(solved, [m0], "exactly the modes ahead of the failed one");
        let attempted: Vec<ModeId> = err.partial.stats.keys().copied().collect();
        assert_eq!(attempted, [m0, m1]);
        // Alone, the mode the walk never reached solves.
        assert!(synthesize_mode(&sys, m2, &config()).is_ok());
    }

    #[test]
    fn backend_name_is_pinned() {
        // The name is hashed into every cache key and fixture file name.
        assert_eq!(IlpSynthesizer.name(), "ilp-incremental");
    }
}
