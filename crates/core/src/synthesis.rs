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
//! Multi-mode synthesis ([`synthesize_system`]) walks a [`ModeGraph`] in its
//! deterministic synthesis order and applies *minimal inheritance*: every
//! application already scheduled in an earlier mode has its task and message
//! offsets pinned when later modes are synthesized, so all modes sharing an
//! application agree on its timing — the switch-consistency property the
//! runtime's two-phase mode change relies on. One private wave driver does
//! that walk for every system-level entry point, cached
//! ([`crate::cache::synthesize_system_cached`]) and incremental
//! ([`crate::resynth::resynthesize_system`]) ones included, and is the only
//! place a mode is ever solved.
//!
//! The actual per-mode backend is abstracted behind the [`Synthesizer`]
//! trait, with the exact ILP ([`IlpSynthesizer`]) and the greedy list
//! scheduler ([`HeuristicSynthesizer`]) as the two implementations.

use crate::cache::SynthesisArtifacts;
use crate::config::SchedulerConfig;
use crate::error::ScheduleError;
use crate::feasibility;
use crate::heuristic;
use crate::ids::{AppId, ModeId};
use crate::ilp;
use crate::modegraph::{InheritedOffsets, ModeGraph};
use crate::resynth::{reusable_schedule, round_floor, ResynthesisReport};
use crate::schedule::{ModeSchedule, SynthesisStats, SystemSchedule};
use crate::system::System;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

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
#[derive(Debug, Clone)]
pub struct ModeWarmStart {
    /// Round count (`R_M`) of the attempt the basis was captured at.
    pub rounds: usize,
    /// Root basis of that attempt's MILP solve.
    pub basis: ttw_milp::Basis,
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
/// modes and must either honor them exactly or reject the request with
/// [`ScheduleError::Unsupported`].
///
/// Backends must be [`Sync`]: [`synthesize_system`] synthesizes independent
/// modes of the same mode-graph depth on parallel worker threads, all sharing
/// one backend reference.
pub trait Synthesizer: Sync {
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
    /// with and without them. Backends with no LP underneath (the greedy
    /// heuristic) ignore the prior and return no basis.
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
                seeded = current.seed_warm_basis(warm.basis.clone());
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
                    basis,
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

/// The greedy list-scheduling backend (ablation baseline and fast
/// approximate pipeline for large mode graphs).
///
/// Inherited offsets are honored exactly: pinned tasks and the rounds serving
/// pinned messages are laid down first, and the remaining applications are
/// list-scheduled into the gaps around them (see
/// [`heuristic::synthesize_mode_heuristic_inherited`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeuristicSynthesizer;

impl Synthesizer for HeuristicSynthesizer {
    fn name(&self) -> &'static str {
        "greedy-heuristic"
    }

    fn synthesize(
        &self,
        system: &System,
        mode: ModeId,
        config: &SchedulerConfig,
        inherited: &InheritedOffsets,
        _prior: ModePrior<'_>,
    ) -> Result<SolvedMode, SynthesisFailure> {
        heuristic::synthesize_mode_heuristic_inherited(system, mode, config, inherited)
            .map(|schedule| SolvedMode {
                schedule,
                warm: None,
                seeded: false,
            })
            .map_err(SynthesisFailure::from)
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
/// inheritance (paper Sec. V), solving independent modes in parallel.
///
/// Modes are processed in waves: a mode is *ready* as soon as every mode it
/// inherits from has been synthesized. All ready modes are independent —
/// first-wins inheritance gives every application exactly one owner, so two
/// ready modes never co-schedule the same application from scratch — and are
/// solved concurrently on [`std::thread::scope`] workers (one wave of the
/// 4-mode diamond fixture, for example, synthesizes `normal`, `emergency`
/// and `maintenance` side by side once `boot` has pinned the shared
/// application). Results and statistics are merged back in
/// [`ModeGraph::synthesis_order`], so the outcome is deterministic and
/// identical to the sequential pipeline.
///
/// # Errors
///
/// Returns a boxed [`SystemSynthesisError`] carrying the partial
/// [`SystemSchedule`] if any mode cannot be scheduled. As in the sequential
/// pipeline, the partial result contains exactly the modes that precede the
/// failed mode in the synthesis order (plus the failed mode's statistics).
pub fn synthesize_system(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
    backend: &dyn Synthesizer,
) -> Result<SystemSchedule, Box<SystemSynthesisError>> {
    synthesize_waves(system, graph, config, backend, true, None).map(|(schedule, ..)| schedule)
}

/// The sequential twin of [`synthesize_system`]: identical wave structure,
/// inheritance and failure semantics, but every mode is synthesized on the
/// calling thread.
///
/// The parallel driver is deterministic and always produces the same result.
/// This twin stays as the reference that result is checked against
/// (`sequential_driver_matches_the_parallel_driver`, and per scenario in the
/// `mode_scaling` report) and as the baseline of the comparison that report
/// prints. That comparison is what keeps the scoped-thread branch: on a
/// 2-core machine with the second core free it reads 1.27 / 1.47 / 1.50× on
/// diamonds of 8 / 16 / 32 modes and 1.32 / 1.46 / 1.27× on layered DAGs of
/// the same sizes (one run each), 0.94–1.03× on chains, whose waves are one
/// mode wide, and 0.92–1.12× everywhere when a neighbour holds the second
/// core — a win wherever a wave is wider than one and a core is there to
/// take it, never a loss.
///
/// # Errors
///
/// Exactly as [`synthesize_system`].
pub fn synthesize_system_sequential(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
    backend: &dyn Synthesizer,
) -> Result<SystemSchedule, Box<SystemSynthesisError>> {
    synthesize_waves(system, graph, config, backend, false, None).map(|(schedule, ..)| schedule)
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

/// One wave member: its pins, and what the predecessor offers for it.
struct WaveJob<'a> {
    mode: ModeId,
    sources: BTreeMap<AppId, ModeId>,
    inherited: InheritedOffsets,
    /// The predecessor's schedule of the mode, when provably reusable.
    reused: Option<&'a ModeSchedule>,
    /// The predecessor's root basis of the mode — carried over verbatim with
    /// a reused schedule, the warm start of a re-solve — and the round count
    /// a re-solve's sweep may start at.
    prior: ModePrior<'a>,
}

/// The wave driver behind every system-level entry point: walks the mode
/// graph wave by wave, pins the inherited offsets, and per mode either keeps
/// the `predecessor`'s schedule verbatim (see
/// [`crate::resynth::reusable_schedule`]) or solves it through
/// [`solve_mode`] — on scoped worker threads when `parallel` is set and the
/// wave has more than one mode to solve. Returns the schedule, each mode's
/// warm-start material and what was reused against what was solved.
// The per-mode closures' Err is `SynthesisFailure` — see the size note on
// `Synthesizer::synthesize`.
#[allow(clippy::result_large_err)]
pub(crate) fn synthesize_waves(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
    backend: &dyn Synthesizer,
    parallel: bool,
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
    let plan = graph.inheritance_plan(system);
    let mut result = SystemSchedule::new();
    let mut artifacts = BTreeMap::new();
    let mut report = ResynthesisReport {
        predecessor_found: predecessor.is_some(),
        ..ResynthesisReport::default()
    };

    for wave in graph.waves_of_plan(&plan) {
        // Pin the inherited offsets for the whole wave up front (every donor
        // lies in an earlier wave), then synthesize the wave members.
        let jobs: Vec<WaveJob> = wave
            .into_iter()
            .map(|mode| {
                let sources = plan.get(&mode).cloned().unwrap_or_default();
                let mut inherited = InheritedOffsets::none();
                for (&app, &source) in &sources {
                    if let Some(donor) = result.get(source) {
                        inherited.import_application(system, app, donor);
                    }
                }
                let reused = predecessor.and_then(|(schedule, artifacts)| {
                    reusable_schedule(system, mode, &sources, &inherited, artifacts, schedule)
                });
                let warm = predecessor.and_then(|(_, artifacts)| artifacts.warm.get(&mode));
                let floor = match predecessor {
                    Some((schedule, artifacts)) if reused.is_none() => {
                        round_floor(system, mode, &sources, &inherited, artifacts, schedule)
                    }
                    _ => 0,
                };
                WaveJob {
                    mode,
                    sources,
                    inherited,
                    reused,
                    prior: ModePrior { warm, floor },
                }
            })
            .collect();

        let run = |job: &WaveJob| match job.reused {
            Some(schedule) => Ok(SolvedMode {
                schedule: schedule.clone(),
                warm: job.prior.warm.cloned(),
                seeded: false,
            }),
            None => solve_mode(system, job.mode, config, backend, &job.inherited, job.prior),
        };
        let to_solve = jobs.iter().filter(|job| job.reused.is_none()).count();
        let outcomes: Vec<_> = if !parallel || to_solve <= 1 {
            jobs.iter().map(run).collect()
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = jobs
                    .iter()
                    .map(|job| job.reused.is_none().then(|| scope.spawn(|| run(job))))
                    .collect();
                jobs.iter()
                    .zip(workers)
                    .map(|(job, worker)| match worker {
                        Some(worker) => worker.join().expect("synthesis worker panicked"),
                        None => run(job),
                    })
                    .collect()
            })
        };

        // Merge in synthesis order; the first failure wins and discards any
        // later-in-order wave results, exactly like the sequential driver.
        for (job, outcome) in jobs.into_iter().zip(outcomes) {
            let mode = job.mode;
            match outcome {
                Ok(SolvedMode {
                    schedule,
                    warm: artifact,
                    seeded,
                }) => {
                    if job.reused.is_some() {
                        report.modes_reused += 1;
                    } else {
                        report.modes_resolved += 1;
                        report.warm_started_modes += usize::from(seeded);
                        report.solved_milp_nodes += schedule.stats.nodes_explored;
                        report.solved_simplex_iterations += schedule.stats.simplex_iterations;
                    }
                    result.stats.insert(mode, schedule.stats.clone());
                    result.inheritance.insert(mode, job.sources);
                    result.schedules.insert(mode, schedule);
                    if let Some(artifact) = artifact {
                        artifacts.insert(mode, artifact);
                    }
                }
                Err(failure) => {
                    result.stats.insert(mode, failure.stats);
                    return Err(Box::new(SystemSynthesisError {
                        mode,
                        error: failure.error,
                        partial: result,
                    }));
                }
            }
        }
    }
    Ok((result, artifacts, report))
}

/// Synthesizes the schedules of every mode of the system with the same
/// configuration, assuming the complete switch graph (any mode can change to
/// any other) and therefore full cross-mode inheritance.
///
/// # Errors
///
/// Fails on the first mode that cannot be scheduled; unlike the pre-mode-graph
/// driver, the schedules **and statistics** of earlier modes are preserved in
/// [`SystemSynthesisError::partial`].
pub fn synthesize_all_modes(
    system: &System,
    config: &SchedulerConfig,
) -> Result<SystemSchedule, Box<SystemSynthesisError>> {
    synthesize_system(
        system,
        &ModeGraph::complete(system),
        config,
        &IlpSynthesizer,
    )
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
        let error = synthesize_system_sequential(&sys, &diamond, &config(), &backend)
            .expect_err("mismatch");
        assert_eq!(error.error, expected);
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
    fn synthesize_all_modes_covers_every_mode() {
        let (sys, normal, emergency) = fixtures::two_mode_system();
        let result = synthesize_all_modes(&sys, &config()).expect("both modes feasible");
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
        // boot → normal → {emergency, maintenance}: after boot pins the
        // shared control application, the other three modes form one parallel
        // wave. The result must be deterministic and switch-consistent.
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

        // Running it again produces the identical schedules (parallel waves
        // must not introduce nondeterminism).
        let again = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer)
            .expect("all four modes feasible");
        for (mode, schedule) in result.iter() {
            let other = again.get(mode).expect("same modes");
            assert_eq!(schedule.task_offsets, other.task_offsets);
            assert_eq!(schedule.message_offsets, other.message_offsets);
        }
    }

    #[test]
    fn sequential_driver_matches_the_parallel_driver() {
        let (sys, graph, _) = fixtures::four_mode_diamond();
        let parallel = synthesize_system(&sys, &graph, &config(), &IlpSynthesizer)
            .expect("all four modes feasible");
        let sequential = synthesize_system_sequential(&sys, &graph, &config(), &IlpSynthesizer)
            .expect("all four modes feasible");
        assert_eq!(parallel.num_modes(), sequential.num_modes());
        for (mode, schedule) in parallel.iter() {
            let other = sequential.get(mode).expect("same modes");
            assert_eq!(schedule.task_offsets, other.task_offsets);
            assert_eq!(schedule.message_offsets, other.message_offsets);
            assert_eq!(schedule.rounds, other.rounds);
        }
        assert_eq!(parallel.inheritance, sequential.inheritance);
    }

    #[test]
    fn diamond_mode_graph_works_with_the_heuristic_backend() {
        let (sys, graph, _) = fixtures::four_mode_diamond();
        let result = synthesize_system(&sys, &graph, &config(), &HeuristicSynthesizer)
            .expect("all four modes feasible");
        assert_eq!(result.num_modes(), 4);
        let violations = validate_system_schedule(&sys, &config(), &result);
        assert!(violations.is_empty(), "validator found: {violations:?}");
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

        let err = *synthesize_all_modes(&sys, &config()).expect_err("second mode infeasible");
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

    #[test]
    fn heuristic_backend_honors_inheritance() {
        // The heuristic backend packs around pinned offsets through the same
        // trait: re-synthesizing Fig. 3 with its own ILP offsets pinned must
        // reproduce them exactly.
        let (sys, mode) = fixtures::fig3_system();
        let schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        let app = sys.application_id("ctrl").expect("app exists");
        let mut pins = InheritedOffsets::none();
        pins.import_application(&sys, app, &schedule);
        let pinned = HeuristicSynthesizer
            .synthesize(&sys, mode, &config(), &pins, ModePrior::default())
            .expect("pins honored")
            .schedule;
        for (t, &offset) in &schedule.task_offsets {
            assert!(
                (pinned.task_offsets[t] - offset).abs() < 1e-6,
                "task {t} moved from {offset} to {}",
                pinned.task_offsets[t]
            );
        }
        // Without pins the heuristic backend works through the same trait.
        let greedy = HeuristicSynthesizer
            .synthesize(
                &sys,
                mode,
                &config(),
                &InheritedOffsets::none(),
                ModePrior::default(),
            )
            .expect("feasible")
            .schedule;
        assert!(greedy.num_rounds() >= 2);
    }

    #[test]
    fn heuristic_backend_drives_a_whole_mode_graph() {
        // The inheritance-aware heuristic makes the full mode-graph pipeline
        // available without the ILP: the result must be switch-consistent.
        let (sys, graph, _, _) = fixtures::two_mode_graph();
        let result = synthesize_system(&sys, &graph, &config(), &HeuristicSynthesizer)
            .expect("both modes feasible");
        assert_eq!(result.num_modes(), 2);
        let violations = validate_system_schedule(&sys, &config(), &result);
        assert!(violations.is_empty(), "validator found: {violations:?}");
    }

    #[test]
    fn synthesizer_names_are_distinct() {
        assert_ne!(IlpSynthesizer.name(), HeuristicSynthesizer.name());
    }
}
