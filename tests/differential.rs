//! Differential / property harness over seeded generated scenarios.
//!
//! Every test sweeps a window of seeds through `ttw::testkit`'s scenario
//! generator and checks solver-independent invariants of the synthesis
//! pipeline:
//!
//! * every `Ok` system schedule passes `validate_system_schedule`;
//! * inherited offsets match the mode graph's inheritance plan exactly;
//! * the warm-started incremental `R_M` sweep reaches the same objective as
//!   cold from-scratch solves (regression guard for stale-basis bugs);
//! * generated multi-rate systems are either scheduled validly or refused
//!   as infeasible or over budget — never a panic, never another error;
//! * the production sparse simplex agrees with the dense reference oracle on
//!   every generated LP relaxation;
//! * presolved solves agree with presolve-disabled solves (status and
//!   objective) on generated instances — the reduction can reshape the
//!   search but never the answer;
//! * root cutting planes and pseudocost branching are pure accelerators: solves with the tree-shrinking layers on and off
//!   agree on status and objective per instance, whole-system synthesis
//!   produces identical schedules (work counters aside), and every MILP
//!   optimum respects the dense oracle's relaxation bound;
//! * a schedule served from the fingerprint-keyed cache byte-matches fresh
//!   synthesis;
//! * an incremental re-synthesis byte-matches a from-scratch solve; a mode
//!   whose edit only tightens its ILP skips only round counts re-proven
//!   infeasible here, and any other edit sweeps from the slot bound;
//! * the static analyzer is sound: every mode it certifies infeasible is
//!   proven infeasible by the gate-free ILP sweep (zero false positives);
//! * the `AnalyzeFirst` gate is invisible: gate-on and gate-off pipelines
//!   reach the same verdict, byte-identical schedules on success;
//! * every generated ILP model passes the `ttw-milp` structural audit with
//!   no findings.
//!
//! Seed windows are controlled by two environment knobs so any failure is
//! reproducible from the printed assertion message alone:
//!
//! ```sh
//! TTW_TEST_SEEDS=500 cargo test --test differential          # wider sweep
//! TTW_TEST_SEEDS=1 TTW_TEST_SEED_START=37 cargo test --test differential
//! ```

use ttw::core::cache::{synthesis_key, synthesize_system_cached, CacheOutcome, ScheduleCache};
use ttw::core::export::system_schedule_to_json;
use ttw::core::resynth::{resynthesize_system, ResynthesisReport};
use ttw::core::synthesis::{synthesize_mode, synthesize_system, IlpSynthesizer, ModePrior};
use ttw::core::time::{millis, Micros};
use ttw::core::validate::validate_system_schedule;
use ttw::core::{
    feasibility, fixtures, ilp, ApplicationSpec, InheritedOffsets, ModeGraph, ModeId, ModeSchedule,
    ScheduleError, SchedulerConfig, SynthesisStats, System, SystemSchedule, TaskId,
};
use ttw::testkit::{generate, GeneratorConfig, GraphShape, InfeasibleKind, Scenario};
use ttw_milp::dense::compare_relaxations;
use ttw_milp::{audit_model, ConstraintOp, LinExpr, Model};

/// Absolute tolerance (µs) for pinned-offset agreement.
const PIN_TOL: f64 = 1e-6;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Number of seeds a test sweeps: `TTW_TEST_SEEDS` overrides the per-test
/// default (the defaults sum to > 100 scenarios for a plain `cargo test -q`).
fn seed_count(default: usize) -> usize {
    env_usize("TTW_TEST_SEEDS", default)
}

/// First seed of the window (`TTW_TEST_SEED_START`, default 0) — combined
/// with `TTW_TEST_SEEDS=1` this replays exactly one printed scenario.
fn seed_start() -> u64 {
    env_usize("TTW_TEST_SEED_START", 0) as u64
}

/// `true` when either seed knob overrides the defaults. The
/// sweep-is-not-vacuous guard assertions only apply to the default windows:
/// a narrowed or shifted window (replaying one printed seed, say) may
/// legitimately contain only infeasible or single-rate scenarios.
fn knobs_overridden() -> bool {
    std::env::var_os("TTW_TEST_SEEDS").is_some()
        || std::env::var_os("TTW_TEST_SEED_START").is_some()
}

/// The scenario family of a seed: the seed itself picks the graph shape and
/// the mode count, so a bare seed number fully identifies the scenario.
fn scenario_for_seed(seed: u64, multi_rate: bool) -> Scenario {
    let shape = GraphShape::ALL[seed as usize % GraphShape::ALL.len()];
    let num_modes = 2 + (seed as usize / GraphShape::ALL.len()) % 3;
    let mut config = GeneratorConfig::small(num_modes, shape);
    if multi_rate {
        config = config.with_multi_rate();
    }
    generate(&config, seed)
}

#[test]
fn generated_scenarios_uphold_the_differential_invariants() {
    let start = seed_start();
    let count = seed_count(72);
    let mut ilp_feasible = 0usize;
    let mut budget_skips = 0usize;

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, false);
        let sys = &scenario.system;
        let config = scenario.scheduler_config();
        let repro = scenario.repro();

        match &synthesize_system(sys, &scenario.graph, &config, &IlpSynthesizer) {
            Ok(result) => {
                ilp_feasible += 1;

                // Invariant 1: the independent validator accepts the schedule.
                let violations = validate_system_schedule(sys, &config, result);
                assert!(
                    violations.is_empty(),
                    "ILP schedule failed validation ({repro}): {violations:?}"
                );

                // Invariant 2: the recorded inheritance is exactly the plan,
                // and every inherited offset equals its donor's offset.
                assert_eq!(
                    result.inheritance,
                    scenario.graph.inheritance_plan(sys),
                    "inheritance metadata diverged from the plan ({repro})"
                );
                for (&mode, sources) in &result.inheritance {
                    let heir = result.get(mode).expect("mode was synthesized");
                    for (&app, &donor_mode) in sources {
                        let donor = result.get(donor_mode).expect("donor precedes heir");
                        for &t in &sys.application(app).tasks {
                            let (a, b) = (donor.task_offsets[&t], heir.task_offsets[&t]);
                            assert!(
                                (a - b).abs() < PIN_TOL,
                                "task {t} inherited by {mode} from {donor_mode} moved \
                                 from {a} to {b} µs ({repro})"
                            );
                        }
                        for &m in &sys.application(app).messages {
                            let (a, b) = (donor.message_offsets[&m], heir.message_offsets[&m]);
                            assert!(
                                (a - b).abs() < PIN_TOL,
                                "message {m} inherited by {mode} from {donor_mode} moved \
                                 from {a} to {b} µs ({repro})"
                            );
                            let (a, b) = (donor.message_deadlines[&m], heir.message_deadlines[&m]);
                            assert!(
                                (a - b).abs() < PIN_TOL,
                                "deadline of {m} inherited by {mode} from {donor_mode} moved \
                                 from {a} to {b} µs ({repro})"
                            );
                        }
                    }
                }
            }
            Err(failure) => match &failure.error {
                // An infeasible verdict is a legitimate outcome of the sweep.
                ScheduleError::Infeasible { .. } => {}
                // A budget-exhausted draw proves nothing either way; skip it
                // (the vacuousness guard below bounds how often this happens).
                ScheduleError::Solver(_) => budget_skips += 1,
                other => panic!("ILP pipeline failed unexpectedly ({repro}): {other}"),
            },
        }
    }

    // The default sweep must not be vacuous: most small single-rate scenarios
    // are feasible. Skipped when the seed knobs are overridden — a single
    // replayed seed (the printed repro one-liner) may legitimately be an
    // infeasible scenario.
    if !knobs_overridden() {
        assert!(
            ilp_feasible * 2 >= count,
            "only {ilp_feasible}/{count} scenarios were ILP-feasible — generator drifted"
        );
        assert!(
            budget_skips * 4 <= count,
            "{budget_skips}/{count} scenarios exhausted the solver budget — generator drifted"
        );
    }
    eprintln!(
        "differential sweep: {count} scenarios from seed {start} — {ilp_feasible} ILP-feasible, \
         {budget_skips} budget skips"
    );
}

#[test]
fn warm_started_incremental_sweeps_match_cold_solves_on_generated_instances() {
    // Regression guard for stale-basis bugs in `IlpInstance::solve` after
    // `add_round` (such as the stale-Free sanitize fixed in the sparse-simplex
    // PR): on generated instances, the warm-started incremental sweep must
    // reach exactly the optimum of a cold from-scratch build — both at the
    // first feasible round count and after growing one extra round.
    let start = seed_start();
    let count = seed_count(12);
    let mut optima_checked = 0usize;

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, false);
        let sys = &scenario.system;
        let config = scenario.scheduler_config();
        let repro = scenario.repro();

        for (mode, _) in sys.modes().take(2) {
            let mut grown =
                ilp::build_ilp_inherited(sys, mode, &config, 0, &InheritedOffsets::none())
                    .expect("valid instance");
            let max_attempts = 4usize;
            let mut optimal_at = None;
            for rounds in 0..=max_attempts {
                while grown.num_rounds() < rounds {
                    grown.add_round(sys, mode, &config);
                }
                let Ok(warm) = grown.solve() else {
                    break; // budget exhausted — skip this instance
                };
                if warm.is_optimal() {
                    optimal_at = Some((rounds, warm.objective));
                    break;
                }
            }
            let Some((rounds, warm_objective)) = optimal_at else {
                continue; // unfinished within the probe window — skip
            };

            let Ok(cold) =
                ilp::build_ilp_inherited(sys, mode, &config, rounds, &InheritedOffsets::none())
                    .expect("valid instance")
                    .model
                    .solve()
            else {
                continue;
            };
            assert!(
                cold.is_optimal(),
                "cold solve disagrees on feasibility ({repro})"
            );
            assert!(
                (warm_objective - cold.objective).abs() < 1e-6,
                "warm sweep objective {warm_objective} != cold objective {} \
                 at R={rounds} for {mode} ({repro})",
                cold.objective
            );

            // Grow once more *after* an optimal solve: the stored basis is now
            // stale relative to the new rows/columns and must be repaired, not
            // trusted.
            grown.add_round(sys, mode, &config);
            let Ok(warm_grown) = grown.solve() else {
                continue;
            };
            let Ok(cold_grown) =
                ilp::build_ilp_inherited(sys, mode, &config, rounds + 1, &InheritedOffsets::none())
                    .expect("valid instance")
                    .model
                    .solve()
            else {
                continue;
            };
            assert_eq!(
                warm_grown.is_optimal(),
                cold_grown.is_optimal(),
                "warm/cold feasibility disagreement at R={} for {mode} ({repro})",
                rounds + 1
            );
            if warm_grown.is_optimal() {
                assert!(
                    (warm_grown.objective - cold_grown.objective).abs() < 1e-6,
                    "stale-basis objective {} != cold objective {} at R={} \
                     for {mode} ({repro})",
                    warm_grown.objective,
                    cold_grown.objective,
                    rounds + 1
                );
            }
            optima_checked += 1;
        }
    }
    if !knobs_overridden() {
        assert!(
            optima_checked > 0,
            "no generated instance reached an optimum"
        );
    }
    eprintln!("warm-start sweep: {optima_checked} optima cross-checked");
}

#[test]
fn generated_multi_rate_systems_are_solved_or_refused() {
    // Modes whose applications run at different rates hold several instances
    // of a task per hyperperiod. The ILP either schedules them validly or
    // refuses with a verdict (infeasible) or a spent budget — nothing else.
    let start = seed_start();
    let count = seed_count(8);
    let (mut solved, mut infeasible, mut budget_capped) = (0usize, 0usize, 0usize);
    let mut multi_rate_modes_solved = 0usize;

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, true);
        let sys = &scenario.system;
        let config = scenario.scheduler_config();
        let repro = scenario.repro();

        match synthesize_system(sys, &scenario.graph, &config, &IlpSynthesizer) {
            Ok(result) => {
                solved += 1;
                multi_rate_modes_solved += scenario.multi_rate_modes().len();
                let violations = validate_system_schedule(sys, &config, &result);
                assert!(
                    violations.is_empty(),
                    "multi-rate schedule failed validation ({repro}): {violations:?}"
                );
            }
            Err(failure) => match failure.error {
                ScheduleError::Infeasible { .. } => infeasible += 1,
                ScheduleError::Solver(_) => budget_capped += 1,
                other => panic!("multi-rate pipeline failed unexpectedly ({repro}): {other}"),
            },
        }
    }
    if !knobs_overridden() {
        assert!(
            solved > 0,
            "no multi-rate system solved in {count} seeds from {start}"
        );
        assert!(
            multi_rate_modes_solved > 0,
            "no solved system had a multi-rate mode in {count} seeds from {start} — \
             widen the window"
        );
    }
    eprintln!(
        "multi-rate sweep: {count} systems from seed {start} — {solved} solved \
         ({multi_rate_modes_solved} multi-rate modes), {infeasible} infeasible, \
         {budget_capped} budget-capped"
    );
}

#[test]
fn presolved_solves_agree_with_presolve_disabled_solves() {
    // The presolve invariant: fixed-column substitution, row elimination and
    // bound tightening may reshape the model the simplex sees, but status and
    // objective of every solve must match the raw equality-form solve. Runs
    // both the full MILP and the LP relaxation per generated instance.
    let start = seed_start();
    let count = seed_count(6);
    let mut milp_compared = 0usize;
    let mut relaxations_compared = 0usize;

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, false);
        let sys = &scenario.system;
        let config = scenario.scheduler_config();
        let repro = scenario.repro();

        for (mode, _) in sys.modes().take(2) {
            for rounds in 2..=3 {
                let instance =
                    ilp::build_ilp_inherited(sys, mode, &config, rounds, &InheritedOffsets::none())
                        .expect("valid instance");
                let with = instance.model.clone();
                let mut without = instance.model.clone();
                without.params_mut().presolve = false;

                let (Ok(on), Ok(off)) = (with.solve_relaxation(), without.solve_relaxation())
                else {
                    continue; // budget exhausted proves nothing — skip
                };
                assert_eq!(
                    on.status, off.status,
                    "relaxation status diverged at R={rounds} for {mode} ({repro})"
                );
                if on.is_optimal() {
                    assert!(
                        (on.objective - off.objective).abs() < 1e-6,
                        "relaxation objective {} (presolved) vs {} (raw) at R={rounds} \
                         for {mode} ({repro})",
                        on.objective,
                        off.objective
                    );
                }
                relaxations_compared += 1;

                let (Ok(on), Ok(off)) = (with.solve(), without.solve()) else {
                    continue;
                };
                assert_eq!(
                    on.status, off.status,
                    "MILP status diverged at R={rounds} for {mode} ({repro})"
                );
                if on.is_optimal() {
                    assert!(
                        (on.objective - off.objective).abs() < 1e-6,
                        "MILP objective {} (presolved) vs {} (raw) at R={rounds} \
                         for {mode} ({repro})",
                        on.objective,
                        off.objective
                    );
                }
                milp_compared += 1;
            }
        }
    }
    if !knobs_overridden() {
        assert!(milp_compared > 0, "no MILP was compared");
        assert!(relaxations_compared > 0, "no relaxation was compared");
    }
    eprintln!(
        "presolve sweep: {milp_compared} MILPs and {relaxations_compared} relaxations agreed"
    );
}

#[test]
fn tree_layers_preserve_verdicts() {
    // The tree-shrinking invariant: Gomory cuts and pseudocost branching may
    // only change how much work branch-and-bound does, never what it
    // returns. Per generated instance, on/off solves must
    // agree on status and objective — and the dense oracle's relaxation
    // objective must lower-bound the (minimization) MILP optimum, anchoring
    // both against a solver-independent reference. Per system, full synthesis
    // with the layers on and off must produce byte-identical schedules once
    // the work counters are normalized out.
    let start = seed_start();
    let count = seed_count(6);
    let mut milp_compared = 0usize;
    let mut dense_checked = 0usize;
    let mut systems_compared = 0usize;
    let mut budget_skips = 0usize;

    let disable_tree_layers = |config: &mut ttw::core::SchedulerConfig| {
        config.solver.cuts = false;
        config.solver.pseudocost = false;
    };

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, false);
        let sys = &scenario.system;
        let config = scenario.scheduler_config();
        let repro = scenario.repro();

        // Instance level: identical verdicts and objectives.
        for (mode, _) in sys.modes().take(2) {
            for rounds in 2..=3 {
                let instance =
                    ilp::build_ilp_inherited(sys, mode, &config, rounds, &InheritedOffsets::none())
                        .expect("valid instance");
                let with = instance.model.clone();
                let mut without = instance.model.clone();
                {
                    let p = without.params_mut();
                    p.cuts = false;
                    p.pseudocost = false;
                }
                let (Ok(on), Ok(off)) = (with.solve(), without.solve()) else {
                    budget_skips += 1;
                    continue; // budget exhaustion proves nothing — skip
                };
                assert_eq!(
                    on.status, off.status,
                    "MILP status diverged with tree layers on vs off at R={rounds} \
                     for {mode} ({repro})"
                );
                if on.is_optimal() {
                    assert!(
                        (on.objective - off.objective).abs() < 1e-6,
                        "MILP objective {} (tree layers on) vs {} (off) at R={rounds} \
                         for {mode} ({repro})",
                        on.objective,
                        off.objective
                    );
                    // The legacy path must report zeroed tree counters.
                    assert_eq!(
                        (off.cuts_added, off.pseudocost_branchings),
                        (0, 0),
                        "disabled layers still counted work ({repro})"
                    );
                }
                milp_compared += 1;

                // Dense oracle cross-check: the relaxation optimum of the
                // reference solver lower-bounds the integer optimum.
                let cmp = compare_relaxations(&instance.model).expect("both LP solves run");
                assert!(
                    cmp.agree_on_feasibility(),
                    "dense {:?} vs sparse {:?} at R={rounds} for {mode} ({repro})",
                    cmp.dense_status,
                    cmp.sparse_status
                );
                if on.is_optimal() && cmp.both_optimal() {
                    assert!(
                        on.objective >= cmp.dense_objective - 1e-6,
                        "MILP optimum {} undercuts the dense relaxation bound {} \
                         at R={rounds} for {mode} ({repro})",
                        on.objective,
                        cmp.dense_objective
                    );
                    dense_checked += 1;
                }
            }
        }

        // System level: identical schedules byte-for-byte (modulo counters).
        let config_on = scenario.scheduler_config();
        let mut config_off = scenario.scheduler_config();
        disable_tree_layers(&mut config_off);
        let on = synthesize_system(sys, &scenario.graph, &config_on, &IlpSynthesizer);
        let off = synthesize_system(sys, &scenario.graph, &config_off, &IlpSynthesizer);
        match (on, off) {
            (Ok(on), Ok(off)) => {
                let on_json = system_schedule_to_json(&on.content_only()).expect("serialize");
                let off_json = system_schedule_to_json(&off.content_only()).expect("serialize");
                assert_eq!(
                    on_json, off_json,
                    "tree layers changed the synthesized schedule ({repro})"
                );
                systems_compared += 1;
            }
            (Err(on), Err(off)) => {
                if matches!(on.error, ScheduleError::Solver(_))
                    || matches!(off.error, ScheduleError::Solver(_))
                {
                    budget_skips += 1;
                } else {
                    assert_eq!(
                        on.mode, off.mode,
                        "tree layers on and off failed different modes ({repro})"
                    );
                }
            }
            (Ok(_), Err(off)) => {
                // The legacy tree may exhaust the node budget where the cut
                // tree finishes — that is the point of the layers, not a
                // verdict change. A genuine infeasibility claim is one.
                assert!(
                    matches!(off.error, ScheduleError::Solver(_)),
                    "tree layers on synthesized a system the legacy solver proved \
                     infeasible ({repro}): {}",
                    off.error
                );
                budget_skips += 1;
            }
            (Err(on), Ok(_)) => {
                assert!(
                    matches!(on.error, ScheduleError::Solver(_)),
                    "tree layers on rejected a system the legacy solver synthesized \
                     ({repro}): {}",
                    on.error
                );
                budget_skips += 1;
            }
        }
    }

    if !knobs_overridden() {
        assert!(milp_compared > 0, "no MILP was compared");
        assert!(dense_checked > 0, "no dense-oracle bound was checked");
        assert!(
            systems_compared > 0,
            "no system-level schedule was compared"
        );
    }
    eprintln!(
        "tree layers sweep: {milp_compared} MILPs agreed, {dense_checked} dense bounds held, \
         {systems_compared} system schedules byte-matched, {budget_skips} budget skips"
    );
}

#[test]
fn cache_hits_byte_match_fresh_synthesis() {
    // The cache invariant: a hit returns exactly the bytes a fresh synthesis
    // would produce — same schedules, same inheritance metadata, same stats.
    let start = seed_start();
    let count = seed_count(6);
    let dir = std::env::temp_dir().join(format!(
        "ttw-differential-cache-{}-{start}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ScheduleCache::new(&dir);
    let mut verified = 0usize;

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, false);
        let sys = &scenario.system;
        let config = scenario.scheduler_config();
        let repro = scenario.repro();
        let backend = IlpSynthesizer;

        let fresh = match synthesize_system(sys, &scenario.graph, &config, &backend) {
            Ok(result) => result,
            Err(_) => continue, // infeasible or budget-limited — nothing to cache
        };
        let (first, outcome) = synthesize_system_cached(sys, &scenario.graph, &config, &cache)
            .expect("same inputs stay feasible");
        assert_eq!(
            outcome,
            CacheOutcome::Miss,
            "fresh key cannot hit ({repro})"
        );
        let (second, outcome) = synthesize_system_cached(sys, &scenario.graph, &config, &cache)
            .expect("same inputs stay feasible");
        assert_eq!(outcome, CacheOutcome::Hit, "second call must hit ({repro})");

        let fresh_json = system_schedule_to_json(&fresh).expect("serialize");
        let miss_json = system_schedule_to_json(&first).expect("serialize");
        let hit_json = system_schedule_to_json(&second).expect("serialize");
        assert_eq!(
            fresh_json, miss_json,
            "cached-path synthesis diverged from plain synthesis ({repro})"
        );
        assert_eq!(
            miss_json, hit_json,
            "cache hit does not byte-match fresh synthesis ({repro})"
        );
        verified += 1;
    }
    assert_eq!(cache.hits(), verified, "every scenario hit exactly once");
    if !knobs_overridden() {
        assert!(verified > 0, "no cache round trip was verified");
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("cache sweep: {verified} hit/fresh byte comparisons");
}

#[test]
fn generated_relaxations_agree_with_the_dense_oracle() {
    // The production sparse revised simplex and the retired dense tableau
    // must agree on feasibility and objective for every generated relaxation
    // (the fixture-based agreement suite lives in tests/solver_agreement.rs).
    let start = seed_start();
    let count = seed_count(8);
    let mut compared = 0usize;

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, false);
        let sys = &scenario.system;
        let config = scenario.scheduler_config();
        let repro = scenario.repro();

        for (mode, _) in sys.modes().take(2) {
            for rounds in 2..=3 {
                let instance =
                    ilp::build_ilp_inherited(sys, mode, &config, rounds, &InheritedOffsets::none())
                        .expect("valid instance");
                let cmp = compare_relaxations(&instance.model).expect("both LP solves run");
                assert!(
                    cmp.agree_on_feasibility(),
                    "dense {:?} vs sparse {:?} at R={rounds} for {mode} ({repro})",
                    cmp.dense_status,
                    cmp.sparse_status
                );
                assert!(
                    cmp.objective_gap() < 1e-6,
                    "dense objective {} vs sparse {} at R={rounds} for {mode} ({repro})",
                    cmp.dense_objective,
                    cmp.sparse_objective
                );
                compared += 1;
            }
        }
    }
    if !knobs_overridden() {
        assert!(compared > 0, "no relaxation was compared");
    }
    eprintln!("dense-oracle sweep: {compared} relaxations agreed");
}

#[test]
fn analyzer_infeasible_implies_ilp_infeasible() {
    // Soundness of the static analyzer: a certified-infeasible mode must be
    // proven infeasible by the exact ILP `R_M` sweep with the `AnalyzeFirst`
    // gate disabled — a certificate is a theorem, not an estimate, so a
    // single `Ok` here is a bug. Sweeps the feasible-leaning `small()` family
    // (where certificates are rare) and the provably-infeasible family
    // (where every mode carries one).
    let start = seed_start();
    let count = seed_count(12);
    let mut certified = 0usize;
    let mut confirmed_infeasible = 0usize;
    let mut budget_skips = 0usize;

    let mut scenarios: Vec<Scenario> = (start..start + count as u64)
        .map(|seed| scenario_for_seed(seed, false))
        .collect();
    for kind in InfeasibleKind::ALL {
        for seed in start..start + (count as u64).min(4) {
            let shape = GraphShape::ALL[seed as usize % GraphShape::ALL.len()];
            let config = GeneratorConfig::infeasible(2, shape, kind);
            scenarios.push(generate(&config, seed));
        }
    }

    for scenario in &scenarios {
        let sys = &scenario.system;
        let config = scenario.scheduler_config().with_analyze_first(false);
        let repro = scenario.repro();

        for mode in scenario.modes() {
            let Some(certificate) = feasibility::certify_mode_infeasible(sys, mode, &config) else {
                continue;
            };
            certified += 1;
            // Pin-free solve: certificates are pin-independent, so the
            // strongest (least constrained) instance is the right oracle.
            match synthesize_mode(sys, mode, &config) {
                Ok(schedule) => panic!(
                    "analyzer certified {mode} infeasible ({certificate}) but the \
                     ILP found a {}-round schedule ({repro})",
                    schedule.num_rounds()
                ),
                Err(failure) => match failure.error {
                    ScheduleError::Infeasible { .. } => confirmed_infeasible += 1,
                    // Budget exhaustion neither confirms nor refutes — skip.
                    ScheduleError::Solver(_) => budget_skips += 1,
                    other => panic!(
                        "gate-free ILP failed {mode} with an unexpected error \
                         ({repro}): {other}"
                    ),
                },
            }
        }
    }

    if !knobs_overridden() {
        assert!(
            confirmed_infeasible > 0,
            "no certificate was strictly confirmed by the ILP — the sweep is vacuous"
        );
    }
    eprintln!(
        "analyzer soundness sweep: {certified} certified modes — {confirmed_infeasible} \
         ILP-confirmed, {budget_skips} budget skips"
    );
}

#[test]
fn analyzer_gate_on_off_agree() {
    // The `AnalyzeFirst` gate is a fast path, never a verdict change: on the
    // generated `small()` family, gate-on and gate-off pipelines agree on
    // feasibility, and on success the schedules byte-match (the gate leaves
    // `analyze_fast_fails` at 0 on feasible systems).
    let start = seed_start();
    let count = seed_count(24);
    let mut ok_compared = 0usize;
    let mut err_compared = 0usize;

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, false);
        let sys = &scenario.system;
        let repro = scenario.repro();
        let config_on = scenario.scheduler_config().with_analyze_first(true);
        let config_off = scenario.scheduler_config().with_analyze_first(false);

        let on = synthesize_system(sys, &scenario.graph, &config_on, &IlpSynthesizer);
        let off = synthesize_system(sys, &scenario.graph, &config_off, &IlpSynthesizer);
        match (on, off) {
            (Ok(on), Ok(off)) => {
                let on_json = system_schedule_to_json(&on).expect("serialize");
                let off_json = system_schedule_to_json(&off).expect("serialize");
                assert_eq!(
                    on_json, off_json,
                    "gate-on schedule diverged from gate-off ({repro})"
                );
                assert_eq!(
                    on.totals().analyze_fast_fails,
                    0,
                    "feasible system counted an analyzer fast-fail ({repro})"
                );
                ok_compared += 1;
            }
            (Err(on), Err(off)) => {
                assert_eq!(
                    on.mode, off.mode,
                    "gate-on and gate-off failed different modes ({repro})"
                );
                err_compared += 1;
            }
            (Ok(_), Err(off)) => panic!(
                "gate-on synthesized a system the gate-off pipeline rejected \
                 ({repro}): {}",
                off.error
            ),
            (Err(on), Ok(_)) => panic!(
                "gate-on rejected a system the gate-off pipeline synthesized \
                 ({repro}): {}",
                on.error
            ),
        }
    }

    if !knobs_overridden() {
        assert!(ok_compared > 0, "no feasible scenario was compared");
    }
    eprintln!(
        "gate on/off sweep: {ok_compared} byte-matched schedules, {err_compared} \
         matching rejections"
    );
}

#[test]
fn generated_ilp_models_audit_without_errors() {
    // Every model the scheduler builds must pass the `ttw-milp` structural
    // audit with no findings: violated empty rows, bound-reversed or
    // empty-integral columns in a freshly built model mean the ILP
    // translation itself is wrong, not the instance.
    let start = seed_start();
    let count = seed_count(8);
    let mut audited = 0usize;

    for seed in start..start + count as u64 {
        let scenario = scenario_for_seed(seed, false);
        let sys = &scenario.system;
        let config = scenario.scheduler_config();
        let repro = scenario.repro();

        for (mode, _) in sys.modes().take(2) {
            for rounds in 1..=3 {
                let instance =
                    ilp::build_ilp_inherited(sys, mode, &config, rounds, &InheritedOffsets::none())
                        .expect("valid instance");
                let findings = audit_model(&instance.model);
                assert!(
                    findings.is_empty(),
                    "generated model for {mode} at R={rounds} has audit findings \
                     ({repro}): {findings:?}"
                );
                audited += 1;
            }
        }
    }

    if !knobs_overridden() {
        assert!(audited > 0, "no model was audited");
    }
    eprintln!("model-audit sweep: {audited} generated models audited clean");
}

#[test]
fn numerically_hard_cut_root_degrades_instead_of_failing() {
    // Regression: on the N=16 diamond benchmark workload (seed 7), one
    // incremental `R_M` solve produced a cut-tightened root LP that dead-ends
    // numerically even from a cold basis. The solver must reject that cut
    // round (and, per node, fall back to the uncut relaxation) rather than
    // surface `NumericalInstability` — with cuts enabled the pipeline has to
    // reach exactly the verdict it reaches with cuts disabled.
    let scenario = generate(&GeneratorConfig::bench(16, GraphShape::Diamond), 7);
    let sys = &scenario.system;
    let config = scenario.scheduler_config();
    let with_cuts = synthesize_system(sys, &scenario.graph, &config, &IlpSynthesizer)
        .expect("cut-enabled synthesis must survive the numerically hard root");

    let mut no_cuts_config = scenario.scheduler_config();
    no_cuts_config.solver.cuts = false;
    let without_cuts = synthesize_system(sys, &scenario.graph, &no_cuts_config, &IlpSynthesizer)
        .expect("cut-free synthesis is the reference");

    for (mode, schedule) in without_cuts.iter() {
        let other = with_cuts.get(mode).expect("same modes");
        assert_eq!(
            schedule.rounds, other.rounds,
            "cut fallback changed the round count of {mode}"
        );
    }
    let violations = validate_system_schedule(sys, &config, &with_cuts);
    assert!(violations.is_empty(), "invalid schedule: {violations:?}");
}

/// One admission edit: the predecessor's schedule, and the edited system
/// both solved from scratch and re-synthesized from the cached predecessor.
struct Admission {
    predecessor: SystemSchedule,
    scratch: SystemSchedule,
    incremental: SystemSchedule,
    report: ResynthesisReport,
}

/// Caches a solve of `system`, then solves `edited` from scratch and
/// re-synthesizes it from the cached predecessor. Asserts the incremental
/// admission invariant: the same verdict, and byte-identical content (solver
/// work counters stripped: warm starts and round floors change how fast the
/// solver gets to the optimum, never which optimum the tie-broken ILP
/// selects). `None` when the predecessor or the edited system is infeasible.
fn admit(
    system: &System,
    graph: &ModeGraph,
    config: &SchedulerConfig,
    edited: &System,
    repro: &str,
) -> Option<Admission> {
    let backend = IlpSynthesizer;
    let cache = ScheduleCache::in_memory();
    // An infeasible predecessor leaves nothing to resynthesize from.
    let (predecessor, _) = synthesize_system_cached(system, graph, config, &cache).ok()?;
    let predecessor_key = synthesis_key(system, graph, config);

    let scratch = synthesize_system(edited, graph, config, &backend);
    let incremental =
        resynthesize_system(edited, graph, config, &backend, &cache, &predecessor_key);
    match (scratch, incremental) {
        (Ok(scratch), Ok((incremental, report))) => {
            assert!(report.predecessor_found, "{repro}");
            assert_eq!(
                report.modes_reused + report.modes_resolved,
                scratch.num_modes(),
                "{repro}"
            );
            assert_eq!(
                system_schedule_to_json(&scratch.content_only()).expect("serialize"),
                system_schedule_to_json(&incremental.content_only()).expect("serialize"),
                "incremental result diverged from scratch: {repro}"
            );
            Some(Admission {
                predecessor,
                scratch,
                incremental,
                report,
            })
        }
        (Err(_), Err(_)) => None,
        (scratch, incremental) => panic!(
            "verdict mismatch: scratch {:?} vs incremental {:?} ({repro})",
            scratch.map(|_| "ok"),
            incremental.map(|_| "ok"),
        ),
    }
}

/// `system` with `delta` µs added to the WCET of every task in `edit`.
fn with_wcets_moved(system: &System, edit: &[TaskId], delta: i64) -> System {
    let mut edited = system.clone();
    for &task in edit {
        let wcet = edited.task(task).wcet.saturating_add_signed(delta);
        edited
            .set_task_wcet(task, wcet)
            .expect("edited WCET is non-zero");
    }
    edited
}

/// The admission edit of a generated scenario: the first task of an
/// application of the last mode, preferring one private to that mode (the
/// smallest possible edit).
fn admission_task(scenario: &Scenario) -> TaskId {
    let system = &scenario.system;
    let last_mode = *scenario.modes().last().expect("modes exist");
    let apps = &system.mode(last_mode).applications;
    let app = apps
        .iter()
        .copied()
        .find(|&a| system.modes_of_application(a).len() == 1)
        .unwrap_or(apps[0]);
    system.application(app).tasks[0]
}

/// Three applications whose senders share node `a`, each sending one
/// message to its receiver on node `b`. A round serves only messages whose
/// senders have finished, so under a deadline one round cannot wait for all
/// three: at `T_r` = 10 ms, a 20 ms WCET and a 40 ms deadline the mode needs
/// two rounds; a 10 ms WCET or a 60 ms deadline lets one round do.
fn three_senders(wcet: Micros, deadline: Micros) -> (System, ModeGraph) {
    let mut system = System::new();
    system.add_node("a").expect("node");
    system.add_node("b").expect("node");
    let apps: Vec<_> = ["s0", "s1", "s2"]
        .iter()
        .map(|name| {
            let (send, receive) = (format!("{name}.send"), format!("{name}.receive"));
            let spec = ApplicationSpec::new(*name, millis(100), deadline)
                .with_task(send.as_str(), "a", wcet)
                .with_task(receive.as_str(), "b", millis(1))
                .with_message(
                    format!("{name}.m").as_str(),
                    [send.as_str()],
                    [receive.as_str()],
                );
            system.add_application(&spec).expect("valid application")
        })
        .collect();
    system.add_mode("only", &apps).expect("valid mode");
    let graph = ModeGraph::complete(&system);
    (system, graph)
}

/// The configuration [`three_senders`] is sized for: 10 ms rounds of 5 slots.
fn three_senders_config() -> SchedulerConfig {
    SchedulerConfig::new(millis(10), 5)
}

/// The offsets `mode` inherits in `schedule`: each inherited application's
/// offsets as its donor mode holds them.
fn pins_of(system: &System, schedule: &SystemSchedule, mode: ModeId) -> InheritedOffsets {
    let mut pins = InheritedOffsets::none();
    for (&app, &donor) in &schedule.inheritance[&mode] {
        let donor = schedule.get(donor).expect("donors precede their heirs");
        pins.import_application(system, app, donor);
    }
    pins
}

/// Asserts that `tight` is a right-hand-side tightening of `loose`, row by
/// row: the same variables (names, kinds, bitwise bounds), the same
/// objective, the same rows (names, operators, coefficients), and every
/// right-hand side moved only inward — lower on a `≤` row, higher on a `≥`
/// row, unchanged on an equality. Every point feasible for `tight` is then
/// feasible for `loose`.
fn assert_rhs_tightening(loose: &Model, tight: &Model, context: &str) {
    assert_eq!(loose.num_vars(), tight.num_vars(), "{context}");
    for ((_, a), (_, b)) in loose.variables().zip(tight.variables()) {
        assert_eq!(a.name, b.name, "{context}");
        assert_eq!(a.kind, b.kind, "{}: {context}", a.name);
        assert_eq!(
            a.lower.to_bits(),
            b.lower.to_bits(),
            "{}: {context}",
            a.name
        );
        assert_eq!(
            a.upper.to_bits(),
            b.upper.to_bits(),
            "{}: {context}",
            a.name
        );
    }
    let terms = |expr: &LinExpr| -> Vec<_> { expr.iter().map(|(v, c)| (v, c.to_bits())).collect() };
    let ((loose_objective, loose_sense), (tight_objective, tight_sense)) =
        (loose.objective(), tight.objective());
    assert_eq!(loose_sense, tight_sense, "{context}");
    assert_eq!(terms(loose_objective), terms(tight_objective), "{context}");
    assert_eq!(
        loose.num_constraints(),
        tight.num_constraints(),
        "{context}"
    );
    for (a, b) in loose.constraints().zip(tight.constraints()) {
        assert_eq!(a.name, b.name, "{context}");
        assert_eq!(a.op, b.op, "{}: {context}", a.name);
        assert_eq!(terms(&a.expr), terms(&b.expr), "{}: {context}", a.name);
        let inward = match a.op {
            ConstraintOp::Le => b.rhs <= a.rhs,
            ConstraintOp::Ge => b.rhs >= a.rhs,
            ConstraintOp::Eq => b.rhs.to_bits() == a.rhs.to_bits(),
        };
        assert!(
            inward,
            "{}: rhs {} → {} loosens the row ({context})",
            a.name, a.rhs, b.rhs
        );
    }
}

/// The incremental admission invariant: `resynthesize_system` from a cached
/// predecessor produces the *same schedule* as a from-scratch solve of the
/// edited system (see [`admit`]).
#[test]
fn incremental_resynthesis_matches_from_scratch() {
    // Solves `system`, bumps the WCET of every task in `edit` by one, then
    // compares a from-scratch solve of the edited system with its incremental
    // re-synthesis. Returns the report when both are feasible.
    let check = |system: &System,
                 graph: &ModeGraph,
                 config: &SchedulerConfig,
                 edit: &[TaskId],
                 repro: &str|
     -> Option<ResynthesisReport> {
        let edited = with_wcets_moved(system, edit, 1);
        let admission = admit(system, graph, config, &edited, repro)?;
        assert!(admission.report.modes_resolved >= 1, "{repro}");
        Some(admission.report)
    };

    let start = seed_start();
    let mut exercised = 0usize;
    for seed in start..start + seed_count(8) as u64 {
        let scenario = scenario_for_seed(seed, false);
        let task = admission_task(&scenario);
        let config = scenario.scheduler_config();
        let report = check(
            &scenario.system,
            &scenario.graph,
            &config,
            &[task],
            &scenario.repro(),
        );
        exercised += usize::from(report.is_some());
    }
    if !knobs_overridden() {
        assert!(exercised >= 3, "sweep was vacuous: {exercised} scenarios");
    }

    // The four-mode diamond, with the private applications of `normal` and
    // `maintenance` edited: of the three modes that inherit from `boot`, two
    // are re-solved around one kept verbatim. The report is pinned.
    let (system, graph, _) = fixtures::four_mode_diamond();
    let edit = ["tele.sample", "maint.poll"].map(|name| system.task_id(name).expect("fixture"));
    let config = SchedulerConfig::new(10_000, 5);
    let report = check(&system, &graph, &config, &edit, "four-mode diamond");
    assert_eq!(
        report,
        Some(ResynthesisReport {
            predecessor_found: true,
            modes_reused: 2,
            modes_resolved: 2,
            warm_started_modes: 2,
            solved_milp_nodes: 26,
            solved_simplex_iterations: 62,
        })
    );
}

/// A re-solve whose ILP only tightens the predecessor's starts its `R_M`
/// sweep at the predecessor's round count. For every mode that started above
/// the slot bound, each skipped count is re-proven here:
///
/// * the edited mode's ILP at that count is a right-hand-side tightening of
///   the predecessor's, row by row, pins included;
/// * a gate-free solve of it is infeasible;
/// * the floor removes only the failed attempts: the skipped counts' own
///   sweep (capped below the floor) followed by the floored sweep adds up,
///   counter for counter, to a sweep from the slot bound with the same seed,
///   and both land on the same schedule.
#[test]
fn floored_sweeps_skip_only_counts_proven_infeasible() {
    // Per case: predecessor, graph, config, edited system, repro.
    let mut cases: Vec<(System, ModeGraph, SchedulerConfig, System, String)> = Vec::new();
    let start = seed_start();
    for seed in start..start + seed_count(8) as u64 {
        let scenario = scenario_for_seed(seed, false);
        let edited = with_wcets_moved(&scenario.system, &[admission_task(&scenario)], 1);
        let (config, repro) = (scenario.scheduler_config(), scenario.repro());
        cases.push((scenario.system, scenario.graph, config, edited, repro));
    }
    // Two rounds at a 40 ms deadline; +1 µs of WCET and −1 ms of deadline
    // both keep two rounds.
    let (system, graph) = three_senders(millis(20), millis(40));
    for (wcet, deadline, label) in [
        (millis(20) + 1, millis(40), "three senders, +1 µs WCET"),
        (millis(20), millis(39), "three senders, −1 ms deadline"),
    ] {
        let (edited, _) = three_senders(wcet, deadline);
        cases.push((
            system.clone(),
            graph.clone(),
            three_senders_config(),
            edited,
            label.into(),
        ));
    }

    let backend = IlpSynthesizer;
    let mut skipped = 0usize;
    for (system, graph, config, edited, repro) in &cases {
        let cache = ScheduleCache::in_memory();
        let Ok((predecessor, _)) = synthesize_system_cached(system, graph, config, &cache) else {
            continue;
        };
        let key = synthesis_key(system, graph, config);
        let artifacts = cache.artifacts(&key).expect("stored with the predecessor");
        let Ok((incremental, _)) =
            resynthesize_system(edited, graph, config, &backend, &cache, &key)
        else {
            continue;
        };
        for (mode, solved) in incremental.iter() {
            let stats = &solved.stats;
            let slot_bound =
                feasibility::message_instances(edited, mode).div_ceil(config.slots_per_round);
            let floor = stats.rounds_attempted[0];
            if floor == slot_bound {
                continue;
            }
            let context = format!("{mode} skipped {slot_bound}..{floor} ({repro})");
            let old = predecessor.get(mode).expect("solved");
            assert_eq!(
                old.num_rounds(),
                floor,
                "the floor is the predecessor's round count: {context}"
            );
            let old_pins = pins_of(system, &predecessor, mode);
            let pins = pins_of(edited, &incremental, mode);
            for rounds in slot_bound..floor {
                let loose = ilp::build_ilp_inherited(system, mode, config, rounds, &old_pins)
                    .expect("valid instance");
                let tight = ilp::build_ilp_inherited(edited, mode, config, rounds, &pins)
                    .expect("valid instance");
                assert_rhs_tightening(&loose.model, &tight.model, &context);
                let proof = tight.model.solve().expect("solver runs");
                assert!(!proof.is_optimal(), "R = {rounds} is feasible: {context}");
                skipped += 1;
            }

            // The same sweep from the slot bound, seeded alike, lands on the
            // same schedule; its failed attempts alone make up the difference.
            let prior = ModePrior {
                warm: artifacts.warm.get(&mode),
                floor: 0,
            };
            let from_bottom = backend
                .synthesize(edited, mode, config, &pins, prior)
                .expect("feasible from the slot bound")
                .schedule;
            let failed = backend
                .synthesize(
                    edited,
                    mode,
                    &config.clone().with_max_rounds(floor - 1),
                    &pins,
                    prior,
                )
                .expect_err("every count below the floor is infeasible");
            let mut sum = failed.stats;
            sum.solver.add_attempt(&stats.solver);
            sum.rounds_attempted.extend(&stats.rounds_attempted);
            sum.variables = stats.variables;
            sum.constraints = stats.constraints;
            assert_eq!(sum, from_bottom.stats, "{context}");
            assert_eq!(
                ModeSchedule {
                    stats: SynthesisStats::default(),
                    ..from_bottom
                },
                ModeSchedule {
                    stats: SynthesisStats::default(),
                    ..solved.clone()
                },
                "{context}"
            );
        }
    }
    if !knobs_overridden() {
        assert!(skipped >= 3, "no count was skipped: {skipped}");
    }
    eprintln!("round floors: {skipped} skipped counts re-proven infeasible");
}

/// An edit that loosens a mode — a WCET decrease, a deadline increase —
/// gets no floor: its sweep starts at the slot bound, attempts exactly the
/// counts a from-scratch solve attempts, and may win below the predecessor's
/// round count. A predecessor basis is counted as a warm start only when the
/// sweep reaches its round count.
#[test]
fn loosening_edits_sweep_from_the_bottom() {
    let check = |system: &System,
                 graph: &ModeGraph,
                 config: &SchedulerConfig,
                 edited: &System,
                 repro: &str|
     -> Option<Admission> {
        let admission = admit(system, graph, config, edited, repro)?;
        for (mode, stats) in &admission.incremental.stats {
            assert_eq!(
                stats.rounds_attempted, admission.scratch.stats[mode].rounds_attempted,
                "{mode} ({repro})"
            );
        }
        Some(admission)
    };

    // The round count drops from two to one.
    let (system, graph) = three_senders(millis(20), millis(40));
    let config = three_senders_config();
    let edits = [
        (
            three_senders(millis(10), millis(40)).0,
            "three senders, −10 ms WCET",
        ),
        (
            three_senders(millis(20), millis(60)).0,
            "three senders, +20 ms deadline",
        ),
    ];
    for (edited, repro) in &edits {
        let admission = check(&system, &graph, &config, edited, repro).expect("feasible");
        let mode = ModeId::from_index(0);
        assert_eq!(
            admission
                .predecessor
                .get(mode)
                .expect("solved")
                .num_rounds(),
            2,
            "{repro}"
        );
        assert_eq!(
            admission
                .incremental
                .get(mode)
                .expect("solved")
                .num_rounds(),
            1,
            "{repro}"
        );
        assert_eq!(
            admission.incremental.stats[&mode].rounds_attempted,
            [1],
            "{repro}"
        );
        assert_eq!(
            admission.report,
            ResynthesisReport {
                predecessor_found: true,
                modes_reused: 0,
                modes_resolved: 1,
                warm_started_modes: 0,
                solved_milp_nodes: admission.incremental.stats[&mode].nodes_explored,
                solved_simplex_iterations: admission.incremental.stats[&mode].simplex_iterations,
            },
            "the basis cached at two rounds never reached the solver ({repro})"
        );
    }

    // −1 µs on the admission task of generated scenarios.
    let start = seed_start();
    let mut exercised = 0usize;
    for seed in start..start + seed_count(8) as u64 {
        let scenario = scenario_for_seed(seed, false);
        let task = admission_task(&scenario);
        if scenario.system.task(task).wcet == 1 {
            continue;
        }
        let edited = with_wcets_moved(&scenario.system, &[task], -1);
        let config = scenario.scheduler_config();
        let admission = check(
            &scenario.system,
            &scenario.graph,
            &config,
            &edited,
            &scenario.repro(),
        );
        exercised += usize::from(admission.is_some());
    }
    if !knobs_overridden() {
        assert!(exercised >= 3, "sweep was vacuous: {exercised} scenarios");
    }
}

/// Stale warm material must be harmless: re-synthesizing system B from
/// system A's cached entry (same config, different structure) finds zero
/// reusable modes, no round floor and possibly shape-mismatched bases — and
/// still lands on exactly the schedule a cold from-scratch solve of B
/// produces, attempting exactly the round counts that solve attempts.
#[test]
fn mismatched_predecessor_degrades_to_cold_with_identical_schedule() {
    let family = GeneratorConfig::small(3, GraphShape::Chain);
    let a = generate(&family, 11);
    let b = generate(&family, 12);
    let config = a.scheduler_config();
    let backend = IlpSynthesizer;
    let cache = ScheduleCache::in_memory();
    synthesize_system_cached(&a.system, &a.graph, &config, &cache).expect("predecessor feasible");
    let key_a = synthesis_key(&a.system, &a.graph, &config);

    let scratch =
        synthesize_system(&b.system, &b.graph, &config, &backend).expect("successor feasible");
    let (incremental, report) =
        resynthesize_system(&b.system, &b.graph, &config, &backend, &cache, &key_a)
            .expect("successor feasible incrementally");
    assert!(report.predecessor_found, "same config");
    assert_eq!(report.modes_reused, 0, "nothing of A is reusable for B");
    assert_eq!(report.modes_resolved, scratch.num_modes());
    assert_eq!(
        report.warm_started_modes, 3,
        "only bases that fit B's models are installed"
    );
    assert_eq!(
        system_schedule_to_json(&scratch.content_only()).expect("serialize"),
        system_schedule_to_json(&incremental.content_only()).expect("serialize"),
        "stale predecessor changed the solution"
    );
    for (mode, stats) in &incremental.stats {
        assert_eq!(
            stats.rounds_attempted, scratch.stats[mode].rounds_attempted,
            "a structural edit gets no round floor: {mode}"
        );
    }

    // A predecessor key that simply does not exist degrades to a plain full
    // synthesis: exact byte identity, solver counters included.
    let cold_cache = ScheduleCache::in_memory();
    let (from_nowhere, report) = resynthesize_system(
        &b.system,
        &b.graph,
        &config,
        &backend,
        &cold_cache,
        "0000000000000000",
    )
    .expect("successor feasible");
    assert!(!report.predecessor_found);
    assert_eq!(report.warm_started_modes, 0);
    assert_eq!(
        system_schedule_to_json(&scratch).expect("serialize"),
        system_schedule_to_json(&from_nowhere).expect("serialize"),
        "fallback must be byte-identical to from-scratch synthesis"
    );
}

/// The per-node delta layer reproduces a full redeployment byte-for-byte on
/// generated scenarios: `apply(diff(old, new), old) == new`, through the
/// JSON wire codec, for the predecessor/successor schedule pairs the
/// incremental admission path ships.
#[test]
fn schedule_deltas_reproduce_full_redeployments() {
    use ttw::core::delta::{diff, node_deployments, verified_delta};

    let start = seed_start();
    let mut exercised = 0usize;
    for seed in start..start + seed_count(6) as u64 {
        let scenario = scenario_for_seed(seed, false);
        let config = scenario.scheduler_config();
        let backend = IlpSynthesizer;
        let Ok(old) = synthesize_system(&scenario.system, &scenario.graph, &config, &backend)
        else {
            continue;
        };

        // Identity: a schedule against itself is the empty delta.
        let deployments = node_deployments(&scenario.system, &old);
        assert!(
            diff(&deployments, &deployments).is_empty(),
            "{}",
            scenario.repro()
        );

        // Edit one WCET and diff predecessor against successor. The edit
        // keeps node/task ids stable, so the deployments are diffable.
        let mut edited = scenario.system.clone();
        let last_mode = *scenario.modes().last().expect("modes exist");
        let app = edited.mode(last_mode).applications[0];
        let task = edited.application(app).tasks[0];
        let wcet = edited.task(task).wcet;
        edited.set_task_wcet(task, wcet + 1).expect("non-zero");
        let Ok(new) = synthesize_system(&edited, &scenario.graph, &config, &backend) else {
            continue;
        };

        // verified_delta panics internally if apply(diff) mismatches or the
        // codec does not round-trip; the byte counts sanity-check on top.
        let (delta, delta_bytes, full_bytes) = verified_delta(&edited, &old, &new);
        assert!(full_bytes > 0, "{}", scenario.repro());
        if delta.is_empty() {
            assert_eq!(delta_bytes, delta_to_json_len_floor());
        } else {
            assert!(delta_bytes > 0);
        }
        exercised += 1;
    }
    if !knobs_overridden() {
        assert!(exercised >= 3, "sweep was vacuous: {exercised} scenarios");
    }
}

/// Length of the empty delta document — the wire floor for an edit that
/// changed nothing.
fn delta_to_json_len_floor() -> usize {
    use ttw::core::delta::{delta_to_json, ScheduleDelta};
    delta_to_json(&ScheduleDelta::default()).len()
}
