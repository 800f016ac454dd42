//! Independent schedule validator.
//!
//! [`validate_schedule`] re-checks a synthesized [`ModeSchedule`] against the
//! semantics of the system model without reusing any of the ILP machinery:
//! rounds must not overlap, every message instance must be served inside its
//! release/deadline window, nodes run one task at a time, precedence holds and
//! end-to-end deadlines are met. The synthesis tests run every schedule
//! through this validator, which protects against formulation and extraction
//! bugs alike.

use crate::config::SchedulerConfig;
use crate::error::ScheduleViolation;
use crate::ids::ModeId;
use crate::schedule::{ModeSchedule, SystemSchedule};
use crate::system::{PrecedenceEdge, System};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Absolute tolerance (µs) used when comparing schedule times.
const TOL: f64 = 0.5;

/// Absolute tolerance (µs) for cross-mode offset agreement. Much tighter than
/// [`TOL`]: inherited offsets are pinned, so any disagreement beyond solver
/// round-off is a pipeline bug, and at runtime a disagreement of any size
/// re-times a running application across a mode change.
const CROSS_MODE_TOL: f64 = 1e-3;

/// Checks `schedule` against the model semantics and returns every violation
/// found (an empty vector means the schedule is valid).
pub fn validate_schedule(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
    schedule: &ModeSchedule,
) -> Vec<ScheduleViolation> {
    let mut violations = Vec::new();
    let hyper = system.hyperperiod(mode) as f64;
    let tr = config.round_duration as f64;

    check_rounds(schedule, hyper, tr, config.slots_per_round, &mut violations);
    check_offset_ranges(system, mode, schedule, &mut violations);
    check_message_service(system, mode, schedule, hyper, tr, &mut violations);
    check_task_overlap(system, mode, schedule, hyper, &mut violations);
    check_precedence_and_deadlines(system, mode, schedule, &mut violations);
    violations
}

/// Convenience wrapper: `true` iff the schedule has no violation.
pub fn is_valid_schedule(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
    schedule: &ModeSchedule,
) -> bool {
    validate_schedule(system, mode, config, schedule).is_empty()
}

/// Checks a complete [`SystemSchedule`]: every mode schedule individually,
/// plus the cross-mode switch-consistency property (shared applications keep
/// identical offsets in every mode that contains them).
pub fn validate_system_schedule(
    system: &System,
    config: &SchedulerConfig,
    schedule: &SystemSchedule,
) -> Vec<ScheduleViolation> {
    let mut violations = Vec::new();
    for (mode, mode_schedule) in schedule.iter() {
        violations.extend(validate_schedule(system, mode, config, mode_schedule));
    }
    violations.extend(check_cross_mode_consistency(
        system,
        schedule.schedules.values(),
    ));
    violations
}

/// Checks only the cross-mode switch-consistency property: for every
/// application scheduled in two or more modes, its task offsets and message
/// offsets/deadlines must agree (within solver round-off) across those modes.
///
/// This is the invariant the runtime's two-phase mode change silently relies
/// on — an application running across a switch keeps its timing. The check is
/// **pairwise** over all scheduled modes containing the application (not
/// against a single reference mode): the runtime uses the reported pairs to
/// refuse individual switches, so every inconsistent pair must be named.
///
/// `schedules` holds at most one schedule per mode (a [`SystemSchedule`]'s
/// `schedules.values()`, or the slice a runtime deploys); modes without one
/// are not compared.
pub fn check_cross_mode_consistency<'a, S: Borrow<ModeSchedule> + 'a>(
    system: &System,
    schedules: impl IntoIterator<Item = &'a S>,
) -> Vec<ScheduleViolation> {
    let by_mode: BTreeMap<ModeId, &ModeSchedule> = schedules
        .into_iter()
        .map(|schedule| (schedule.borrow().mode, schedule.borrow()))
        .collect();
    // The offsets as compared (a missing one reads as NaN) when they differ.
    let differ = |first: Option<f64>, second: Option<f64>| {
        let first = first.unwrap_or(f64::NAN);
        let second = second.unwrap_or(f64::NAN);
        (!(first.is_finite() && second.is_finite()) || (first - second).abs() > CROSS_MODE_TOL)
            .then_some((first, second))
    };
    let mut violations = Vec::new();
    for (app, spec) in system.applications() {
        let scheduled: Vec<(ModeId, &ModeSchedule)> = system
            .modes_of_application(app)
            .into_iter()
            .filter_map(|mode| Some((mode, *by_mode.get(&mode)?)))
            .collect();
        for (i, &(first_mode, reference)) in scheduled.iter().enumerate() {
            for &(second_mode, other) in scheduled.iter().skip(i + 1) {
                // The label is formatted only for a mismatch: a runtime built
                // from consistent schedules compares every offset once.
                let mut mismatch = |what: String, (first, second)| {
                    violations.push(ScheduleViolation::CrossModeOffsetMismatch {
                        app,
                        what,
                        first_mode,
                        second_mode,
                        first,
                        second,
                    });
                };
                for &t in &spec.tasks {
                    if let Some(pair) = differ(reference.task_offset(t), other.task_offset(t)) {
                        mismatch(format!("task {} offset", system.task(t).name), pair);
                    }
                }
                for &m in &spec.messages {
                    let name = &system.message(m).name;
                    if let Some(pair) = differ(reference.message_offset(m), other.message_offset(m))
                    {
                        mismatch(format!("message {name} offset"), pair);
                    }
                    if let Some(pair) =
                        differ(reference.message_deadline(m), other.message_deadline(m))
                    {
                        mismatch(format!("message {name} deadline"), pair);
                    }
                }
            }
        }
    }
    violations
}

fn check_rounds(
    schedule: &ModeSchedule,
    hyper: f64,
    tr: f64,
    slots_per_round: usize,
    violations: &mut Vec<ScheduleViolation>,
) {
    for (j, round) in schedule.rounds.iter().enumerate() {
        if round.start < -TOL || round.start + tr > hyper + TOL {
            violations.push(ScheduleViolation::RoundOutsideHyperperiod { round: j });
        }
        if round.num_slots() > slots_per_round {
            violations.push(ScheduleViolation::TooManySlots {
                round: j,
                allocated: round.num_slots(),
                limit: slots_per_round,
            });
        }
        if j + 1 < schedule.rounds.len() {
            let next = &schedule.rounds[j + 1];
            if round.start + tr > next.start + TOL {
                violations.push(ScheduleViolation::OverlappingRounds {
                    first: j,
                    second: j + 1,
                });
            }
        }
    }
}

fn check_offset_ranges(
    system: &System,
    mode: ModeId,
    schedule: &ModeSchedule,
    violations: &mut Vec<ScheduleViolation>,
) {
    for &t in &system.tasks_in_mode(mode) {
        let p = system.task_period(t) as f64;
        match schedule.task_offset(t) {
            Some(o) if (-TOL..=p + TOL).contains(&o) => {}
            Some(o) => violations.push(ScheduleViolation::OffsetOutOfRange {
                what: format!("task {t} offset {o}"),
            }),
            None => violations.push(ScheduleViolation::OffsetOutOfRange {
                what: format!("task {t} has no offset"),
            }),
        }
    }
    for &m in &system.messages_in_mode(mode) {
        let p = system.message_period(m) as f64;
        let o = schedule.message_offset(m);
        let d = schedule.message_deadline(m);
        match (o, d) {
            (Some(o), Some(d)) => {
                if !(-TOL..=p + TOL).contains(&o) || !(-TOL..=p + TOL).contains(&d) {
                    violations.push(ScheduleViolation::OffsetOutOfRange {
                        what: format!("message {m} offset {o} / deadline {d}"),
                    });
                }
            }
            _ => violations.push(ScheduleViolation::OffsetOutOfRange {
                what: format!("message {m} has no offset or deadline"),
            }),
        }
    }
}

/// Checks C4.1/C4.2 semantically: every message instance must be served by a
/// round that starts after its release and completes before its deadline.
///
/// The check unrolls three hyperperiods and inspects the instances released in
/// the middle one, so wrap-around ("leftover") instances are handled without
/// special cases.
fn check_message_service(
    system: &System,
    mode: ModeId,
    schedule: &ModeSchedule,
    hyper: f64,
    tr: f64,
    violations: &mut Vec<ScheduleViolation>,
) {
    for &m in &system.messages_in_mode(mode) {
        let period = system.message_period(m) as f64;
        let n_inst = (hyper / period).round() as usize;

        let carrying = schedule.rounds_carrying(m);
        if carrying.len() != n_inst {
            violations.push(ScheduleViolation::WrongAllocationCount {
                message: m,
                allocated: carrying.len(),
                expected: n_inst,
            });
            continue;
        }
        let (Some(offset), Some(deadline)) =
            (schedule.message_offset(m), schedule.message_deadline(m))
        else {
            continue; // already reported by check_offset_ranges
        };

        // Unroll rounds and releases over three hyperperiods.
        let mut completions: Vec<(usize, f64)> = Vec::new();
        for h in 0..3 {
            for &j in &carrying {
                completions.push((j, schedule.rounds[j].start + tr + h as f64 * hyper));
            }
        }
        completions.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
        let mut starts: Vec<(usize, f64)> = Vec::new();
        for h in 0..3 {
            for &j in &carrying {
                starts.push((j, schedule.rounds[j].start + h as f64 * hyper));
            }
        }
        starts.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));

        // Greedy FIFO matching of releases to serving rounds.
        let mut used = vec![false; completions.len()];
        for k in 0..(3 * n_inst) {
            let release = offset + k as f64 * period;
            let absolute_deadline = release + deadline;
            let in_middle = release >= hyper - TOL && release < 2.0 * hyper - TOL;
            // The serving round must *start* after the release (C4.1) and
            // *complete* before the deadline (C4.2).
            let candidate = completions
                .iter()
                .zip(starts.iter())
                .enumerate()
                .find(|(idx, ((_, completion), (_, start)))| {
                    !used[*idx] && *start >= release - TOL && *completion <= absolute_deadline + TOL
                })
                .map(|(idx, ((j, _), _))| (idx, *j));
            match candidate {
                Some((idx, _)) => used[idx] = true,
                None if in_middle => {
                    violations.push(ScheduleViolation::DeadlineMiss {
                        message: m,
                        at: absolute_deadline - hyper,
                    });
                }
                None => {}
            }
        }

        // A round that starts before the very first release it could serve
        // indicates a served-before-release error (only possible if counts are
        // off, but kept as a defensive check). Wrap-around messages are
        // exempt: when the service window crosses the period boundary
        // (`offset + deadline > period`, the ILP's `r0` leftover case), the
        // round legitimately starts *before* this period's release because it
        // serves the instance released in the previous period.
        let wraps = offset + deadline > period + TOL;
        for &j in &carrying {
            let start = schedule.rounds[j].start;
            if start + TOL < offset && carrying.len() == n_inst && n_inst == 1 && !wraps {
                violations.push(ScheduleViolation::ServedBeforeRelease {
                    message: m,
                    round: j,
                });
            }
        }
    }
}

fn check_task_overlap(
    system: &System,
    mode: ModeId,
    schedule: &ModeSchedule,
    hyper: f64,
    violations: &mut Vec<ScheduleViolation>,
) {
    let tasks = system.tasks_in_mode(mode);
    for (idx, &a) in tasks.iter().enumerate() {
        for &b in tasks.iter().skip(idx + 1) {
            if system.task(a).node != system.task(b).node {
                continue;
            }
            let (Some(oa), Some(ob)) = (schedule.task_offset(a), schedule.task_offset(b)) else {
                continue;
            };
            let pa = system.task_period(a) as f64;
            let pb = system.task_period(b) as f64;
            let ea = system.task(a).wcet as f64;
            let eb = system.task(b).wcet as f64;
            let na = (hyper / pa).round() as usize;
            let nb = (hyper / pb).round() as usize;
            'outer: for ka in 0..na {
                for kb in 0..nb {
                    let sa = oa + ka as f64 * pa;
                    let sb = ob + kb as f64 * pb;
                    let overlap = sa < sb + eb - TOL && sb < sa + ea - TOL;
                    if overlap {
                        violations.push(ScheduleViolation::TaskOverlapOnNode {
                            first: a,
                            second: b,
                        });
                        break 'outer;
                    }
                }
            }
        }
    }
}

fn check_precedence_and_deadlines(
    system: &System,
    mode: ModeId,
    schedule: &ModeSchedule,
    violations: &mut Vec<ScheduleViolation>,
) {
    for &app_id in &system.mode(mode).applications {
        let app = system.application(app_id);
        let p = app.period as f64;
        let mut worst_latency: f64 = 0.0;
        let mut chain_ok = true;

        for chain in system.chains(app_id) {
            let first = chain.first_task();
            let last = chain.last_task();
            let (Some(o_first), Some(o_last)) =
                (schedule.task_offset(first), schedule.task_offset(last))
            else {
                chain_ok = false;
                continue;
            };
            let mut sigma_sum = 0.0;
            for (from, to) in chain.hops() {
                let edge = match (from, to) {
                    (
                        crate::chains::ChainElement::Task(t),
                        crate::chains::ChainElement::Message(m),
                    ) => PrecedenceEdge::TaskToMessage {
                        task: t,
                        message: m,
                    },
                    (
                        crate::chains::ChainElement::Message(m),
                        crate::chains::ChainElement::Task(t),
                    ) => PrecedenceEdge::MessageToTask {
                        message: m,
                        task: t,
                    },
                    _ => unreachable!("chain elements alternate"),
                };
                let (pred_end, succ_start, description) = match edge {
                    PrecedenceEdge::TaskToMessage { task, message } => {
                        let end = schedule.task_offset(task).unwrap_or(f64::NAN)
                            + system.task(task).wcet as f64;
                        let start = schedule.message_offset(message).unwrap_or(f64::NAN);
                        (end, start, format!("{task} -> {message}"))
                    }
                    PrecedenceEdge::MessageToTask { message, task } => {
                        let end = schedule.message_offset(message).unwrap_or(f64::NAN)
                            + schedule.message_deadline(message).unwrap_or(f64::NAN);
                        let start = schedule.task_offset(task).unwrap_or(f64::NAN);
                        (end, start, format!("{message} -> {task}"))
                    }
                };
                if !pred_end.is_finite() || !succ_start.is_finite() {
                    chain_ok = false;
                    continue;
                }
                let sigma = if pred_end <= succ_start + TOL {
                    0.0
                } else {
                    1.0
                };
                if pred_end > succ_start + sigma * p + TOL {
                    violations.push(ScheduleViolation::PrecedenceViolation { edge: description });
                    chain_ok = false;
                }
                sigma_sum += sigma;
            }
            let latency = o_last + system.task(last).wcet as f64 - o_first + sigma_sum * p;
            worst_latency = worst_latency.max(latency);
        }

        if chain_ok && worst_latency > app.deadline as f64 + TOL {
            violations.push(ScheduleViolation::ApplicationDeadlineMiss {
                app: app_id,
                latency: worst_latency,
                deadline: app.deadline as f64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::schedule::{ScheduledRound, SynthesisStats};
    use crate::synthesis::synthesize_mode;
    use crate::time::millis;
    use std::collections::BTreeMap;

    fn config() -> SchedulerConfig {
        SchedulerConfig::new(millis(10), 5)
    }

    #[test]
    fn synthesized_schedule_passes_validation() {
        let (sys, mode) = fixtures::fig3_system();
        let schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        assert!(is_valid_schedule(&sys, mode, &config(), &schedule));
    }

    #[test]
    fn tampering_with_rounds_is_detected() {
        let (sys, mode) = fixtures::fig3_system();
        let mut schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        // Force the two rounds to overlap.
        schedule.rounds[1].start = schedule.rounds[0].start + 1.0;
        let violations = validate_schedule(&sys, mode, &config(), &schedule);
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::OverlappingRounds { .. })));
    }

    #[test]
    fn dropping_an_allocation_is_detected() {
        let (sys, mode) = fixtures::fig3_system();
        let mut schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        let dropped = schedule.rounds[0].slots.pop().expect("round has slots");
        let violations = validate_schedule(&sys, mode, &config(), &schedule);
        assert!(violations.iter().any(|v| matches!(
            v,
            ScheduleViolation::WrongAllocationCount { message, .. } if *message == dropped
        )));
    }

    #[test]
    fn shrinking_a_message_deadline_is_detected() {
        let (sys, mode) = fixtures::fig3_system();
        let mut schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        // Make the multicast message's deadline shorter than any round length:
        // no round can complete in time any more.
        let m3 = sys.message_id("ctrl.m3").expect("m3 exists");
        schedule.message_deadlines.insert(m3, 1.0);
        let violations = validate_schedule(&sys, mode, &config(), &schedule);
        assert!(
            violations.iter().any(
                |v| matches!(v, ScheduleViolation::DeadlineMiss { message, .. } if *message == m3)
            ),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn moving_a_round_before_the_release_is_detected() {
        let (sys, mode) = fixtures::fig3_system();
        let mut schedule = synthesize_mode(&sys, mode, &config()).expect("feasible");
        // The round carrying the multicast message m3 must start after the
        // controller finished; moving it to the very beginning of the
        // hyperperiod (before the first round) breaks the service window.
        let m3 = sys.message_id("ctrl.m3").expect("m3 exists");
        let carrying = schedule.rounds_carrying(m3)[0];
        schedule.rounds[carrying].start = 0.0;
        schedule
            .rounds
            .sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite"));
        let violations = validate_schedule(&sys, mode, &config(), &schedule);
        assert!(
            !violations.is_empty(),
            "tampered schedule must not validate"
        );
    }

    #[test]
    fn cross_mode_tampering_is_detected() {
        let (sys, graph, _, emergency) = fixtures::two_mode_graph();
        let mut system_schedule = crate::synthesis::synthesize_system(
            &sys,
            &graph,
            &config(),
            &crate::synthesis::IlpSynthesizer,
        )
        .expect("feasible");
        assert!(
            check_cross_mode_consistency(&sys, system_schedule.schedules.values()).is_empty(),
            "inherited synthesis is consistent"
        );
        // Re-time one shared task in the emergency mode only: the runtime
        // would now glitch the control loop on every mode change.
        let tau3 = sys.task_id("ctrl.tau3").expect("task exists");
        let emergency_schedule = std::sync::Arc::make_mut(
            system_schedule
                .schedules
                .get_mut(&emergency)
                .expect("scheduled"),
        );
        *emergency_schedule
            .task_offsets
            .get_mut(&tau3)
            .expect("offset exists") += 500.0;
        let violations = check_cross_mode_consistency(&sys, system_schedule.schedules.values());
        assert!(
            violations.iter().any(|v| matches!(
                v,
                ScheduleViolation::CrossModeOffsetMismatch { second_mode, .. }
                    if *second_mode == emergency
            )),
            "violations: {violations:?}"
        );
        // The full system validator reports it as well.
        let all = validate_system_schedule(&sys, &config(), &system_schedule);
        assert!(!all.is_empty());
    }

    #[test]
    fn cross_mode_check_is_pairwise_over_three_modes() {
        // Three modes share one task-only application. The first two agree,
        // the third diverges: the check must name BOTH inconsistent pairs
        // (m0, m2) and (m1, m2) — the runtime refuses switches per pair, so a
        // reference-mode-only comparison would let the m1 -> m2 switch
        // through.
        let mut sys = crate::System::new();
        sys.add_node("n").expect("node");
        let app = sys
            .add_application(
                &crate::spec::ApplicationSpec::new("shared", millis(100), millis(100)).with_task(
                    "shared.t",
                    "n",
                    millis(1),
                ),
            )
            .expect("valid app");
        let m0 = sys.add_mode("m0", &[app]).expect("valid mode");
        let m1 = sys.add_mode("m1", &[app]).expect("valid mode");
        let m2 = sys.add_mode("m2", &[app]).expect("valid mode");
        let task = sys.task_id("shared.t").expect("task exists");

        let schedule_with_offset = |mode, offset: f64| crate::schedule::ModeSchedule {
            mode,
            hyperperiod: millis(100),
            round_duration: millis(10),
            slots_per_round: 5,
            task_offsets: BTreeMap::from([(task, offset)]),
            message_offsets: BTreeMap::new(),
            message_deadlines: BTreeMap::new(),
            rounds: vec![],
            app_latencies: BTreeMap::new(),
            total_latency: 0.0,
            stats: SynthesisStats::default(),
        };
        let mut system_schedule = crate::schedule::SystemSchedule::new();
        system_schedule
            .schedules
            .insert(m0, schedule_with_offset(m0, 0.0).into());
        system_schedule
            .schedules
            .insert(m1, schedule_with_offset(m1, 0.0).into());
        system_schedule
            .schedules
            .insert(m2, schedule_with_offset(m2, 5000.0).into());

        let violations = check_cross_mode_consistency(&sys, system_schedule.schedules.values());
        let pairs: Vec<(crate::ModeId, crate::ModeId)> = violations
            .iter()
            .filter_map(|v| match v {
                ScheduleViolation::CrossModeOffsetMismatch {
                    first_mode,
                    second_mode,
                    ..
                } => Some((*first_mode, *second_mode)),
                _ => None,
            })
            .collect();
        assert!(pairs.contains(&(m0, m2)), "pairs: {pairs:?}");
        assert!(pairs.contains(&(m1, m2)), "pairs: {pairs:?}");
        assert!(!pairs.contains(&(m0, m1)), "consistent pair reported");
    }

    #[test]
    fn empty_schedule_for_mode_with_messages_reports_missing_offsets() {
        let (sys, mode) = fixtures::fig3_system();
        let empty = crate::schedule::ModeSchedule {
            mode,
            hyperperiod: sys.hyperperiod(mode),
            round_duration: millis(10),
            slots_per_round: 5,
            task_offsets: BTreeMap::new(),
            message_offsets: BTreeMap::new(),
            message_deadlines: BTreeMap::new(),
            rounds: vec![ScheduledRound {
                start: 0.0,
                slots: vec![],
            }],
            app_latencies: BTreeMap::new(),
            total_latency: 0.0,
            stats: SynthesisStats::default(),
        };
        let violations = validate_schedule(&sys, mode, &config(), &empty);
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::OffsetOutOfRange { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::WrongAllocationCount { .. })));
    }
}
