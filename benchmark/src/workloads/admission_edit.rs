//! `admission_edit`: every op is a `resynthesize` of a system one WCET
//! microsecond away from a predecessor the cache holds — online admission.
//! The same cache and solver as the other service workloads, used
//! differently: `store_with_artifacts` writes and a growing memory tier
//! beside the probes, basis-warm solves beside cold ones, a whole-schedule
//! reply encode on every op.

use crate::expected::{schedule_numbers, Expected};
use crate::harness::{add, count, Counts, Workload};
use crate::ops::shuffled;
use crate::service_lap::{
    base_of, check_valid, content_json, count_solver_work, finish_trace, synthesize_request,
    trace_request_layers, trace_solver, ServiceLap,
};
use crate::trace::Tracer;
use std::ops::Range;
use ttw_core::delta::{delta_to_json, diff, full_deployment_bytes, node_deployments};
use ttw_core::resynth::resynthesize_system;
use ttw_core::schedule::SystemSchedule;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw_core::system::System;
use ttw_service::{Request, ResynthesizeRequest, ScheduleReply, ServedFrom, SynthesizeRequest};
use ttw_testkit::{generate, GeneratorConfig, GraphShape};

/// Chain depths of the three edited systems (`bench` family, seed 6: the
/// cheapest feasible predecessors, because priming is paid every lap).
const MODE_COUNTS: [usize; 3] = [4, 8, 16];
const FAMILY_SEED: u64 = 6;
/// Edits per system and lap; each builds on the one before it.
const EDITS_PER_SYSTEM: usize = 60;
/// In the traced lap, every how many edits of a system the solver layers
/// are replayed from scratch (a from-scratch solve costs as much as ~15 edits).
const SOLVER_REPLAY_EVERY: usize = 30;

fn family(modes: usize) -> GeneratorConfig {
    GeneratorConfig::bench(modes, GraphShape::Chain)
}

/// The admission edit: +1 µs on the first task of the application only the
/// last mode runs. Ids and precedence stay put; exactly one mode's ILP
/// changes.
fn bump_private_wcet(system: &mut System) -> Result<(), String> {
    let last_mode = system
        .modes()
        .map(|(id, _)| id)
        .last()
        .ok_or("a system without modes")?;
    let app = system
        .mode(last_mode)
        .applications
        .iter()
        .copied()
        .find(|&app| system.modes_of_application(app).len() == 1)
        .ok_or("the last mode has no application of its own")?;
    let task = system.application(app).tasks[0];
    let wcet = system.task(task).wcet;
    system
        .set_task_wcet(task, wcet + 1)
        .map_err(|e| e.to_string())
}

/// The workload: which system each op of a lap edits.
pub struct AdmissionEdit {
    /// Per op: index into [`MODE_COUNTS`] and the edit's number, from 1.
    ops: Vec<(usize, usize)>,
    expected: Expected,
}

impl AdmissionEdit {
    /// # Errors
    ///
    /// Returns the reason when the expected outputs cannot be loaded.
    pub fn new(seed: u64, record: bool) -> Result<Self, String> {
        let mut edits_so_far = [0usize; MODE_COUNTS.len()];
        let slots = (0..MODE_COUNTS.len() * EDITS_PER_SYSTEM)
            .map(|slot| slot % MODE_COUNTS.len())
            .collect();
        // The seed picks the interleaving; a system's own edits stay in order.
        let ops = shuffled(slots, seed)
            .into_iter()
            .map(|system: usize| {
                edits_so_far[system] += 1;
                (system, edits_so_far[system])
            })
            .collect();
        Ok(AdmissionEdit {
            ops,
            expected: Expected::open("admission_edit", record)?,
        })
    }

    fn id(system: usize, edit: usize) -> String {
        format!(
            "bench/{}/chain/{FAMILY_SEED}/edit{edit}",
            MODE_COUNTS[system]
        )
    }
}

/// A fresh service primed with the three predecessors; per system the
/// problem as last edited and the schedule its last reply carried; per op
/// its request from `prepare` to `check_op`.
pub struct Lap {
    service: ServiceLap,
    edited: Vec<SynthesizeRequest>,
    previous: Vec<SystemSchedule>,
    requests: Vec<Option<Request>>,
}

impl Lap {
    fn request(&self, op: usize) -> &Request {
        self.requests[op]
            .as_ref()
            .expect("prepared, not yet checked")
    }
}

fn resynthesize(base: SynthesizeRequest, predecessor: String) -> Request {
    Request::Resynthesize(Box::new(ResynthesizeRequest { base, predecessor }))
}

impl Workload for AdmissionEdit {
    type Lap = Lap;
    type Output = ScheduleReply;
    /// 12 slices ≈ 0.3 ms after ops of 16 ms on average.
    const SLICES_PER_OP: usize = 12;

    fn expected(&self) -> &Expected {
        &self.expected
    }

    fn op_ids(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|&(system, edit)| Self::id(system, edit))
            .collect()
    }

    fn setup(&self) -> Result<Lap, String> {
        let mut service = ServiceLap::start()?;
        let mut edited = Vec::new();
        let mut previous = Vec::new();
        for modes in MODE_COUNTS {
            let base = synthesize_request(&generate(&family(modes), FAMILY_SEED));
            // Priming goes through the incremental path too: with no
            // predecessor it solves in full and, unlike `synthesize`, stores
            // the warm-start artifacts the first edit needs.
            let primed = service.send(&resynthesize(base.clone(), String::new()))?;
            previous.push(primed.schedule);
            edited.push(base);
        }
        Ok(Lap {
            service,
            edited,
            previous,
            requests: self.ops.iter().map(|_| None).collect(),
        })
    }

    /// A system's edits come in order, so the batch's requests can be built
    /// ahead of their predecessors' replies: a key needs only the problem.
    fn prepare(&self, lap: &mut Lap, ops: Range<usize>) -> Result<(), String> {
        for op in ops {
            let base = &mut lap.edited[self.ops[op].0];
            let predecessor = lap.service.scheduler.request_key(base);
            bump_private_wcet(&mut base.system)?;
            lap.requests[op] = Some(resynthesize(base.clone(), predecessor));
        }
        Ok(())
    }

    fn run_op(&self, lap: &mut Lap, op: usize, _: &mut Tracer) -> Result<ScheduleReply, String> {
        let request = lap.requests[op].as_ref().expect("prepared");
        lap.service.send(request)
    }

    fn check_op(&self, lap: &mut Lap, op: usize, reply: ScheduleReply) -> Result<(), String> {
        let (system, edit) = self.ops[op];
        if reply.served != ServedFrom::Incremental {
            return Err(format!("served from {:?}, not incremental", reply.served));
        }
        let request = lap.requests[op].take().expect("prepared, checked once");
        let base = base_of(&request);
        check_valid(base, &reply.schedule)?;
        if self.expected.is_recording() {
            // What gets committed must equal a from-scratch solve; ordinary
            // runs then hold every reply to the committed numbers, and the
            // traced lap repeats the from-scratch comparison on a sample.
            let scratch = synthesize_system(
                &base.system,
                &base.graph,
                &base.config,
                &IlpSynthesizer::default(),
            )
            .map_err(|e| e.to_string())?;
            if content_json(&scratch)? != content_json(&reply.schedule)? {
                return Err("incremental reply differs from a from-scratch solve".into());
            }
        }
        self.expected
            .observe(&Self::id(system, edit), &schedule_numbers(&reply.schedule))
    }

    fn finish(&self, lap: Lap) -> Result<(), String> {
        let resident = lap.service.scheduler.snapshot().cache_resident;
        let wanted = MODE_COUNTS.len() * (1 + EDITS_PER_SYSTEM);
        if resident != wanted {
            return Err(format!("{resident} schedules resident, {wanted} stored"));
        }
        lap.service.finish()
    }

    fn trace_layers(
        &self,
        lap: &mut Lap,
        shadow: &mut Lap,
        op: usize,
        reply: &ScheduleReply,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let (system, edit) = self.ops[op];
        let request = lap.request(op);
        trace_request_layers(&shadow.service, request, reply, tracer, counts)?;
        let Request::Resynthesize(edit_request) = request else {
            unreachable!("every op of this workload is a resynthesize");
        };
        let base = &edit_request.base;

        // The incremental engine on its own, against the shadow's cache: it
        // finds the predecessor there and overwrites the successor entry the
        // shadow's handler just stored with the same bytes.
        let (_, report) = tracer
            .span("resynth.system", |_| {
                resynthesize_system(
                    &base.system,
                    &base.graph,
                    &base.config,
                    &IlpSynthesizer::default(),
                    shadow.service.scheduler.cache(),
                    &edit_request.predecessor,
                )
            })
            .map_err(|e| e.to_string())?;
        add(counts, "resynth.modes_reused", report.modes_reused);
        add(counts, "resynth.modes_resolved", report.modes_resolved);
        add(
            counts,
            "resynth.warm_started_modes",
            report.warm_started_modes,
        );
        add(counts, "milp.nodes", reply.request_milp_nodes);

        // What ships to the nodes: the per-node patch against the schedule
        // they run now, beside a full redeployment.
        let old = &lap.previous[system];
        let (patch, full_bytes) = tracer.span("delta.diff", |_| {
            let before = node_deployments(&base.system, old);
            let after = node_deployments(&base.system, &reply.schedule);
            (diff(&before, &after), full_deployment_bytes(&after))
        });
        let wire = tracer.span("delta.encode", |_| delta_to_json(&patch));
        add(counts, "delta.bytes", wire.len());
        add(counts, "delta.full_bytes", full_bytes);

        // A stats block that changed belongs to a mode a solver ran for.
        let touched = reply
            .schedule
            .stats
            .iter()
            .filter(|(mode, stats)| old.stats.get(mode) != Some(stats))
            .map(|(_, stats)| stats);
        count_solver_work(counts, touched);
        if edit % SOLVER_REPLAY_EVERY == 0 {
            tracer.span("testkit.generate", |_| {
                generate(&family(MODE_COUNTS[system]), FAMILY_SEED)
            });
            trace_solver(base, &reply.schedule, tracer, counts)?;
        }
        lap.previous[system] = reply.schedule.clone();
        Ok(())
    }

    fn trace_finish(&self, lap: &Lap, tracer: &Tracer, counts: &mut Counts) {
        finish_trace(&lap.service, tracer, counts);
        let reused = count(counts, "resynth.modes_reused");
        let modes = reused + count(counts, "resynth.modes_resolved");
        counts.insert("resynth.reuse_ratio", reused / modes.max(1.0));
        let ratio = count(counts, "delta.bytes") / count(counts, "delta.full_bytes").max(1.0);
        counts.insert("delta.byte_ratio", ratio);
    }
}
