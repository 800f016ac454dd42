//! `cold_solve`: every op is a `synthesize` of a system the lap's service
//! has never seen, so every op runs Algorithm 1 and the MILP solver; codec,
//! cache and transport are a rounding error beside them.

use crate::expected::{schedule_numbers, Expected};
use crate::harness::{add, Counts, Workload};
use crate::ops::shuffled;
use crate::service_lap::{
    base_of, check_valid, count_solver_work, finish_trace, synthesize_request,
    trace_request_layers, trace_solver, ServiceLap,
};
use crate::trace::Tracer;
use ttw_service::{Request, ScheduleReply, ServedFrom};
use ttw_testkit::{generate, GeneratorConfig, GraphShape};

/// The `small` families that generate distinct systems: with two or three
/// modes several graph shapes collapse into the same graph, and a repeated
/// system would be a cache hit, not a solve.
const SMALL_FAMILIES: [(usize, GraphShape); 9] = [
    (2, GraphShape::Chain),
    (2, GraphShape::RandomDag),
    (3, GraphShape::Chain),
    (3, GraphShape::LayeredDag { width: 3 }),
    (3, GraphShape::RandomDag),
    (4, GraphShape::Chain),
    (4, GraphShape::Diamond),
    (4, GraphShape::LayeredDag { width: 3 }),
    (4, GraphShape::RandomDag),
];
/// Testkit seeds on which all nine families are feasible and solve in
/// 1–300 ms: a continuous spread of costs, so neither the p50 nor the p90 op
/// sits on a class boundary.
const SMALL_SEEDS: [u64; 11] = [2, 6, 12, 20, 21, 25, 27, 28, 29, 30, 31];
/// Seeds of the `bench(4, Chain)` tail: three-task chains, uncapped rounds,
/// 130–200 ms a solve.
const BENCH_SEEDS: [u64; 4] = [6, 8, 14, 15];

struct Family {
    id: String,
    config: GeneratorConfig,
    seed: u64,
}

fn pool() -> Vec<Family> {
    let mut pool = Vec::new();
    for (modes, shape) in SMALL_FAMILIES {
        for seed in SMALL_SEEDS {
            pool.push(Family {
                id: format!("small/{modes}/{}/{seed}", shape.name()),
                config: GeneratorConfig::small(modes, shape),
                seed,
            });
        }
    }
    for seed in BENCH_SEEDS {
        pool.push(Family {
            id: format!("bench/4/chain/{seed}"),
            config: GeneratorConfig::bench(4, GraphShape::Chain),
            seed,
        });
    }
    pool
}

/// The workload: the fixed pool in the order the seed picked.
pub struct ColdSolve {
    ops: Vec<Family>,
    expected: Expected,
}

impl ColdSolve {
    /// # Errors
    ///
    /// Returns the reason when the expected outputs cannot be loaded.
    pub fn new(seed: u64, record: bool) -> Result<Self, String> {
        Ok(ColdSolve {
            ops: shuffled(pool(), seed),
            expected: Expected::open("cold_solve", record)?,
        })
    }
}

/// A fresh service and the lap's requests.
pub struct Lap {
    service: ServiceLap,
    requests: Vec<Request>,
}

impl Workload for ColdSolve {
    type Lap = Lap;
    type Output = ScheduleReply;
    /// 40 slices ≈ 1 ms after ops of 50 ms on average.
    const SLICES_PER_OP: usize = 40;

    fn expected(&self) -> &Expected {
        &self.expected
    }

    fn op_ids(&self) -> Vec<String> {
        self.ops.iter().map(|op| op.id.clone()).collect()
    }

    /// Generating the hundred small problems is part of what a user does
    /// before the first request can go out, so it is set-up.
    fn setup(&self) -> Result<Lap, String> {
        let requests = self
            .ops
            .iter()
            .map(|op| {
                let scenario = generate(&op.config, op.seed);
                Request::Synthesize(Box::new(synthesize_request(&scenario)))
            })
            .collect();
        Ok(Lap {
            service: ServiceLap::start()?,
            requests,
        })
    }

    fn run_op(&self, lap: &mut Lap, op: usize, _: &mut Tracer) -> Result<ScheduleReply, String> {
        lap.service.send(&lap.requests[op])
    }

    fn check_op(&self, lap: &mut Lap, op: usize, reply: ScheduleReply) -> Result<(), String> {
        if reply.served != ServedFrom::Solved {
            return Err(format!("served from {:?}, not solved", reply.served));
        }
        check_valid(base_of(&lap.requests[op]), &reply.schedule)?;
        self.expected
            .observe(&self.ops[op].id, &schedule_numbers(&reply.schedule))
    }

    fn finish(&self, lap: Lap) -> Result<(), String> {
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
        let request = &lap.requests[op];
        trace_request_layers(&shadow.service, request, reply, tracer, counts)?;
        tracer.span("testkit.generate", |_| {
            generate(&self.ops[op].config, self.ops[op].seed)
        });
        trace_solver(base_of(request), &reply.schedule, tracer, counts)?;
        add(counts, "milp.nodes", reply.request_milp_nodes);
        count_solver_work(counts, reply.schedule.stats.values());
        Ok(())
    }

    fn trace_finish(&self, lap: &Lap, tracer: &Tracer, counts: &mut Counts) {
        finish_trace(&lap.service, tracer, counts);
    }
}
