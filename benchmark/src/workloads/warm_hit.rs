//! `warm_hit`: every op is a `synthesize` the memory tier already holds, so
//! the solver does nothing and the request path does everything — protocol
//! JSON both ways, framing, the cache key and probe, the socket. Two reply
//! sizes, three to one, keep the per-request cost (p50, inside the small
//! class) apart from the per-byte cost (p90, inside the large class).

use crate::expected::{schedule_numbers, Expected};
use crate::harness::{add, Counts, Workload};
use crate::ops::shuffled;
use crate::service_lap::{
    base_of, check_valid, finish_trace, synthesize_request, trace_request_layers, ServiceLap,
};
use crate::trace::Tracer;
use ttw_service::{Request, ScheduleReply};
use ttw_testkit::{generate, GeneratorConfig, GraphShape};

/// Four-mode chains of the `small` family, seeds that solve in ~20 ms each:
/// priming is set-up cost paid every lap.
const FOUR_MODE_SEEDS: [u64; 6] = [2, 4, 6, 10, 18, 21];
/// Sixteen-mode chains of the `bench` family (feasible at any depth).
const SIXTEEN_MODE_SEEDS: [u64; 2] = [6, 15];
/// Requests per lap to each four-mode system (6 × 250 = 1500, 75 %) and to
/// each sixteen-mode system (2 × 250 = 500, 25 %).
const REQUESTS_PER_SYSTEM: usize = 250;

struct Primed {
    id: String,
    config: GeneratorConfig,
    seed: u64,
}

fn systems() -> Vec<Primed> {
    let four = FOUR_MODE_SEEDS.iter().map(|&seed| Primed {
        id: format!("small/4/chain/{seed}"),
        config: GeneratorConfig::small(4, GraphShape::Chain),
        seed,
    });
    let sixteen = SIXTEEN_MODE_SEEDS.iter().map(|&seed| Primed {
        id: format!("bench/16/chain/{seed}"),
        config: GeneratorConfig::bench(16, GraphShape::Chain),
        seed,
    });
    four.chain(sixteen).collect()
}

/// The workload: which primed system each op of a lap asks for.
pub struct WarmHit {
    systems: Vec<Primed>,
    /// Per op, an index into `systems`.
    ops: Vec<usize>,
    expected: Expected,
}

impl WarmHit {
    /// # Errors
    ///
    /// Returns the reason when the expected outputs cannot be loaded.
    pub fn new(seed: u64, record: bool) -> Result<Self, String> {
        let systems = systems();
        let slots = (0..systems.len() * REQUESTS_PER_SYSTEM)
            .map(|slot| slot / REQUESTS_PER_SYSTEM)
            .collect();
        Ok(WarmHit {
            systems,
            ops: shuffled(slots, seed),
            expected: Expected::open("warm_hit", record)?,
        })
    }
}

/// A fresh service primed with every system, the request for each, and the
/// reply each priming solve returned.
pub struct Lap {
    service: ServiceLap,
    requests: Vec<Request>,
    primed: Vec<ScheduleReply>,
}

impl Workload for WarmHit {
    type Lap = Lap;
    type Output = ScheduleReply;
    /// One slice of ~25 µs after ops of 0.7 and 4 ms.
    const SLICES_PER_OP: usize = 1;

    fn expected(&self) -> &Expected {
        &self.expected
    }

    fn op_ids(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|&system| self.systems[system].id.clone())
            .collect()
    }

    fn setup(&self) -> Result<Lap, String> {
        let requests: Vec<Request> = self
            .systems
            .iter()
            .map(|system| {
                let scenario = generate(&system.config, system.seed);
                Request::Synthesize(Box::new(synthesize_request(&scenario)))
            })
            .collect();
        let mut service = ServiceLap::start()?;
        let primed = requests
            .iter()
            .map(|request| service.send(request))
            .collect::<Result<_, _>>()?;
        Ok(Lap {
            service,
            requests,
            primed,
        })
    }

    fn run_op(&self, lap: &mut Lap, op: usize, _: &mut Tracer) -> Result<ScheduleReply, String> {
        lap.service.send(&lap.requests[self.ops[op]])
    }

    fn check_op(&self, lap: &mut Lap, op: usize, reply: ScheduleReply) -> Result<(), String> {
        if !reply.served.is_warm() || reply.request_milp_nodes != 0 {
            return Err(format!(
                "served from {:?} with {} MILP nodes, not warm",
                reply.served, reply.request_milp_nodes
            ));
        }
        // Struct equality, work counters included: a hit is a clone of the
        // entry the priming solve stored, so its bytes are the same bytes.
        if reply.schedule != lap.primed[self.ops[op]].schedule {
            return Err("warm reply differs from the priming reply".into());
        }
        Ok(())
    }

    fn finish(&self, lap: Lap) -> Result<(), String> {
        for ((system, request), primed) in self.systems.iter().zip(&lap.requests).zip(&lap.primed) {
            check_valid(base_of(request), &primed.schedule)?;
            self.expected
                .observe(&system.id, &schedule_numbers(&primed.schedule))?;
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
        let system = self.ops[op];
        let request = &lap.requests[system];
        trace_request_layers(&shadow.service, request, reply, tracer, counts)?;
        tracer.span("testkit.generate", |_| {
            generate(&self.systems[system].config, self.systems[system].seed)
        });
        add(counts, "milp.nodes", reply.request_milp_nodes);
        Ok(())
    }

    fn trace_finish(&self, lap: &Lap, tracer: &Tracer, counts: &mut Counts) {
        finish_trace(&lap.service, tracer, counts);
    }
}
