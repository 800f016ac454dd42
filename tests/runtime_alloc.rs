//! The steady state of the runtime simulation allocates nothing.
//!
//! Once a simulation has run one hyperperiod, every further round with no
//! mode change reuses the flood engine's buffers and the round buffers and
//! borrows its slot assignments from the host's tables. A counting global
//! allocator checks that: it forwards every call to the system allocator and
//! counts allocations and reallocations per thread, so the test harness's
//! other threads do not disturb the count.
//!
//! Burst-loss and partition plans are left out: the burst table grows the
//! first time a link is sampled and a partition mask is built the first time
//! its window opens, which a warm-up cannot be relied on to cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ttw::core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw::core::time::millis;
use ttw::core::{fixtures, ModeGraph, ModeId, SchedulerConfig};
use ttw::netsim::{BeaconCorruption, FaultPlan};
use ttw::runtime::{BeaconLossPolicy, Simulation, SimulationConfig};

thread_local! {
    /// Allocations and reallocations made by this thread. A `const`
    /// thread-local needs no lazy initialization, so counting never
    /// allocates itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting every allocation it serves.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no heap memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_rounds_allocate_nothing() {
    let (sys, _, _) = fixtures::two_mode_system();
    let config = SchedulerConfig::new(millis(10), 5);
    let graph = ModeGraph::complete(&sys);
    let schedules = synthesize_system(&sys, &graph, &config, &IlpSynthesizer)
        .expect("feasible")
        .to_vec();
    let modes: Vec<ModeId> = sys.modes().map(|(id, _)| id).collect();
    let sim_config = SimulationConfig {
        link_loss: 0.3,
        seed: 5,
        policy: BeaconLossPolicy::Resync { max_misses: 2 },
        faults: Some(FaultPlan {
            seed: 17,
            beacon_corruption: Some(BeaconCorruption {
                probability: 0.2,
                forced: vec![(4, 0), (9, 1)],
            }),
            ..FaultPlan::none()
        }),
        ..SimulationConfig::default()
    };
    let mut sim = Simulation::with_clustered_topology(&sys, &schedules, modes[0], 4, sim_config)
        .expect("simulation builds");
    sim.run_hyperperiods(1);
    let warm = sim.stats().clone();

    let before = allocations();
    sim.run_hyperperiods(10);
    let allocated = allocations() - before;

    // The measured rounds exercised the lossy channel and the fault plan.
    let stats = sim.stats();
    assert!(stats.rounds_executed > warm.rounds_executed);
    assert!(stats.beacons_missed > warm.beacons_missed);
    assert!(stats.beacons_corrupted > warm.beacons_corrupted);
    assert!(stats.messages_delivered > warm.messages_delivered);
    assert_eq!(stats.mode_changes, 0);
    assert_eq!(
        allocated,
        0,
        "{} rounds with no mode change allocated",
        stats.rounds_executed - warm.rounds_executed
    );
}
