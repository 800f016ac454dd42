//! What a solve allocates once its workspace is warm.
//!
//! One `SimplexWorkspace` serves every LP of a mode: the trees of its `R_M`
//! attempts and its polish LP. Node snapshots, memo states, factorizations
//! and the eta file are refilled in buffers the workspace already holds, so
//! a tree's node path allocates only the `Branch` link of every child it
//! pushes. A counting global allocator checks that: it forwards every call
//! to the system allocator and counts allocations and reallocations per
//! thread, so the test harness's other threads do not disturb the count.
//!
//! Debug builds re-check every node LP (a fresh factorization per restored
//! state, a fresh ray per Farkas prune, …) and those checks allocate, so the
//! counts are pinned for release builds: `cargo test --release --test
//! solver_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ttw::core::cache::{synthesis_key, ScheduleCache};
use ttw::core::resynth::resynthesize_system;
use ttw::core::synthesis::IlpSynthesizer;
use ttw::milp::{Model, Sense, SimplexWorkspace, SolveError, Status};
use ttw::testkit::{generate, GeneratorConfig, GraphShape};

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

/// The allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
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

/// `rows` knapsack rows over `columns` integers in `[0, 3]`, with
/// deterministic, irregular coefficients: a tree of several hundred nodes
/// that the root cuts do not close.
fn knapsack(columns: usize, rows: usize) -> Model {
    let coeff = |row: usize, col: usize| (7 + (row * 31 + col * 17 + row * col * 5) % 23) as f64;
    let mut m = Model::new("tree");
    let vars: Vec<_> = (0..columns)
        .map(|i| m.add_integer(format!("v{i}"), 0.0, 3.0))
        .collect();
    let obj: Vec<_> = (vars.iter().enumerate())
        .map(|(j, &v)| (v, coeff(9, j) + 0.5 * coeff(4, j)))
        .collect();
    m.set_objective(Sense::Maximize, &obj);
    for row in 0..rows {
        let terms: Vec<_> = (vars.iter().enumerate())
            .map(|(j, &v)| (v, coeff(row, j)))
            .collect();
        m.add_le(&terms, 97.0 + 11.0 * row as f64);
    }
    m
}

/// Past a fixed set-up, a tree's nodes allocate only the `Rc<Branch>`
/// links of the children they push: two per branching. The set-up is what
/// the same solve allocates when its node budget stops it as it pops the
/// root's first child — the equality form, presolve, the root LP and its
/// cut rounds, the root's own branching — measured, like the whole solve,
/// in a workspace that has run the whole tree once. What the rest of the
/// tree may add besides the links is the node heap's doublings and the
/// incumbent's first copy.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds re-check every node LP with allocating checks; run with --release"
)]
fn past_its_set_up_a_tree_allocates_only_its_branch_links() {
    let model = knapsack(16, 5);
    let mut root_only = model.clone();
    root_only.params_mut().max_nodes = 1;
    let workspace = &mut SimplexWorkspace::default();

    let (warm_up, _) = model.solve_with_basis_in(None, workspace).expect("solves");
    let ((whole, _), allocated) =
        allocations_of(|| model.solve_with_basis_in(None, workspace).expect("solves"));
    assert_eq!(whole.status, Status::Optimal);
    assert_eq!(
        whole.counters, warm_up.counters,
        "a warm workspace solves alike"
    );
    let nodes = whole.nodes_explored;
    assert!(nodes >= 200, "the fixture's tree has {nodes} nodes");

    let (stopped, set_up) = allocations_of(|| root_only.solve_with_basis_in(None, workspace));
    assert_eq!(
        stopped.err(),
        Some(SolveError::NodeLimitReached { explored: 1 })
    );

    let branchings = whole.counters.pseudocost_branchings;
    let links = 2 * branchings;
    let heap_doublings = links.ilog2() as usize + 1;
    assert!(
        allocated - set_up <= links + heap_doublings + 1,
        "{nodes} nodes, {branchings} branchings: {allocated} allocations, {set_up} of them \
         the set-up"
    );
}

/// Allocations of the one `resynthesize_system` edit below, pinned a few
/// percent above what it measures. A per-node or per-attempt allocation
/// added to the solver, or a model clone added to the polish, crosses it.
const ADMISSION_EDIT_ALLOCATIONS: usize = 1_800;

/// One admission edit — +1 µs of WCET on a task only the last mode of
/// `bench(8, Chain)` seed 6 runs — re-solves one mode from its cached
/// predecessor in one workspace for all its attempts and its polish.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds re-check every node LP with allocating checks; run with --release"
)]
fn an_admission_edit_stays_under_its_pinned_allocations() {
    let scenario = generate(&GeneratorConfig::bench(8, GraphShape::Chain), 6);
    let (graph, config) = (&scenario.graph, scenario.scheduler_config());
    let cache = ScheduleCache::in_memory();
    let mut system = scenario.system.clone();
    let synthesizer = IlpSynthesizer;
    resynthesize_system(&system, graph, &config, &synthesizer, &cache, "").expect("primes");

    let predecessor = synthesis_key(&system, graph, &config);
    let last = system.modes().map(|(id, _)| id).last().expect("modes");
    let app = (system.mode(last).applications.iter().copied())
        .find(|&app| system.modes_of_application(app).len() == 1)
        .expect("the last mode has an application of its own");
    let task = system.application(app).tasks[0];
    let wcet = system.task(task).wcet;
    system.set_task_wcet(task, wcet + 1).expect("valid WCET");

    let (edited, allocated) = allocations_of(|| {
        resynthesize_system(&system, graph, &config, &synthesizer, &cache, &predecessor)
    });
    let (_, report) = edited.expect("the edit solves");
    assert!(report.predecessor_found);
    assert_eq!(report.modes_resolved, 1, "{report:?}");
    assert!(
        allocated <= ADMISSION_EDIT_ALLOCATIONS,
        "an admission edit allocated {allocated} times (pinned at \
         {ADMISSION_EDIT_ALLOCATIONS})"
    );
}
