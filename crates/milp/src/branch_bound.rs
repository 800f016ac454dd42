//! Best-first branch-and-bound over the LP relaxation.
//!
//! The constraint matrix is converted to the solver's sparse equality form
//! **once**; every node then only overrides variable bounds. Each child node
//! keeps a reference-counted snapshot of its parent's optimal basis and
//! reoptimizes with the **dual simplex** — after a single bound change the
//! parent basis stays dual feasible, so a child typically needs a handful of
//! pivots instead of a full two-phase solve.
//!
//! The nodes all solve one LP — the tree LP, presolve-reduced unless
//! presolve is off — and live in its numbering: the root basis is mapped
//! into it once after the cut loop, and a node's final basis goes to its
//! children as the engine left it. A node holds only the branching that
//! created it, chained to the branchings above it (`Branch`); its bounds
//! are materialized into one buffer in the tree numbering as it is solved,
//! and its values are read into another. Only the root, the cut rounds and
//! the basis handed back to the caller cross the reduction.
//!
//! Two tree-shrinking layers run before and during the search (each
//! toggleable via [`crate::SolveParams`]):
//!
//! 1. **Root cutting planes** (the private `cuts` module): rounds of Gomory
//!    mixed-integer cuts tighten the root relaxation, so the whole tree
//!    starts from a stronger bound. Each round's LP is the base LP plus the
//!    pool, which the last round's purge may have thinned; it starts from
//!    the last round's optimal basis with the purged rows taken out
//!    (`Basis::without_rows`), so it pays only for the cuts it adds. The
//!    first kept round that leaves the root bound flat is the last.
//! 2. **Pseudocost branching** replaces lowest-index-first variable
//!    selection: fractional candidates are ranked by the product of their
//!    estimated down and up objective degradations, ties going to the lowest
//!    index. Every node LP feeds the realized degradation of the branching
//!    that created it back into the averages, so the estimates are learned
//!    from the search itself at no extra LP.
//!
//! Every LP of a tree — the root, the cut rounds and the nodes — runs in the
//! one `SimplexWorkspace` its `TreeLp` owns, so the simplex buffers, LU
//! buffers and eta file are allocated once per tree and freed with it; each
//! LP resets what it uses as it starts. The workspace also counts the pivots
//! charged in it, and at every successful return of `solve_tree` debug
//! builds check that `simplex_iterations` booked them all — failed cut
//! reoptimizations and node LPs that fell back to the uncut relaxation
//! included.

use crate::cuts::{lp_with_cuts, CutPool, Separator};
use crate::error::SolveError;
use crate::model::{Model, SolveParams, INTEGRALITY_TOL};
use crate::presolve::NodeSolver;
use crate::simplex::{
    Basis, FactorState, LpResult, LpStatus, RowView, SimplexWorkspace, SparseLp, Warm,
};
use crate::solution::{Solution, SolverCounters, Status};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Score floor for the pseudocost product rule.
const SCORE_EPS: f64 = 1e-12;
/// Relative gap at which an incumbent is accepted as optimal: a node whose
/// bound is within it of the incumbent is pruned.
const RELATIVE_GAP: f64 = 1e-9;
/// Most root separation rounds when [`SolveParams::cuts`] is on. Each round
/// derives cuts from the current fractional root optimum, filters them
/// through the cut pool and reoptimizes the root. The loop ends sooner at
/// the first kept round whose root bound moved by no more than
/// [`FLAT_ROUND_TOL`].
const MAX_CUT_ROUNDS: usize = 8;
/// Relative rise of the root LP objective, against `max(1, |z|)` before
/// the round, at or below which a kept round is flat and ends the cut loop;
/// its cuts stay. Over the 103 systems of the repo benchmark's `cold_solve`
/// workload, 508 of 1,294 kept rounds are flat by this measure and every
/// one of them moved the bound by at most 1e-4 absolute — no more than the
/// ILP's anchor tie-break terms can. Ending there takes the lap from
/// 27,631 to 26,969 nodes and from 124,180 to 98,576 pivots. A tolerance
/// of 0 or 1e-9 rarely stops the loop (27,637 and 27,633 nodes); 1e-4 to
/// 1e-2 match 1e-6 within noise.
const FLAT_ROUND_TOL: f64 = 1e-6;
/// Snapshots whose factor state a tree remembers ([`TreeLp`]). Over the 103
/// systems of the repo benchmark's `cold_solve` workload (solved one after
/// another), the 31,691 factorizations of a memo-less run fall to 22,886
/// with 1 entry, 13,241 with 2, 10,115 with 4, 8,564 with 8 and 7,196 with
/// 16. Past 4 the lap is no faster (1.43–1.45 s at 4, 1.44–1.50 s at 8,
/// 1.43–1.46 s at 16, three laps each on the same 2-core host) and the
/// search takes more pivots than without the memo (140,868 at 4, 142,083
/// at 8, 142,689 at 16, 141,367 without). An entry is a few KB.
const MEMO_CAPACITY: usize = 4;

/// A subproblem: the branching that created it and the LP bound of its
/// parent.
#[derive(Debug, Clone)]
struct Node {
    /// The branching that created this node, chained to the ones above it.
    branch: Rc<Branch>,
    /// Lower bound on the node's optimal value: its parent's LP objective.
    bound: f64,
    depth: usize,
    /// The parent's optimal basis in the tree numbering, used to
    /// warm-start the dual simplex.
    warm: Option<Rc<Basis>>,
    /// Whether the branching lowered the variable's upper bound, and the
    /// parent's fractionality of it. Once this node's own LP solves, the
    /// measured objective degradation is fed back into the pseudocost
    /// averages.
    down: bool,
    frac: f64,
}

/// One branching: the bounds `[lo, hi]` it gave original column `var`, and
/// the branching that created the node it branched from (`None` at the
/// root). Both children of a node share that node's chain.
///
/// A branching only tightens — a fractional value `v` of a variable in
/// `[lo, hi]` gives `⌊v⌋ ≤ hi` and `⌈v⌉ ≥ lo` — so a node's bounds are the
/// root bounds tightened by `max`/`min` along its chain, in any order, and
/// the nearest branching on a variable holds that variable's bounds.
#[derive(Debug)]
struct Branch {
    var: usize,
    lo: f64,
    hi: f64,
    parent: Option<Rc<Branch>>,
}

impl Branch {
    /// This branching and every one above it, nearest first.
    fn chain(&self) -> impl Iterator<Item = &Branch> {
        std::iter::successors(Some(self), |branch| branch.parent.as_deref())
    }

    /// The original-space bounds of `var` at a node created by `branch`
    /// (the root when `None`), whose root bounds are `root`.
    fn bounds_of(branch: Option<&Branch>, var: usize, root: &[(f64, f64)]) -> (f64, f64) {
        (branch.into_iter().flat_map(Branch::chain))
            .find(|b| b.var == var)
            .map_or(root[var], |b| (b.lo, b.hi))
    }
}

/// Materializes into `out` the bounds, in `solver`'s tree numbering, of the
/// node `branch` created: `root`, the tree root bounds, tightened by every
/// branching of the chain. `false` when the node is infeasible outright
/// ([`NodeSolver::tighten`]).
fn materialize(
    solver: &NodeSolver,
    root: &[(f64, f64)],
    branch: &Branch,
    out: &mut Vec<(f64, f64)>,
) -> bool {
    out.clear();
    out.extend_from_slice(root);
    (branch.chain()).all(|b| solver.tighten(out, b.var, b.lo, b.hi))
}

/// The LPs of one tree — the base equality form and its presolve reduction,
/// then the base extended by the root cuts once the cut loop keeps a round —
/// with the tree's memo of warm-start factor states, its node buffers and
/// the one [`SimplexWorkspace`] every LP of the tree runs in.
///
/// The nodes solve [`TreeLp::lp`] through its [`NodeSolver`], in that
/// solver's numbering (the tree numbering): the snapshots the nodes hold,
/// the memo's keys and states, and the bounds a node is materialized into
/// ([`TreeLp::root`] tightened along the node's [`Branch`] chain) are all
/// in it. A node's values are read into [`TreeLp::values`] in the original
/// numbering.
///
/// The workspace serves the root, the cut rounds and every node, and is
/// dropped with the tree: per-LP buffers, LU buffers and
/// the eta file are allocated once per tree instead of once per LP, and
/// every LP resets them as it starts, so reuse cannot change an answer. It
/// also counts every pivot charged in it, which is what lets `solve_tree`
/// check that the counters book them all.
///
/// A node's children start from the basis its LP ended on, and the
/// workspace still holds the factor state that LP ended on when the search
/// has pushed them: its LU factors, eta file and — when it ended through
/// the dual simplex — its reduced costs. The search [files](TreeLp::file)
/// that state in the memo under the node's snapshot, and a child whose
/// snapshot is there restores it instead of factorizing the basis from
/// scratch. A child that misses factorizes and leaves that start in the
/// memo for its sibling. A restored state carries its eta file's drift,
/// which the dual simplex tolerates because it certifies a prune by the
/// Farkas ray of the dual-unbounded row rather than by a fresh
/// factorization: the memo moves pivots, not verdicts. When the memo is
/// full, a new entry takes the place, and the buffers, of the least
/// recently used one. A state also carries the `x_B` derived through its
/// factors when that was fresh — at the end of a node LP the dual simplex
/// finished optimal, and at every from-scratch start — and a child takes
/// it as it is when its branched column is basic in the snapshot
/// ([`Warm::Branch`]).
struct TreeLp<'a> {
    base_lp: &'a SparseLp,
    base_rows: &'a RowView,
    base_solver: &'a NodeSolver,
    /// The base LP with the kept cut rows appended, its rows and its
    /// presolve.
    cut: Option<(SparseLp, RowView, NodeSolver)>,
    /// Least recently used first. The key is held, not just compared: while
    /// the memo owns the `Rc`, its address cannot be recycled for another
    /// snapshot.
    memo: Vec<(Rc<Basis>, FactorState)>,
    memo_capacity: usize,
    /// Whether the workspace holds what the last [`TreeLp::solve`] ended on,
    /// an optimal node LP over [`TreeLp::lp`].
    fileable: bool,
    /// The root bounds in the tree numbering ([`TreeLp::start`]).
    root: Vec<(f64, f64)>,
    /// The bounds of the node being solved, in the tree numbering, or in
    /// the original one when it falls back to the uncut LP.
    bounds: Vec<(f64, f64)>,
    /// The values of the last node LP that solved to optimality, in the
    /// original numbering.
    values: Vec<f64>,
    workspace: SimplexWorkspace,
}

impl<'a> TreeLp<'a> {
    fn new(
        base_lp: &'a SparseLp,
        base_rows: &'a RowView,
        base_solver: &'a NodeSolver,
        memo_capacity: usize,
    ) -> Self {
        TreeLp {
            base_lp,
            base_rows,
            base_solver,
            cut: None,
            memo: Vec::with_capacity(memo_capacity),
            memo_capacity,
            fileable: false,
            root: Vec::new(),
            bounds: Vec::new(),
            values: Vec::new(),
            workspace: SimplexWorkspace::default(),
        }
    }

    /// The [`NodeSolver`] of [`TreeLp::lp`].
    fn solver(&self) -> &NodeSolver {
        self.cut
            .as_ref()
            .map_or(self.base_solver, |(_, _, solver)| solver)
    }

    /// Readies the tree LP for the search below the root, whose bounds in
    /// the original numbering are `root_bounds`, and maps `basis`, the root
    /// basis over it, into the tree numbering.
    fn start(&mut self, root_bounds: &[(f64, f64)], basis: Option<Basis>) -> Option<Rc<Basis>> {
        self.root = self.solver().tree_root_bounds(root_bounds);
        basis.and_then(|b| self.tree_basis(b)).map(Rc::new)
    }

    /// `basis`, in the original numbering, in the tree numbering.
    fn tree_basis(&mut self, basis: Basis) -> Option<Basis> {
        let solver = self.cut.as_ref().map_or(self.base_solver, |(.., s)| s);
        solver.tree_basis(basis, &mut self.workspace.mapped_used)
    }

    /// The LP the tree's nodes solve: the cut LP once there is one.
    fn lp(&self) -> &SparseLp {
        self.cut.as_ref().map_or(self.base_lp, |(lp, ..)| lp)
    }

    /// The [`RowView`] of [`TreeLp::lp`].
    fn rows(&self) -> &RowView {
        self.cut
            .as_ref()
            .map_or(self.base_rows, |(_, rows, _)| rows)
    }

    /// Makes `lp` (the base LP plus cut rows), its rows and its presolve
    /// the LP the tree's nodes solve.
    fn install_cuts(&mut self, lp: SparseLp, rows: RowView, solver: NodeSolver) {
        // Memo entries are factor states of bases over the previous LP.
        self.memo.clear();
        self.cut = Some((lp, rows, solver));
    }

    /// Solves the base LP — cut rows excluded — under `bounds` from `warm`.
    fn solve_base(
        &mut self,
        bounds: &[(f64, f64)],
        max_iters: usize,
        warm: Warm<'_>,
    ) -> Result<(LpResult, Option<Basis>), SolveError> {
        self.fileable = false;
        self.base_solver
            .solve(self.base_lp, bounds, max_iters, warm, &mut self.workspace)
    }

    /// Solves the node `branch` created: by the dual simplex from `warm` —
    /// the optimal basis of the node it branched from, from the factor state
    /// that node's LP ended on when the memo has it — or cold without one.
    /// The values go to [`TreeLp::values`]; the basis comes back in the tree
    /// numbering.
    fn solve(
        &mut self,
        branch: &Branch,
        max_iters: usize,
        warm: Option<&Rc<Basis>>,
    ) -> Result<(LpResult, Option<Basis>), SolveError> {
        // The snapshot's slot: its memo entry, or an empty one for the start
        // to fill.
        let mut slot = match warm {
            Some(snapshot) if self.memo_capacity > 0 => {
                let known = (self.memo.iter()).position(|(key, _)| Rc::ptr_eq(key, snapshot));
                Some(match known {
                    Some(at) => self.memo.remove(at).1,
                    None => self.vacancy(),
                })
            }
            _ => None,
        };
        let (lp, solver) = match &self.cut {
            Some((lp, _, solver)) => (lp, solver),
            None => (self.base_lp, self.base_solver),
        };
        let solved = if materialize(solver, &self.root, branch, &mut self.bounds) {
            // The node's bounds differ from its parent's, and its sibling's,
            // on the branched column alone.
            let start = match (warm, solver.tree_column(branch.var)) {
                (Some(snapshot), Some(column)) => Warm::Branch(snapshot, slot.as_mut(), column),
                (Some(snapshot), None) => Warm::Dual(snapshot, slot.as_mut()),
                (None, _) => Warm::Cold,
            };
            let (workspace, values) = (&mut self.workspace, &mut self.values);
            solver.solve_node(lp, &self.bounds, max_iters, start, workspace, values)
        } else {
            Ok((LpResult::infeasible_without_pivots(), None))
        };
        // The start's state, restored or left by the install, stays for the
        // snapshot's other child; most recently used last.
        if let (Some(snapshot), Some(state)) = (warm, slot) {
            if state.is_captured() {
                self.memo.push((Rc::clone(snapshot), state));
            }
        }
        self.fileable = matches!(&solved, Ok((r, _)) if r.status == LpStatus::Optimal);
        solved
    }

    /// Solves the node `branch` created on the base LP, cut rows excluded,
    /// cold: the fallback of a node whose LP dead-ends on the cut LP. Its
    /// values go to [`TreeLp::values`] and its basis comes back in the tree
    /// numbering, mapped once for the children that will hold it.
    fn solve_uncut(
        &mut self,
        branch: &Branch,
        root_bounds: &[(f64, f64)],
        max_iters: usize,
    ) -> Result<(LpResult, Option<Basis>), SolveError> {
        let mut bounds = std::mem::take(&mut self.bounds);
        materialize(&NodeSolver::Direct, root_bounds, branch, &mut bounds);
        let solved = self.solve_base(&bounds, max_iters, Warm::Cold);
        self.bounds = bounds;
        let (mut result, basis) = solved?;
        self.values = std::mem::take(&mut result.values);
        Ok((result, basis.and_then(|b| self.tree_basis(b))))
    }

    /// Files the factor state the last [`TreeLp::solve`] ended on under
    /// `snapshot`, that LP's final basis, when a child holds the snapshot
    /// too — a node without children has nobody to restore it.
    fn file(&mut self, snapshot: &Rc<Basis>) {
        if !self.fileable || Rc::strong_count(snapshot) == 1 || self.memo_capacity == 0 {
            return;
        }
        let mut state = self.vacancy();
        self.workspace.capture(&mut state);
        self.memo.push((Rc::clone(snapshot), state));
    }

    /// An empty state to fill: a new one while the memo has room, else the
    /// least recently used entry's, emptied.
    fn vacancy(&mut self) -> FactorState {
        if self.memo.len() < self.memo_capacity {
            return FactorState::default();
        }
        let (_, mut evicted) = self.memo.remove(0);
        self.workspace.recycle(&mut evicted);
        evicted
    }
}

/// Books the work of an LP solve that returned.
fn count_lp(counters: &mut SolverCounters, lp: &LpResult) {
    counters.simplex_iterations += lp.iterations;
    counters.devex_resets += lp.devex_resets;
    counters.lu_factorizations += lp.lu_factorizations;
}

/// Books the pivots of an LP solve that failed: a budget or a numerical dead
/// end reports how many it charged before it stopped.
fn count_failed_lp(counters: &mut SolverCounters, error: &SolveError) {
    if let SolveError::IterationLimitReached { iterations }
    | SolveError::NumericalInstability { iterations } = *error
    {
        counters.simplex_iterations += iterations;
    }
}

/// Orders nodes so the [`BinaryHeap`] pops the smallest LP bound first
/// (best-first search for minimization).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest bound first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.depth.cmp(&self.depth))
    }
}

/// Per-variable up/down objective-degradation averages (pseudocosts).
///
/// `record_*` feeds a measured degradation *per unit of fractionality*;
/// `estimate_*` multiplies the average back by the fractional distance. A
/// variable with no observations in a direction borrows the global average
/// over all variables, the textbook initialization. That average is a pass
/// over every variable, so a branching computes it at most once per
/// direction and hands it to every estimate through `global`.
struct Pseudocosts {
    down_sum: Vec<f64>,
    down_count: Vec<usize>,
    up_sum: Vec<f64>,
    up_count: Vec<usize>,
}

impl Pseudocosts {
    fn new(nvars: usize) -> Self {
        Pseudocosts {
            down_sum: vec![0.0; nvars],
            down_count: vec![0usize; nvars],
            up_sum: vec![0.0; nvars],
            up_count: vec![0usize; nvars],
        }
    }

    fn record_down(&mut self, var: usize, per_unit: f64) {
        self.down_sum[var] += per_unit.max(0.0);
        self.down_count[var] += 1;
    }

    fn record_up(&mut self, var: usize, per_unit: f64) {
        self.up_sum[var] += per_unit.max(0.0);
        self.up_count[var] += 1;
    }

    /// Average of all observations in one direction, or 1.0 before any exist.
    fn global_average(sum: &[f64], count: &[usize]) -> f64 {
        let n: usize = count.iter().sum();
        if n == 0 {
            1.0
        } else {
            sum.iter().sum::<f64>() / n as f64
        }
    }

    fn estimate_down(&self, var: usize, frac: f64, global: &mut Option<f64>) -> f64 {
        let avg = if self.down_count[var] > 0 {
            self.down_sum[var] / self.down_count[var] as f64
        } else {
            *global.get_or_insert_with(|| Self::global_average(&self.down_sum, &self.down_count))
        };
        avg * frac
    }

    fn estimate_up(&self, var: usize, frac: f64, global: &mut Option<f64>) -> f64 {
        let avg = if self.up_count[var] > 0 {
            self.up_sum[var] / self.up_count[var] as f64
        } else {
            *global.get_or_insert_with(|| Self::global_average(&self.up_sum, &self.up_count))
        };
        avg * (1.0 - frac)
    }
}

/// Solves the mixed-integer program by branch-and-bound.
///
/// The returned objective is expressed in the user's optimization sense.
pub(crate) fn solve(model: &Model) -> Result<Solution, SolveError> {
    solve_warm(model, None).map(|(solution, _)| solution)
}

/// Solves the mixed-integer program, optionally warm-starting the root LP
/// from `warm` (a [`Basis`] snapshot of an earlier, related solve).
///
/// Returns the solution together with the optimal basis of the **root**
/// relaxation *of the base model* (cut rows excluded, so the snapshot stays
/// valid for callers growing the model incrementally and feeding it back).
pub(crate) fn solve_warm(
    model: &Model,
    warm: Option<&Basis>,
) -> Result<(Solution, Option<Basis>), SolveError> {
    solve_tree(model, warm, MEMO_CAPACITY)
}

/// [`solve_warm`] with the tree remembering the factorizations of
/// `memo_capacity` snapshots ([`TreeLp`]); the capacity decides how often a
/// basis is factorized and nothing else.
fn solve_tree(
    model: &Model,
    warm: Option<&Basis>,
    memo_capacity: usize,
) -> Result<(Solution, Option<Basis>), SolveError> {
    let root_bounds: Vec<(f64, f64)> = model
        .variables()
        .map(|(_, v)| match v.kind {
            // Tighten integral bounds to the enclosing integer lattice.
            k if k.is_integral() => (v.lower.ceil(), v.upper.floor()),
            _ => (v.lower, v.upper),
        })
        .collect();

    // The sparse equality form is shared by every node; only bounds differ.
    // Presolve reduces it once per tree LP (fixed columns out, empty/singleton
    // rows folded into bounds). The root and the cut rounds solve through the
    // reduction and map results back, so the caller's basis is in the
    // original numbering; the nodes stay in the reduction's.
    let base_lp = SparseLp::from_model(model);
    let base_rows = RowView::of(&base_lp);
    let integral: Vec<bool> = model
        .variables()
        .map(|(_, v)| v.kind.is_integral())
        .collect();
    let Some(base_solver) = NodeSolver::build(
        &base_lp,
        &base_rows,
        &root_bounds,
        &integral,
        model.params().presolve,
    ) else {
        // Presolve proved the root infeasible before a single pivot.
        let untouched = SolverCounters::default();
        return Ok((
            Solution::without_values(Status::Infeasible, untouched),
            None,
        ));
    };

    let mut tree = TreeLp::new(&base_lp, &base_rows, &base_solver, memo_capacity);
    let searched = search(model, warm, &mut tree, &root_bounds, &integral);
    // Every LP of the search ran in the tree's workspace, which counts the
    // pivots it charged; whichever way the search ended, the counters must
    // have booked every one of them.
    if let Ok((solution, _)) = &searched {
        debug_assert_eq!(
            solution.counters.simplex_iterations,
            tree.workspace.pivots(),
            "a pivot charged in the tree's workspace went unbooked"
        );
    }
    searched
}

/// The search of [`solve_tree`] over `tree`: root LP, cut loop and
/// best-first branch-and-bound.
fn search(
    model: &Model,
    warm: Option<&Basis>,
    tree: &mut TreeLp<'_>,
    root_bounds: &[(f64, f64)],
    integral: &[bool],
) -> Result<(Solution, Option<Basis>), SolveError> {
    let params = model.params().clone();
    let max_iters = params.max_simplex_iterations;
    let (base_lp, base_solver) = (tree.base_lp, tree.base_solver);

    let integer_vars: Vec<usize> = model
        .variables()
        .filter(|(_, v)| v.kind.is_integral())
        .map(|(id, _)| id.index())
        .collect();

    let mut counters = SolverCounters::default();

    let root_warm = match warm {
        Some(basis) => Warm::Primal(basis),
        None => Warm::Cold,
    };
    let (root_lp, root_basis) = tree.solve_base(root_bounds, max_iters, root_warm)?;
    count_lp(&mut counters, &root_lp);
    counters.candidate_list_size = root_lp.candidate_list_size;
    (
        counters.presolve_rows_removed,
        counters.presolve_cols_removed,
    ) = base_solver.presolve_stats();

    // Pure LPs never need branching.
    if integer_vars.is_empty() {
        let solution = match root_lp.status {
            LpStatus::Optimal => Solution::optimal(
                model.signed_objective(root_lp.objective),
                root_lp.values,
                counters,
            ),
            LpStatus::Infeasible => Solution::without_values(Status::Infeasible, counters),
            LpStatus::Unbounded => Solution::without_values(Status::Unbounded, counters),
        };
        return Ok((solution, root_basis));
    }

    // From here on the root counts as a node, whatever ends the solve.
    counters.nodes_explored = 1;
    match root_lp.status {
        LpStatus::Infeasible => {
            return Ok((Solution::without_values(Status::Infeasible, counters), None));
        }
        LpStatus::Unbounded => {
            return Ok((Solution::without_values(Status::Unbounded, counters), None));
        }
        LpStatus::Optimal => {}
    }

    // The caller gets the *base-space* root basis back: it stays valid for
    // the grow-and-resolve warm-start chain even though the tree below may
    // solve an LP extended by cut rows.
    let caller_basis = root_basis.clone();

    // ------------------------------------------------------------------
    // Root cutting loop: separate, filter through the pool, reoptimize.
    // ------------------------------------------------------------------
    let mut root = root_lp;
    let mut basis = root_basis;
    if params.cuts {
        let mut cuts = CutLoop::new(&params, root_bounds, integral);
        for _ in 0..MAX_CUT_ROUNDS {
            let before = root.objective;
            match cuts.round(tree, &mut root, &mut basis, &mut counters)? {
                Round::Kept
                    if root.objective - before <= FLAT_ROUND_TOL * before.abs().max(1.0) =>
                {
                    break
                }
                Round::Kept => {}
                Round::Done => break,
                Round::Infeasible => {
                    return Ok((
                        Solution::without_values(Status::Infeasible, counters),
                        caller_basis,
                    ));
                }
            }
        }
        cuts.drop_purged(
            tree,
            caller_basis.as_ref(),
            &mut root,
            &mut basis,
            &mut counters,
        );
    }

    // ------------------------------------------------------------------
    // Best-first tree search.
    // ------------------------------------------------------------------
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let mut pseudo = Pseudocosts::new(base_lp.nstruct);
    let mut heap = BinaryHeap::new();

    let root_snapshot = tree.start(root_bounds, basis);
    expand_node(
        &params,
        &integer_vars,
        &pseudo,
        &mut heap,
        &mut incumbent,
        (root_bounds, None),
        root.objective,
        &root.values,
        0,
        root_snapshot,
        &mut counters,
    );

    while let Some(node) = heap.pop() {
        // A node whose bound cannot improve on the incumbent is pruned; with
        // best-first ordering this also proves optimality of the incumbent.
        if let Some((best, _)) = &incumbent {
            if node.bound >= *best - RELATIVE_GAP * best.abs().max(1.0) {
                break;
            }
        }
        if counters.nodes_explored >= params.max_nodes {
            return Err(SolveError::NodeLimitReached {
                explored: counters.nodes_explored,
            });
        }
        counters.nodes_explored += 1;

        let (lp_result, node_basis) = match tree.solve(&node.branch, max_iters, node.warm.as_ref())
        {
            Ok(solved) => solved,
            // Appended cut rows can make a node LP numerically harder than
            // the base model. A node that dead-ends on the cut LP even after
            // its internal cold restart is re-solved on the uncut relaxation
            // — a valid (if weaker) bound, and exact on integral points, so
            // the search stays sound instead of aborting the whole tree.
            Err(e @ SolveError::NumericalInstability { .. }) if tree.cut.is_some() => {
                count_failed_lp(&mut counters, &e);
                tree.solve_uncut(&node.branch, root_bounds, max_iters)?
            }
            Err(e) => return Err(e),
        };
        count_lp(&mut counters, &lp_result);
        match lp_result.status {
            LpStatus::Infeasible => continue,
            // An unbounded relaxation cannot be branched meaningfully (the
            // root was bounded, so children are too; this is defensive).
            LpStatus::Unbounded => continue,
            LpStatus::Optimal => {}
        }

        // The realized degradation of the branching that created this node
        // is a full-accuracy pseudocost observation, free of charge.
        let (var, frac) = (node.branch.var, node.frac);
        let degrade = (lp_result.objective - node.bound).max(0.0);
        if node.down {
            if frac > 0.0 {
                pseudo.record_down(var, degrade / frac);
            }
        } else if frac < 1.0 {
            pseudo.record_up(var, degrade / (1.0 - frac));
        }

        // Prune by bound against the incumbent.
        if let Some((best, _)) = &incumbent {
            if lp_result.objective >= *best - RELATIVE_GAP * best.abs().max(1.0) {
                continue;
            }
        }

        let node_basis = node_basis.map(Rc::new);
        expand_node(
            &params,
            &integer_vars,
            &pseudo,
            &mut heap,
            &mut incumbent,
            (root_bounds, Some(&node.branch)),
            lp_result.objective,
            &tree.values,
            node.depth,
            node_basis.clone(),
            &mut counters,
        );
        if let Some(snapshot) = &node_basis {
            tree.file(snapshot);
        }
    }

    let solution = match incumbent {
        Some((objective, mut values)) => {
            // Snap integer variables onto the lattice to remove solver noise.
            for &vi in &integer_vars {
                values[vi] = values[vi].round();
            }
            Solution::optimal(model.signed_objective(objective), values, counters)
        }
        None => Solution::without_values(Status::Infeasible, counters),
    };
    Ok((solution, caller_basis))
}

/// The root cutting loop of a tree: the cut pool, the separator's buffers
/// and which cuts of the tree LP the pool kept at its last purge.
struct CutLoop<'b> {
    root_bounds: &'b [(f64, f64)],
    integral: &'b [bool],
    presolve: bool,
    max_iters: usize,
    pool: CutPool,
    separator: Separator,
    /// For every cut row of the tree LP, whether the pool kept its cut at
    /// the purge that ended the last round.
    kept: Vec<bool>,
}

/// How a cut round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// The round's LP, with its cuts, is the tree LP now.
    Kept,
    /// No cut was adopted, or the round's LP dead-ended and its cuts left
    /// the pool again: the tree LP stays.
    Done,
    /// The tightened root is infeasible. Every cut is valid for every
    /// integer point, so the MILP is.
    Infeasible,
}

impl<'b> CutLoop<'b> {
    fn new(params: &SolveParams, root_bounds: &'b [(f64, f64)], integral: &'b [bool]) -> Self {
        CutLoop {
            root_bounds,
            integral,
            presolve: params.presolve,
            max_iters: params.max_simplex_iterations,
            pool: CutPool::new(),
            separator: Separator::default(),
            kept: Vec::new(),
        }
    }

    /// One round: separates at the root optimum `root`, whose basis over
    /// the tree LP is `basis`, filters the cuts through the pool and
    /// reoptimizes the base LP extended by the pool. When the round is kept,
    /// `root` and `basis` are its LP's and the pool is aged and purged
    /// against its optimum.
    fn round(
        &mut self,
        tree: &mut TreeLp<'_>,
        root: &mut LpResult,
        basis: &mut Option<Basis>,
        counters: &mut SolverCounters,
    ) -> Result<Round, SolveError> {
        let Some(last) = basis.as_ref() else {
            return Ok(Round::Done);
        };
        let candidates = self.separator.separate_round(
            tree.lp(),
            tree.rows(),
            self.root_bounds,
            self.integral,
            last,
            &root.values,
            &mut counters.lu_factorizations,
        );
        let before = self.pool.len();
        for cut in candidates {
            self.pool.try_add(cut, &root.values);
        }
        let added = self.pool.len() - before;
        if added == 0 {
            return Ok(Round::Done);
        }
        counters.cuts_added += added;
        counters.cut_rounds += 1;

        let (lp, rows) = lp_with_cuts(tree.base_lp, tree.base_rows, self.pool.cuts());
        let Some(solver) =
            NodeSolver::build(&lp, &rows, self.root_bounds, self.integral, self.presolve)
        else {
            return Ok(Round::Infeasible);
        };
        // The round's LP is the base LP, the cuts the last purge kept and
        // the new ones. It starts from the last round's optimal basis with
        // the purged cuts' rows taken out — a purged cut was slack, so its
        // logical is basic — and the new rows entering on their logicals.
        // Were a purged cut's logical nonbasic, the round would start cold.
        let realigned;
        let warm = if self.kept.iter().all(|&kept| kept) {
            Warm::Primal(last)
        } else {
            realigned = last.without_rows(&self.kept);
            realigned.as_ref().map_or(Warm::Cold, Warm::Primal)
        };
        let solved = solver.solve(
            &lp,
            self.root_bounds,
            self.max_iters,
            warm,
            &mut tree.workspace,
        );
        let (res, new_basis) = match solved {
            Ok(solved) => solved,
            // A tightened root can be numerically harder than the model
            // itself. A dead end here only rejects this round, and its cuts
            // with it: the previous root and LP stay valid.
            Err(e @ SolveError::NumericalInstability { .. }) => {
                count_failed_lp(counters, &e);
                self.pool.truncate(before);
                return Ok(Round::Done);
            }
            Err(e) => return Err(e),
        };
        count_lp(counters, &res);
        match res.status {
            LpStatus::Infeasible => return Ok(Round::Infeasible),
            // Cuts only shrink the feasible region; an unbounded outcome
            // here is numerical trouble — keep the previous root.
            LpStatus::Unbounded => {
                self.pool.truncate(before);
                return Ok(Round::Done);
            }
            LpStatus::Optimal => {}
        }
        *root = res;
        *basis = new_basis;
        tree.install_cuts(lp, rows, solver);
        self.kept = self.pool.age_and_purge(&root.values);
        Ok(Round::Kept)
    }

    /// After the last round: when the pool has purged cuts whose rows the
    /// tree LP still carries, rebuilds it from the pool and reoptimizes
    /// once, from `caller_basis` (the base-space root basis), so the tree
    /// never drags purged rows along. `root` and `basis` follow when that LP
    /// solves to optimality; otherwise the tree LP stays.
    fn drop_purged(
        &self,
        tree: &mut TreeLp<'_>,
        caller_basis: Option<&Basis>,
        root: &mut LpResult,
        basis: &mut Option<Basis>,
        counters: &mut SolverCounters,
    ) {
        if tree.base_lp.nrows + self.pool.len() >= tree.lp().nrows {
            return;
        }
        let (lp, rows) = lp_with_cuts(tree.base_lp, tree.base_rows, self.pool.cuts());
        let Some(solver) =
            NodeSolver::build(&lp, &rows, self.root_bounds, self.integral, self.presolve)
        else {
            return;
        };
        let warm = caller_basis.map_or(Warm::Cold, Warm::Primal);
        let solved = solver.solve(
            &lp,
            self.root_bounds,
            self.max_iters,
            warm,
            &mut tree.workspace,
        );
        match solved {
            Ok((res, new_basis)) => {
                count_lp(counters, &res);
                if res.status == LpStatus::Optimal {
                    *root = res;
                    *basis = new_basis;
                    tree.install_cuts(lp, rows, solver);
                }
            }
            // The previous root and LP stay valid; the pivots spent finding
            // that out are booked all the same.
            Err(e) => count_failed_lp(counters, &e),
        }
    }
}

/// Accepts an integral LP solution as incumbent or branches: selects the
/// branching variable and pushes the children, each bounded by this node's
/// LP objective. The node is the one `branch` created below root bounds
/// `root_bounds` (the root itself when `branch` is `None`).
#[allow(clippy::too_many_arguments)]
fn expand_node(
    params: &SolveParams,
    integer_vars: &[usize],
    pseudo: &Pseudocosts,
    heap: &mut BinaryHeap<Node>,
    incumbent: &mut Option<(f64, Vec<f64>)>,
    (root_bounds, branch): (&[(f64, f64)], Option<&Rc<Branch>>),
    lp_objective: f64,
    lp_values: &[f64],
    depth: usize,
    warm: Option<Rc<Basis>>,
    counters: &mut SolverCounters,
) {
    let fractional: Vec<(usize, f64)> = integer_vars
        .iter()
        .map(|&vi| (vi, lp_values[vi]))
        .filter(|&(_, val)| (val - val.round()).abs() > INTEGRALITY_TOL)
        .collect();

    if fractional.is_empty() {
        // Integral solution: new incumbent if it improves.
        let better = incumbent
            .as_ref()
            .map(|(best, _)| lp_objective < *best)
            .unwrap_or(true);
        if better {
            *incumbent = Some((lp_objective, lp_values.to_vec()));
        }
        return;
    }

    let (var, value) = select_branch_var(params, pseudo, &fractional, counters);
    let floor = value.floor();
    let ceil = value.ceil();
    let frac = value - floor;
    let (lo, hi) = Branch::bounds_of(branch.map(|b| &**b), var, root_bounds);
    // What lets a node's bounds be materialized by `max`/`min`.
    debug_assert!(
        floor <= hi && ceil >= lo,
        "{value} is fractional in [{lo}, {hi}]"
    );
    let child = |lo, hi, down, warm| Node {
        branch: Rc::new(Branch {
            var,
            lo,
            hi,
            parent: branch.cloned(),
        }),
        bound: lp_objective,
        depth: depth + 1,
        warm,
        down,
        frac,
    };
    if floor >= lo {
        heap.push(child(lo, floor, true, warm.clone()));
    }
    if ceil <= hi {
        heap.push(child(ceil, hi, false, warm));
    }
}

/// Chooses the branching variable among the fractional candidates (listed
/// in index order) and returns it with its LP value.
///
/// With [`crate::SolveParams::pseudocost`] off this is the lowest-index
/// rule. Otherwise the candidate with the largest pseudocost product score
/// wins, ties going to the lowest index.
fn select_branch_var(
    params: &SolveParams,
    pseudo: &Pseudocosts,
    fractional: &[(usize, f64)],
    counters: &mut SolverCounters,
) -> (usize, f64) {
    if !params.pseudocost {
        return fractional[0];
    }
    counters.pseudocost_branchings += 1;
    // The global averages (down, up), once a candidate needs one.
    let mut global = (None, None);
    let scored = fractional.iter().map(|&(var, value)| {
        let frac = value - value.floor();
        let down = pseudo.estimate_down(var, frac, &mut global.0);
        let up = pseudo.estimate_up(var, frac, &mut global.1);
        (var, value, down.max(SCORE_EPS) * up.max(SCORE_EPS))
    });
    // On equal scores the lower index compares as the larger.
    let (var, value, _) = scored
        .max_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(Ordering::Equal)
                .then(b.0.cmp(&a.0))
        })
        .expect("select_branch_var requires at least one fractional candidate");
    (var, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sense, VarKind};

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c with 3a + 4b + 2c <= 6, binaries → a=0? Let's check:
        // best is a + c (weight 5, value 17) vs b + c (weight 6, value 20) → 20.
        let mut m = Model::new("knapsack");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective(Sense::Maximize, &[(a, 10.0), (b, 13.0), (c, 7.0)]);
        m.add_le(&[(a, 3.0), (b, 4.0), (c, 2.0)], 6.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert_eq!(s.int_value(b), 1);
        assert_eq!(s.int_value(c), 1);
        assert_eq!(s.int_value(a), 0);
    }

    #[test]
    fn integer_rounding_differs_from_lp() {
        // max x + y s.t. 2x + 2y <= 3, integers → LP gives 1.5, MILP gives 1.
        let mut m = Model::new("gap");
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.set_objective(Sense::Maximize, &[(x, 1.0), (y, 1.0)]);
        m.add_le(&[(x, 2.0), (y, 2.0)], 3.0);
        let lp = m.solve_relaxation().unwrap();
        assert!((lp.objective - 1.5).abs() < 1e-6);
        let s = m.solve().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integer_program() {
        // 0.4 <= x <= 0.6 with x integer has no solution.
        let mut m = Model::new("infeasible");
        let x = m.add_var("x", VarKind::Integer, 0.0, 1.0);
        m.add_ge(&[(x, 1.0)], 0.4);
        m.add_le(&[(x, 1.0)], 0.6);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn equality_constrained_integers() {
        // x + y = 7, x - y = 1 → x=4, y=3.
        let mut m = Model::new("eq");
        let x = m.add_integer("x", 0.0, 100.0);
        let y = m.add_integer("y", 0.0, 100.0);
        m.add_eq(&[(x, 1.0), (y, 1.0)], 7.0);
        m.add_eq(&[(x, 1.0), (y, -1.0)], 1.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_value(x), 4);
        assert_eq!(s.int_value(y), 3);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 2x + 3y, x integer, y continuous, x + y >= 4.3, x <= 3 → x=3, y=1.3.
        let mut m = Model::new("mixed");
        let x = m.add_integer("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(Sense::Minimize, &[(x, 2.0), (y, 3.0)]);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 4.3);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.int_value(x), 3);
        assert!((s.value(y) - 1.3).abs() < 1e-6);
        assert!((s.objective - (6.0 + 3.9)).abs() < 1e-6);
    }

    #[test]
    fn big_m_disjunction() {
        // Either x >= 5 or y >= 5, minimize x + y with both in [0,10].
        // Using binary z and big-M 10: x >= 5 - 10(1-z), y >= 5 - 10z.
        let mut m = Model::new("disjunction");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        let z = m.add_binary("z");
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 1.0)]);
        m.add_ge(&[(x, 1.0), (z, -10.0)], -5.0); // x - 10z >= -5  ⇔ x >= 10z - 5... careful
        m.add_ge(&[(y, 1.0), (z, 10.0)], 5.0); // y + 10z >= 5 ⇔ y >= 5 - 10z
                                               // With z=1: x >= 5, y >= -5 (inactive) → x=5,y=0. With z=0: x >= -5, y >= 5 → 5.
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 5.0).abs() < 1e-6, "obj={}", s.objective);
    }

    #[test]
    fn node_and_iteration_counters_populated() {
        let mut m = Model::new("counters");
        let x = m.add_integer("x", 0.0, 50.0);
        let y = m.add_integer("y", 0.0, 50.0);
        m.set_objective(Sense::Maximize, &[(x, 3.0), (y, 4.0)]);
        m.add_le(&[(x, 5.0), (y, 7.0)], 61.0);
        m.add_le(&[(x, 4.0), (y, 3.0)], 37.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(s.nodes_explored >= 1);
        assert!(s.simplex_iterations >= 1);
    }

    #[test]
    fn binary_assignment_problem() {
        // 3 jobs to 3 machines, cost matrix; classic assignment has an integral
        // LP optimum but still exercises the equality handling with binaries.
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new("assignment");
        let mut x = Vec::new();
        for i in 0..3 {
            let mut row = Vec::new();
            for j in 0..3 {
                row.push(m.add_binary(format!("x{i}{j}")));
            }
            x.push(row);
        }
        let mut obj = Vec::new();
        for (vars, costs) in x.iter().zip(&cost) {
            for (&var, &c) in vars.iter().zip(costs) {
                obj.push((var, c));
            }
        }
        m.set_objective(Sense::Minimize, &obj);
        for (i, vars) in x.iter().enumerate() {
            let row: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            m.add_eq(&row, 1.0);
            let col: Vec<_> = x.iter().map(|r| (r[i], 1.0)).collect();
            m.add_eq(&col, 1.0);
        }
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        // Optimal assignment: job0→m1 (2), job1→m2? costs: choose 2 + 7 + 3 = 12
        // alternatives: 4+3+6=13, 8+4+1=13, 2+4+6=12? (j0→m1=2, j1→m0=4, j2→m2=6)=12.
        assert!((s.objective - 12.0).abs() < 1e-6, "obj={}", s.objective);
    }

    #[test]
    fn warm_start_round_trip_solves_faster() {
        // Solve, then re-solve the same model warm: the warm solve must agree
        // on the objective and spend no more simplex iterations.
        let mut m = Model::new("warm-roundtrip");
        let x = m.add_integer("x", 0.0, 50.0);
        let y = m.add_integer("y", 0.0, 50.0);
        m.set_objective(Sense::Maximize, &[(x, 3.0), (y, 4.0)]);
        m.add_le(&[(x, 5.0), (y, 7.0)], 61.0);
        m.add_le(&[(x, 4.0), (y, 3.0)], 37.0);
        let (cold, basis) = m.solve_with_basis(None).unwrap();
        assert_eq!(cold.status, Status::Optimal);
        let basis = basis.expect("root basis");
        let (warm, _) = m.solve_with_basis(Some(&basis)).unwrap();
        assert_eq!(warm.status, Status::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(
            warm.simplex_iterations <= cold.simplex_iterations,
            "warm {} vs cold {}",
            warm.simplex_iterations,
            cold.simplex_iterations
        );
    }

    #[test]
    fn warm_start_survives_model_growth() {
        // The add_round pattern: solve, append a variable + rows touching old
        // variables, re-solve warm. Results must match a cold solve.
        let mut m = Model::new("warm-grow");
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 2.0)]);
        let c = m.add_ge(&[(x, 1.0), (y, 1.0)], 3.0);
        let (first, basis) = m.solve_with_basis(None).unwrap();
        assert_eq!(first.status, Status::Optimal);
        let basis = basis.expect("root basis");

        let z = m.add_integer("z", 0.0, 10.0);
        m.add_objective_term(z, 1.0);
        m.add_term_to_constraint(c, z, 1.0);
        m.add_ge(&[(y, 1.0), (z, 1.0)], 2.0);
        let (warm, _) = m.solve_with_basis(Some(&basis)).unwrap();
        let cold = m.solve().unwrap();
        assert_eq!(warm.status, Status::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    /// A model with enough integer structure that cuts and pseudocost
    /// branching both get exercised.
    fn busy_fixture() -> Model {
        let mut m = Model::new("busy");
        let mut vars = Vec::new();
        for i in 0..6 {
            vars.push(m.add_integer(format!("v{i}"), 0.0, 7.0));
        }
        let weights = [3.0, 5.0, 7.0, 11.0, 13.0, 17.0];
        let profit = [5.0, 8.0, 11.0, 15.0, 19.0, 23.0];
        let obj: Vec<_> = vars.iter().zip(profit).map(|(&v, p)| (v, p)).collect();
        m.set_objective(Sense::Maximize, &obj);
        let row: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
        m.add_le(&row, 41.0);
        let row2: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_le(&row2, 9.0);
        m
    }

    /// A multi-row knapsack the root cuts do not close: a tree of some
    /// dozens of nodes, enough for the factorization memo to be hit.
    fn tree_fixture() -> Model {
        knapsack_fixture(14, 4)
    }

    /// `rows` knapsack rows over `columns` integers in `[0, 3]`, with
    /// deterministic, irregular coefficients.
    fn knapsack_fixture(columns: usize, rows: usize) -> Model {
        let mut m = Model::new("tree");
        let vars: Vec<_> = (0..columns)
            .map(|i| m.add_integer(format!("v{i}"), 0.0, 3.0))
            .collect();
        let obj: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, knapsack_coeff(9, j) + 0.5 * knapsack_coeff(4, j)))
            .collect();
        m.set_objective(Sense::Maximize, &obj);
        for row in 0..rows {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(j, &v)| (v, knapsack_coeff(row, j)))
                .collect();
            m.add_le(&terms, 97.0 + 11.0 * row as f64);
        }
        m
    }

    /// Deterministic, irregular coefficients of the knapsack fixtures.
    fn knapsack_coeff(row: usize, col: usize) -> f64 {
        (7 + (row * 31 + col * 17 + row * col * 5) % 23) as f64
    }

    /// One round of the root cut loop as [`root_cut_rounds`] drove it.
    #[derive(Debug)]
    struct DrivenRound {
        round: Round,
        /// The root objective after the round.
        objective: f64,
        /// For a round that started after a purge: how many pivots the
        /// purged LP (the base LP and the cuts the purge kept) takes from
        /// the last basis realigned onto it, `None` when it does not
        /// realign, and how many factorizations the round's LP computed.
        after_purge: Option<(Option<usize>, usize)>,
    }

    /// Drives the root cut loop of `model` to [`MAX_CUT_ROUNDS`], past the
    /// flat round [`search`] stops at, and returns the root objective before
    /// the first round and every round.
    fn root_cut_rounds(model: &Model) -> (f64, Vec<DrivenRound>) {
        let bounds: Vec<(f64, f64)> = model
            .variables()
            .map(|(_, v)| (v.lower.ceil(), v.upper.floor()))
            .collect();
        let integral: Vec<bool> = model
            .variables()
            .map(|(_, v)| v.kind.is_integral())
            .collect();
        let lp = SparseLp::from_model(model);
        let rows = RowView::of(&lp);
        let solver = NodeSolver::build(&lp, &rows, &bounds, &integral, true).expect("feasible");
        let mut tree = TreeLp::new(&lp, &rows, &solver, MEMO_CAPACITY);
        let (mut root, mut basis) = tree.solve_base(&bounds, 10_000, Warm::Cold).unwrap();
        let first = root.objective;
        let mut counters = SolverCounters::default();
        let mut cuts = CutLoop::new(model.params(), &bounds, &integral);
        let mut rounds = Vec::new();
        for _ in 0..MAX_CUT_ROUNDS {
            let purged = cuts.kept.contains(&false);
            let resolve = purged.then(|| {
                let start = basis.as_ref().and_then(|b| b.without_rows(&cuts.kept))?;
                let (slim, slim_rows) = lp_with_cuts(&lp, &rows, cuts.pool.cuts());
                let solver = NodeSolver::build(&slim, &slim_rows, &bounds, &integral, true)
                    .expect("feasible");
                let ws = &mut SimplexWorkspace::default();
                let (res, _) = (solver.solve(&slim, &bounds, 10_000, Warm::Primal(&start), ws))
                    .expect("solve");
                assert_eq!(res.status, LpStatus::Optimal);
                Some(res.iterations)
            });
            let factorized = counters.lu_factorizations;
            let round = cuts
                .round(&mut tree, &mut root, &mut basis, &mut counters)
                .unwrap();
            // The separator's factorization is the first.
            let after_purge =
                resolve.map(|resolve| (resolve, counters.lu_factorizations - factorized - 1));
            rounds.push(DrivenRound {
                round,
                objective: root.objective,
                after_purge,
            });
            if round != Round::Kept {
                break;
            }
        }
        (first, rounds)
    }

    /// Covering rows over the knapsack fixture's coefficients and an
    /// objective on one continuous column alone: the root optimum is
    /// fractional in the integers, and no cut can move the bound.
    fn flat_fixture() -> Model {
        let mut m = Model::new("flat");
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_integer(format!("v{i}"), 0.0, 3.0))
            .collect();
        let w = m.add_continuous("w", 1.0, 10.0);
        m.set_objective(Sense::Minimize, &[(w, 1.0)]);
        for row in 0..3 {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(j, &v)| (v, knapsack_coeff(row, j)))
                .collect();
            m.add_ge(&terms, 20.5 + 11.0 * row as f64);
        }
        m
    }

    /// The optimum with cuts off, which cuts on must reach too.
    fn cuts_off_objective(model: &Model) -> f64 {
        let mut off = model.clone();
        off.params_mut().cuts = false;
        let off = off.solve().unwrap();
        assert_eq!(off.status, Status::Optimal);
        off.objective
    }

    #[test]
    fn a_flat_first_round_ends_the_cut_loop() {
        let m = flat_fixture();
        let (first, rounds) = root_cut_rounds(&m);
        // Run on, the loop would keep a second round, and the first left
        // the root bound where it was.
        assert!(
            rounds.len() >= 2 && rounds[1].round == Round::Kept,
            "{rounds:?}"
        );
        assert_eq!(rounds[0].round, Round::Kept, "{rounds:?}");
        assert_eq!(rounds[0].objective, first, "{rounds:?}");
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.cut_rounds, 1, "{s:?}");
        assert!(s.cuts_added > 0, "{s:?}");
        assert!((s.objective - cuts_off_objective(&m)).abs() < 1e-6);
    }

    #[test]
    fn rounds_that_raise_the_root_bound_run_on() {
        let m = knapsack_fixture(16, 5);
        let (first, rounds) = root_cut_rounds(&m);
        assert!(
            rounds.len() >= 2 && rounds[1].round == Round::Kept,
            "{rounds:?}"
        );
        // No kept round leaves the bound flat.
        let mut before = first;
        for kept in rounds.iter().filter(|r| r.round == Round::Kept) {
            let rise = kept.objective - before;
            assert!(rise > FLAT_ROUND_TOL * before.abs().max(1.0), "{rounds:?}");
            before = kept.objective;
        }
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(s.cut_rounds >= 2, "{s:?}");
        assert!((s.objective - cuts_off_objective(&m)).abs() < 1e-6);
    }

    #[test]
    fn a_cut_round_after_a_purge_starts_from_the_realigned_basis() {
        // Five rows and sixteen columns of the tree fixture's knapsack: a
        // round purges a cut and the next one still adopts new ones.
        let (_, rounds) = root_cut_rounds(&knapsack_fixture(16, 5));
        let rounds: Vec<_> = rounds
            .iter()
            .filter_map(|r| r.after_purge.map(|(resolve, lp)| (resolve, r.round, lp)))
            .collect();
        // The realigned basis is optimal for the purged LP…
        assert!(rounds.iter().all(|r| r.0 == Some(0)), "{rounds:?}");
        // …and the next round's LP installs it: a singular start would be
        // factorized, and then the cold basis.
        let kept: Vec<_> = rounds.iter().filter(|r| r.1 == Round::Kept).collect();
        assert!(!kept.is_empty(), "no round kept after a purge: {rounds:?}");
        assert!(kept.iter().all(|r| r.2 == 1), "{rounds:?}");
    }

    #[test]
    fn memo_served_tree_equals_the_memo_less_tree() {
        // Restored factor states carry their parents' eta drift, so the
        // memo may move pivots, never the answer, and it must save
        // factorizations.
        let m = tree_fixture();
        let (with_memo, _) = solve_tree(&m, None, MEMO_CAPACITY).unwrap();
        let (without, _) = solve_tree(&m, None, 0).unwrap();
        assert_eq!(with_memo.status, without.status);
        assert!(
            (with_memo.objective - without.objective).abs() < 1e-6,
            "{} with the memo, {} without",
            with_memo.objective,
            without.objective
        );
        assert!(with_memo.nodes_explored > 1, "no tree: {with_memo:?}");
        assert!(
            with_memo.lu_factorizations < without.lu_factorizations,
            "the memo was never hit: {} factorizations with it, {} without",
            with_memo.lu_factorizations,
            without.lu_factorizations
        );
    }

    /// SplitMix64, as everywhere else in the workspace.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn chain_materialization_equals_the_assigned_bounds() {
        // Seeded chains of branchings on a few integers — so that one
        // variable is branched on again and again — over knapsack rows with
        // a pinned column and singleton rows, which presolve folds into
        // fixed columns and derived bounds. Each node's materialized bounds
        // equal what copying the parent's bounds and assigning the branched
        // one built: in the original numbering, and in the reduced one
        // against `map_bounds` of those bounds, infeasible verdicts included.
        let bits = |v: &[(f64, f64)]| -> Vec<_> {
            v.iter().map(|(l, h)| (l.to_bits(), h.to_bits())).collect()
        };
        let mut rng = Rng(0x00C4_A125);
        let (mut nodes, mut infeasible) = (0, 0);
        for _ in 0..60 {
            let mut model = knapsack_fixture(4 + rng.below(4), 2);
            let vars: Vec<_> = model.variables().map(|(id, _)| id).collect();
            model.fix_var(vars[0], 2.0);
            model.add_le(&[(vars[1], 1.0)], 0.5 + rng.below(3) as f64);
            model.add_ge(&[(vars[2], 2.0)], 1.0);
            let root: Vec<(f64, f64)> =
                model.variables().map(|(_, v)| (v.lower, v.upper)).collect();
            let integral = vec![true; root.len()];
            let lp = SparseLp::from_model(&model);
            let rows = RowView::of(&lp);
            let Some(solver) = NodeSolver::build(&lp, &rows, &root, &integral, true) else {
                continue;
            };
            let NodeSolver::Reduced(presolve) = &solver else {
                panic!("presolve is on");
            };
            let tree_root = solver.tree_root_bounds(&root);
            let (mut chain, mut assigned) = (None::<Rc<Branch>>, root.clone());
            let (mut original, mut mapped, mut expected) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..16 {
                let var = rng.below(4);
                let (lo, hi) = assigned[var];
                if hi - lo < 1.0 {
                    continue;
                }
                // A fractional value inside the bounds, branched either way.
                let value = lo + rng.below((hi - lo) as usize) as f64 + 0.5;
                let (lo, hi) = if rng.below(2) == 0 {
                    (lo, value.floor())
                } else {
                    (value.ceil(), hi)
                };
                assigned[var] = (lo, hi);
                let parent = chain.take();
                let branch = Rc::new(Branch {
                    var,
                    lo,
                    hi,
                    parent,
                });
                for (j, &bounds) in assigned.iter().enumerate() {
                    assert_eq!(Branch::bounds_of(Some(&branch), j, &root), bounds);
                }
                assert!(materialize(
                    &NodeSolver::Direct,
                    &root,
                    &branch,
                    &mut original
                ));
                assert_eq!(bits(&original), bits(&assigned));
                let feasible = materialize(&solver, &tree_root, &branch, &mut mapped);
                assert_eq!(feasible, presolve.map_bounds(&assigned, &mut expected));
                if feasible {
                    assert_eq!(bits(&mapped), bits(&expected));
                } else {
                    infeasible += 1;
                }
                nodes += 1;
                chain = Some(branch);
            }
        }
        assert!(
            nodes >= 300 && infeasible >= 20,
            "{nodes} nodes, {infeasible} infeasible"
        );
    }

    #[test]
    fn tree_fixture_counters_are_pinned() {
        // Every pivot of the tree in the same order: bases kept in the tree
        // numbering, carried `x_B` and chained branchings change how a node
        // is set up, never what it computes.
        for (model, pinned) in [
            (tree_fixture(), (159, 290, 58)),
            (knapsack_fixture(16, 5), (651, 1291, 316)),
        ] {
            let (s, _) = solve_tree(&model, None, MEMO_CAPACITY).unwrap();
            assert_eq!(s.status, Status::Optimal);
            let counted = (s.nodes_explored, s.simplex_iterations, s.lu_factorizations);
            assert_eq!(counted, pinned, "nodes, pivots, factorizations");
        }
    }

    #[test]
    fn tree_layers_off_match_defaults_on_verdict_and_objective() {
        // The tree-shrinking layers must never change the answer, only the
        // amount of work: solve the same model with everything on, then with
        // cuts and pseudocost branching off, and compare.
        let m_on = busy_fixture();
        let mut m_off = busy_fixture();
        {
            let p = m_off.params_mut();
            p.cuts = false;
            p.pseudocost = false;
        }
        let on = m_on.solve().unwrap();
        let off = m_off.solve().unwrap();
        assert_eq!(on.status, off.status);
        assert!(
            (on.objective - off.objective).abs() < 1e-6,
            "on {} vs off {}",
            on.objective,
            off.objective
        );
        // The legacy configuration reports zeroed tree counters.
        assert_eq!(off.cuts_added, 0);
        assert_eq!(off.cut_rounds, 0);
        assert_eq!(off.pseudocost_branchings, 0);
    }

    #[test]
    fn tree_counters_populate_on_a_fractional_model() {
        let s = busy_fixture().solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        // The root relaxation of the busy fixture is fractional, so at least
        // one layer must have done something.
        assert!(
            s.cuts_added > 0 || s.pseudocost_branchings > 0,
            "no tree-shrinking layer engaged: {s:?}"
        );
        assert_eq!((s.strong_branch_probes, s.pump_incumbents), (0, 0));
    }

    #[test]
    fn cuts_prove_infeasibility_without_flipping_the_verdict() {
        // 0.4 ≤ x ≤ 0.6, x integer — infeasible with or without cuts.
        let mut on = Model::new("inf-on");
        let x = on.add_var("x", VarKind::Integer, 0.0, 1.0);
        on.add_ge(&[(x, 1.0)], 0.4);
        on.add_le(&[(x, 1.0)], 0.6);
        let mut off = on.clone();
        off.params_mut().cuts = false;
        assert_eq!(on.solve().unwrap().status, Status::Infeasible);
        assert_eq!(off.solve().unwrap().status, Status::Infeasible);
    }
}

#[cfg(test)]
mod cut_differential_tests {
    use crate::model::{Model, Sense};

    /// Tiny deterministic LCG so the sweep needs no external crates.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn pick(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Random small mixed-integer program: 3-6 vars (integers, binaries and
    /// continuous mixed), 2-4 rows of every relation, signed coefficients.
    fn random_model(seed: u64) -> Model {
        let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(11));
        let mut m = Model::new(format!("fuzz{seed}"));
        let nvars = 3 + rng.pick(4) as usize;
        let mut vars = Vec::new();
        for i in 0..nvars {
            let v = match rng.pick(3) {
                0 => m.add_binary(format!("b{i}")),
                1 => m.add_integer(format!("i{i}"), 0.0, 1.0 + rng.pick(5) as f64),
                _ => m.add_continuous(format!("c{i}"), 0.0, 1.0 + rng.pick(8) as f64),
            };
            vars.push(v);
        }
        let obj: Vec<_> = vars
            .iter()
            .map(|&v| (v, rng.pick(19) as f64 - 9.0))
            .collect();
        let sense = if rng.pick(2) == 0 {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        m.set_objective(sense, &obj);
        let nrows = 2 + rng.pick(3) as usize;
        for _ in 0..nrows {
            let mut row = Vec::new();
            for &v in &vars {
                if rng.pick(4) > 0 {
                    row.push((v, rng.pick(13) as f64 - 4.0));
                }
            }
            if row.is_empty() {
                continue;
            }
            let max_activity: f64 = row.iter().map(|&(_, c)| c.abs() * 8.0).sum();
            let rhs = (rng.pick(17) as f64 / 16.0 - 0.25) * max_activity.max(1.0) * 0.5;
            match rng.pick(3) {
                0 => m.add_le(&row, rhs),
                1 => m.add_ge(&row, -rhs),
                _ => m.add_eq(&row, (rhs * 0.5).round()),
            };
        }
        m
    }

    #[test]
    fn random_small_milps_agree_with_and_without_tree_layers() {
        // Differential fuzz sweep: the tree-shrinking layers must preserve the
        // verdict and objective on arbitrary small models, including
        // infeasible and unbounded ones.
        for seed in 0..400u64 {
            let on = random_model(seed);
            let mut off = random_model(seed);
            {
                let p = off.params_mut();
                p.cuts = false;
                p.pseudocost = false;
            }
            let (Ok(on_sol), Ok(off_sol)) = (on.solve(), off.solve()) else {
                continue; // budget exhaustion proves nothing
            };
            assert_eq!(
                on_sol.status, off_sol.status,
                "status diverged on fuzz seed {seed}: on={:?} off={:?}",
                on_sol.status, off_sol.status
            );
            if on_sol.is_optimal() {
                assert!(
                    (on_sol.objective - off_sol.objective).abs() < 1e-6,
                    "objective diverged on fuzz seed {seed}: on={} off={}",
                    on_sol.objective,
                    off_sol.objective
                );
            }
        }
    }
}
