//! # ttw-milp — a small mixed-integer linear programming solver
//!
//! The TTW schedule synthesis ([Sec. IV of the paper]) formulates the joint
//! co-scheduling of tasks, messages and communication rounds as an integer
//! linear program. The original work solves it with Gurobi; this crate is the
//! self-contained substitute used by the reproduction: a **sparse revised
//! [simplex]** LP solver combined with a best-first [branch-and-bound] search
//! over the integer variables.
//!
//! ## Solver architecture
//!
//! * **Equality form, bounded variables.** Every constraint row gets one
//!   logical column whose bounds encode the relation; structural columns map
//!   1:1 onto model variables, so [`Model::set_var_bounds`] / [`Model::fix_var`]
//!   tighten a column in place instead of splitting it. Fixed columns are
//!   excluded from pricing altogether.
//! * **Presolve.** Before the simplex sees a problem, a presolve pass
//!   (enabled by [`SolveParams::presolve`], on by default) substitutes fixed
//!   columns into the right-hand sides, drops empty and singleton rows into
//!   bounds, tightens bounds from row-activity ranges (rounding derived
//!   bounds of integral columns inward to the lattice) and can prove
//!   infeasibility outright. The reduction is built **once per
//!   branch-and-bound tree LP** from the root bounds — children only tighten
//!   bounds, so every derived bound stays valid. Every LP goes through it:
//!   the root and the cut rounds map bounds and basis in and solution and
//!   basis out, and the nodes stay in its numbering. With presolve off the
//!   reduction is the identity (nothing fixed, nothing dropped, every map
//!   one-to-one), so the raw solve is the same path with nothing taken out,
//!   pivot for pivot. The presolve contract: results
//!   (status, objective, variable values) are identical to the raw solve;
//!   [`Basis`] snapshots stay in the *original* column numbering, so a
//!   snapshot taken before the model grew — or before a different pin set
//!   eliminated different columns — is sanitized on the way in (stale basic
//!   entries fall back to the row's logical column; an unusable snapshot
//!   degrades to a cold start) instead of erroring.
//! * **CSC matrix + LU-factorized basis.** The constraint matrix is stored
//!   column-compressed; the basis is LU-factorized with partial pivoting and
//!   kept current between refactorizations with product-form eta updates.
//!   The refactorization policy is: refactorize (and recompute the basic
//!   solution, purging drift) after 60 eta updates or whenever a pivot is too
//!   small for a stable update. The factorization kernel is driven by the
//!   nonzero pattern — the TTW bases are small and mostly logical unit
//!   columns — so its pivot search, harvest and reset cost `O(rows touched)`
//!   per column, a row swap is `O(1)`, and `L`/`U` are flat CSC buffers an
//!   engine reuses; a singular basis leaves the previous factors in force.
//! * **Node LPs without from-scratch factorizations.** A node's children
//!   start from the basis its LP ended on, so the tree keeps a small memo
//!   from the most recent parent snapshots to the factor state their LPs
//!   ended on — LU factors, eta file and the dual simplex's reduced costs —
//!   and a child restores it instead of factorizing. The dual simplex keeps
//!   its reduced costs across pivots (one BTRAN per iteration), and proves a
//!   node infeasible from the ray of its dual-unbounded row: a Farkas check
//!   against the node's bounds, straight from the data, so that neither a
//!   restored start nor an eta file needs a refactorization before a prune.
//!   Debug builds check every restored state and re-certify every such
//!   verdict from a fresh factorization. Counter: `lu_factorizations`.
//! * **Devex pricing with partial pricing.** Entering columns are selected
//!   by Devex reference weights (`d²/w`, an approximation of steepest-edge
//!   norms updated from the pivot row after every basis change) over a
//!   rotating candidate segment of the column range; a full rotation without
//!   an eligible column proves optimality, so the partial scan is a pure
//!   work-saving device. Weights travel inside [`Basis`] snapshots, so
//!   branch-and-bound children and incrementally grown models reprice with
//!   the parent's accumulated edge information. Reference-framework resets
//!   and the segment size are reported on [`Solution`] as `devex_resets` /
//!   `candidate_list_size`, next to the presolve counters
//!   `presolve_rows_removed` / `presolve_cols_removed`.
//! * **Root cutting planes.** Before the tree search starts, the root
//!   relaxation is tightened by separation rounds (enabled by
//!   [`SolveParams::cuts`], at most eight rounds):
//!   **Gomory mixed-integer cuts** are derived from tableau rows whose basic
//!   integer variable is fractional. Candidates pass a
//!   violation filter and a parallelism filter before entering the cut pool;
//!   cuts that stay slack at the root optimum for consecutive rounds are
//!   purged (age-based purging), and the surviving pool is appended to the
//!   equality form as extra `≤` rows the whole tree then solves. A round
//!   reoptimizes with the primal simplex from the last round's optimal
//!   basis, realigned onto its rows: a purged cut's row leaves with its
//!   logical column, which is basic because the cut was slack, and each new
//!   cut's row enters on its logical. A round whose LP dead-ends
//!   numerically is rejected together with its cuts. The first kept round
//!   that leaves the root bound flat (a rise of at most 1e-6 relative)
//!   ends the loop early, its cuts kept: on the workloads the repo
//!   benchmark runs, the rounds after it cost more than the nodes they
//!   save. Every cut is globally valid for the integer hull, so the verdict
//!   and objective are provably identical with cuts on or off — the
//!   differential harness asserts exactly that. Counters: `cuts_added`,
//!   `cut_rounds`.
//! * **Pseudocost branching.** Branching variables are chosen by pseudocost
//!   scores (per-variable up/down objective degradation averages, combined
//!   with the product rule, ties to the lowest index) instead of the lowest
//!   fractional index. Every node LP feeds the degradation it realized back
//!   into the averages, and a variable not yet observed borrows the average
//!   over all variables. Set [`SolveParams::pseudocost`] to `false` to fall
//!   back to lowest-index-first. Counter: `pseudocost_branchings`.
//!
//!   An ablation over the repo benchmark's `cold_solve` and `admission_edit`
//!   workloads removed the layers that never paid for themselves there: a
//!   feasibility pump (its incumbents saved no nodes), strong-branching
//!   probes (fewer nodes, more time) and a lifted cover separator (no cut in
//!   the workload). The `strong_branch_probes` and `pump_incumbents`
//!   counters remain on the wire, always 0.
//! * **Warm starts.** An optimal solve returns an opaque [`Basis`] snapshot.
//!   [`Model::solve_with_basis`] accepts it back: branch-and-bound children
//!   reoptimize bound changes with the **dual simplex** from the parent basis,
//!   and a snapshot taken before the model *grew* (rows/columns appended, as
//!   in the `R_M` sweep of the TTW scheduler) warm-starts the primal from the
//!   extended basis. The warm-start contract is: appending variables or
//!   constraints and adjusting coefficients/bounds of existing rows keeps a
//!   snapshot usable; removing anything invalidates it (the solver then falls
//!   back to a cold start automatically). A snapshot has no format of its
//!   own: [`Basis::status_letters`], [`Basis::basic`] and [`Basis::devex`]
//!   read it out, and [`Basis::from_letters`] builds it back, refusing any
//!   inconsistent input with `None`, so a caller that persists bases (the
//!   schedule cache writes them as JSON objects) needs no solver code.
//! * **Dense reference oracle.** The retired dense tableau solver lives in
//!   the `dense` module (under `cfg(test)` or the `dense-reference` feature)
//!   and is used by agreement tests and the dense-vs-sparse benchmarks.
//!
//! The modelling API follows the shape of common solver front-ends:
//!
//! ```
//! use ttw_milp::{Model, Sense, VarKind};
//!
//! # fn main() -> Result<(), ttw_milp::SolveError> {
//! let mut model = Model::new("knapsack");
//! let x = model.add_var("x", VarKind::Integer, 0.0, 10.0);
//! let y = model.add_var("y", VarKind::Integer, 0.0, 10.0);
//! // maximize 3x + 5y  s.t.  2x + 4y <= 17,  x + y <= 6
//! model.set_objective(Sense::Maximize, &[(x, 3.0), (y, 5.0)]);
//! model.add_le(&[(x, 2.0), (y, 4.0)], 17.0);
//! model.add_le(&[(x, 1.0), (y, 1.0)], 6.0);
//! let solution = model.solve()?;
//! assert!((solution.objective - 22.0).abs() < 1e-6);
//! assert_eq!(solution.value(x).round() as i64, 4);
//! assert_eq!(solution.value(y).round() as i64, 2);
//! # Ok(())
//! # }
//! ```
//!
//! The solver is exact for the instance sizes produced by the TTW scheduler
//! (tens to a few hundred variables); it is not intended to compete with
//! industrial solvers on large instances.
//!
//! [simplex]: crate::simplex
//! [branch-and-bound]: crate::branch_bound
//! [Sec. IV of the paper]: https://arxiv.org/abs/1711.05581

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod branch_bound;
mod cuts;
#[cfg(any(test, feature = "dense-reference"))]
pub mod dense;
pub mod error;
pub mod expr;
pub mod model;
mod presolve;
pub mod simplex;
pub mod solution;
mod sparse;

pub use audit::{audit_model, AuditFinding};
pub use error::SolveError;
pub use expr::{LinExpr, Term, VarId};
pub use model::{Constraint, ConstraintId, ConstraintOp, Model, Sense, SolveParams, VarKind};
pub use simplex::{Basis, SimplexWorkspace};
pub use solution::{Solution, SolverCounters, Status};
