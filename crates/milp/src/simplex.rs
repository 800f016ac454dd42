//! Sparse revised simplex with bounded variables and warm starts.
//!
//! The solver works on the equality form `A·x + s = b` where every row gets
//! one *logical* column `s_i` whose bounds encode the relation (`≤` → `s ≥ 0`,
//! `≥` → `s ≤ 0`, `=` → `s = 0`). Structural columns map 1:1 onto the model
//! variables — general bounds, fixed variables and free variables are handled
//! natively by the bounded-variable pivot rules, so nothing is shifted, split
//! or duplicated the way the old dense tableau required.
//!
//! The constraint matrix is stored column-compressed (`crate::sparse`); the
//! basis is LU-factorized with partial pivoting and updated between
//! refactorizations with product-form eta vectors. One iteration prices
//! nonbasic columns against the BTRAN'd dual vector, FTRANs the entering
//! column and performs a bounded ratio test (bound flips are recognized and
//! cost no basis change).
//!
//! Pricing is **Devex with partial pricing**: every nonbasic column carries a
//! reference weight approximating its steepest-edge norm, candidates are
//! scored by `d_j² / w_j`, and only a rotating segment of the column range is
//! scanned per iteration (a full rotation without an eligible column proves
//! optimality, so partial pricing never affects correctness — the weights are
//! a selection heuristic only). After each basis change the weights of the
//! nonbasic columns are updated from the pivot row (one extra BTRAN); when a
//! weight overflows the reset limit the reference framework is reset to
//! all-ones and the reset is counted. Weights travel inside [`Basis`]
//! snapshots so warm-started reoptimizations (branch-and-bound children, the
//! incremental `R_M` sweep) keep the accumulated edge information instead of
//! restarting from Dantzig-equivalent unit weights.
//!
//! Three solve strategies share the machinery:
//!
//! * **cold**: all-logical basis, composite phase 1 (minimize the sum of
//!   bound violations of the basic variables — no artificial columns are ever
//!   added), then phase 2 on the user objective;
//! * **warm primal**: statuses are taken from a caller-provided [`Basis`]
//!   (extended with default statuses when the problem has grown), then the
//!   same phase 1 / phase 2 pair runs — from a near-feasible basis phase 1
//!   typically needs a handful of pivots;
//! * **warm dual**: for bound-change-only reoptimization (branch-and-bound
//!   children), the parent's optimal basis stays dual feasible, so the dual
//!   simplex drives out the primal infeasibilities directly.

use crate::error::SolveError;
use crate::model::{ConstraintOp, Model};
use crate::sparse::{BasisFactor, CscMatrix, LuFactors};
use std::rc::Rc;

/// Reduced-cost and pivot tolerance.
const EPS: f64 = 1e-9;
/// Bound-violation (primal feasibility) tolerance.
const FEAS_TOL: f64 = 1e-7;
/// Smallest pivot element accepted in a ratio test.
const PIVOT_TOL: f64 = 1e-8;
/// Number of non-improving iterations after which Bland's rule is enabled.
const STALL_LIMIT: usize = 200;
/// Total infeasibility below which phase 1 declares the basis feasible.
const PHASE1_TOL: f64 = 1e-6;
/// Devex weight above which the reference framework is reset to unit weights.
const DEVEX_RESET_LIMIT: f64 = 1e7;
/// Minimum number of columns a partial-pricing segment scans.
const MIN_PRICE_SEGMENT: usize = 64;

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal solution found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below (for the internal minimization form).
    Unbounded,
}

/// Result of an LP solve, expressed in the *original* model variables.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Solve outcome.
    pub status: LpStatus,
    /// Minimized objective value (internal minimization sense; the caller
    /// flips the sign for maximization models).
    pub objective: f64,
    /// Values of the original model variables (empty unless optimal).
    pub values: Vec<f64>,
    /// Number of simplex pivots (and bound flips) performed.
    pub iterations: usize,
    /// Number of Devex reference-framework resets during the solve.
    pub devex_resets: usize,
    /// Partial-pricing segment size used by this solve (columns scanned per
    /// pricing chunk; equals the column count when the problem is small
    /// enough for full pricing).
    pub candidate_list_size: usize,
    /// From-scratch LU factorizations of the basis this solve computed (a
    /// warm start that adopts a shared factorization computes none).
    pub lu_factorizations: usize,
}

impl LpResult {
    /// An infeasible outcome detected before any pivot ran (crossed bounds,
    /// presolve infeasibility, and similar early exits).
    pub(crate) fn infeasible_without_pivots() -> Self {
        LpResult {
            status: LpStatus::Infeasible,
            objective: f64::INFINITY,
            values: Vec::new(),
            iterations: 0,
            devex_resets: 0,
            candidate_list_size: 0,
            lu_factorizations: 0,
        }
    }
}

/// Status of one column relative to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarStatus {
    /// In the basis; its value lives in the basic-solution vector.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable, parked at zero.
    Free,
}

/// A simplex basis snapshot used for warm starts.
///
/// Obtained from [`crate::Model::solve_with_basis`] and accepted back by the
/// same entry point. The snapshot remains usable after the model *grows*
/// (variables or constraints appended, coefficients of existing rows
/// adjusted): new columns enter at a bound, new rows enter on their logical
/// column, and the solver repairs feasibility from there — the warm-start
/// contract behind [`IlpInstance::add_round`]-style incremental sweeps.
///
/// [`IlpInstance::add_round`]: https://docs.rs/ttw-core
#[derive(Debug, Clone)]
pub struct Basis {
    /// Structural column count when the snapshot was taken.
    nstruct: usize,
    /// Row count when the snapshot was taken.
    nrows: usize,
    /// Status per column (structural `0..nstruct`, then logical per row).
    status: Vec<VarStatus>,
    /// Basic column per row, in the snapshot's column numbering.
    basic: Vec<usize>,
    /// Devex reference weights per column, preserved so warm-started
    /// reoptimizations keep the accumulated edge information.
    devex: Vec<f64>,
}

impl Basis {
    /// Builds a snapshot from raw parts (used by the presolve layer to map a
    /// reduced-space basis back to the original column numbering).
    pub(crate) fn from_parts(
        nstruct: usize,
        nrows: usize,
        status: Vec<VarStatus>,
        basic: Vec<usize>,
        devex: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(status.len(), nstruct + nrows);
        debug_assert_eq!(basic.len(), nrows);
        debug_assert_eq!(devex.len(), nstruct + nrows);
        Basis {
            nstruct,
            nrows,
            status,
            basic,
            devex,
        }
    }

    /// Snapshot dimensions `(structural columns, rows)` at capture time.
    ///
    /// Callers that cache snapshots across model edits use this to check
    /// whether a saved basis can still apply (the warm-start contract only
    /// covers models at least this large).
    pub fn dims(&self) -> (usize, usize) {
        (self.nstruct, self.nrows)
    }

    /// Raw parts `(status, basic, devex)` for the presolve mapping layer.
    pub(crate) fn parts(&self) -> (&[VarStatus], &[usize], &[f64]) {
        (&self.status, &self.basic, &self.devex)
    }
}

/// Equality-form sparse LP extracted from a [`Model`].
///
/// Structural bounds are *not* stored here — they are passed per solve so
/// branch-and-bound can explore bound subproblems against one matrix.
#[derive(Debug, Clone)]
pub(crate) struct SparseLp {
    pub(crate) nrows: usize,
    pub(crate) nstruct: usize,
    /// All columns: structural then one logical per row.
    pub(crate) cols: CscMatrix,
    /// Minimization costs per column (logical columns cost 0).
    pub(crate) cost: Vec<f64>,
    pub(crate) rhs: Vec<f64>,
    /// Constant term of the minimization objective.
    pub(crate) obj_offset: f64,
    /// Bounds of the logical columns (encode the row relations).
    pub(crate) logical_lower: Vec<f64>,
    pub(crate) logical_upper: Vec<f64>,
}

impl SparseLp {
    /// Builds the equality-form problem from a model.
    pub(crate) fn from_model(model: &Model) -> Self {
        let nrows = model.num_constraints();
        let nstruct = model.num_vars();
        let mut cols = CscMatrix::new(nrows);

        // Structural columns: gather the per-column entries from the rows.
        let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nstruct];
        let mut rhs = Vec::with_capacity(nrows);
        let mut logical_lower = Vec::with_capacity(nrows);
        let mut logical_upper = Vec::with_capacity(nrows);
        for (i, c) in model.constraints().enumerate() {
            for (var, coeff) in c.expr.iter() {
                entries[var.index()].push((i, coeff));
            }
            rhs.push(c.rhs);
            let (lo, hi) = match c.op {
                ConstraintOp::Le => (0.0, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            logical_lower.push(lo);
            logical_upper.push(hi);
        }
        for col in &entries {
            cols.push_column(col);
        }
        // Logical identity columns.
        for i in 0..nrows {
            cols.push_column(&[(i, 1.0)]);
        }

        let min_obj = model.minimization_objective();
        let mut cost = vec![0.0; nstruct + nrows];
        for (var, coeff) in min_obj.iter() {
            cost[var.index()] += coeff;
        }

        SparseLp {
            nrows,
            nstruct,
            cols,
            cost,
            rhs,
            obj_offset: min_obj.constant_term(),
            logical_lower,
            logical_upper,
        }
    }

    pub(crate) fn ncols(&self) -> usize {
        self.nstruct + self.nrows
    }
}

/// Warm-start strategy for [`solve_sparse`].
pub(crate) enum Warm<'a> {
    /// All-logical basis, two-phase primal.
    Cold,
    /// Statuses from a snapshot (extended if the problem grew), two-phase
    /// primal — the snapshot only has to be *near* feasible.
    Primal(&'a Basis),
    /// Dual simplex from a snapshot that is dual feasible for the current
    /// costs (bound changes only since the snapshot was taken). Falls back to
    /// a cold primal solve when the snapshot cannot be applied.
    ///
    /// The slot is for a caller that installs one snapshot over one LP again
    /// and again (a tree node's basis: its probes, then both children): it
    /// carries the from-scratch factorization of the snapshot's basis from
    /// the install that computes it to the ones that follow. It must be kept
    /// per (LP, snapshot); `&mut None` asks for nothing to be shared.
    Dual(&'a Basis, &'a mut Option<Rc<LuFactors>>),
}

/// Solves the LP relaxation of `model` with the variable bounds overridden by
/// `bounds` (one `(lower, upper)` pair per model variable, in column order).
///
/// # Errors
///
/// Returns [`SolveError::IterationLimitReached`] if the pivot budget from the
/// model's [`crate::SolveParams`] is exhausted.
pub(crate) fn solve_lp(model: &Model, bounds: &[(f64, f64)]) -> Result<LpResult, SolveError> {
    debug_assert_eq!(bounds.len(), model.num_vars());
    let lp = SparseLp::from_model(model);
    let max_iters = model.params().max_simplex_iterations;
    // No integrality here: this entry point solves the pure relaxation, so
    // presolve must not round derived bounds onto the integer lattice.
    let integral = vec![false; lp.nstruct];
    match crate::presolve::NodeSolver::build(&lp, bounds, &integral, model.params().presolve) {
        Some(solver) => solver
            .solve(&lp, bounds, max_iters, Warm::Cold)
            .map(|(r, _)| r),
        None => Ok(LpResult::infeasible_without_pivots()),
    }
}

/// Solves a prepared [`SparseLp`] under the given structural bounds.
///
/// On an optimal outcome the returned [`Basis`] snapshot can warm-start the
/// next related solve.
pub(crate) fn solve_sparse(
    lp: &SparseLp,
    bounds: &[(f64, f64)],
    max_iters: usize,
    warm: Warm<'_>,
) -> Result<(LpResult, Option<Basis>), SolveError> {
    // A bound pair with lower > upper makes the subproblem trivially infeasible.
    if bounds.iter().any(|(l, u)| l > u) {
        return Ok((LpResult::infeasible_without_pivots(), None));
    }

    let mut engine = Engine::new(lp, bounds, max_iters);
    // A snapshot that cannot be applied degrades to the cold basis.
    let (installed, dual) = match warm {
        Warm::Cold => (false, false),
        Warm::Primal(basis) => (engine.install_warm_basis(basis, None), false),
        Warm::Dual(basis, shared) => (engine.install_warm_basis(basis, Some(shared)), true),
    };
    let mut started_cold = !installed;
    if installed && dual {
        match engine.dual()? {
            DualOutcome::Optimal => return engine.finish(LpStatus::Optimal),
            DualOutcome::Infeasible => return engine.finish(LpStatus::Infeasible),
            // Numerical trouble: restart from scratch below.
            DualOutcome::Stuck => started_cold = true,
        }
    }
    if started_cold {
        engine.install_cold_basis();
    }

    // Two-phase primal; one numerical dead end is answered by restarting
    // from the cold basis, a second is surfaced as an error — never as a
    // fabricated Optimal/Infeasible status.
    loop {
        match engine.two_phase() {
            // An Infeasible verdict reached from a warm basis is re-certified
            // from the cold basis before it is surfaced: warm snapshots may
            // be arbitrarily stale, and callers treat infeasibility as proof.
            Ok(LpStatus::Infeasible) if !started_cold => {
                started_cold = true;
                engine.install_cold_basis();
            }
            Ok(status) => return engine.finish(status),
            Err(EngineError::Budget(e)) => return Err(e),
            Err(EngineError::Numerical) => {
                if started_cold {
                    return Err(SolveError::NumericalInstability {
                        iterations: engine.iterations,
                    });
                }
                started_cold = true;
                engine.install_cold_basis();
            }
        }
    }
}

/// Outcome of a dual-simplex run.
enum DualOutcome {
    Optimal,
    Infeasible,
    Stuck,
}

/// Internal failure of a primal phase.
enum EngineError {
    /// A resource budget was exhausted (propagated verbatim).
    Budget(SolveError),
    /// The basis trajectory hit an unrecoverable numerical dead end; the
    /// driver restarts from a cold basis once before giving up.
    Numerical,
}

impl From<SolveError> for EngineError {
    fn from(e: SolveError) -> Self {
        EngineError::Budget(e)
    }
}

/// The revised-simplex engine: factorized basis, statuses and workspaces.
struct Engine<'a> {
    lp: &'a SparseLp,
    /// Bounds for every column (structural overridden, logical fixed).
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<VarStatus>,
    /// Basic column per row.
    basic: Vec<usize>,
    /// Basic values per row.
    xb: Vec<f64>,
    factor: BasisFactor,
    /// From-scratch factorizations computed so far (adopted ones excluded).
    lu_factorizations: usize,
    iterations: usize,
    max_iters: usize,
    /// Dense workspaces (length `nrows`).
    w: Vec<f64>,
    y: Vec<f64>,
    /// Phase-1 cost workspace (length `ncols`) and the entries set last
    /// iteration, so the vector is cleared in `O(touched)` instead of being
    /// reallocated per pivot.
    c1: Vec<f64>,
    c1_touched: Vec<usize>,
    /// Devex reference weights per column (approximate steepest-edge norms).
    devex: Vec<f64>,
    /// Number of reference-framework resets performed.
    devex_resets: usize,
    /// Rotating partial-pricing cursor (next column to scan).
    price_cursor: usize,
    /// Columns scanned per pricing chunk.
    price_segment: usize,
}

impl<'a> Engine<'a> {
    fn new(lp: &'a SparseLp, bounds: &[(f64, f64)], max_iters: usize) -> Self {
        let ncols = lp.ncols();
        let mut lower = Vec::with_capacity(ncols);
        let mut upper = Vec::with_capacity(ncols);
        for &(l, u) in bounds {
            lower.push(l);
            upper.push(u);
        }
        lower.extend_from_slice(&lp.logical_lower);
        upper.extend_from_slice(&lp.logical_upper);
        Engine {
            lp,
            lower,
            upper,
            status: vec![VarStatus::AtLower; ncols],
            basic: Vec::new(),
            xb: Vec::new(),
            factor: BasisFactor::default(),
            lu_factorizations: 0,
            iterations: 0,
            max_iters,
            w: vec![0.0; lp.nrows],
            y: vec![0.0; lp.nrows],
            c1: vec![0.0; ncols],
            c1_touched: Vec::new(),
            devex: vec![1.0; ncols],
            devex_resets: 0,
            // A quarter of the columns per chunk keeps the entering choice
            // close to full Devex (at most four chunks per rotation) while
            // bounding the per-iteration pricing work on wide instances.
            price_segment: (ncols / 4).max(MIN_PRICE_SEGMENT).min(ncols.max(1)),
            price_cursor: 0,
        }
    }

    /// Runs phase 1 then phase 2 from the currently installed basis.
    fn two_phase(&mut self) -> Result<LpStatus, EngineError> {
        if !self.phase1()? {
            return Ok(LpStatus::Infeasible);
        }
        self.phase2()
    }

    /// Preferred nonbasic status for a column given its bounds.
    fn default_status(&self, j: usize) -> VarStatus {
        if self.lower[j].is_finite() {
            VarStatus::AtLower
        } else if self.upper[j].is_finite() {
            VarStatus::AtUpper
        } else {
            VarStatus::Free
        }
    }

    /// Value of a nonbasic column.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.lower[j],
            VarStatus::AtUpper => self.upper[j],
            VarStatus::Free => 0.0,
            VarStatus::Basic => unreachable!("basic column asked for nonbasic value"),
        }
    }

    /// All-logical starting basis.
    fn install_cold_basis(&mut self) {
        let ncols = self.lp.ncols();
        // Fresh reference framework: the nonbasic set changed wholesale.
        self.devex.iter_mut().for_each(|w| *w = 1.0);
        for j in 0..self.lp.nstruct {
            self.status[j] = self.default_status(j);
        }
        self.basic = (self.lp.nstruct..ncols).collect();
        for (i, &j) in self.basic.iter().enumerate() {
            debug_assert_eq!(j, self.lp.nstruct + i);
            self.status[j] = VarStatus::Basic;
        }
        let ok = self.refactorize();
        debug_assert!(ok, "the all-logical basis is the identity");
        self.compute_xb();
    }

    /// Installs a snapshot, extending it if the problem has grown since it
    /// was taken. Returns `false` (leaving the engine unusable until another
    /// install) when the snapshot does not fit or its basis is singular.
    ///
    /// The factorization of the installed basis is a function of `lp` and the
    /// snapshot's basic set alone. With a `shared` slot, one that an earlier
    /// install of the same snapshot over the same `lp` left there is adopted
    /// instead of recomputed, and one computed here is left for the next.
    fn install_warm_basis(
        &mut self,
        basis: &Basis,
        shared: Option<&mut Option<Rc<LuFactors>>>,
    ) -> bool {
        let (s0, r0) = (basis.nstruct, basis.nrows);
        let (s1, r1) = (self.lp.nstruct, self.lp.nrows);
        if s0 > s1 || r0 > r1 || basis.basic.len() != r0 {
            return false;
        }
        // Map a snapshot column index to the current numbering.
        let remap = |j: usize| if j < s0 { j } else { s1 + (j - s0) };
        for j in 0..s1 {
            self.status[j] = if j < s0 {
                basis.status[j]
            } else {
                self.default_status(j)
            };
            self.devex[j] = if j < s0 { basis.devex[j].max(1.0) } else { 1.0 };
        }
        for i in 0..r1 {
            let j = s1 + i;
            self.status[j] = if i < r0 {
                basis.status[s0 + i]
            } else {
                VarStatus::Basic
            };
            self.devex[j] = if i < r0 {
                basis.devex[s0 + i].max(1.0)
            } else {
                1.0
            };
        }
        self.basic = basis.basic.iter().map(|&j| remap(j)).collect();
        self.basic.extend((r0..r1).map(|i| s1 + i));
        for &j in &self.basic {
            self.status[j] = VarStatus::Basic;
        }
        // Sanitize nonbasic statuses against the current bounds (a bound may
        // have appeared, moved to infinity or become fixed since the
        // snapshot): a nonbasic column must sit at a bound that exists, and a
        // free-parked column whose bounds have since become finite would
        // otherwise be held at 0 outside its range without any phase
        // noticing (only basic columns are feasibility-checked).
        for j in 0..self.lp.ncols() {
            match self.status[j] {
                VarStatus::AtLower if !self.lower[j].is_finite() => {
                    self.status[j] = self.default_status(j);
                }
                VarStatus::AtUpper if !self.upper[j].is_finite() => {
                    self.status[j] = self.default_status(j);
                }
                VarStatus::Free if self.lower[j].is_finite() || self.upper[j].is_finite() => {
                    self.status[j] = self.default_status(j);
                }
                _ => {}
            }
        }
        match shared {
            Some(Some(lu)) => {
                let lp = self.lp;
                let columns = self.basic.iter().map(|&j| lp.cols.column(j));
                self.factor.adopt(lu, columns);
            }
            slot => {
                if !self.refactorize() {
                    return false;
                }
                if let Some(slot) = slot {
                    *slot = Some(self.factor.share());
                }
            }
        }
        self.compute_xb();
        true
    }

    /// Factorizes the current basis from scratch. Returns `false` if singular.
    fn refactorize(&mut self) -> bool {
        let lp = self.lp;
        let columns = self.basic.iter().map(|&j| lp.cols.column(j));
        self.lu_factorizations += 1;
        self.factor.refactorize(lp.nrows, columns).is_ok()
    }

    /// Recomputes the basic values `x_B = B⁻¹ (b − N·x_N)`.
    fn compute_xb(&mut self) {
        let lp = self.lp;
        let mut r = lp.rhs.clone();
        for j in 0..lp.ncols() {
            if self.status[j] != VarStatus::Basic {
                let v = self.nonbasic_value(j);
                if v != 0.0 {
                    lp.cols.scatter_column(j, -v, &mut r);
                }
            }
        }
        self.factor.ftran(&mut r);
        self.xb = r;
    }

    /// Refactorizes (recomputing `x_B` to purge drift) when the eta file is
    /// long. Returns `false` on a singular basis, which callers treat as
    /// numerical trouble.
    fn maybe_refactorize(&mut self) -> bool {
        if self.factor.should_refactorize() {
            if !self.refactorize() {
                return false;
            }
            self.compute_xb();
        }
        true
    }

    /// Counts one pivot/flip against the budget.
    fn charge_iteration(&mut self) -> Result<(), SolveError> {
        self.iterations += 1;
        if self.iterations > self.max_iters {
            return Err(SolveError::IterationLimitReached {
                iterations: self.iterations,
            });
        }
        Ok(())
    }

    /// Reduced-cost eligibility of column `j` under the dual vector `y`:
    /// returns the entering direction and the violation magnitude when the
    /// column can improve the phase objective. Fixed columns never enter.
    fn eligibility(&self, j: usize, y: &[f64], cost: &[f64]) -> Option<(f64, f64)> {
        let status = self.status[j];
        if status == VarStatus::Basic || self.lower[j] == self.upper[j] {
            return None;
        }
        let d = cost[j] - self.lp.cols.column_dot(j, y);
        let (dir, violation) = match status {
            VarStatus::AtLower => (1.0, -d),
            VarStatus::AtUpper => (-1.0, d),
            VarStatus::Free => {
                if d < 0.0 {
                    (1.0, -d)
                } else {
                    (-1.0, d)
                }
            }
            VarStatus::Basic => unreachable!(),
        };
        (violation > EPS).then_some((dir, violation))
    }

    /// Prices nonbasic columns against `y` and returns the entering column
    /// and its direction, or `None` at optimality.
    ///
    /// Selection is Devex (`d_j² / w_j`) over a rotating partial-pricing
    /// window: chunks of [`Engine::price_segment`] columns are scanned from
    /// the cursor, and the first chunk containing an eligible column supplies
    /// the entering one. A full rotation without an eligible column proves
    /// optimality, so the partial scan never affects correctness. Under
    /// Bland's anti-cycling rule the whole range is scanned and the lowest
    /// eligible index wins, exactly as before.
    fn price(&mut self, y: &[f64], cost: &[f64], bland: bool) -> Option<(usize, f64)> {
        let ncols = self.lp.ncols();
        if ncols == 0 {
            return None;
        }
        if bland {
            return (0..ncols).find_map(|j| self.eligibility(j, y, cost).map(|(dir, _)| (j, dir)));
        }
        let mut start = self.price_cursor % ncols;
        let mut scanned = 0usize;
        while scanned < ncols {
            let chunk = self.price_segment.min(ncols - scanned);
            let mut best: Option<(usize, f64, f64)> = None; // (col, direction, score)
            for k in 0..chunk {
                let j = (start + k) % ncols;
                if let Some((dir, violation)) = self.eligibility(j, y, cost) {
                    let score = violation * violation / self.devex[j];
                    if best.map_or(true, |(_, _, s)| score > s) {
                        best = Some((j, dir, score));
                    }
                }
            }
            start = (start + chunk) % ncols;
            scanned += chunk;
            if let Some((j, dir, _)) = best {
                self.price_cursor = start;
                return Some((j, dir));
            }
        }
        self.price_cursor = start;
        None
    }

    /// Devex reference-weight update for the basis change `basic[row] := q`,
    /// executed against the *outgoing* basis (before [`Engine::pivot`]): the
    /// pivot row `ρ = B⁻ᵀ e_row` is formed with one BTRAN and the weights are
    /// updated by [`Engine::update_devex_with_rho`]. The dual simplex, which
    /// has already BTRAN'd the very same `ρ` for its ratio test, calls the
    /// `_with_rho` variant directly instead of paying the BTRAN twice.
    fn update_devex(&mut self, q: usize, row: usize) {
        self.y.iter_mut().for_each(|v| *v = 0.0);
        self.y[row] = 1.0;
        let mut rho = std::mem::take(&mut self.y);
        self.factor.btran(&mut rho);
        self.update_devex_with_rho(q, row, &rho);
        self.y = rho;
    }

    /// Core of the Devex update, given the pivot row `ρ = B⁻ᵀ e_row` of the
    /// outgoing basis: every nonbasic weight is lifted to
    /// `(α_ρj / α_ρq)² · w_q` where it falls short, and the leaving variable
    /// re-enters the nonbasic set with the entering column's weight seen
    /// through the pivot. Weights only steer column *selection*, never
    /// eligibility, so any drift here costs pivots, not correctness.
    fn update_devex_with_rho(&mut self, q: usize, row: usize, rho: &[f64]) {
        let alpha_rq = self.w[row];
        if alpha_rq.abs() <= PIVOT_TOL {
            return;
        }
        let scale = self.devex[q].max(1.0) / (alpha_rq * alpha_rq);
        let lp = self.lp;
        let mut max_weight = 0.0f64;
        for j in 0..lp.ncols() {
            if self.status[j] == VarStatus::Basic || self.lower[j] == self.upper[j] || j == q {
                continue;
            }
            let alpha = lp.cols.column_dot(j, rho);
            if alpha != 0.0 {
                let candidate = alpha * alpha * scale;
                if candidate > self.devex[j] {
                    self.devex[j] = candidate;
                }
            }
            max_weight = max_weight.max(self.devex[j]);
        }
        self.devex[self.basic[row]] = scale.max(1.0);
        if max_weight > DEVEX_RESET_LIMIT {
            self.devex.iter_mut().for_each(|w| *w = 1.0);
            self.devex_resets += 1;
        }
    }

    /// Dual vector `y = B⁻ᵀ c_B` for the given per-column costs.
    fn btran_costs(&mut self, cost: &[f64]) {
        for i in 0..self.lp.nrows {
            self.y[i] = cost[self.basic[i]];
        }
        let mut y = std::mem::take(&mut self.y);
        self.factor.btran(&mut y);
        self.y = y;
    }

    /// FTRANs column `q` into the `w` workspace.
    fn ftran_column(&mut self, q: usize) {
        self.w.iter_mut().for_each(|v| *v = 0.0);
        self.lp.cols.scatter_column(q, 1.0, &mut self.w);
        let mut w = std::mem::take(&mut self.w);
        self.factor.ftran(&mut w);
        self.w = w;
    }

    /// Executes the basis change `basic[row] := q` after the entering column
    /// has been FTRAN'd into `w`, moving the entering variable by `step`
    /// (signed) and parking the leaving variable at `leave_status`.
    ///
    /// Returns `false` when the eta pivot is numerically unacceptable even
    /// after a refactorization (caller treats this as numerical trouble).
    fn pivot(&mut self, row: usize, q: usize, step: f64, leave_status: VarStatus) -> bool {
        let entering_prev_status = self.status[q];
        let entering_value = self.nonbasic_value(q) + step;
        if step != 0.0 {
            for i in 0..self.lp.nrows {
                let wi = self.w[i];
                if wi != 0.0 {
                    self.xb[i] -= step * wi;
                }
            }
        }
        let leaving = self.basic[row];
        if !self.factor.push_eta(row, &self.w) {
            // Pivot too small for an eta update: commit the exchange and
            // refactorize the whole basis instead.
            self.status[leaving] = leave_status;
            self.basic[row] = q;
            self.status[q] = VarStatus::Basic;
            if !self.refactorize() {
                // The exchanged basis is singular — roll back and signal
                // numerical trouble to the caller.
                self.status[q] = entering_prev_status;
                self.basic[row] = leaving;
                self.status[leaving] = VarStatus::Basic;
                let _ = self.refactorize();
                self.compute_xb();
                return false;
            }
            self.compute_xb();
            return true;
        }
        self.status[leaving] = leave_status;
        self.basic[row] = q;
        self.status[q] = VarStatus::Basic;
        self.xb[row] = entering_value;
        true
    }

    /// Total primal infeasibility of the basic solution.
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for (i, &j) in self.basic.iter().enumerate() {
            let x = self.xb[i];
            if x < self.lower[j] - FEAS_TOL {
                total += self.lower[j] - x;
            } else if x > self.upper[j] + FEAS_TOL {
                total += x - self.upper[j];
            }
        }
        total
    }

    /// Bounded ratio test shared by both primal phases, run after the
    /// entering column `q` has been FTRAN'd into `w`.
    ///
    /// Returns the step limit and the blocking row with the status the
    /// leaving variable parks at (`None` = the limit is the entering
    /// column's own bound flip, or infinity). In phase-1 mode, infeasible
    /// basics moving *toward* their violated bound block there (and become
    /// feasible) while infeasible basics moving away never block; feasible
    /// basics block at whichever bound they approach, exactly as in phase 2.
    fn ratio_test(
        &self,
        q: usize,
        dir: f64,
        phase1: bool,
        bland: bool,
    ) -> (f64, Option<(usize, VarStatus)>) {
        let mut t_best = if self.lower[q].is_finite() && self.upper[q].is_finite() {
            self.upper[q] - self.lower[q]
        } else {
            f64::INFINITY
        };
        let mut blocking: Option<(usize, VarStatus, f64)> = None; // (row, leave status, |w|)
        for i in 0..self.lp.nrows {
            let wi = self.w[i];
            let delta = dir * wi; // rate of *decrease* of xb[i]
            if delta.abs() <= PIVOT_TOL {
                continue;
            }
            let bj = self.basic[i];
            let (l, u, x) = (self.lower[bj], self.upper[bj], self.xb[i]);
            let (limit, leave) = if phase1 && x < l - FEAS_TOL {
                if delta < 0.0 {
                    ((l - x) / -delta, VarStatus::AtLower)
                } else {
                    continue;
                }
            } else if phase1 && x > u + FEAS_TOL {
                if delta > 0.0 {
                    ((x - u) / delta, VarStatus::AtUpper)
                } else {
                    continue;
                }
            } else if delta > 0.0 {
                if l.is_finite() {
                    ((x - l) / delta, VarStatus::AtLower)
                } else {
                    continue;
                }
            } else if u.is_finite() {
                ((u - x) / -delta, VarStatus::AtUpper)
            } else {
                continue;
            };
            let limit = limit.max(0.0);
            let replace = match blocking {
                _ if limit > t_best + EPS => false,
                None => true,
                Some((bi, _, babs)) => {
                    if limit < t_best - EPS {
                        true
                    } else if bland {
                        self.basic[i] < self.basic[bi]
                    } else {
                        wi.abs() > babs
                    }
                }
            };
            if replace {
                t_best = limit.min(t_best);
                blocking = Some((i, leave, wi.abs()));
            }
        }
        (t_best, blocking.map(|(row, leave, _)| (row, leave)))
    }

    /// Flips the entering column to its opposite bound (no basis change).
    fn bound_flip(&mut self, q: usize, dir: f64, t: f64) {
        for i in 0..self.lp.nrows {
            self.xb[i] -= dir * self.w[i] * t;
        }
        self.status[q] = match self.status[q] {
            VarStatus::AtLower => VarStatus::AtUpper,
            VarStatus::AtUpper => VarStatus::AtLower,
            other => other,
        };
    }

    /// Composite phase 1: minimizes the sum of bound violations of the basic
    /// variables starting from the *current* basis. Returns `true` when a
    /// feasible basis is reached, `false` when the LP is infeasible.
    fn phase1(&mut self) -> Result<bool, EngineError> {
        let mut stall = 0usize;
        let mut last_f = f64::INFINITY;
        let mut retried = false;
        // Whether `xb` is known to agree with a from-scratch factorization
        // of the current basis; required before an Infeasible verdict.
        let mut fresh = false;
        loop {
            let f = self.infeasibility();
            if f <= PHASE1_TOL {
                return Ok(true);
            }
            if f < last_f - EPS {
                stall = 0;
                last_f = f;
            } else {
                stall += 1;
            }
            let bland = stall > STALL_LIMIT;

            // Phase-1 costs: −1 below the lower bound, +1 above the upper.
            // Only basic columns can be infeasible, so nonbasic costs are 0;
            // the workspace is cleared entry-wise instead of reallocated.
            let mut c1 = std::mem::take(&mut self.c1);
            for &j in &self.c1_touched {
                c1[j] = 0.0;
            }
            self.c1_touched.clear();
            for (i, &j) in self.basic.iter().enumerate() {
                if self.xb[i] < self.lower[j] - FEAS_TOL {
                    c1[j] = -1.0;
                    self.c1_touched.push(j);
                } else if self.xb[i] > self.upper[j] + FEAS_TOL {
                    c1[j] = 1.0;
                    self.c1_touched.push(j);
                }
            }
            self.btran_costs(&c1);
            let y = std::mem::take(&mut self.y);
            let entering = self.price(&y, &c1, bland);
            self.y = y;
            self.c1 = c1;
            let Some((q, dir)) = entering else {
                // No improving column: the violation sum is minimal. The
                // verdict is only trustworthy when `xb` matches a fresh
                // factorization — incremental updates drift over long pivot
                // sequences (warm starts especially), and pricing against a
                // drifted point can miss every improving column. Re-sync once
                // per verdict attempt and keep iterating if anything moved.
                if fresh {
                    return Ok(self.infeasibility() <= PHASE1_TOL);
                }
                if !self.refactorize() {
                    return Err(EngineError::Numerical);
                }
                self.compute_xb();
                fresh = true;
                continue;
            };

            self.ftran_column(q);
            let (t_best, blocking) = self.ratio_test(q, dir, true, bland);

            self.charge_iteration()?;
            fresh = false;
            match blocking {
                Some((row, leave)) => {
                    self.update_devex(q, row);
                    if !self.pivot(row, q, dir * t_best, leave) {
                        if retried {
                            return Err(EngineError::Numerical);
                        }
                        retried = true;
                    }
                }
                None if t_best.is_finite() => self.bound_flip(q, dir, t_best),
                None => {
                    // A strictly decreasing, breakpoint-free direction cannot
                    // exist while F > 0; treat as numerical trouble.
                    if retried {
                        return Err(EngineError::Numerical);
                    }
                    retried = true;
                    if !self.refactorize() {
                        return Err(EngineError::Numerical);
                    }
                    self.compute_xb();
                    fresh = true;
                }
            }
            if !self.maybe_refactorize() {
                return Err(EngineError::Numerical);
            }
        }
    }

    /// Phase 2: minimizes the model objective from a primal-feasible basis.
    fn phase2(&mut self) -> Result<LpStatus, EngineError> {
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        let mut retried = false;
        loop {
            let obj = self.objective_value();
            if obj < last_obj - EPS {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
            let bland = stall > STALL_LIMIT;

            let lp = self.lp;
            self.btran_costs(&lp.cost);
            let y = std::mem::take(&mut self.y);
            let entering = self.price(&y, &lp.cost, bland);
            self.y = y;
            let Some((q, dir)) = entering else {
                return Ok(LpStatus::Optimal);
            };

            self.ftran_column(q);
            let (t_best, blocking) = self.ratio_test(q, dir, false, bland);

            if blocking.is_none() && !t_best.is_finite() {
                return Ok(LpStatus::Unbounded);
            }
            self.charge_iteration()?;
            match blocking {
                Some((row, leave)) => {
                    self.update_devex(q, row);
                    if !self.pivot(row, q, dir * t_best, leave) {
                        if retried {
                            return Err(EngineError::Numerical);
                        }
                        retried = true;
                    }
                }
                None => self.bound_flip(q, dir, t_best),
            }
            if !self.maybe_refactorize() {
                return Err(EngineError::Numerical);
            }
        }
    }

    /// Dual simplex from the installed (dual-feasible) basis.
    fn dual(&mut self) -> Result<DualOutcome, SolveError> {
        let mut stall = 0usize;
        let mut last_inf = f64::INFINITY;
        // Incremental `xb` updates drift over long pivot sequences, so both
        // verdicts below are only trusted from a re-synced state. `fresh`
        // means `xb` was re-derived through the factorization (one FTRAN —
        // cheap, the eta chain is length-bounded by `maybe_refactorize`),
        // which certifies the Optimal bound check. `hard_fresh` means the
        // factorization itself was rebuilt from scratch — required for an
        // Infeasible verdict, which branch-and-bound treats as a pruning
        // proof. Both hold on entry: `install_warm_basis` ends on a
        // from-scratch factorization of exactly the installed basis — its
        // own, or the bit-identical one an earlier install of the same
        // snapshot shared, with an empty eta file either way — and
        // recomputes `xb` through it as its last step.
        let mut fresh = true;
        let mut hard_fresh = true;
        loop {
            // Leaving row: the worst bound violation.
            let mut leaving: Option<(usize, bool, f64)> = None; // (row, below, violation)
            for (i, &j) in self.basic.iter().enumerate() {
                let x = self.xb[i];
                let viol_lo = self.lower[j] - x;
                let viol_hi = x - self.upper[j];
                if viol_lo > FEAS_TOL && leaving.map_or(true, |(_, _, v)| viol_lo > v) {
                    leaving = Some((i, true, viol_lo));
                }
                if viol_hi > FEAS_TOL && leaving.map_or(true, |(_, _, v)| viol_hi > v) {
                    leaving = Some((i, false, viol_hi));
                }
            }
            let Some((row, below, total_viol)) = leaving else {
                if fresh {
                    return Ok(DualOutcome::Optimal);
                }
                self.compute_xb();
                fresh = true;
                continue;
            };
            if total_viol < last_inf - EPS {
                stall = 0;
                last_inf = total_viol;
            } else {
                stall += 1;
                if stall > STALL_LIMIT * 2 {
                    return Ok(DualOutcome::Stuck);
                }
            }
            let bland = stall > STALL_LIMIT;

            // ρ = B⁻ᵀ e_row, then α_j = ρ·a_j for the candidate columns.
            self.y.iter_mut().for_each(|v| *v = 0.0);
            self.y[row] = 1.0;
            let mut rho = std::mem::take(&mut self.y);
            self.factor.btran(&mut rho);

            // Reduced costs for the dual ratio test.
            for i in 0..self.lp.nrows {
                self.w[i] = self.lp.cost[self.basic[i]];
            }
            let mut yc = std::mem::take(&mut self.w);
            self.factor.btran(&mut yc);

            let lp = self.lp;
            let mut entering: Option<(usize, f64, f64)> = None; // (col, alpha, ratio)
            for j in 0..lp.ncols() {
                let status = self.status[j];
                // Fixed columns (Eq-row logicals, pinned offsets) cannot move
                // and so cannot repair a primal infeasibility — entering one
                // would only ping-pong the violation. Skip them, as pricing
                // does.
                if status == VarStatus::Basic || self.lower[j] == self.upper[j] {
                    continue;
                }
                let alpha = lp.cols.column_dot(j, &rho);
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let admissible = match (below, status) {
                    (true, VarStatus::AtLower) => alpha < 0.0,
                    (true, VarStatus::AtUpper) => alpha > 0.0,
                    (false, VarStatus::AtLower) => alpha > 0.0,
                    (false, VarStatus::AtUpper) => alpha < 0.0,
                    (_, VarStatus::Free) => true,
                    (_, VarStatus::Basic) => unreachable!(),
                };
                if !admissible {
                    continue;
                }
                let d = lp.cost[j] - lp.cols.column_dot(j, &yc);
                let dval = match status {
                    VarStatus::AtLower => d.max(0.0),
                    VarStatus::AtUpper => (-d).max(0.0),
                    _ => d.abs(),
                };
                let ratio = dval / alpha.abs();
                let take = match entering {
                    None => true,
                    Some((bj, balpha, bratio)) => {
                        if bland {
                            ratio < bratio - EPS || (ratio < bratio + EPS && j < bj)
                        } else {
                            ratio < bratio - EPS
                                || (ratio < bratio + EPS && alpha.abs() > balpha.abs())
                        }
                    }
                };
                if take {
                    entering = Some((j, alpha, ratio));
                }
            }
            self.y = rho;
            self.w = yc;

            let Some((q, alpha, _)) = entering else {
                // Dual unbounded ⇒ primal infeasible — certify from a
                // from-scratch factorization before surfacing the proof.
                if hard_fresh {
                    return Ok(DualOutcome::Infeasible);
                }
                if !self.refactorize() {
                    return Ok(DualOutcome::Stuck);
                }
                self.compute_xb();
                fresh = true;
                hard_fresh = true;
                continue;
            };

            let _ = alpha;
            self.ftran_column(q);
            if self.w[row].abs() <= PIVOT_TOL / 10.0 {
                return Ok(DualOutcome::Stuck);
            }
            let target = if below {
                self.lower[self.basic[row]]
            } else {
                self.upper[self.basic[row]]
            };
            let step = (self.xb[row] - target) / self.w[row];
            let leave_status = if below {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            self.charge_iteration()?;
            fresh = false;
            hard_fresh = false;
            // `y` still holds ρ = B⁻ᵀ e_row from the ratio test above — no
            // second BTRAN for the weight update.
            let rho = std::mem::take(&mut self.y);
            self.update_devex_with_rho(q, row, &rho);
            self.y = rho;
            if !self.pivot(row, q, step, leave_status) {
                return Ok(DualOutcome::Stuck);
            }
            if !self.maybe_refactorize() {
                return Ok(DualOutcome::Stuck);
            }
        }
    }

    /// Objective of the current (not necessarily feasible) basic solution.
    fn objective_value(&self) -> f64 {
        let lp = self.lp;
        let mut obj = lp.obj_offset;
        for (i, &j) in self.basic.iter().enumerate() {
            obj += lp.cost[j] * self.xb[i];
        }
        for j in 0..lp.ncols() {
            if self.status[j] != VarStatus::Basic && lp.cost[j] != 0.0 {
                obj += lp.cost[j] * self.nonbasic_value(j);
            }
        }
        obj
    }

    /// Packages the result and the basis snapshot.
    fn finish(self, status: LpStatus) -> Result<(LpResult, Option<Basis>), SolveError> {
        let result = match status {
            LpStatus::Optimal => {
                let mut values = vec![0.0; self.lp.nstruct];
                for (j, value) in values.iter_mut().enumerate() {
                    *value = match self.status[j] {
                        VarStatus::Basic => 0.0, // filled below
                        _ => self.nonbasic_value(j),
                    };
                }
                for (i, &j) in self.basic.iter().enumerate() {
                    if j < self.lp.nstruct {
                        values[j] = self.xb[i];
                    }
                }
                LpResult {
                    status,
                    objective: self.objective_value(),
                    values,
                    iterations: self.iterations,
                    devex_resets: self.devex_resets,
                    candidate_list_size: self.price_segment,
                    lu_factorizations: self.lu_factorizations,
                }
            }
            LpStatus::Infeasible => LpResult {
                status,
                objective: f64::INFINITY,
                values: Vec::new(),
                iterations: self.iterations,
                devex_resets: self.devex_resets,
                candidate_list_size: self.price_segment,
                lu_factorizations: self.lu_factorizations,
            },
            LpStatus::Unbounded => LpResult {
                status,
                objective: f64::NEG_INFINITY,
                values: Vec::new(),
                iterations: self.iterations,
                devex_resets: self.devex_resets,
                candidate_list_size: self.price_segment,
                lu_factorizations: self.lu_factorizations,
            },
        };
        let basis = if status == LpStatus::Optimal {
            Some(Basis {
                nstruct: self.lp.nstruct,
                nrows: self.lp.nrows,
                status: self.status,
                basic: self.basic,
                devex: self.devex,
            })
        } else {
            None
        };
        Ok((result, basis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn solve(model: &Model) -> LpResult {
        let bounds: Vec<(f64, f64)> = model.variables().map(|(_, v)| (v.lower, v.upper)).collect();
        solve_lp(model, &bounds).expect("lp solve")
    }

    #[test]
    fn maximization_with_upper_bounds() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 → x=4, y=0, obj=12
        let mut m = Model::new("lp1");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(Sense::Maximize, &[(x, 3.0), (y, 2.0)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        m.add_le(&[(x, 1.0), (y, 3.0)], 6.0);
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((-r.objective - 12.0).abs() < 1e-6, "obj={}", r.objective);
        assert!((r.values[0] - 4.0).abs() < 1e-6);
        assert!(r.values[1].abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 → obj = 10
        let mut m = Model::new("lp2");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 1.0)]);
        m.add_eq(&[(x, 1.0), (y, 1.0)], 10.0);
        m.add_ge(&[(x, 1.0)], 3.0);
        m.add_ge(&[(y, 1.0)], 2.0);
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new("lp3");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_ge(&[(x, 1.0)], 5.0);
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut m = Model::new("lp4");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(Sense::Maximize, &[(x, 1.0)]);
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds_are_native() {
        // min x s.t. x >= -5 (bound), x + 3 >= 0 → x = -3
        let mut m = Model::new("lp5");
        let x = m.add_continuous("x", -5.0, 5.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_ge(&[(x, 1.0)], -3.0);
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] + 3.0).abs() < 1e-6, "x={}", r.values[0]);
    }

    #[test]
    fn free_variable_is_native() {
        // min y s.t. y = x - 7, 0 <= x <= 3, y free → y = -7
        let mut m = Model::new("lp6");
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", f64::NEG_INFINITY, f64::INFINITY);
        m.set_objective(Sense::Minimize, &[(y, 1.0)]);
        m.add_eq(&[(y, 1.0), (x, -1.0)], -7.0);
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[1] + 7.0).abs() < 1e-6, "y={}", r.values[1]);
    }

    #[test]
    fn upper_bound_only_variable() {
        // max x with x <= 9 and lower bound -inf, constraint x >= 2 → 9
        let mut m = Model::new("lp7");
        let x = m.add_continuous("x", f64::NEG_INFINITY, 9.0);
        m.set_objective(Sense::Maximize, &[(x, 1.0)]);
        m.add_ge(&[(x, 1.0)], 2.0);
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP; checks the stalling safeguard.
        let mut m = Model::new("degenerate");
        let x1 = m.add_continuous("x1", 0.0, f64::INFINITY);
        let x2 = m.add_continuous("x2", 0.0, f64::INFINITY);
        let x3 = m.add_continuous("x3", 0.0, f64::INFINITY);
        m.set_objective(Sense::Maximize, &[(x1, 10.0), (x2, -57.0), (x3, -9.0)]);
        m.add_le(&[(x1, 0.5), (x2, -5.5), (x3, -2.5)], 0.0);
        m.add_le(&[(x1, 0.5), (x2, -1.5), (x3, -0.5)], 0.0);
        m.add_le(&[(x1, 1.0)], 1.0);
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((-r.objective - 1.0).abs() < 1e-5, "obj={}", -r.objective);
    }

    #[test]
    fn fixed_variable_bounds() {
        let mut m = Model::new("fixed");
        let x = m.add_continuous("x", 4.0, 4.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(y, 1.0)]);
        m.add_ge(&[(y, 1.0), (x, -1.0)], 0.0); // y >= x = 4
        let r = solve(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 4.0).abs() < 1e-6);
        assert!((r.values[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn warm_dual_reoptimizes_after_bound_tightening() {
        // max x + y s.t. x + y <= 4, x,y in [0, 3].
        let mut m = Model::new("warm");
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 3.0);
        m.set_objective(Sense::Maximize, &[(x, 2.0), (y, 1.0)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        let lp = SparseLp::from_model(&m);
        let (root, basis) =
            solve_sparse(&lp, &[(0.0, 3.0), (0.0, 3.0)], 10_000, Warm::Cold).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        assert!(
            (-root.objective - 7.0).abs() < 1e-6,
            "root {}",
            root.objective
        );
        let basis = basis.expect("optimal basis");

        // Tighten x <= 1: dual simplex should recover x=1, y=3 → obj 5.
        let tightened = [(0.0, 1.0), (0.0, 3.0)];
        let mut shared = None;
        let (child, child_basis) =
            solve_sparse(&lp, &tightened, 10_000, Warm::Dual(&basis, &mut shared)).expect("child");
        assert_eq!(child.status, LpStatus::Optimal);
        assert!(
            (-child.objective - 5.0).abs() < 1e-6,
            "child {}",
            child.objective
        );
        assert!((child.values[0] - 1.0).abs() < 1e-6);
        assert!((child.values[1] - 3.0).abs() < 1e-6);
        assert!(child_basis.is_some());
        // The warm solve should take at most a couple of pivots.
        assert!(child.iterations <= 4, "took {} pivots", child.iterations);

        // A second install of the snapshot adopts the factorization the
        // first left in the slot, and solves the same LP the same way.
        assert!(shared.is_some());
        let (again, _) =
            solve_sparse(&lp, &tightened, 10_000, Warm::Dual(&basis, &mut shared)).expect("again");
        assert_eq!(again.lu_factorizations + 1, child.lu_factorizations);
        assert_eq!(again.iterations, child.iterations);
        assert_eq!(again.values, child.values);
    }

    #[test]
    fn warm_dual_detects_infeasible_child() {
        // x + y >= 5 with x,y in [0,3]; tighten both to [0,1] → infeasible.
        let mut m = Model::new("warm-inf");
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 3.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 1.0)]);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 5.0);
        let lp = SparseLp::from_model(&m);
        let (root, basis) =
            solve_sparse(&lp, &[(0.0, 3.0), (0.0, 3.0)], 10_000, Warm::Cold).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.expect("optimal basis");
        let (child, _) = solve_sparse(
            &lp,
            &[(0.0, 1.0), (0.0, 1.0)],
            10_000,
            Warm::Dual(&basis, &mut None),
        )
        .expect("child");
        assert_eq!(child.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_repins_free_column_whose_bounds_became_finite() {
        // A free variable with zero cost and no constraint entries is parked
        // nonbasic-Free at 0 in the snapshot. When a later (branch-style)
        // solve tightens its bounds to [2, 10], the warm start must re-pin it
        // to a real bound instead of silently keeping it at the now-invalid 0.
        let mut m = Model::new("free-repin");
        let x = m.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(y, 1.0)]);
        m.add_ge(&[(y, 1.0)], 1.0);
        let lp = SparseLp::from_model(&m);
        let free = (f64::NEG_INFINITY, f64::INFINITY);
        let (root, basis) =
            solve_sparse(&lp, &[free, (0.0, 10.0)], 10_000, Warm::Cold).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        assert_eq!(root.values[0], 0.0, "free column parks at 0");
        let basis = basis.expect("optimal basis");

        for warm in [Warm::Dual(&basis, &mut None), Warm::Primal(&basis)] {
            let (child, _) =
                solve_sparse(&lp, &[(2.0, 10.0), (0.0, 10.0)], 10_000, warm).expect("child");
            assert_eq!(child.status, LpStatus::Optimal);
            assert!(
                child.values[0] >= 2.0 - 1e-9,
                "x must respect its new lower bound, got {}",
                child.values[0]
            );
        }
        let _ = x;
    }

    #[test]
    fn warm_primal_survives_model_growth() {
        // Solve a 1-variable problem, then grow the model by a variable and a
        // row and warm-start from the stale snapshot.
        let mut m = Model::new("grow");
        let x = m.add_continuous("x", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_ge(&[(x, 1.0)], 2.0);
        let lp = SparseLp::from_model(&m);
        let (first, basis) = solve_sparse(&lp, &[(0.0, 10.0)], 10_000, Warm::Cold).expect("first");
        assert!((first.objective - 2.0).abs() < 1e-6);
        let basis = basis.expect("optimal basis");

        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_objective_term(y, 1.0);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 5.0);
        let lp2 = SparseLp::from_model(&m);
        let (second, _) = solve_sparse(
            &lp2,
            &[(0.0, 10.0), (0.0, 10.0)],
            10_000,
            Warm::Primal(&basis),
        )
        .expect("second");
        assert_eq!(second.status, LpStatus::Optimal);
        assert!(
            (second.objective - 5.0).abs() < 1e-6,
            "{}",
            second.objective
        );
    }
}
