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
//! a selection heuristic only). After each primal basis change the weights
//! of the nonbasic columns are updated from the pivot row, at the cost of one
//! extra BTRAN and column pass; when a weight overflows the reset limit the
//! reference framework is reset to all-ones and the reset is counted. The
//! dual simplex prices by its ratio test and leaves the weights alone. Weights
//! travel inside [`Basis`] snapshots so warm-started primal reoptimizations
//! (cut rounds, the incremental `R_M` sweep) keep the accumulated edge
//! information instead of restarting from Dantzig-equivalent unit weights.
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
//!   simplex drives out the primal infeasibilities directly. Where it ends
//!   primal feasible, the signs of the reduced costs are checked (derived
//!   afresh when pivots updated them); a basis that is not dual feasible
//!   after all is finished by primal phase 2.
//!
//! The dual simplex keeps the nonbasic reduced costs `d_j` across its
//! pivots: each iteration BTRANs the pivot row `ρ` once, forms `α_j = ρ·a_j`
//! for the ratio test, and updates `d_j −= θ_d·α_j` from that same row; the
//! costs are recomputed from scratch only where the factorization is
//! rebuilt. A branch-and-bound child starts from the basis its parent's LP
//! ended on, so it can also start from the parent's `FactorState` — LU
//! factors, eta file and, when the parent ended through the dual, its
//! reduced costs — instead of factorizing that basis from scratch. The state
//! also carries the `x_B` derived through those factors, which a child whose
//! branched column is basic takes as it is (a `Warm::Dual` start naming that
//! column): its bounds differ from the parent's only on that column, and
//! `x_B` reads none of a basic column's bounds.
//!
//! A dual-unbounded row proves the LP infeasible. Reached from a
//! factorization computed from scratch, the verdict stands; otherwise the
//! ray `ρ` is checked as a **Farkas certificate** straight from the data:
//! `ρᵀA·x = ρᵀb` holds at every feasible point, so when the least value of
//! the (signed) left side over the bound box exceeds the right side, no
//! point exists, whatever drift the factorization carries. Only a ray that
//! cannot certify — one with an infinite term — costs a refactorization and
//! another round.
//!
//! Every per-LP buffer — bounds, statuses, the basic list, `x_B`, the dense
//! work vectors, phase-1 costs, Devex weights, the dual ratio test's `α`
//! row, the presolve layer's mapped bounds and basis, and the
//! `BasisFactor` with its LU buffers, spare, pool of released
//! factorizations, LU workspace and eta file, the reduced costs — lives in a
//! [`SimplexWorkspace`] that outlives the LP, together with the released
//! node snapshots and memo states a tree refills. One workspace serves
//! every LP of a mode: the `ttw-core` ILP instance owns one for its `R_M`
//! attempts' trees and its polish LP, and the entry points that take none
//! make a local one. (The eta file's entries buffer, whose length follows
//! an LP's pivots rather than its size, is kept only up to a cap tied to
//! the next LP's row count.) An LP resets every per-LP field as it starts
//! (`Engine::new`: statuses, Devex weights back to 1, the eta file, the
//! reduced costs) and keeps its counts and pricing cursor in the `Engine`,
//! which is built per LP, so a reused workspace answers exactly as a fresh
//! one. After an optimal solve the final basis, basic solution and factor
//! state stay in the workspace, and the caller reads values and snapshot
//! out of it in its own numbering (`presolve` straight into the original
//! one; a tree's nodes take the snapshot as it is, refilled in place), and
//! the factor state with `SimplexWorkspace::capture`.

use crate::cuts::Separator;
use crate::error::SolveError;
use crate::model::{ConstraintOp, Model};
use crate::presolve::Presolve;
use crate::sparse::{BasisFactor, CscMatrix, FactorSnapshot, LuFactors, LuWorkspace};
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
    /// warm start that restores a captured `FactorState` computes none).
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

impl VarStatus {
    /// The status's letter in [`Basis::status_letters`].
    fn letter(self) -> char {
        match self {
            VarStatus::Basic => 'B',
            VarStatus::AtLower => 'L',
            VarStatus::AtUpper => 'U',
            VarStatus::Free => 'F',
        }
    }

    fn of_letter(letter: u8) -> Option<Self> {
        match letter {
            b'B' => Some(VarStatus::Basic),
            b'L' => Some(VarStatus::AtLower),
            b'U' => Some(VarStatus::AtUpper),
            b'F' => Some(VarStatus::Free),
            _ => None,
        }
    }
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
/// A snapshot is plain data with no format of its own: its three read
/// accessors ([`Basis::status_letters`], [`Basis::basic`],
/// [`Basis::devex`]) hand out everything it holds, and
/// [`Basis::from_letters`] builds one back from them, checked. The schedule
/// cache of `ttw-core` persists a snapshot as a JSON object of those three
/// members and the crate version. A snapshot that passes the checks can still be stale for the
/// model it is applied to; the warm install then degrades to a cold start.
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

    /// The basic column of each row, in the snapshot's column numbering:
    /// structural columns `0..nstruct`, then the logical column of each row.
    pub fn basic(&self) -> &[usize] {
        &self.basic
    }

    /// The Devex reference weight of each column, in the numbering of
    /// [`Basis::basic`].
    pub fn devex(&self) -> &[f64] {
        &self.devex
    }

    /// The status of each column as one letter: `B` basic, `L` at its
    /// lower bound, `U` at its upper bound, `F` free and parked at zero.
    pub fn status_letters(&self) -> String {
        self.status.iter().map(|s| s.letter()).collect()
    }

    /// The snapshot the three read accessors describe: one column per
    /// status letter, one row per basic entry. `None` — never a panic —
    /// unless there are at least as many columns as rows, one Devex weight
    /// per column, each finite and positive, every letter is one of
    /// `BLUF`, and the basic entries name distinct in-range columns that are
    /// exactly the ones marked `B`. Every buffer it allocates is as long as
    /// one of its arguments.
    pub fn from_letters(status: &str, basic: Vec<usize>, devex: Vec<f64>) -> Option<Basis> {
        let (ncols, nrows) = (status.len(), basic.len());
        let nstruct = ncols.checked_sub(nrows)?;
        if devex.len() != ncols || !devex.iter().all(|&w| w.is_finite() && w > 0.0) {
            return None;
        }
        let status: Vec<VarStatus> = status
            .bytes()
            .map(VarStatus::of_letter)
            .collect::<Option<_>>()?;
        let mut seen = vec![false; ncols];
        for &j in &basic {
            if j >= ncols || std::mem::replace(&mut seen[j], true) || status[j] != VarStatus::Basic
            {
                return None;
            }
        }
        if status.iter().filter(|&&s| s == VarStatus::Basic).count() != nrows {
            return None;
        }
        Some(Basis::from_parts(nstruct, nrows, status, basic, devex))
    }

    /// Raw parts `(status, basic, devex)` for the presolve mapping layer.
    pub(crate) fn parts(&self) -> (&[VarStatus], &[usize], &[f64]) {
        (&self.status, &self.basic, &self.devex)
    }

    /// The snapshot with some of its last `keep.len()` rows taken out: the
    /// rows whose `keep` entry is `false` leave together with their logical
    /// columns, and the other rows keep their order. `None` when one of
    /// those logicals is nonbasic.
    ///
    /// A basic logical at the row it leaves with is a unit column, so the
    /// basis stays nonsingular, and the basic solution and the duals of the
    /// rows that stay do not move: a basis optimal before is optimal after.
    /// A column that was basic at a leaving row's position takes the
    /// position that row's logical frees (following the chain when that
    /// position leaves too).
    pub(crate) fn without_rows(&self, keep: &[bool]) -> Option<Basis> {
        let (n, m) = (self.nstruct, self.nrows);
        let first = m - keep.len();
        let stays = |i: usize| i < first || keep[i - first];
        // The new index of every row that stays.
        let mut renumbered = vec![usize::MAX; m];
        let mut rows = 0;
        for (i, new) in renumbered.iter_mut().enumerate() {
            if stays(i) {
                *new = rows;
                rows += 1;
            } else if self.status[n + i] != VarStatus::Basic {
                return None;
            }
        }
        let column = |j: usize| match j.checked_sub(n) {
            None => Some(j),
            Some(i) => stays(i).then(|| n + renumbered[i]),
        };
        let mut status = self.status[..n].to_vec();
        let mut devex = self.devex[..n].to_vec();
        for i in (0..m).filter(|&i| stays(i)) {
            status.push(self.status[n + i]);
            devex.push(self.devex[n + i]);
        }
        let mut basic = Vec::with_capacity(rows);
        for (p, &j) in self.basic.iter().enumerate() {
            if !stays(p) {
                continue;
            }
            // A leaving logical's place goes to what sat at its row's
            // position or, when that is a leaving logical too, at the
            // position of that one's row, and so on.
            let mut at = j;
            for _ in 0..m {
                if column(at).is_some() {
                    break;
                }
                at = self.basic[at - n];
            }
            basic.push(column(at)?);
        }
        Some(Basis::from_parts(n, rows, status, basic, devex))
    }

    /// Empties the snapshot into an `nstruct × nrows` one — every status
    /// `AtLower`, every weight 1, no basic column — keeping its buffers, and
    /// hands out its parts for the presolve mapping layer to fill.
    pub(crate) fn refill(
        &mut self,
        nstruct: usize,
        nrows: usize,
    ) -> (&mut [VarStatus], &mut Vec<usize>, &mut [f64]) {
        self.nstruct = nstruct;
        self.nrows = nrows;
        refill(&mut self.status, nstruct + nrows, VarStatus::AtLower);
        self.basic.clear();
        refill(&mut self.devex, nstruct + nrows, 1.0);
        (&mut self.status, &mut self.basic, &mut self.devex)
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
    ///
    /// The structural columns are gathered from the rows in two passes: one
    /// counts each column's entries, the other scatters them, rows
    /// ascending, into one flat buffer that holds every column back to
    /// back.
    pub(crate) fn from_model(model: &Model) -> Self {
        let nrows = model.num_constraints();
        let nstruct = model.num_vars();

        // `start[j]..start[j + 1]` will hold column `j`'s entries.
        let mut start = vec![0usize; nstruct + 1];
        let mut rhs = Vec::with_capacity(nrows);
        let mut logical_lower = Vec::with_capacity(nrows);
        let mut logical_upper = Vec::with_capacity(nrows);
        for c in model.constraints() {
            for (var, _) in c.expr.iter() {
                start[var.index() + 1] += 1;
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
        for j in 0..nstruct {
            start[j + 1] += start[j];
        }
        let nnz = start[nstruct];
        let mut entries = vec![(0, 0.0); nnz];
        let mut next = start.clone();
        for (i, c) in model.constraints().enumerate() {
            for (var, coeff) in c.expr.iter() {
                let at = &mut next[var.index()];
                entries[*at] = (i, coeff);
                *at += 1;
            }
        }
        let mut cols = CscMatrix::with_capacity(nrows, nstruct + nrows, nnz + nrows);
        for j in 0..nstruct {
            cols.push_column(&entries[start[j]..start[j + 1]]);
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

/// The structural block of a [`SparseLp`] row by row, in one flat buffer:
/// every row's `(structural column, coefficient)` entries, columns
/// ascending. Presolve and the cut separator read the LP by rows, so a tree
/// builds the view once per LP it solves ([`RowView::of`] for the base LP;
/// the cut LP's is the base LP's with the cut rows appended).
#[derive(Debug, Clone)]
pub(crate) struct RowView {
    /// Row `i`'s entries are `entries[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl RowView {
    /// The rows of `lp`'s structural columns: one counting pass over the
    /// columns, one scatter in column order.
    pub(crate) fn of(lp: &SparseLp) -> Self {
        let mut start = vec![0usize; lp.nrows + 1];
        for j in 0..lp.nstruct {
            for &i in lp.cols.column(j).0 {
                start[i + 1] += 1;
            }
        }
        for i in 0..lp.nrows {
            start[i + 1] += start[i];
        }
        let mut entries = vec![(0, 0.0); start[lp.nrows]];
        let mut next = start.clone();
        for j in 0..lp.nstruct {
            let (rows, vals) = lp.cols.column(j);
            for (&i, &a) in rows.iter().zip(vals) {
                entries[next[i]] = (j, a);
                next[i] += 1;
            }
        }
        RowView { start, entries }
    }

    /// The entries of row `i`, columns ascending.
    pub(crate) fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.start[i]..self.start[i + 1]]
    }

    /// Appends a row; its entries must already be in column order.
    pub(crate) fn push_row(&mut self, entries: &[(usize, f64)]) {
        self.entries.extend_from_slice(entries);
        self.start.push(self.entries.len());
    }
}

/// Warm-start strategy for [`solve_in`].
pub(crate) enum Warm<'a> {
    /// All-logical basis, two-phase primal.
    Cold,
    /// Statuses from a snapshot (extended if the problem grew), two-phase
    /// primal — the snapshot only has to be *near* feasible.
    Primal(&'a Basis),
    /// Dual simplex from a snapshot that is dual feasible for the current
    /// costs (bound changes only since the snapshot was taken); one that
    /// turns out not to be is finished by the primal. Falls back to a cold
    /// primal solve when the snapshot cannot be applied.
    ///
    /// The slot is for a caller that starts LPs over one LP from one
    /// snapshot again and again (a tree node's children, `TreeLp` in
    /// `branch_bound`), kept per (LP, snapshot). When it holds a
    /// [`FactorState`] — the one the solve that produced the snapshot ended
    /// on, or the start an earlier LP from the snapshot left — the start
    /// restores it instead of factorizing the snapshot's basis from scratch.
    /// When it is empty, the start factorizes and leaves its state there for
    /// the next. `None` factorizes and keeps nothing. A restored start
    /// derives `x_B` afresh through the restored factorization.
    ///
    /// The named column is for a branch-and-bound child: the one column
    /// whose bounds differ from those the slot's state was captured under
    /// (its parent's, or its sibling's, which branched on the same column).
    /// When that column is basic in the snapshot, a restored start takes the
    /// `x_B` the state carries instead of recomputing it: `x_B = B⁻¹(b −
    /// N·x_N)` reads the bounds of nonbasic columns only, so it is the same
    /// to the bit. A named column that is nonbasic, or none, recomputes.
    Dual(&'a Basis, Option<&'a mut FactorState>, Option<usize>),
}

/// The factorization of a basis as an engine held it, for the LPs that
/// start from that basis: its LU factors and eta file ([`FactorSnapshot`]),
/// when the dual simplex kept them the reduced costs of its nonbasic
/// columns, and when it was fresh the `x_B` that `compute_xb` derived
/// through exactly those factors. Filled by [`SimplexWorkspace::capture`]
/// from the state an LP ended on, or by a [`Warm::Dual`] start from its own
/// factorization; read by [`Warm::Dual`].
#[derive(Debug, Default)]
pub(crate) struct FactorState {
    factor: FactorSnapshot,
    /// `d_j` per column of the LP; empty when not carried.
    dj: Vec<f64>,
    /// `x_B` per row; empty when not carried.
    xb: Vec<f64>,
}

impl FactorState {
    /// Whether a state was captured into it.
    pub(crate) fn is_captured(&self) -> bool {
        self.factor.is_captured()
    }
}

/// Every per-LP buffer of the simplex, kept from one LP to the next.
///
/// A branch-and-bound tree solves tens of thousands of small LPs, each a
/// handful of pivots long; allocating an engine's vectors, its LU buffers
/// and a node's basis snapshot afresh for each was a measurable share of
/// the solve. One workspace serves every LP of a mode: the trees of its
/// `R_M` attempts, root, cut rounds and nodes, and the LP that polishes its
/// optimum ([`Model::solve_with_basis_in`],
/// [`Model::solve_relaxation_in`]). The entry points that take none
/// ([`Model::solve`], [`Model::solve_with_basis`],
/// [`Model::solve_relaxation`]) make a local one.
///
/// Reuse is invisible: an LP's answer never depends on what ran in the
/// workspace before it. Every per-LP field is reset when an LP starts —
/// bounds, statuses, the basic list, `x_B`, the dense work vectors, phase-1
/// costs, Devex weights back to 1, the `α` row, the eta file, the reduced
/// costs — and the per-LP counts and the pricing cursor live in the engine,
/// which is built per LP. Only buffer capacity and the factorization
/// buffers carry over, and a factorization is a pure function of the basis
/// it is computed from. A node snapshot or memo state taken from the
/// workspace's pools is overwritten whole before anyone reads it. What an
/// LP starts from besides is what its caller hands it: a snapshot, and
/// possibly a `FactorState`.
#[derive(Debug)]
pub struct SimplexWorkspace {
    /// The engine's buffers; after an optimal solve, its final state.
    pub(crate) engine: EngineState,
    /// Bounds mapped into the presolve-reduced column space, for an LP
    /// that crosses the reduction (`Presolve::solve`).
    pub(crate) mapped_bounds: Vec<(f64, f64)>,
    /// A warm basis mapped into the presolve-reduced numbering.
    pub(crate) mapped_basis: Basis,
    /// Which reduced columns the mapped basis has made basic so far.
    pub(crate) mapped_used: Vec<bool>,
    /// The cut separator's factorization and work vectors.
    pub(crate) separator: Separator,
    /// Node snapshots whose last holder let go, each held only here, for
    /// [`SimplexWorkspace::snapshot`] to refill.
    snapshots: Vec<Rc<Basis>>,
    /// Emptied factor states, for a tree's memo to fill.
    states: Vec<FactorState>,
}

impl Default for SimplexWorkspace {
    fn default() -> Self {
        SimplexWorkspace {
            engine: EngineState::default(),
            mapped_bounds: Vec::new(),
            mapped_basis: Basis::from_parts(0, 0, Vec::new(), Vec::new(), Vec::new()),
            mapped_used: Vec::new(),
            separator: Separator::default(),
            snapshots: Vec::new(),
            states: Vec::new(),
        }
    }
}

impl SimplexWorkspace {
    /// Pivots and bound flips charged by every LP solved in this workspace
    /// so far, the ones of solves that ended in an error included.
    pub(crate) fn pivots(&self) -> usize {
        self.engine.pivots
    }

    /// Copies the factor state the last LP solved here ended on into `into`,
    /// reusing its buffers; the factors `into` held before are recycled
    /// ([`BasisFactor::recycle`]). Meaningful after an optimal solve, for
    /// the LPs that start from its final basis over the same LP.
    pub(crate) fn capture(&mut self, into: &mut FactorState) {
        self.engine.capture(into);
    }

    /// Empties `state`, keeping its buffers, and offers the factors it held
    /// to [`BasisFactor::recycle`].
    pub(crate) fn recycle(&mut self, state: &mut FactorState) {
        if let Some(lu) = state.factor.release() {
            self.engine.factor.recycle(lu);
        }
    }

    /// An empty factor state to fill: one a tree gave back
    /// ([`SimplexWorkspace::give_back`]), or a new one.
    pub(crate) fn vacant_state(&mut self) -> FactorState {
        self.states.pop().unwrap_or_default()
    }

    /// Takes back a factor state nobody restores any more: its factors are
    /// [recycled](SimplexWorkspace::recycle) and its buffers wait for
    /// [`SimplexWorkspace::vacant_state`].
    pub(crate) fn give_back(&mut self, mut state: FactorState) {
        self.recycle(&mut state);
        self.states.push(state);
    }

    /// The final basis of the last LP solved here, over `lp`, as a snapshot
    /// for the nodes that start from it: a released one refilled in place
    /// when there is one ([`SimplexWorkspace::release`]), else a new one.
    pub(crate) fn snapshot(&mut self, lp: &SparseLp) -> Rc<Basis> {
        if let Some(mut shared) = self.snapshots.pop() {
            if let Some(basis) = Rc::get_mut(&mut shared) {
                self.engine.refill_snapshot(lp, basis);
                return shared;
            }
        }
        Rc::new(self.engine.snapshot(lp))
    }

    /// Lets go of a holder of `snapshot`; when it was the last one, the
    /// snapshot waits for [`SimplexWorkspace::snapshot`] to refill it.
    pub(crate) fn release(&mut self, mut snapshot: Rc<Basis>) {
        if Rc::get_mut(&mut snapshot).is_some() {
            self.snapshots.push(snapshot);
        }
    }
}

/// The engine's buffers, owned by a [`SimplexWorkspace`].
#[derive(Debug, Default)]
pub(crate) struct EngineState {
    /// Bounds for every column (structural overridden, logical fixed).
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<VarStatus>,
    /// Basic column per row.
    basic: Vec<usize>,
    /// Basic values per row.
    xb: Vec<f64>,
    /// Whether `xb` is what `compute_xb` derives through the current
    /// factorization, statuses and bounds: set by `compute_xb` and by a
    /// start that carries it, cleared by every pivot and bound flip.
    xb_fresh: bool,
    factor: BasisFactor,
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
    /// `α_j = ρ·a_j` of the dual's last pivot row `ρ`, for every nonbasic,
    /// non-fixed column; the dual ratio test stores what it computes here and
    /// the reduced-cost update and the Farkas check read it back.
    alpha: Vec<f64>,
    /// Reduced costs `d_j = c_j − a_j·B⁻ᵀc_B` of the nonbasic, non-fixed
    /// columns while the dual simplex keeps them (other entries are not
    /// read); empty when they are not kept.
    dj: Vec<f64>,
    /// Running total behind [`SimplexWorkspace::pivots`].
    pivots: usize,
}

/// Empties `v` into `len` copies of `value`, keeping its buffer.
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

impl EngineState {
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

    /// Hands `set(j, x_j)` the value of every structural column `j <
    /// nstruct` of the last solve's final basic solution.
    pub(crate) fn structural_values(&self, nstruct: usize, mut set: impl FnMut(usize, f64)) {
        for j in 0..nstruct {
            if self.status[j] != VarStatus::Basic {
                set(j, self.nonbasic_value(j));
            }
        }
        for (i, &j) in self.basic.iter().enumerate() {
            if j < nstruct {
                set(j, self.xb[i]);
            }
        }
    }

    /// The final basis of the last solve as `(status, basic, devex)`, in the
    /// numbering of the LP it solved.
    pub(crate) fn basis_parts(&self) -> (&[VarStatus], &[usize], &[f64]) {
        (&self.status, &self.basic, &self.devex)
    }

    /// Copies the current factor state into `into` (see
    /// [`SimplexWorkspace::capture`]), with `x_B` while it is fresh.
    fn capture(&mut self, into: &mut FactorState) {
        self.factor.capture(&mut into.factor);
        into.dj.clone_from(&self.dj);
        if self.xb_fresh {
            into.xb.clone_from(&self.xb);
        } else {
            into.xb.clear();
        }
    }

    /// The final basis of the last solve, over `lp`, as a snapshot.
    pub(crate) fn snapshot(&self, lp: &SparseLp) -> Basis {
        let mut basis = Basis::from_parts(0, 0, Vec::new(), Vec::new(), Vec::new());
        self.refill_snapshot(lp, &mut basis);
        basis
    }

    /// Overwrites `basis` with [`EngineState::snapshot`], in its buffers.
    fn refill_snapshot(&self, lp: &SparseLp, basis: &mut Basis) {
        basis.nstruct = lp.nstruct;
        basis.nrows = lp.nrows;
        basis.status.clone_from(&self.status);
        basis.basic.clone_from(&self.basic);
        basis.devex.clone_from(&self.devex);
    }
}

/// Solves the LP relaxation of `model` with the variable bounds overridden by
/// `bounds` (one `(lower, upper)` pair per model variable, in column order)
/// in `workspace`.
///
/// # Errors
///
/// Returns [`SolveError::IterationLimitReached`] if the pivot budget from the
/// model's [`crate::SolveParams`] is exhausted.
pub(crate) fn solve_lp(
    model: &Model,
    bounds: &[(f64, f64)],
    workspace: &mut SimplexWorkspace,
) -> Result<LpResult, SolveError> {
    debug_assert_eq!(bounds.len(), model.num_vars());
    let lp = SparseLp::from_model(model);
    let max_iters = model.params().max_simplex_iterations;
    // No integrality here: this entry point solves the pure relaxation, so
    // presolve must not round derived bounds onto the integer lattice.
    let integral = vec![false; lp.nstruct];
    let rows = RowView::of(&lp);
    match Presolve::build(&lp, &rows, bounds, &integral, model.params().presolve) {
        Some(presolve) => {
            (presolve.solve(bounds, max_iters, Warm::Cold, workspace)).map(|(r, _)| r)
        }
        None => Ok(LpResult::infeasible_without_pivots()),
    }
}

/// Solves `lp` under `bounds` in `state` and returns the outcome without
/// values; after an optimal outcome `state` holds the final basis and basic
/// solution ([`EngineState::structural_values`],
/// [`EngineState::basis_parts`]).
///
/// No bound pair may cross: every LP reaches the engine through
/// `Presolve::map_bounds` or, for a tree's nodes, through
/// `Presolve::tighten`, and both answer a crossed pair as infeasible
/// without a pivot.
pub(crate) fn solve_in(
    lp: &SparseLp,
    bounds: &[(f64, f64)],
    max_iters: usize,
    warm: Warm<'_>,
    state: &mut EngineState,
) -> Result<LpResult, SolveError> {
    debug_assert!(
        !bounds.iter().any(|(l, u)| l > u),
        "crossed bounds reached the engine"
    );
    let mut engine = Engine::new(lp, bounds, max_iters, state);
    // A snapshot that cannot be applied degrades to the cold basis.
    let mut started_cold = match warm {
        Warm::Cold => true,
        Warm::Primal(basis) => engine.install_warm_basis(basis, None, None).is_none(),
        Warm::Dual(basis, slot, branched) => {
            match engine.install_warm_basis(basis, slot, branched) {
                None => true,
                Some(start) => {
                    let mut outcome = engine.dual(start == Start::Factorized)?;
                    // A restored start that gets stuck tries once more from a
                    // from-scratch factorization of the same basis before going
                    // cold: the trouble is usually the drift it carried.
                    if start != Start::Factorized
                        && outcome == DualOutcome::Stuck
                        && engine.install_warm_basis(basis, None, None).is_some()
                    {
                        outcome = engine.dual(true)?;
                    }
                    match outcome {
                        DualOutcome::Optimal => return Ok(engine.result(LpStatus::Optimal)),
                        DualOutcome::Infeasible => return Ok(engine.result(LpStatus::Infeasible)),
                        // Primal feasible but not optimal: the primal finishes
                        // from this basis below (its phase 1 has nothing to do).
                        DualOutcome::DualInfeasible => false,
                        // Numerical trouble: restart from scratch below.
                        DualOutcome::Stuck => true,
                    }
                }
            }
        }
    };
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
            Ok(status) => return Ok(engine.result(status)),
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
#[derive(Debug, PartialEq, Eq)]
enum DualOutcome {
    Optimal,
    Infeasible,
    /// Primal feasible, but some reduced cost has the wrong sign even when
    /// derived afresh: the basis is not optimal.
    DualInfeasible,
    Stuck,
}

/// Where an installed warm basis got its factorization and `x_B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Start {
    /// Computed from scratch for exactly the installed basis.
    Factorized,
    /// Restored from a [`FactorState`], `x_B` derived through it.
    Restored,
    /// Restored from a [`FactorState`], `x_B` carried with it (a
    /// [`Warm::Dual`] start naming a basic column).
    Carried,
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

/// The revised-simplex engine of one LP: its counts and pricing cursor, over
/// the buffers of a workspace.
struct Engine<'a> {
    lp: &'a SparseLp,
    ws: &'a mut EngineState,
    /// From-scratch factorizations computed so far (restored states
    /// excluded).
    lu_factorizations: usize,
    iterations: usize,
    max_iters: usize,
    /// Number of reference-framework resets performed.
    devex_resets: usize,
    /// Rotating partial-pricing cursor (next column to scan).
    price_cursor: usize,
    /// Columns scanned per pricing chunk.
    price_segment: usize,
}

impl<'a> Engine<'a> {
    /// Starts an LP in `ws`, resetting every per-LP buffer.
    fn new(
        lp: &'a SparseLp,
        bounds: &[(f64, f64)],
        max_iters: usize,
        ws: &'a mut EngineState,
    ) -> Self {
        let (nrows, ncols) = (lp.nrows, lp.ncols());
        ws.lower.clear();
        ws.lower.extend(bounds.iter().map(|&(l, _)| l));
        ws.lower.extend_from_slice(&lp.logical_lower);
        ws.upper.clear();
        ws.upper.extend(bounds.iter().map(|&(_, u)| u));
        ws.upper.extend_from_slice(&lp.logical_upper);
        refill(&mut ws.status, ncols, VarStatus::AtLower);
        ws.basic.clear();
        ws.xb.clear();
        ws.xb_fresh = false;
        refill(&mut ws.w, nrows, 0.0);
        refill(&mut ws.y, nrows, 0.0);
        refill(&mut ws.c1, ncols, 0.0);
        ws.c1_touched.clear();
        refill(&mut ws.devex, ncols, 1.0);
        refill(&mut ws.alpha, ncols, 0.0);
        ws.dj.clear();
        ws.factor.start_lp(nrows);
        Engine {
            lp,
            ws,
            lu_factorizations: 0,
            iterations: 0,
            max_iters,
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
        // The primal phases price against fresh duals and keep no reduced
        // costs, so none are left for a capture to carry.
        self.ws.dj.clear();
        if !self.phase1()? {
            return Ok(LpStatus::Infeasible);
        }
        self.phase2()
    }

    /// All-logical starting basis.
    fn install_cold_basis(&mut self) {
        let (nstruct, ncols) = (self.lp.nstruct, self.lp.ncols());
        let ws = &mut *self.ws;
        // Fresh reference framework: the nonbasic set changed wholesale.
        ws.devex.iter_mut().for_each(|w| *w = 1.0);
        for j in 0..nstruct {
            ws.status[j] = ws.default_status(j);
        }
        ws.basic.clear();
        ws.basic.extend(nstruct..ncols);
        for j in nstruct..ncols {
            ws.status[j] = VarStatus::Basic;
        }
        let ok = self.refactorize();
        debug_assert!(ok, "the all-logical basis is the identity");
        self.compute_xb();
    }

    /// Installs a snapshot, extending it if the problem has grown since it
    /// was taken, and says where its factorization and `x_B` came from.
    /// Returns `None` (leaving the engine unusable until another install)
    /// when the snapshot does not fit or its basis is singular.
    ///
    /// A captured state in the `slot` ([`Warm::Dual`]) is the factorization
    /// of exactly the installed basis over this `lp` — the snapshot is the
    /// final basis of the solve it was captured from, or the start of one
    /// installed from the same snapshot — and is restored, with its reduced
    /// costs, instead of a from-scratch factorization. It also carries its
    /// `x_B` when `branched` (the column a [`Warm::Dual`] start names) is basic
    /// in the installed basis and the state holds one. An empty slot is
    /// filled with the from-scratch factorization and the `x_B` derived
    /// through it. A snapshot of another size neither takes nor leaves a
    /// state.
    fn install_warm_basis(
        &mut self,
        basis: &Basis,
        slot: Option<&mut FactorState>,
        branched: Option<usize>,
    ) -> Option<Start> {
        let (s0, r0) = (basis.nstruct, basis.nrows);
        let (s1, r1) = (self.lp.nstruct, self.lp.nrows);
        if s0 > s1 || r0 > r1 || basis.basic.len() != r0 {
            return None;
        }
        let ws = &mut *self.ws;
        ws.xb_fresh = false;
        // Map a snapshot column index to the current numbering.
        let remap = |j: usize| if j < s0 { j } else { s1 + (j - s0) };
        for j in 0..s1 {
            ws.status[j] = if j < s0 {
                basis.status[j]
            } else {
                ws.default_status(j)
            };
            ws.devex[j] = if j < s0 { basis.devex[j].max(1.0) } else { 1.0 };
        }
        for i in 0..r1 {
            let j = s1 + i;
            ws.status[j] = if i < r0 {
                basis.status[s0 + i]
            } else {
                VarStatus::Basic
            };
            ws.devex[j] = if i < r0 {
                basis.devex[s0 + i].max(1.0)
            } else {
                1.0
            };
        }
        ws.basic.clear();
        ws.basic.extend(basis.basic.iter().map(|&j| remap(j)));
        ws.basic.extend((r0..r1).map(|i| s1 + i));
        for &j in &ws.basic {
            ws.status[j] = VarStatus::Basic;
        }
        // Sanitize nonbasic statuses against the current bounds (a bound may
        // have appeared, moved to infinity or become fixed since the
        // snapshot): a nonbasic column must sit at a bound that exists, and a
        // free-parked column whose bounds have since become finite would
        // otherwise be held at 0 outside its range without any phase
        // noticing (only basic columns are feasibility-checked).
        for j in 0..self.lp.ncols() {
            match ws.status[j] {
                VarStatus::AtLower if !ws.lower[j].is_finite() => {
                    ws.status[j] = ws.default_status(j);
                }
                VarStatus::AtUpper if !ws.upper[j].is_finite() => {
                    ws.status[j] = ws.default_status(j);
                }
                VarStatus::Free if ws.lower[j].is_finite() || ws.upper[j].is_finite() => {
                    ws.status[j] = ws.default_status(j);
                }
                _ => {}
            }
        }
        let slot = slot.filter(|_| (s0, r0) == (s1, r1));
        match slot {
            Some(state) if state.is_captured() => {
                let lp = self.lp;
                let columns = ws.basic.iter().map(|&j| lp.cols.column(j));
                ws.factor.restore(&state.factor, columns);
                ws.dj.clone_from(&state.dj);
                let basic = |j: usize| ws.status.get(j) == Some(&VarStatus::Basic);
                if state.xb.len() == r1 && branched.is_some_and(basic) {
                    ws.xb.clone_from(&state.xb);
                    ws.xb_fresh = true;
                    if cfg!(debug_assertions) {
                        self.assert_carried_xb_is_fresh();
                    }
                    return Some(Start::Carried);
                }
                self.compute_xb();
                Some(Start::Restored)
            }
            slot => {
                ws.dj.clear();
                if !self.refactorize() {
                    return None;
                }
                self.compute_xb();
                if let Some(state) = slot {
                    self.ws.capture(state);
                }
                Some(Start::Factorized)
            }
        }
    }

    /// Debug check of a carried `x_B`: `compute_xb` through the restored
    /// factorization must give it back bit for bit.
    fn assert_carried_xb_is_fresh(&mut self) {
        let carried = std::mem::take(&mut self.ws.xb);
        self.compute_xb();
        let bits = |xb: &[f64]| xb.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&carried),
            bits(&self.ws.xb),
            "a carried x_B differs from the one its factorization derives"
        );
    }

    /// Factorizes the current basis from scratch. Returns `false` if singular.
    fn refactorize(&mut self) -> bool {
        let lp = self.lp;
        let columns = self.ws.basic.iter().map(|&j| lp.cols.column(j));
        self.lu_factorizations += 1;
        self.ws.factor.refactorize(lp.nrows, columns).is_ok()
    }

    /// Recomputes the basic values `x_B = B⁻¹ (b − N·x_N)` in place: `rhs`
    /// first, then the nonbasic columns in ascending order.
    fn compute_xb(&mut self) {
        let lp = self.lp;
        let ws = &mut *self.ws;
        ws.xb.clear();
        ws.xb.extend_from_slice(&lp.rhs);
        for j in 0..lp.ncols() {
            if ws.status[j] != VarStatus::Basic {
                let v = ws.nonbasic_value(j);
                if v != 0.0 {
                    lp.cols.scatter_column(j, -v, &mut ws.xb);
                }
            }
        }
        ws.factor.ftran(&mut ws.xb);
        ws.xb_fresh = true;
    }

    /// Refactorizes (recomputing `x_B` to purge drift) when the eta file is
    /// long. Returns `false` on a singular basis, which callers treat as
    /// numerical trouble.
    fn maybe_refactorize(&mut self) -> bool {
        if self.ws.factor.should_refactorize() {
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
        self.ws.pivots += 1;
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
        let status = self.ws.status[j];
        if status == VarStatus::Basic || self.ws.lower[j] == self.ws.upper[j] {
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
                    let score = violation * violation / self.ws.devex[j];
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

    /// Devex update of a primal pivot `basic[row] := q`, against the
    /// *outgoing* basis (before [`Engine::pivot`]): one BTRAN forms the pivot
    /// row `ρ = B⁻ᵀ e_row`, every nonbasic, non-fixed weight is lifted to
    /// `(α_j / α_q)² · w_q` where it falls short (`α_j = ρ·a_j`), and the
    /// leaving variable re-enters the nonbasic set with the entering column's
    /// weight seen through the pivot. Only primal pricing reads the weights,
    /// so the dual simplex never updates them. Weights only steer column
    /// *selection*, never eligibility, so any drift here costs pivots, not
    /// correctness.
    fn update_devex(&mut self, q: usize, row: usize) {
        let lp = self.lp;
        let ws = &mut *self.ws;
        let alpha_rq = ws.w[row];
        if alpha_rq.abs() <= PIVOT_TOL {
            return;
        }
        ws.y.iter_mut().for_each(|v| *v = 0.0);
        ws.y[row] = 1.0;
        ws.factor.btran(&mut ws.y);
        let scale = ws.devex[q].max(1.0) / (alpha_rq * alpha_rq);
        let mut max_weight = 0.0f64;
        for j in 0..lp.ncols() {
            if ws.status[j] == VarStatus::Basic || ws.lower[j] == ws.upper[j] || j == q {
                continue;
            }
            let alpha = lp.cols.column_dot(j, &ws.y);
            if alpha != 0.0 {
                let candidate = alpha * alpha * scale;
                if candidate > ws.devex[j] {
                    ws.devex[j] = candidate;
                }
            }
            max_weight = max_weight.max(ws.devex[j]);
        }
        ws.devex[ws.basic[row]] = scale.max(1.0);
        if max_weight > DEVEX_RESET_LIMIT {
            ws.devex.iter_mut().for_each(|w| *w = 1.0);
            self.devex_resets += 1;
        }
    }

    /// Reduced costs of the current basis from scratch: `y = B⁻ᵀ c_B` (in
    /// the `w` workspace), then `d_j = c_j − a_j·y` for every nonbasic,
    /// non-fixed column.
    fn compute_dj(&mut self) {
        let lp = self.lp;
        let ws = &mut *self.ws;
        for (wi, &j) in ws.w.iter_mut().zip(&ws.basic) {
            *wi = lp.cost[j];
        }
        ws.factor.btran(&mut ws.w);
        ws.dj.clear();
        ws.dj.extend((0..lp.ncols()).map(|j| {
            if ws.status[j] == VarStatus::Basic || ws.lower[j] == ws.upper[j] {
                0.0
            } else {
                lp.cost[j] - lp.cols.column_dot(j, &ws.w)
            }
        }));
    }

    /// The dual step of the pivot `basic[row] := q` on the kept reduced
    /// costs, against the outgoing basis: with `θ_d = d_q / α_q`, every
    /// nonbasic, non-fixed column moves by `−θ_d·α_j` (the `α` row the ratio
    /// test stored), `q` becomes basic at 0 and the leaving column, whose
    /// `α` is 1, leaves at `−θ_d`.
    fn update_dj(&mut self, q: usize, row: usize, alpha_q: f64) {
        let ws = &mut *self.ws;
        let theta = ws.dj[q] / alpha_q;
        if theta != 0.0 {
            for j in 0..self.lp.ncols() {
                if ws.status[j] != VarStatus::Basic && ws.lower[j] != ws.upper[j] {
                    ws.dj[j] -= theta * ws.alpha[j];
                }
            }
        }
        ws.dj[q] = 0.0;
        ws.dj[ws.basic[row]] = -theta;
    }

    /// Whether `rho`, the ray of a dual-unbounded row (`below`: its basic
    /// variable is under its lower bound), certifies the LP infeasible
    /// straight from the data: every feasible `x` satisfies `ρᵀA·x = ρᵀb`,
    /// so with `s = +1` when `below` and `−1` otherwise, no `x` exists when
    /// the least value of `s·Σ_j α_j·x_j` over the bound box exceeds
    /// `s·ρᵀb` — by more than `FEAS_TOL·(1 + EPS·Σ|terms|)`, for the
    /// rounding of the sums.
    ///
    /// `α_j = ρ·a_j` is formed over every column; with `cached`, the ratio
    /// test's stored `α` serves the nonbasic, non-fixed ones. `|α_j| ≤ zero`
    /// counts as zero — the dual passes `PIVOT_TOL`, as its ratio test
    /// does: such a column adds its bound term when that bound is finite,
    /// nothing otherwise. Any other term at an infinite bound makes the
    /// check inconclusive (`false`).
    fn ray_certifies(&self, rho: &[f64], below: bool, cached: bool, zero: f64) -> bool {
        let (lp, ws) = (self.lp, &*self.ws);
        let sign = if below { 1.0 } else { -1.0 };
        let (mut least, mut magnitude) = (0.0f64, 0.0f64);
        for j in 0..lp.ncols() {
            let (lower, upper) = (ws.lower[j], ws.upper[j]);
            let alpha = if cached && ws.status[j] != VarStatus::Basic && lower != upper {
                ws.alpha[j]
            } else {
                lp.cols.column_dot(j, rho)
            };
            let a = sign * alpha;
            // `a·x_j` is least at the lower bound when `a > 0`, at the upper
            // one when `a < 0`.
            let bound = match a {
                a if a > 0.0 => lower,
                a if a < 0.0 => upper,
                _ => continue,
            };
            if !bound.is_finite() {
                if alpha.abs() <= zero {
                    continue;
                }
                return false;
            }
            let term = a * bound;
            least += term;
            magnitude += term.abs();
        }
        let mut target = 0.0f64;
        for (&r, &b) in rho.iter().zip(&lp.rhs) {
            let term = sign * r * b;
            target += term;
            magnitude += term.abs();
        }
        least - target > FEAS_TOL * (1.0 + EPS * magnitude)
    }

    /// Debug cross-check of a certified ray: the ray of the same row under
    /// a from-scratch factorization of the same basis, built in scratch
    /// buffers so that the engine's state is untouched, must certify too.
    /// The two rays' `α` differ by the drift and by rounding, both relative
    /// to the ray's size, and near the zero cut-off that decides whether an
    /// infinite bound blocks: an `α` of 0.99999999e-8 against 1.0000084e-8
    /// on the tests' scheduler instances, and 5e-16 against 1.2e-7 on a
    /// fuzzed one whose ray runs to 1e9. So the re-check counts
    /// `|α| ≤ 10·PIVOT_TOL + EPS·‖ρ‖∞` as zero.
    fn assert_fresh_ray_certifies(&self, row: usize, below: bool) {
        let (lp, ws) = (self.lp, &*self.ws);
        let mut lu = LuFactors::default();
        let columns = ws.basic.iter().map(|&j| lp.cols.column(j));
        assert!(
            lu.factorize(lp.nrows, columns, &mut LuWorkspace::default())
                .is_ok(),
            "a basis certified infeasible is singular"
        );
        let mut rho = vec![0.0; lp.nrows];
        rho[row] = 1.0;
        lu.btran(&mut rho, &mut Vec::new());
        let size = rho.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        assert!(
            self.ray_certifies(&rho, below, false, 10.0 * PIVOT_TOL + EPS * size),
            "a certified ray is not certified again from a fresh factorization"
        );
    }

    /// Whether the kept reduced costs `d_j` have the sign the status of
    /// their nonbasic, non-fixed column needs — `d_j ≥ 0` at a lower bound,
    /// `≤ 0` at an upper one, 0 for a free column — to `FEAS_TOL`, the
    /// tolerance basic values are held to as well.
    fn dual_feasible(&self) -> bool {
        let ws = &*self.ws;
        (0..self.lp.ncols()).all(|j| {
            ws.lower[j] == ws.upper[j]
                || match ws.status[j] {
                    VarStatus::Basic => true,
                    VarStatus::AtLower => ws.dj[j] >= -FEAS_TOL,
                    VarStatus::AtUpper => ws.dj[j] <= FEAS_TOL,
                    VarStatus::Free => ws.dj[j].abs() <= FEAS_TOL,
                }
        })
    }

    /// Debug cross-check of a dual `Optimal`: the reduced costs of the same
    /// basis under a from-scratch factorization, built in scratch buffers so
    /// that the engine's state is untouched, must have the right signs too —
    /// to `FEAS_TOL` relative to the terms that form them, for the drift the
    /// kept costs may carry. A pivot on a tiny element can leave a basis the
    /// factorization kernel calls singular, and the LP's answer then rests
    /// on its eta file alone; such a basis has no fresh costs to compare.
    fn assert_fresh_costs_dual_feasible(&self) {
        let (lp, ws) = (self.lp, &*self.ws);
        let mut lu = LuFactors::default();
        let columns = ws.basic.iter().map(|&j| lp.cols.column(j));
        if lu
            .factorize(lp.nrows, columns, &mut LuWorkspace::default())
            .is_err()
        {
            return;
        }
        let mut y: Vec<f64> = ws.basic.iter().map(|&j| lp.cost[j]).collect();
        lu.btran(&mut y, &mut Vec::new());
        for j in 0..lp.ncols() {
            if ws.status[j] == VarStatus::Basic || ws.lower[j] == ws.upper[j] {
                continue;
            }
            let (rows, vals) = lp.cols.column(j);
            let d = lp.cost[j] - lp.cols.column_dot(j, &y);
            let size = lp.cost[j].abs()
                + rows
                    .iter()
                    .zip(vals)
                    .map(|(&i, &a)| (a * y[i]).abs())
                    .sum::<f64>();
            let wrong = match ws.status[j] {
                VarStatus::AtLower => -d,
                VarStatus::AtUpper => d,
                _ => d.abs(),
            };
            assert!(
                wrong <= FEAS_TOL * (1.0 + size),
                "column {j} ({:?}) has the reduced cost {d} from a fresh factorization \
                 (kept {}) at a dual optimum",
                ws.status[j],
                ws.dj[j]
            );
        }
    }

    /// Dual vector `y = B⁻ᵀ c_B` for the given per-column costs.
    fn btran_costs(&mut self, cost: &[f64]) {
        let ws = &mut *self.ws;
        for (yi, &j) in ws.y.iter_mut().zip(&ws.basic) {
            *yi = cost[j];
        }
        ws.factor.btran(&mut ws.y);
    }

    /// FTRANs column `q` into the `w` workspace.
    fn ftran_column(&mut self, q: usize) {
        let ws = &mut *self.ws;
        ws.w.iter_mut().for_each(|v| *v = 0.0);
        self.lp.cols.scatter_column(q, 1.0, &mut ws.w);
        ws.factor.ftran(&mut ws.w);
    }

    /// Executes the basis change `basic[row] := q` after the entering column
    /// has been FTRAN'd into `w`, moving the entering variable by `step`
    /// (signed) and parking the leaving variable at `leave_status`.
    ///
    /// Returns `false` when the eta pivot is numerically unacceptable even
    /// after a refactorization (caller treats this as numerical trouble).
    fn pivot(&mut self, row: usize, q: usize, step: f64, leave_status: VarStatus) -> bool {
        let ws = &mut *self.ws;
        ws.xb_fresh = false;
        let entering_prev_status = ws.status[q];
        let entering_value = ws.nonbasic_value(q) + step;
        if step != 0.0 {
            for (x, &wi) in ws.xb.iter_mut().zip(&ws.w) {
                if wi != 0.0 {
                    *x -= step * wi;
                }
            }
        }
        let leaving = ws.basic[row];
        if !ws.factor.push_eta(row, &ws.w) {
            // Pivot too small for an eta update: commit the exchange and
            // refactorize the whole basis instead.
            ws.status[leaving] = leave_status;
            ws.basic[row] = q;
            ws.status[q] = VarStatus::Basic;
            if !self.refactorize() {
                // The exchanged basis is singular — roll back and signal
                // numerical trouble to the caller.
                let ws = &mut *self.ws;
                ws.status[q] = entering_prev_status;
                ws.basic[row] = leaving;
                ws.status[leaving] = VarStatus::Basic;
                let _ = self.refactorize();
                self.compute_xb();
                return false;
            }
            self.compute_xb();
            return true;
        }
        ws.status[leaving] = leave_status;
        ws.basic[row] = q;
        ws.status[q] = VarStatus::Basic;
        ws.xb[row] = entering_value;
        true
    }

    /// Total primal infeasibility of the basic solution.
    fn infeasibility(&self) -> f64 {
        let ws = &*self.ws;
        let mut total = 0.0;
        for (i, &j) in ws.basic.iter().enumerate() {
            let x = ws.xb[i];
            if x < ws.lower[j] - FEAS_TOL {
                total += ws.lower[j] - x;
            } else if x > ws.upper[j] + FEAS_TOL {
                total += x - ws.upper[j];
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
        let ws = &*self.ws;
        let mut t_best = if ws.lower[q].is_finite() && ws.upper[q].is_finite() {
            ws.upper[q] - ws.lower[q]
        } else {
            f64::INFINITY
        };
        let mut blocking: Option<(usize, VarStatus, f64)> = None; // (row, leave status, |w|)
        for i in 0..self.lp.nrows {
            let wi = ws.w[i];
            let delta = dir * wi; // rate of *decrease* of xb[i]
            if delta.abs() <= PIVOT_TOL {
                continue;
            }
            let bj = ws.basic[i];
            let (l, u, x) = (ws.lower[bj], ws.upper[bj], ws.xb[i]);
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
                        ws.basic[i] < ws.basic[bi]
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
        let ws = &mut *self.ws;
        ws.xb_fresh = false;
        for (x, &wi) in ws.xb.iter_mut().zip(&ws.w) {
            *x -= dir * wi * t;
        }
        ws.status[q] = match ws.status[q] {
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
            let ws = &mut *self.ws;
            let mut c1 = std::mem::take(&mut ws.c1);
            for &j in &ws.c1_touched {
                c1[j] = 0.0;
            }
            ws.c1_touched.clear();
            for (i, &j) in ws.basic.iter().enumerate() {
                if ws.xb[i] < ws.lower[j] - FEAS_TOL {
                    c1[j] = -1.0;
                    ws.c1_touched.push(j);
                } else if ws.xb[i] > ws.upper[j] + FEAS_TOL {
                    c1[j] = 1.0;
                    ws.c1_touched.push(j);
                }
            }
            self.btran_costs(&c1);
            let y = std::mem::take(&mut self.ws.y);
            let entering = self.price(&y, &c1, bland);
            self.ws.y = y;
            self.ws.c1 = c1;
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
            let y = std::mem::take(&mut self.ws.y);
            let entering = self.price(&y, &lp.cost, bland);
            self.ws.y = y;
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

    /// Dual simplex from the installed (dual-feasible) basis; `from_scratch`
    /// says its factorization was computed from scratch for exactly that
    /// basis, rather than restored.
    fn dual(&mut self, from_scratch: bool) -> Result<DualOutcome, SolveError> {
        let mut stall = 0usize;
        let mut last_inf = f64::INFINITY;
        // Incremental `xb` updates drift over long pivot sequences, so both
        // verdicts below are only trusted from a re-synced state. `fresh`
        // means `xb` was re-derived through the factorization (one FTRAN —
        // cheap, the eta chain is length-bounded by `maybe_refactorize`),
        // which certifies the Optimal bound check; it holds on entry, since
        // `install_warm_basis` ends with `xb` derived through the installed
        // factorization, or carried bit-equal to that.
        // `hard_fresh` means the factorization itself was just computed from
        // scratch, so that a dual-unbounded row is an Infeasible verdict as
        // it stands. Otherwise — after a pivot, or from a restored start —
        // the verdict needs the ray's Farkas certificate, which holds
        // whatever the factorization's drift; branch-and-bound treats it as
        // a pruning proof.
        let mut fresh = true;
        let mut hard_fresh = from_scratch;
        // Whether the kept reduced costs have been updated across a pivot
        // since they were last derived through the factorization.
        let mut updated = false;
        if self.ws.dj.is_empty() {
            self.compute_dj();
        }
        loop {
            // Leaving row: the worst bound violation.
            let mut leaving: Option<(usize, bool, f64)> = None; // (row, below, violation)
            for (i, &j) in self.ws.basic.iter().enumerate() {
                let x = self.ws.xb[i];
                let viol_lo = self.ws.lower[j] - x;
                let viol_hi = x - self.ws.upper[j];
                if viol_lo > FEAS_TOL && leaving.map_or(true, |(_, _, v)| viol_lo > v) {
                    leaving = Some((i, true, viol_lo));
                }
                if viol_hi > FEAS_TOL && leaving.map_or(true, |(_, _, v)| viol_hi > v) {
                    leaving = Some((i, false, viol_hi));
                }
            }
            let Some((row, below, total_viol)) = leaving else {
                if fresh {
                    // Primal feasible; optimal only if dual feasible too.
                    // The ratio test keeps the reduced costs' signs only as
                    // far as they were right at the start and its updates
                    // stay accurate: a start can come from a snapshot that
                    // was never dual feasible for these bounds, and a pivot
                    // on a tiny α_q (≈ 1e-8 to 3e-7, its row- and
                    // column-wise values apart by up to 3 %) multiplies the
                    // drift of every α_j by θ_d = d_q/α_q. So costs a pivot
                    // updated are derived afresh before their signs count.
                    if updated {
                        self.compute_dj();
                    }
                    if !self.dual_feasible() {
                        return Ok(DualOutcome::DualInfeasible);
                    }
                    if cfg!(debug_assertions) {
                        self.assert_fresh_costs_dual_feasible();
                    }
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

            // ρ = B⁻ᵀ e_row into `y`, the only BTRAN of the iteration: the
            // reduced costs of the ratio test are kept in `dj`.
            let lp = self.lp;
            let ws = &mut *self.ws;
            ws.y.iter_mut().for_each(|v| *v = 0.0);
            ws.y[row] = 1.0;
            ws.factor.btran(&mut ws.y);
            let rho = &ws.y;

            let mut entering: Option<(usize, f64, f64)> = None; // (col, alpha, ratio)
            for j in 0..lp.ncols() {
                let status = ws.status[j];
                // Fixed columns (Eq-row logicals, pinned offsets) cannot move
                // and so cannot repair a primal infeasibility — entering one
                // would only ping-pong the violation. Skip them, as pricing
                // does.
                if status == VarStatus::Basic || ws.lower[j] == ws.upper[j] {
                    continue;
                }
                // α_j = ρ·a_j, kept for the reduced-cost update of this
                // pivot and for a Farkas check.
                let alpha = lp.cols.column_dot(j, rho);
                ws.alpha[j] = alpha;
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
                let d = ws.dj[j];
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

            let Some((q, alpha_q, _)) = entering else {
                // Dual unbounded ⇒ primal infeasible: as it stands from a
                // from-scratch factorization, else when the ray certifies
                // it. An inconclusive ray is retried from a from-scratch
                // factorization.
                if hard_fresh {
                    return Ok(DualOutcome::Infeasible);
                }
                if self.ray_certifies(&self.ws.y, below, true, PIVOT_TOL) {
                    if cfg!(debug_assertions) {
                        self.assert_fresh_ray_certifies(row, below);
                    }
                    return Ok(DualOutcome::Infeasible);
                }
                if !self.refactorize() {
                    return Ok(DualOutcome::Stuck);
                }
                self.compute_xb();
                self.compute_dj();
                updated = false;
                fresh = true;
                hard_fresh = true;
                continue;
            };

            self.ftran_column(q);
            let ws = &*self.ws;
            if ws.w[row].abs() <= PIVOT_TOL / 10.0 {
                return Ok(DualOutcome::Stuck);
            }
            let target = if below {
                ws.lower[ws.basic[row]]
            } else {
                ws.upper[ws.basic[row]]
            };
            let step = (ws.xb[row] - target) / ws.w[row];
            let leave_status = if below {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            self.charge_iteration()?;
            fresh = false;
            hard_fresh = false;
            // The ratio test above stored α_j for exactly the columns the
            // update visits: no second BTRAN and no second column pass.
            self.update_dj(q, row, alpha_q);
            updated = true;
            let factorizations = self.lu_factorizations;
            if !self.pivot(row, q, step, leave_status) {
                return Ok(DualOutcome::Stuck);
            }
            if !self.maybe_refactorize() {
                return Ok(DualOutcome::Stuck);
            }
            // A rebuilt factorization re-derives the reduced costs with it.
            if self.lu_factorizations != factorizations {
                self.compute_dj();
                updated = false;
            }
        }
    }

    /// Objective of the current (not necessarily feasible) basic solution.
    fn objective_value(&self) -> f64 {
        let (lp, ws) = (self.lp, &*self.ws);
        let mut obj = lp.obj_offset;
        for (i, &j) in ws.basic.iter().enumerate() {
            obj += lp.cost[j] * ws.xb[i];
        }
        for j in 0..lp.ncols() {
            if ws.status[j] != VarStatus::Basic && lp.cost[j] != 0.0 {
                obj += lp.cost[j] * ws.nonbasic_value(j);
            }
        }
        obj
    }

    /// The LP's outcome and counts; the values and the basis stay in the
    /// workspace for the caller to read in its own numbering.
    fn result(&self, status: LpStatus) -> LpResult {
        let objective = match status {
            LpStatus::Optimal => self.objective_value(),
            LpStatus::Infeasible => f64::INFINITY,
            LpStatus::Unbounded => f64::NEG_INFINITY,
        };
        LpResult {
            status,
            objective,
            values: Vec::new(),
            iterations: self.iterations,
            devex_resets: self.devex_resets,
            candidate_list_size: self.price_segment,
            lu_factorizations: self.lu_factorizations,
        }
    }
}

/// The raw engine solve of `lp` under `bounds` in `workspace`, values and
/// snapshot in `lp`'s own numbering: the unreduced reference tests hold the
/// presolve layer and the engine's warm starts to.
#[cfg(test)]
pub(crate) fn solve_sparse(
    lp: &SparseLp,
    bounds: &[(f64, f64)],
    max_iters: usize,
    warm: Warm<'_>,
    workspace: &mut SimplexWorkspace,
) -> Result<(LpResult, Option<Basis>), SolveError> {
    let state = &mut workspace.engine;
    let mut result = solve_in(lp, bounds, max_iters, warm, state)?;
    if result.status != LpStatus::Optimal {
        return Ok((result, None));
    }
    let mut values = vec![0.0; lp.nstruct];
    state.structural_values(lp.nstruct, |j, v| values[j] = v);
    result.values = values;
    Ok((result, Some(state.snapshot(lp))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn solve(model: &Model) -> LpResult {
        let bounds: Vec<(f64, f64)> = model.variables().map(|(_, v)| (v.lower, v.upper)).collect();
        solve_lp(model, &bounds, &mut SimplexWorkspace::default()).expect("lp solve")
    }

    /// [`super::solve_sparse`] in a fresh workspace of its own.
    fn solve_sparse(
        lp: &SparseLp,
        bounds: &[(f64, f64)],
        max_iters: usize,
        warm: Warm<'_>,
    ) -> Result<(LpResult, Option<Basis>), SolveError> {
        let mut workspace = SimplexWorkspace::default();
        super::solve_sparse(lp, bounds, max_iters, warm, &mut workspace)
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
        let ws = &mut SimplexWorkspace::default();
        let (root, basis) =
            super::solve_sparse(&lp, &[(0.0, 3.0), (0.0, 3.0)], 10_000, Warm::Cold, ws)
                .expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        assert!(
            (-root.objective - 7.0).abs() < 1e-6,
            "root {}",
            root.objective
        );
        let basis = basis.expect("optimal basis");
        let mut ended = FactorState::default();
        ws.capture(&mut ended);

        // Tighten x <= 1: dual simplex should recover x=1, y=3 → obj 5.
        let tightened = [(0.0, 1.0), (0.0, 3.0)];
        let (child, child_basis) =
            solve_sparse(&lp, &tightened, 10_000, Warm::Dual(&basis, None, None)).expect("child");
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

        assert_eq!(child.lu_factorizations, 1);

        // An empty slot takes the start's factorization. From it, and from
        // the factor state the root ended on, the same start computes none
        // and reaches the same optimum.
        let mut slot = FactorState::default();
        let (first, _) = solve_sparse(
            &lp,
            &tightened,
            10_000,
            Warm::Dual(&basis, Some(&mut slot), None),
        )
        .expect("first");
        assert_eq!(first.lu_factorizations, 1);
        assert!(slot.is_captured());
        for state in [&mut slot, &mut ended] {
            let (again, _) = solve_sparse(
                &lp,
                &tightened,
                10_000,
                Warm::Dual(&basis, Some(state), None),
            )
            .expect("again");
            assert_eq!(again.lu_factorizations, 0);
            assert_eq!(again.status, LpStatus::Optimal);
            assert!((again.objective - child.objective).abs() < 1e-9);
            for (a, c) in again.values.iter().zip(&child.values) {
                assert!(
                    (a - c).abs() < 1e-9,
                    "{:?} vs {:?}",
                    again.values,
                    child.values
                );
            }
        }
    }

    #[test]
    fn a_dual_that_pivots_into_infeasibility_is_certified_without_refactorizing() {
        // The child's bounds x0, x1 ≤ 1 cut off the parent optimum x1 = 4
        // and leave no point: the dual pivots first, then finds a
        // dual-unbounded row.
        let mut m = Model::new("pivot-then-infeasible");
        let x: Vec<_> = (0..3)
            .map(|i| m.add_continuous(format!("x{i}"), 0.0, 4.0))
            .collect();
        m.set_objective(Sense::Minimize, &[(x[0], 1.0), (x[1], 1.5), (x[2], 1.0)]);
        m.add_ge(&[(x[0], 1.0), (x[1], 1.0)], 4.0);
        m.add_ge(&[(x[1], 1.0), (x[2], 1.0)], 4.0);
        let lp = SparseLp::from_model(&m);
        let parent = [(0.0, 4.0); 3];
        let child = [(0.0, 1.0), (0.0, 1.0), (0.0, 4.0)];
        let ws = &mut SimplexWorkspace::default();
        let (root, basis) =
            super::solve_sparse(&lp, &parent, 10_000, Warm::Cold, ws).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.expect("optimal basis");
        let mut ended = FactorState::default();
        ws.capture(&mut ended);
        // From a from-scratch factorization and from the restored one: the
        // ray certifies the verdict after the pivots, and the start's
        // factorization is the only one either solve computes.
        for restore in [false, true] {
            let slot = restore.then_some(&mut ended);
            let (r, _) =
                solve_sparse(&lp, &child, 10_000, Warm::Dual(&basis, slot, None)).expect("child");
            assert_eq!(r.status, LpStatus::Infeasible);
            assert!(r.iterations >= 1, "no pivot before the verdict");
            assert_eq!(r.lu_factorizations, usize::from(!restore));
        }
    }

    #[test]
    fn a_ray_with_an_infinite_blocker_is_inconclusive_and_falls_back() {
        // Rows x + y ≥ 5 and z − x = 0 with x, y ∈ [0, 1]: infeasible. The
        // basis holds y on row 0 and z on row 1; x and the first row's
        // logical sit at their upper bounds. The engine's factorization is
        // then swapped for one of a perturbed basis — z's column read as
        // (0.5, 1) — standing in for drift: the ray of row 0 becomes
        // (1, −0.5) and gives the basic z an α of −0.5. The leaving y is
        // above its bound, so the ray's aggregate is least at z's lower
        // bound. When that bound is −1 the ray still certifies; when z is
        // free it cannot, and the verdict costs a refactorization.
        for (z_bounds, factorizations) in
            [((-1.0, 1.0), 1), ((f64::NEG_INFINITY, f64::INFINITY), 2)]
        {
            let mut m = Model::new("blocker");
            let x = m.add_continuous("x", 0.0, 1.0);
            let y = m.add_continuous("y", 0.0, 1.0);
            let z = m.add_continuous("z", z_bounds.0, z_bounds.1);
            m.add_ge(&[(x, 1.0), (y, 1.0)], 5.0);
            m.add_eq(&[(z, 1.0), (x, -1.0)], 0.0);
            let lp = SparseLp::from_model(&m);
            let bounds = [(0.0, 1.0), (0.0, 1.0), z_bounds];
            use VarStatus::{AtLower, AtUpper, Basic};
            let status = vec![AtUpper, Basic, Basic, AtUpper, AtLower];
            let basis = Basis::from_parts(3, 2, status, vec![1, 2], vec![1.0; 5]);
            let mut state = EngineState::default();
            let mut engine = Engine::new(&lp, &bounds, 100, &mut state);
            assert_eq!(
                engine.install_warm_basis(&basis, None, None),
                Some(Start::Factorized)
            );
            let drifted = [(&[0usize][..], &[1.0][..]), (&[0, 1][..], &[0.5, 1.0][..])];
            engine
                .ws
                .factor
                .refactorize(2, drifted.into_iter())
                .expect("nonsingular");
            engine.compute_xb();
            assert_eq!(engine.dual(false), Ok(DualOutcome::Infeasible));
            assert_eq!(
                engine.lu_factorizations, factorizations,
                "z in {z_bounds:?}"
            );
        }
    }

    #[test]
    fn certified_infeasible_children_are_infeasible_for_the_dense_reference() {
        let cases = if cfg!(feature = "dense-reference") {
            600
        } else {
            150
        };
        let mut rng = Rng(0x00FA_2CA5);
        let (mut certified, mut infeasible) = (0, 0);
        for case in 0..cases {
            let m = 3 + rng.below(12);
            let (model, lp, bounds) = random_lp(&mut rng, m);
            let ws = &mut SimplexWorkspace::default();
            let Ok((root, Some(basis))) = super::solve_sparse(&lp, &bounds, 10_000, Warm::Cold, ws)
            else {
                continue;
            };
            let mut ended = FactorState::default();
            ws.capture(&mut ended);
            // Pin a few columns at a bound away from their optimal values,
            // as a run of branchings would.
            let mut child = bounds.clone();
            for _ in 0..1 + rng.below(3) {
                let j = rng.below(lp.nstruct);
                let (lower, upper) = child[j];
                let pin = if root.values[j] > lower || !upper.is_finite() {
                    lower
                } else {
                    upper
                };
                child[j] = (pin, pin);
            }
            let warm = Warm::Dual(&basis, Some(&mut ended), None);
            let Ok((r, _)) = super::solve_sparse(&lp, &child, 10_000, warm, ws) else {
                continue;
            };
            if r.status != LpStatus::Infeasible {
                continue;
            }
            infeasible += 1;
            if r.lu_factorizations == 0 {
                certified += 1;
            }
            let dense = crate::dense::solve_lp_dense(&model, &child).expect("dense solve");
            assert_eq!(dense.status, LpStatus::Infeasible, "case {case}: {child:?}");
        }
        assert!(
            certified >= cases / 10 && certified * 10 >= infeasible * 9,
            "{certified} of {infeasible} infeasible children certified"
        );
    }

    #[test]
    fn a_dual_start_that_is_not_dual_feasible_ends_at_the_optimum() {
        // min x + 3y s.t. x + y ≥ 2, x in [0, 10]: the optimum under y ≤ 1
        // is x = 2, y = 0, objective 2. The start has y basic in the row
        // with x at its lower bound, which is not dual feasible
        // (d_x = 1 − 3 = −2 at a lower bound). The dual simplex drives y
        // down to its new bound by bringing x in, and stops at the primal
        // feasible x = y = 1 with d_y = 2 at an upper bound: objective 4
        // unless the signs are checked and the primal finishes.
        let mut m = Model::new("dual-infeasible-start");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 3.0)]);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 2.0);
        let lp = SparseLp::from_model(&m);
        let status = vec![VarStatus::AtLower, VarStatus::Basic, VarStatus::AtUpper];
        let start = Basis::from_parts(2, 1, status, vec![1], vec![1.0; 3]);
        let child = [(0.0, 10.0), (0.0, 1.0)];
        let dense = crate::dense::solve_lp_dense(&m, &child).expect("dense solve");
        assert_eq!(dense.status, LpStatus::Optimal);
        let ws = &mut SimplexWorkspace::default();
        let warm = Warm::Dual(&start, None, None);
        let (r, _) = super::solve_sparse(&lp, &child, 10_000, warm, ws).expect("solve");
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(
            (r.objective - dense.objective).abs() < 1e-9,
            "{} against the dense reference's {}",
            r.objective,
            dense.objective
        );
        assert_eq!(r.values, vec![2.0, 0.0]);
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
            Warm::Dual(&basis, None, None),
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

        for warm in [Warm::Dual(&basis, None, None), Warm::Primal(&basis)] {
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
        /// A nonzero small integer in `-k..=k`.
        fn small(&mut self, k: usize) -> f64 {
            let v = 1 + self.below(k);
            if self.below(2) == 0 {
                v as f64
            } else {
                -(v as f64)
            }
        }
    }

    /// A random `m`-row LP with its model and bounds: sparse rows of every relation
    /// through a random point inside the bounds, so that most LPs are
    /// feasible; finite and infinite upper bounds, so that some are
    /// unbounded. Structural column 1 is a copy of column 0, so a basis
    /// holding both is singular.
    fn random_lp(rng: &mut Rng, m: usize) -> (Model, SparseLp, Vec<(f64, f64)>) {
        let mut model = Model::new("reuse");
        let n = 2 + m / 2 + rng.below(m);
        let mut point = Vec::with_capacity(n);
        let vars: Vec<_> = (0..n)
            .map(|j| {
                let upper = (1 + rng.below(20)) as f64;
                point.push(rng.below(upper as usize + 1) as f64);
                let upper = if rng.below(6) == 0 {
                    f64::INFINITY
                } else {
                    upper
                };
                model.add_continuous(format!("x{j}"), 0.0, upper)
            })
            .collect();
        let bounds_of: Vec<(f64, f64)> =
            model.variables().map(|(_, v)| (v.lower, v.upper)).collect();
        point[1] = point[0];
        // An unbounded column mostly costs to raise: a few LPs unbounded.
        let objective: Vec<_> = (vars.iter().zip(&bounds_of))
            .map(|(&v, &(_, upper))| match rng.small(5) {
                c if upper.is_infinite() && rng.below(10) > 0 => (v, c.abs()),
                c => (v, c),
            })
            .collect();
        model.set_objective(Sense::Minimize, &objective);
        for _ in 0..m {
            let mut terms = std::collections::BTreeMap::new();
            for _ in 0..2 + rng.below(4) {
                let j = rng.below(n);
                let c = rng.small(3);
                terms.insert(if j == 1 { 0 } else { j }, c);
            }
            if let Some(&c) = terms.get(&0) {
                terms.insert(1, c);
            }
            let activity: f64 = terms.iter().map(|(&j, &c)| c * point[j]).sum();
            let terms: Vec<_> = terms.into_iter().map(|(j, c)| (vars[j], c)).collect();
            let slack = rng.below(6) as f64;
            match rng.below(8) {
                0 => model.add_eq(&terms, activity),
                1..=3 => model.add_ge(&terms, activity - slack),
                _ => model.add_le(&terms, activity + slack),
            };
        }
        let lp = SparseLp::from_model(&model);
        (model, lp, bounds_of)
    }

    type Outcome = Result<(LpResult, Option<Basis>), SolveError>;

    /// Field-by-field equality of two outcomes, floats bit for bit.
    fn assert_same(reused: &Outcome, fresh: &Outcome, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (reused, fresh) {
            (Ok((a, a_basis)), Ok((b, b_basis))) => {
                assert_eq!(a.status, b.status, "{what}: status");
                assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{what}");
                assert_eq!(bits(&a.values), bits(&b.values), "{what}: values");
                assert_eq!(a.iterations, b.iterations, "{what}: iterations");
                assert_eq!(a.devex_resets, b.devex_resets, "{what}: devex resets");
                assert_eq!(a.lu_factorizations, b.lu_factorizations, "{what}");
                assert_eq!(a.candidate_list_size, b.candidate_list_size, "{what}");
                match (a_basis, b_basis) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.dims(), b.dims(), "{what}: basis dims");
                        assert_eq!(a.status, b.status, "{what}: basis statuses");
                        assert_eq!(a.basic, b.basic, "{what}: basic columns");
                        assert_eq!(bits(&a.devex), bits(&b.devex), "{what}: Devex weights");
                    }
                    (None, None) => {}
                    _ => panic!("{what}: one outcome has a basis, the other none"),
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
            _ => panic!("{what}: {reused:?} against {fresh:?}"),
        }
    }

    /// Solves with `mine` in the reused workspace and with `theirs` — the
    /// same start — in a fresh one, and insists on the same outcome.
    fn reused_against_fresh(
        lp: &SparseLp,
        bounds: &[(f64, f64)],
        max_iters: usize,
        reused: &mut SimplexWorkspace,
        (mine, theirs): (Warm<'_>, Warm<'_>),
        what: &str,
    ) -> Option<(LpResult, Option<Basis>)> {
        let fresh = &mut SimplexWorkspace::default();
        let outcome = super::solve_sparse(lp, bounds, max_iters, mine, reused);
        assert_same(
            &outcome,
            &super::solve_sparse(lp, bounds, max_iters, theirs, fresh),
            what,
        );
        outcome.ok()
    }

    /// Seeded LPs and their children: a child tightens one column, basic in
    /// the parent's optimal basis, as a branching does. From the state its
    /// sibling's start left, and from the state a dual child ended on, a
    /// [`Warm::Dual`] start naming that column carries the state's `x_B`,
    /// bit-equal to what `compute_xb` derives, and answers exactly as a
    /// start from the same state that names none, which recomputes it.
    /// Naming a nonbasic column recomputes too.
    #[test]
    fn a_child_naming_its_basic_branched_column_carries_x_b() {
        // How a start under `bounds` installs from the state a start under
        // `left_by` left, and its `x_B` against `compute_xb` through the
        // same factorization.
        fn install(
            lp: &SparseLp,
            left_by: &[(f64, f64)],
            bounds: &[(f64, f64)],
            basis: &Basis,
            column: Option<usize>,
        ) -> Option<Start> {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut state, mut from) = (EngineState::default(), FactorState::default());
            let warm = Warm::Dual(basis, Some(&mut from), None);
            let _ =
                super::solve_sparse(lp, left_by, 10_000, warm, &mut SimplexWorkspace::default());
            let mut engine = Engine::new(lp, bounds, 10_000, &mut state);
            let start = engine.install_warm_basis(basis, Some(&mut from), column);
            let installed = engine.ws.xb.clone();
            engine.compute_xb();
            assert_eq!(
                bits(&installed),
                bits(&engine.ws.xb),
                "x_B of a {start:?} start"
            );
            start
        }
        let mut rng = Rng(0x00C4_A77E);
        let (mut from_sibling, mut from_ended) = (0, 0);
        for case in 0..80 {
            let m = 3 + rng.below(24);
            let (_, lp, bounds) = random_lp(&mut rng, m);
            let ws = &mut SimplexWorkspace::default();
            let Ok((root, Some(basis))) = super::solve_sparse(&lp, &bounds, 10_000, Warm::Cold, ws)
            else {
                continue;
            };
            let basic = |b: &Basis, j: usize| b.status[j] == VarStatus::Basic;
            let Some(j) = (0..lp.nstruct).find(|&j| basic(&basis, j)) else {
                continue;
            };
            let nonbasic = (0..lp.nstruct).find(|&k| !basic(&basis, k));
            // The down child and its up sibling on column `j`.
            let (lo, hi) = bounds[j];
            let mut down = bounds.clone();
            down[j].1 = (root.values[j] * 0.5).floor().max(lo);
            let mut up = bounds.clone();
            up[j].0 = (root.values[j] + 1.0).ceil().min(hi);

            // Both siblings start from the state the down child's start
            // left; the up one carries its x_B only when it names `j`.
            assert_eq!(
                install(&lp, &down, &up, &basis, Some(j)),
                Some(Start::Carried)
            );
            assert_eq!(
                install(&lp, &down, &up, &basis, None),
                Some(Start::Restored)
            );
            if let Some(k) = nonbasic {
                assert_eq!(
                    install(&lp, &down, &up, &basis, Some(k)),
                    Some(Start::Restored)
                );
            }
            let (mut left, mut same) = (FactorState::default(), FactorState::default());
            for slot in [&mut left, &mut same] {
                let warm = Warm::Dual(&basis, Some(slot), Some(j));
                let _ = super::solve_sparse(&lp, &down, 10_000, warm, ws);
                assert!(slot.xb.len() == m, "case {case}: a fresh start left no x_B");
            }
            let what = format!("case {case} (m = {m}), the sibling");
            let sibling = reused_against_fresh(
                &lp,
                &up,
                10_000,
                ws,
                (
                    Warm::Dual(&basis, Some(&mut left), Some(j)),
                    Warm::Dual(&basis, Some(&mut same), None),
                ),
                &what,
            );
            from_sibling += 1;

            // A child of the sibling, from the state the sibling ended on.
            let Some((done, Some(ended))) = sibling else {
                continue;
            };
            let (mut mine, mut theirs) = (FactorState::default(), FactorState::default());
            ws.capture(&mut mine);
            ws.capture(&mut theirs);
            let Some(g) = (0..lp.nstruct).find(|&g| basic(&ended, g)) else {
                continue;
            };
            if mine.xb.is_empty() {
                // The sibling finished in the primal simplex.
                continue;
            }
            let mut grandchild = up.clone();
            grandchild[g].1 = (done.values[g] * 0.5).floor().max(grandchild[g].0);
            let what = format!("case {case} (m = {m}), the grandchild");
            reused_against_fresh(
                &lp,
                &grandchild,
                10_000,
                ws,
                (
                    Warm::Dual(&ended, Some(&mut mine), Some(g)),
                    Warm::Dual(&ended, Some(&mut theirs), None),
                ),
                &what,
            );
            from_ended += 1;
        }
        assert!(
            from_sibling >= 30 && from_ended >= 10,
            "{from_sibling} siblings, {from_ended} grandchildren carried an x_B"
        );
    }

    /// A random knapsack MILP of `columns` integers and `rows` rows: a
    /// branch-and-bound tree of another shape than the LPs around it.
    fn random_milp(rng: &mut Rng, columns: usize, rows: usize) -> Model {
        let mut model = Model::new("tree");
        let vars: Vec<_> = (0..columns)
            .map(|j| model.add_integer(format!("v{j}"), 0.0, (1 + rng.below(4)) as f64))
            .collect();
        let objective: Vec<_> = (vars.iter())
            .map(|&v| (v, (3 + rng.below(20)) as f64))
            .collect();
        model.set_objective(Sense::Maximize, &objective);
        for _ in 0..rows {
            let terms: Vec<_> = (vars.iter())
                .map(|&v| (v, (2 + rng.below(15)) as f64))
                .collect();
            model.add_le(&terms, (10 + rng.below(10 * columns)) as f64);
        }
        model
    }

    /// Field-by-field equality of two tree outcomes, floats bit for bit.
    fn assert_same_tree(
        reused: &Result<(crate::Solution, Option<Basis>), SolveError>,
        fresh: &Result<(crate::Solution, Option<Basis>), SolveError>,
        what: &str,
    ) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (reused, fresh) {
            (Ok((a, a_basis)), Ok((b, b_basis))) => {
                assert_eq!(a.status, b.status, "{what}: status");
                assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{what}");
                assert_eq!(bits(a.values()), bits(b.values()), "{what}: values");
                assert_eq!(a.counters, b.counters, "{what}: counters");
                match (a_basis, b_basis) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.dims(), b.dims(), "{what}: basis dims");
                        assert_eq!(a.status, b.status, "{what}: basis statuses");
                        assert_eq!(a.basic, b.basic, "{what}: basic columns");
                        assert_eq!(bits(&a.devex), bits(&b.devex), "{what}: Devex weights");
                    }
                    (None, None) => {}
                    _ => panic!("{what}: one outcome has a basis, the other none"),
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
            _ => panic!("{what}: {reused:?} against {fresh:?}"),
        }
    }

    /// One workspace through a seeded sequence of unrelated LPs — sizes
    /// alternating below and above 64 rows; cold, primal-warm and dual-warm
    /// starts; a dual start that restores the factor state a solve ended on; singular
    /// warm bases; solves stopped by the pivot budget — answers every LP
    /// exactly as a fresh workspace does. Before every LP case the workspace
    /// runs a whole branch-and-bound tree of another shape, which answers as
    /// in a fresh workspace too, so what a tree leaves behind — released
    /// snapshots and memo states, pooled factorizations, a kept eta file —
    /// moves no pivot of what runs next. The `dense-reference` CI job runs
    /// the large budget.
    #[test]
    fn a_reused_workspace_answers_like_a_fresh_one() {
        let cases = if cfg!(feature = "dense-reference") {
            400
        } else {
            40
        };
        let mut rng = Rng(0x5EED_2018);
        let mut trees = Rng(0x7EE5_2018);
        let reused = &mut SimplexWorkspace::default();
        let (mut restored, mut budget_stops, mut tree_nodes) = (0, 0, 0);
        for case in 0..cases {
            let m = if case % 2 == 0 {
                3 + rng.below(60)
            } else {
                65 + rng.below(80)
            };
            let (_, lp, bounds) = random_lp(&mut rng, m);
            let what = |step: &str| format!("case {case} (m = {m}), {step}");
            let (columns, rows) = (4 + trees.below(9), 1 + trees.below(4));
            let milp = random_milp(&mut trees, columns, rows);
            let tree = crate::branch_bound::solve_warm(&milp, None, reused);
            let fresh_tree =
                crate::branch_bound::solve_warm(&milp, None, &mut SimplexWorkspace::default());
            let tree_what = what(&format!("a {columns} × {rows} tree before it"));
            assert_same_tree(&tree, &fresh_tree, &tree_what);
            tree_nodes += tree.map_or(0, |(solution, _)| solution.nodes_explored);
            let cold = (Warm::Cold, Warm::Cold);
            let root = reused_against_fresh(&lp, &bounds, 10_000, reused, cold, &what("cold"));
            let (mut mine, mut theirs) = (FactorState::default(), FactorState::default());
            reused.capture(&mut mine);
            reused.capture(&mut theirs);

            // The same LP again, stopped halfway.
            let pivots = root.as_ref().map_or(0, |(r, _)| r.iterations);
            if pivots >= 2 {
                let cold = (Warm::Cold, Warm::Cold);
                let stopped =
                    reused_against_fresh(&lp, &bounds, pivots / 2, reused, cold, &what("budget"));
                assert!(
                    stopped.is_none(),
                    "{}: the budget did not stop it",
                    what("budget")
                );
                budget_stops += 1;
            }

            // A singular warm basis: the all-logical one with structural
            // columns 0 and 1, which are equal, in place of two logicals.
            let ncols = lp.ncols();
            let mut status = vec![VarStatus::AtLower; ncols];
            let mut basic: Vec<usize> = (lp.nstruct..ncols).collect();
            basic[0] = 0;
            basic[m - 1] = 1;
            for &j in &basic {
                status[j] = VarStatus::Basic;
            }
            let singular = Basis::from_parts(lp.nstruct, m, status, basic, vec![1.0; ncols]);
            let dual = (
                Warm::Dual(&singular, None, None),
                Warm::Dual(&singular, None, None),
            );
            reused_against_fresh(&lp, &bounds, 10_000, reused, dual, &what("singular dual"));
            let primal = (Warm::Primal(&singular), Warm::Primal(&singular));
            reused_against_fresh(
                &lp,
                &bounds,
                10_000,
                reused,
                primal,
                &what("singular primal"),
            );

            let Some((root, Some(basis))) = root else {
                continue;
            };
            // Tighten one column below its optimal value, as a branch does,
            // and reoptimize three times: from a from-scratch factorization
            // into empty slots, from the states it left there, and from the
            // factor state the cold solve ended on, which the LPs between
            // have not written into.
            let j = rng.below(lp.nstruct);
            let mut child = bounds.clone();
            child[j].1 = (root.values[j] * 0.5).floor();
            let mut slots = (FactorState::default(), FactorState::default());
            for what in [what("dual"), what("dual from the start it left")] {
                let dual = (
                    Warm::Dual(&basis, Some(&mut slots.0), None),
                    Warm::Dual(&basis, Some(&mut slots.1), None),
                );
                reused_against_fresh(&lp, &child, 10_000, reused, dual, &what);
            }
            let dual = (
                Warm::Dual(&basis, Some(&mut mine), None),
                Warm::Dual(&basis, Some(&mut theirs), None),
            );
            reused_against_fresh(&lp, &child, 10_000, reused, dual, &what("restored dual"));
            restored += 1;
            // Raise another column's lower bound: a primal restart.
            let k = rng.below(lp.nstruct);
            let mut other = bounds.clone();
            other[k].0 = (root.values[k] + 1.0).min(other[k].1);
            let primal = (Warm::Primal(&basis), Warm::Primal(&basis));
            reused_against_fresh(&lp, &other, 10_000, reused, primal, &what("primal"));
        }
        assert!(
            restored > 0 && budget_stops > 0 && tree_nodes >= 10 * cases,
            "{restored} restored starts, {budget_stops} budget stops, {tree_nodes} tree nodes"
        );
    }

    /// A small LP whose optimal basis has structural columns in it, and
    /// that basis.
    fn sample_basis() -> (Model, Basis) {
        let mut m = Model::new("accessor-sample");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Maximize, &[(x, 3.0), (y, 2.0)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 12.0);
        m.add_le(&[(x, 2.0), (y, 1.0)], 18.0);
        let (solution, basis) = m.solve_with_basis(None).expect("solvable");
        assert_eq!(solution.status, crate::Status::Optimal);
        (m, basis.expect("an optimal solve returns a basis"))
    }

    /// The snapshot its read accessors describe.
    fn rebuilt(basis: &Basis) -> Option<Basis> {
        let status = basis.status_letters();
        Basis::from_letters(&status, basis.basic().to_vec(), basis.devex().to_vec())
    }

    #[test]
    fn the_read_accessors_rebuild_the_same_snapshot() {
        let (_, basis) = sample_basis();
        assert!(basis.basic().iter().any(|&j| j < basis.dims().0));
        let back = rebuilt(&basis).expect("a solver's own basis is consistent");
        assert_eq!(back.dims(), basis.dims());
        assert_eq!(back.parts().0, basis.parts().0);
        assert_eq!(back.basic(), basis.basic());
        let bits = |b: &Basis| b.devex().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&basis));
        assert_eq!(back.status_letters(), basis.status_letters());
    }

    #[test]
    fn a_rebuilt_snapshot_warm_starts_to_the_same_optimum() {
        let (model, basis) = sample_basis();
        let (cold, _) = model.solve_with_basis(None).expect("cold solve");
        let rebuilt = rebuilt(&basis).expect("consistent");
        let (warm, _) = model.solve_with_basis(Some(&rebuilt)).expect("warm solve");
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.values(), cold.values());
    }

    #[test]
    fn a_rebuilt_snapshot_of_another_shape_degrades_to_a_cold_start() {
        // A larger model's basis applied to a smaller model: the warm
        // install rejects it and the solve matches the cold one.
        let mut big = Model::new("accessor-big");
        let vars: Vec<_> = (0..6)
            .map(|i| big.add_continuous(format!("v{i}"), 0.0, 5.0))
            .collect();
        let profits: Vec<_> = (0..)
            .zip(&vars)
            .map(|(i, &v)| (v, 1.0 + i as f64))
            .collect();
        big.set_objective(Sense::Maximize, &profits);
        let ones: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        big.add_le(&ones, 14.0);
        let (_, stale) = big.solve_with_basis(None).expect("solvable");
        let stale = rebuilt(&stale.expect("a basis")).expect("consistent");

        let (small, _) = sample_basis();
        let (cold, _) = small.solve_with_basis(None).expect("cold solve");
        let (warm, _) = small
            .solve_with_basis(Some(&stale))
            .expect("stale warm solve");
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.values(), cold.values());
    }
}
