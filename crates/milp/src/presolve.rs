//! LP presolve: shrink the equality-form problem before the simplex sees it.
//!
//! The TTW instances are full of structure the simplex would otherwise grind
//! through pivot by pivot: inherited offsets arrive as `fix_var`-pinned
//! columns, the incremental `R_M` sweep leaves empty total-count rows, and
//! the counting constraints carry many near-redundant bounds. This module
//! reduces a [`SparseLp`] once per branch-and-bound tree LP:
//!
//! 1. **Fixed columns** (`lower == upper`, i.e. `fix_var` pins and bounds
//!    collapsed by tightening) are substituted into the right-hand sides and
//!    removed from the column set.
//! 2. **Empty rows** (no live structural entry) either hold trivially — and
//!    are dropped — or prove the whole problem infeasible.
//! 3. **Singleton rows** (one live structural entry) are folded into bounds
//!    on their column and dropped.
//! 4. **Activity-based bound tightening** propagates row activity ranges
//!    into implied variable bounds. The bounds are applied *exactly* — never
//!    loosened by a safety margin: a loosened bound would admit vertices a
//!    hair outside the true feasible region, which the simplex tolerances
//!    happily accept and which then surface as sub-tolerance constraint
//!    violations in the extracted schedule. The opposite float error (a bound
//!    a few ulps too tight) only shaves a sub-tolerance sliver off the
//!    region, which no downstream consumer can observe.
//!
//! The passes iterate until a fixpoint (bounded by [`MAX_PASSES`]); a fixed
//! column discovered by tightening feeds back into substitution. With
//! [`crate::SolveParams::presolve`] off, the reduction is the identity: no
//! column is fixed, no row dropped, and the reduced LP is the input column
//! for column and row for row, so every LP reaches the engine through this
//! one layer and an unreduced solve is the same code path with nothing
//! taken out.
//!
//! The LPs that cross reductions — a tree's root, its cut rounds,
//! `solve_lp`, and so the basis a tree hands back to its caller — go through
//! [`Presolve::solve`], which maps what the reduced solve produces back to
//! the *original* numbering: variable values (eliminated columns report
//! their fixed value) and [`Basis`] snapshots. A snapshot handed in by a
//! caller may predate the current problem shape (the model grew, or a
//! different pin set eliminated different columns); [`Presolve::map_basis`]
//! sanitizes such snapshots instead of erroring: unknown or eliminated basic
//! columns fall back to the row's own logical column, and an unusable
//! snapshot degrades to a cold start — a stale basis can cost pivots, never
//! correctness.
//!
//! A branch-and-bound tree's nodes all solve one reduction, so they stay in
//! its numbering ([`Presolve::solve_node`]): the root basis is mapped in
//! once, a node's final basis is handed to its children as the engine left
//! it, and only the node's values are read out in the original numbering.
//! That rests on `map_basis(unmap_basis(b)) == b` for an engine's final
//! basis `b` — statuses, basic order and Devex weights, which every install
//! raises to at least 1 either way.
//!
//! Presolve-derived bounds are computed from the **root** bounds of a solve
//! family. Branch-and-bound children only ever tighten bounds, so every
//! derived bound (an implication of constraints plus root bounds) remains
//! valid for every child: a node's bounds in the reduced numbering are the
//! root's intersected with the derived ones
//! ([`Presolve::tree_root_bounds`]), tightened by each branching above the
//! node ([`Presolve::tighten`]) — what [`Presolve::map_bounds`] makes of
//! the node's original-space bounds.

use crate::error::SolveError;
use crate::model::INTEGRALITY_TOL;
use crate::simplex::{
    solve_in, Basis, EngineState, LpResult, LpStatus, RowView, SimplexWorkspace, SparseLp,
    VarStatus, Warm,
};
use std::rc::Rc;

/// Feasibility tolerance used when presolve checks a dropped row.
const FEAS_TOL: f64 = 1e-7;
/// Maximum number of substitution/tightening passes.
const MAX_PASSES: usize = 4;
/// A derived bound must improve the old one by this much to count as
/// progress (prevents churning on noise).
const IMPROVE_TOL: f64 = 1e-7;

/// What happened to an original structural column.
#[derive(Debug, Clone, Copy)]
enum ColFate {
    /// Survives as reduced column `j`.
    Kept(usize),
    /// Eliminated; always takes this value.
    Fixed(f64),
}

/// A presolved equality-form LP plus the original↔reduced mappings.
#[derive(Debug)]
pub(crate) struct Presolve {
    reduced: SparseLp,
    /// Fate of every original structural column.
    col_fate: Vec<ColFate>,
    /// Original structural column of every reduced structural column.
    kept_cols: Vec<usize>,
    /// Reduced row of every original row (`None` = dropped).
    row_map: Vec<Option<usize>>,
    /// Original row of every reduced row.
    kept_rows: Vec<usize>,
    /// Presolve-derived bounds per original structural column, already
    /// intersected with the root bounds.
    derived: Vec<(f64, f64)>,
    rows_removed: usize,
    cols_removed: usize,
}

impl Presolve {
    /// Rows dropped by presolve.
    pub(crate) fn rows_removed(&self) -> usize {
        self.rows_removed
    }

    /// Structural columns eliminated by presolve.
    pub(crate) fn cols_removed(&self) -> usize {
        self.cols_removed
    }

    /// Reduces `lp` under the given root bounds; `rows` is `lp`'s
    /// [`RowView`] (presolve is row-driven). `enabled` mirrors
    /// [`crate::SolveParams::presolve`]: disabled, the reduction is the
    /// identity. `None` when presolve proves the root infeasible (an empty
    /// row cannot hold, or derived bounds crossed).
    pub(crate) fn build(
        lp: &SparseLp,
        rows: &RowView,
        root_bounds: &[(f64, f64)],
        integral: &[bool],
        enabled: bool,
    ) -> Option<Presolve> {
        debug_assert_eq!(root_bounds.len(), lp.nstruct);
        debug_assert_eq!(integral.len(), lp.nstruct);
        let n = lp.nstruct;
        let m = lp.nrows;

        let mut lower: Vec<f64> = root_bounds.iter().map(|&(l, _)| l).collect();
        let mut upper: Vec<f64> = root_bounds.iter().map(|&(_, u)| u).collect();
        // Integral columns admit only lattice points, so any derived bound
        // rounds inward to the next integer (the MILP-level half of the
        // tightening — a binary capped at 0.97 is a binary fixed at 0),
        // absorbing the slack branch-and-bound allows an integral value.
        let snap_lo = |j: usize, lo: f64| {
            if integral[j] && lo.is_finite() {
                (lo - INTEGRALITY_TOL).ceil()
            } else {
                lo
            }
        };
        let snap_hi = |j: usize, hi: f64| {
            if integral[j] && hi.is_finite() {
                (hi + INTEGRALITY_TOL).floor()
            } else {
                hi
            }
        };
        // Disabled, nothing is fixed and no pass runs: the identity.
        let passes = if enabled { MAX_PASSES } else { 0 };
        let mut fixed: Vec<Option<f64>> = (0..n)
            .map(|j| (enabled && lower[j] == upper[j]).then(|| lower[j]))
            .collect();
        let mut row_alive = vec![true; m];
        // The entries of the row at hand whose column is not fixed.
        let mut live: Vec<(usize, f64)> = Vec::new();

        for _pass in 0..passes {
            let mut changed = false;
            for (i, alive) in row_alive.iter_mut().enumerate() {
                if !*alive {
                    continue;
                }
                let mut fixed_contrib = 0.0;
                live.clear();
                for &(j, a) in rows.row(i) {
                    match fixed[j] {
                        Some(v) => fixed_contrib += a * v,
                        None => live.push((j, a)),
                    }
                }
                let rhs = lp.rhs[i] - fixed_contrib;
                let (slo, shi) = (lp.logical_lower[i], lp.logical_upper[i]);
                match live.len() {
                    0 => {
                        // The logical column alone must absorb the rhs.
                        if rhs < slo - FEAS_TOL * (1.0 + rhs.abs())
                            || rhs > shi + FEAS_TOL * (1.0 + rhs.abs())
                        {
                            return None;
                        }
                        *alive = false;
                        changed = true;
                    }
                    1 => {
                        // a·x + s = rhs, s ∈ [slo, shi] ⇒ x ∈ [(rhs−shi)/a, (rhs−slo)/a].
                        // No relaxation margin here: the bound is one exact
                        // division, the same arithmetic the ratio test would
                        // perform against this row.
                        let (j, a) = live[0];
                        let (e0, e1) = ((rhs - shi) / a, (rhs - slo) / a);
                        let (mut lo, mut hi) = if a > 0.0 { (e0, e1) } else { (e1, e0) };
                        if lo.is_nan() {
                            lo = f64::NEG_INFINITY;
                        }
                        if hi.is_nan() {
                            hi = f64::INFINITY;
                        }
                        let (lo, hi) = (snap_lo(j, lo), snap_hi(j, hi));
                        if lo > lower[j] {
                            lower[j] = lo;
                        }
                        if hi < upper[j] {
                            upper[j] = hi;
                        }
                        if lower[j] > upper[j] + FEAS_TOL {
                            return None;
                        }
                        if fixed[j].is_none() && lower[j] >= upper[j] {
                            // Bounds crossed within tolerance or met exactly:
                            // pin the column at the midpoint.
                            let v = 0.5 * (lower[j] + upper[j]);
                            lower[j] = v;
                            upper[j] = v;
                            fixed[j] = Some(v);
                        }
                        *alive = false;
                        changed = true;
                    }
                    _ => {
                        // Activity-based tightening. Track infinite
                        // contributions by count so one infinite term still
                        // lets us bound *that* variable.
                        let mut min_act = 0.0;
                        let mut max_act = 0.0;
                        let mut min_inf = 0usize;
                        let mut max_inf = 0usize;
                        for &(j, a) in live.iter() {
                            let (c0, c1) = (a * lower[j], a * upper[j]);
                            let (clo, chi) = if c0 <= c1 { (c0, c1) } else { (c1, c0) };
                            if clo.is_finite() {
                                min_act += clo;
                            } else {
                                min_inf += 1;
                            }
                            if chi.is_finite() {
                                max_act += chi;
                            } else {
                                max_inf += 1;
                            }
                        }
                        // Σ a_j x_j = rhs − s ∈ [rhs − shi, rhs − slo].
                        let sum_lo = rhs - shi;
                        let sum_hi = rhs - slo;
                        if (min_inf == 0 && min_act > sum_hi + FEAS_TOL * (1.0 + sum_hi.abs()))
                            || (max_inf == 0 && max_act < sum_lo - FEAS_TOL * (1.0 + sum_lo.abs()))
                        {
                            return None;
                        }
                        for &(j, a) in live.iter() {
                            let (c0, c1) = (a * lower[j], a * upper[j]);
                            let (clo, chi) = if c0 <= c1 { (c0, c1) } else { (c1, c0) };
                            // Residual activity of the other columns.
                            let rest_min = if min_inf == 0 {
                                Some(min_act - clo)
                            } else if min_inf == 1 && !clo.is_finite() {
                                Some(min_act)
                            } else {
                                None
                            };
                            let rest_max = if max_inf == 0 {
                                Some(max_act - chi)
                            } else if max_inf == 1 && !chi.is_finite() {
                                Some(max_act)
                            } else {
                                None
                            };
                            // a·x_j ∈ [sum_lo − rest_max, sum_hi − rest_min].
                            let term_lo = match rest_max {
                                Some(r) if sum_lo.is_finite() => sum_lo - r,
                                _ => f64::NEG_INFINITY,
                            };
                            let term_hi = match rest_min {
                                Some(r) if sum_hi.is_finite() => sum_hi - r,
                                _ => f64::INFINITY,
                            };
                            let (b0, b1) = (term_lo / a, term_hi / a);
                            let (mut lo, mut hi) = if a > 0.0 { (b0, b1) } else { (b1, b0) };
                            if lo.is_nan() {
                                lo = f64::NEG_INFINITY;
                            }
                            if hi.is_nan() {
                                hi = f64::INFINITY;
                            }
                            let (lo, hi) = (snap_lo(j, lo), snap_hi(j, hi));
                            if lo > lower[j] + IMPROVE_TOL * (1.0 + lower[j].abs()) {
                                lower[j] = lo;
                                changed = true;
                            }
                            if hi < upper[j] - IMPROVE_TOL * (1.0 + upper[j].abs()) {
                                upper[j] = hi;
                                changed = true;
                            }
                            if lower[j] > upper[j] + FEAS_TOL {
                                return None;
                            }
                            if fixed[j].is_none() && lower[j] >= upper[j] {
                                let v = 0.5 * (lower[j] + upper[j]);
                                lower[j] = v;
                                upper[j] = v;
                                fixed[j] = Some(v);
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Assemble the reduced problem and the mappings.
        let mut col_fate = Vec::with_capacity(n);
        let mut kept_cols = Vec::new();
        for (j, fate) in fixed.iter().enumerate() {
            match fate {
                Some(v) => col_fate.push(ColFate::Fixed(*v)),
                None => {
                    col_fate.push(ColFate::Kept(kept_cols.len()));
                    kept_cols.push(j);
                }
            }
        }
        let mut row_map = vec![None; m];
        let mut kept_rows = Vec::new();
        for (i, alive) in row_alive.iter().enumerate() {
            if *alive {
                row_map[i] = Some(kept_rows.len());
                kept_rows.push(i);
            }
        }

        let red_m = kept_rows.len();
        let nnz = lp.cols.nnz() - lp.nrows + red_m;
        let mut cols = crate::sparse::CscMatrix::with_capacity(red_m, kept_cols.len() + red_m, nnz);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for &j in &kept_cols {
            let (ridx, vals) = lp.cols.column(j);
            entries.clear();
            entries.extend(
                ridx.iter()
                    .zip(vals)
                    .filter_map(|(&i, &a)| row_map[i].map(|ri| (ri, a))),
            );
            cols.push_column(&entries);
        }
        for i in 0..red_m {
            cols.push_column(&[(i, 1.0)]);
        }

        let mut obj_offset = lp.obj_offset;
        for (j, fate) in col_fate.iter().enumerate() {
            if let ColFate::Fixed(v) = fate {
                obj_offset += lp.cost[j] * v;
            }
        }
        let mut cost: Vec<f64> = kept_cols.iter().map(|&j| lp.cost[j]).collect();
        cost.resize(kept_cols.len() + red_m, 0.0);

        let mut rhs = Vec::with_capacity(red_m);
        let mut logical_lower = Vec::with_capacity(red_m);
        let mut logical_upper = Vec::with_capacity(red_m);
        for &i in &kept_rows {
            let mut fixed_contrib = 0.0;
            for &(j, a) in rows.row(i) {
                if let ColFate::Fixed(v) = col_fate[j] {
                    fixed_contrib += a * v;
                }
            }
            rhs.push(lp.rhs[i] - fixed_contrib);
            logical_lower.push(lp.logical_lower[i]);
            logical_upper.push(lp.logical_upper[i]);
        }

        let reduced = SparseLp {
            nrows: red_m,
            nstruct: kept_cols.len(),
            cols,
            cost,
            rhs,
            obj_offset,
            logical_lower,
            logical_upper,
        };
        let derived: Vec<(f64, f64)> = lower.into_iter().zip(upper).collect();
        Some(Presolve {
            rows_removed: m - red_m,
            cols_removed: n - kept_cols.len(),
            reduced,
            col_fate,
            kept_cols,
            row_map,
            kept_rows,
            derived,
        })
    }

    /// Maps node bounds into `out`, in the reduced column space, intersected
    /// with the presolve-derived bounds. `false` means the node is infeasible
    /// outright (crossed bounds, or a node bound excludes an eliminated
    /// column's fixed value).
    pub(crate) fn map_bounds(&self, bounds: &[(f64, f64)], out: &mut Vec<(f64, f64)>) -> bool {
        out.clear();
        for (j, &(node_lo, node_hi)) in bounds.iter().enumerate() {
            let (dlo, dhi) = self.derived[j];
            match self.col_fate[j] {
                ColFate::Kept(_) => {
                    let lo = node_lo.max(dlo);
                    let hi = node_hi.min(dhi);
                    if lo > hi {
                        return false;
                    }
                    out.push((lo, hi));
                }
                ColFate::Fixed(v) => {
                    if v < node_lo - FEAS_TOL || v > node_hi + FEAS_TOL {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Maps an original-space basis snapshot into `out`, in the reduced
    /// space; `used` is scratch.
    ///
    /// The snapshot may predate the current problem shape (fewer columns or
    /// rows, or it may reference presolve-eliminated columns as basic). Every
    /// such mismatch is *sanitized* rather than rejected: missing statuses
    /// default to `AtLower` (the install step re-pins them against the actual
    /// bounds), and a hole in the basic set is plugged with the row's own
    /// logical column. Returns `false` only when two rows compete for the
    /// same logical column, in which case the caller falls back to a cold
    /// start.
    fn map_basis(&self, basis: &Basis, out: &mut Basis, used: &mut Vec<bool>) -> bool {
        let (s0, r0) = basis.dims();
        let (status0, basic0, devex0) = basis.parts();
        let red_n = self.reduced.nstruct;
        let red_m = self.reduced.nrows;
        let (status, basic, devex) = out.refill(red_n, red_m);

        for (rc, &j) in self.kept_cols.iter().enumerate() {
            if j < s0 {
                status[rc] = status0[j];
                devex[rc] = devex0[j].max(1.0);
            }
        }
        for (rr, &i) in self.kept_rows.iter().enumerate() {
            if i < r0 {
                status[red_n + rr] = status0[s0 + i];
                devex[red_n + rr] = devex0[s0 + i].max(1.0);
            } else {
                status[red_n + rr] = VarStatus::Basic;
            }
        }

        // Translate the basic column of every kept row; eliminated or unknown
        // columns leave a hole plugged by the row's own logical column.
        used.clear();
        used.resize(red_n + red_m, false);
        for (rr, &i) in self.kept_rows.iter().enumerate() {
            let translated: Option<usize> = if i < r0 {
                let bj = basic0[i];
                if bj < s0 {
                    // Structural column in snapshot numbering == original.
                    match self.col_fate.get(bj) {
                        Some(ColFate::Kept(rc)) => Some(*rc),
                        _ => None,
                    }
                } else {
                    // Logical column of original row `bj - s0`.
                    self.row_map
                        .get(bj - s0)
                        .copied()
                        .flatten()
                        .map(|rrow| red_n + rrow)
                }
            } else {
                None
            };
            let chosen = match translated {
                Some(c) if !used[c] => c,
                _ => {
                    let logical = red_n + rr;
                    if used[logical] {
                        return false;
                    }
                    logical
                }
            };
            used[chosen] = true;
            basic.push(chosen);
        }

        // Re-establish status/basic consistency: exactly the chosen columns
        // are `Basic`.
        for s in status.iter_mut() {
            if *s == VarStatus::Basic {
                *s = VarStatus::AtLower;
            }
        }
        for &c in basic.iter() {
            status[c] = VarStatus::Basic;
        }
        true
    }

    /// Maps the reduced-space optimal basis the last solve left in `state`
    /// back to the original numbering: eliminated columns park nonbasic at
    /// their (equal) bounds and dropped rows carry their own logical column,
    /// which keeps the original-space basis square, nonsingular and primal
    /// feasible.
    fn unmap_basis(&self, state: &EngineState) -> Basis {
        let (n_orig, m_orig) = (self.col_fate.len(), self.row_map.len());
        let red_n = self.reduced.nstruct;
        let (status_r, basic_r, devex_r) = state.basis_parts();
        let ncols = n_orig + m_orig;
        let mut status = vec![VarStatus::AtLower; ncols];
        let mut devex = vec![1.0; ncols];
        for (j, fate) in self.col_fate.iter().enumerate() {
            if let ColFate::Kept(rc) = fate {
                status[j] = status_r[*rc];
                devex[j] = devex_r[*rc];
            }
        }
        for (rr, &i) in self.kept_rows.iter().enumerate() {
            status[n_orig + i] = status_r[red_n + rr];
            devex[n_orig + i] = devex_r[red_n + rr];
        }
        let mut basic = vec![0usize; m_orig];
        for (i, (slot, mapped)) in basic.iter_mut().zip(&self.row_map).enumerate() {
            match mapped {
                Some(rr) => {
                    let rc = basic_r[*rr];
                    *slot = if rc < red_n {
                        self.kept_cols[rc]
                    } else {
                        n_orig + self.kept_rows[rc - red_n]
                    };
                }
                None => *slot = n_orig + i,
            }
        }
        for &c in &basic {
            status[c] = VarStatus::Basic;
        }
        Basis::from_parts(n_orig, m_orig, status, basic, devex)
    }

    /// Solves the LP this reduction was built from under `bounds` through
    /// the reduced LP in `workspace`, returning the result and basis in the
    /// **original** space. The bounds and the warm basis are mapped into the
    /// workspace's buffers, and values and basis are read out of its final
    /// state straight into the original numbering.
    pub(crate) fn solve(
        &self,
        bounds: &[(f64, f64)],
        max_iters: usize,
        warm: Warm<'_>,
        workspace: &mut SimplexWorkspace,
    ) -> Result<(LpResult, Option<Basis>), SolveError> {
        let SimplexWorkspace {
            engine,
            mapped_bounds,
            mapped_basis,
            mapped_used,
            ..
        } = workspace;
        if !self.map_bounds(bounds, mapped_bounds) {
            return Ok((LpResult::infeasible_without_pivots(), None));
        }
        let mut map = |b: &Basis| self.map_basis(b, mapped_basis, mapped_used);
        // A named column is in the original numbering, so a dual start
        // through here recomputes its `x_B`.
        let warm = match warm {
            Warm::Cold => Warm::Cold,
            Warm::Primal(b) if map(b) => Warm::Primal(mapped_basis),
            Warm::Dual(b, slot, _) if map(b) => Warm::Dual(mapped_basis, slot, None),
            Warm::Primal(_) | Warm::Dual(..) => Warm::Cold,
        };
        let mut result = solve_in(&self.reduced, mapped_bounds, max_iters, warm, engine)?;
        if result.status != LpStatus::Optimal {
            return Ok((result, None));
        }
        let mut values = Vec::new();
        self.values(engine, &mut values);
        result.values = values;
        Ok((result, Some(self.unmap_basis(engine))))
    }

    /// Reads the values of the last solve's final basic solution out of
    /// `engine` into `values`, in the original numbering: eliminated columns
    /// report their fixed value.
    fn values(&self, engine: &EngineState, values: &mut Vec<f64>) {
        values.clear();
        values.resize(self.col_fate.len(), 0.0);
        for (value, fate) in values.iter_mut().zip(&self.col_fate) {
            if let ColFate::Fixed(v) = *fate {
                *value = v;
            }
        }
        engine.structural_values(self.reduced.nstruct, |rc, v| {
            values[self.kept_cols[rc]] = v;
        });
    }

    /// `root_bounds`, the original LP's root bounds, in the tree numbering:
    /// intersected with the derived bounds of the reduction's columns, as
    /// [`Presolve::map_bounds`] intersects them. The root LP solved through
    /// that mapping, so no bound crosses.
    pub(crate) fn tree_root_bounds(&self, root_bounds: &[(f64, f64)]) -> Vec<(f64, f64)> {
        (self.kept_cols.iter())
            .map(|&j| {
                let ((lo, hi), (dlo, dhi)) = (root_bounds[j], self.derived[j]);
                (lo.max(dlo), hi.min(dhi))
            })
            .collect()
    }

    /// Tightens `bounds`, in the tree numbering, by the branching that gave
    /// original column `var` the bounds `[lo, hi]`. `false` when the node
    /// is infeasible outright: its bounds crossed, or they exclude an
    /// eliminated column's fixed value (the verdicts of
    /// [`Presolve::map_bounds`]).
    pub(crate) fn tighten(&self, bounds: &mut [(f64, f64)], var: usize, lo: f64, hi: f64) -> bool {
        let column = match self.col_fate[var] {
            ColFate::Kept(rc) => rc,
            ColFate::Fixed(v) => return v >= lo - FEAS_TOL && v <= hi + FEAS_TOL,
        };
        let bound = &mut bounds[column];
        bound.0 = bound.0.max(lo);
        bound.1 = bound.1.min(hi);
        bound.0 <= bound.1
    }

    /// The tree numbering's column of original column `var`; `None` when
    /// presolve eliminated it.
    pub(crate) fn tree_column(&self, var: usize) -> Option<usize> {
        match self.col_fate[var] {
            ColFate::Kept(rc) => Some(rc),
            ColFate::Fixed(_) => None,
        }
    }

    /// Maps `basis`, in the original numbering, into the tree numbering;
    /// `used` is scratch. `None` when it cannot be mapped, and a node
    /// holding it would start cold.
    pub(crate) fn tree_basis(&self, basis: &Basis, used: &mut Vec<bool>) -> Option<Basis> {
        let mut mapped = Basis::from_parts(0, 0, Vec::new(), Vec::new(), Vec::new());
        self.map_basis(basis, &mut mapped, used).then_some(mapped)
    }

    /// Solves a node of a tree over the reduced LP in `workspace`, all in
    /// the tree numbering: `bounds` and the warm basis go to the engine as
    /// they are, and the final basis comes back as the engine left it, in a
    /// snapshot the workspace refills when it has a released one
    /// ([`SimplexWorkspace::snapshot`]). Only the values are read out in the
    /// original numbering, into `values`.
    pub(crate) fn solve_node(
        &self,
        bounds: &[(f64, f64)],
        max_iters: usize,
        warm: Warm<'_>,
        workspace: &mut SimplexWorkspace,
        values: &mut Vec<f64>,
    ) -> Result<(LpResult, Option<Rc<Basis>>), SolveError> {
        let engine = &mut workspace.engine;
        let result = solve_in(&self.reduced, bounds, max_iters, warm, engine)?;
        if result.status != LpStatus::Optimal {
            return Ok((result, None));
        }
        self.values(engine, values);
        Ok((result, Some(workspace.snapshot(&self.reduced))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use crate::simplex::{solve_sparse, SimplexWorkspace, SparseLp};

    fn bounds_of(model: &Model) -> Vec<(f64, f64)> {
        model.variables().map(|(_, v)| (v.lower, v.upper)).collect()
    }

    fn continuous(model: &Model) -> Vec<bool> {
        vec![false; model.num_vars()]
    }

    fn solve_both(model: &Model) -> (LpResult, LpResult) {
        let lp = SparseLp::from_model(model);
        let bounds = bounds_of(model);
        let ws = &mut SimplexWorkspace::default();
        let direct = solve_sparse(&lp, &bounds, 10_000, Warm::Cold, ws)
            .expect("direct solve")
            .0;
        let reduced =
            match Presolve::build(&lp, &RowView::of(&lp), &bounds, &continuous(model), true) {
                Some(p) => {
                    p.solve(&bounds, 10_000, Warm::Cold, ws)
                        .expect("presolved solve")
                        .0
                }
                None => LpResult::infeasible_without_pivots(),
            };
        (direct, reduced)
    }

    #[test]
    fn fixed_columns_are_substituted() {
        // x pinned at 4, min y s.t. y - x >= 0 → y = 4. Presolve removes the
        // pinned column and the solve agrees with the direct path.
        let mut m = Model::new("fixed");
        let x = m.add_continuous("x", 4.0, 4.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(y, 1.0)]);
        m.add_ge(&[(y, 1.0), (x, -1.0)], 0.0);
        let lp = SparseLp::from_model(&m);
        let Some(p) = Presolve::build(
            &lp,
            &RowView::of(&lp),
            &bounds_of(&m),
            &continuous(&m),
            true,
        ) else {
            panic!("feasible instance");
        };
        assert_eq!(p.cols_removed(), 1);
        let (direct, reduced) = solve_both(&m);
        assert_eq!(direct.status, LpStatus::Optimal);
        assert_eq!(reduced.status, LpStatus::Optimal);
        assert!((direct.objective - reduced.objective).abs() < 1e-9);
        assert!((reduced.values[0] - 4.0).abs() < 1e-9, "pinned value kept");
        assert!((reduced.values[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn singleton_rows_become_bounds() {
        // x >= 3 and x <= 7 as rows, min x → 3; both rows fold into bounds.
        let mut m = Model::new("singleton");
        let x = m.add_continuous("x", 0.0, 100.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_ge(&[(x, 1.0)], 3.0);
        m.add_le(&[(x, 1.0)], 7.0);
        let lp = SparseLp::from_model(&m);
        let Some(p) = Presolve::build(
            &lp,
            &RowView::of(&lp),
            &bounds_of(&m),
            &continuous(&m),
            true,
        ) else {
            panic!("feasible instance");
        };
        assert_eq!(p.rows_removed(), 2);
        let (direct, reduced) = solve_both(&m);
        assert!((direct.objective - reduced.objective).abs() < 1e-6);
        assert!((reduced.values[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_infeasible_row_is_detected() {
        // Pinning both terms of an equality to violating values leaves an
        // empty row that cannot hold.
        let mut m = Model::new("empty-infeasible");
        let x = m.add_continuous("x", 1.0, 1.0);
        let y = m.add_continuous("y", 1.0, 1.0);
        m.add_eq(&[(x, 1.0), (y, 1.0)], 5.0);
        let lp = SparseLp::from_model(&m);
        assert!(Presolve::build(
            &lp,
            &RowView::of(&lp),
            &bounds_of(&m),
            &continuous(&m),
            true
        )
        .is_none());
        let (direct, _) = solve_both(&m);
        assert_eq!(direct.status, LpStatus::Infeasible);
    }

    #[test]
    fn activity_tightening_agrees_with_direct_solve() {
        // x + y <= 4 with x >= 3 (row) implies y <= 1; maximize y.
        let mut m = Model::new("activity");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Maximize, &[(y, 1.0)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        m.add_ge(&[(x, 1.0)], 3.0);
        let (direct, reduced) = solve_both(&m);
        assert_eq!(direct.status, LpStatus::Optimal);
        assert_eq!(reduced.status, LpStatus::Optimal);
        assert!(
            (direct.objective - reduced.objective).abs() < 1e-6,
            "direct {} vs presolved {}",
            direct.objective,
            reduced.objective
        );
    }

    #[test]
    fn unboundedness_is_preserved() {
        let mut m = Model::new("unbounded");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(Sense::Maximize, &[(x, 1.0)]);
        let (direct, reduced) = solve_both(&m);
        assert_eq!(direct.status, LpStatus::Unbounded);
        assert_eq!(reduced.status, LpStatus::Unbounded);
    }

    #[test]
    fn warm_basis_referencing_eliminated_columns_is_sanitized() {
        // Take a basis from a presolve-free solve (which may mark any column
        // basic), then feed it into a presolved solve whose pin eliminated a
        // column: the mapped warm start must still reach the optimum.
        let mut m = Model::new("stale-warm");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 2.0)]);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 5.0);
        let lp = SparseLp::from_model(&m);
        let bounds = bounds_of(&m);
        let ws = &mut SimplexWorkspace::default();
        let (root, basis) = solve_sparse(&lp, &bounds, 10_000, Warm::Cold, ws).expect("root");
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.expect("optimal basis");

        // Now pin x (the variable the direct solve drove into the basis).
        m.fix_var(x, 2.0);
        let lp2 = SparseLp::from_model(&m);
        let bounds2 = bounds_of(&m);
        let Some(p) = Presolve::build(&lp2, &RowView::of(&lp2), &bounds2, &continuous(&m), true)
        else {
            panic!("feasible instance");
        };
        assert!(p.cols_removed() >= 1);
        for warm in [Warm::Primal(&basis), Warm::Dual(&basis, None, None)] {
            let (res, _) = p.solve(&bounds2, 10_000, warm, ws).expect("warm solve");
            assert_eq!(res.status, LpStatus::Optimal);
            // x = 2 pinned, so y = 3 and the objective is 2 + 6.
            assert!((res.objective - 8.0).abs() < 1e-6, "{}", res.objective);
            assert!((res.values[0] - 2.0).abs() < 1e-9);
            assert!((res.values[1] - 3.0).abs() < 1e-6);
        }
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

    /// A random LP with what presolve takes out — pinned columns, singleton
    /// rows — next to sparse rows of every relation through a point inside
    /// the bounds, so that most are feasible.
    fn reducible_lp(rng: &mut Rng) -> (SparseLp, Vec<(f64, f64)>) {
        let mut m = Model::new("reducible");
        let n = 4 + rng.below(12);
        let mut point = Vec::with_capacity(n);
        let vars: Vec<_> = (0..n)
            .map(|j| {
                let upper = (1 + rng.below(20)) as f64;
                let at = rng.below(upper as usize + 1) as f64;
                point.push(at);
                match rng.below(5) {
                    0 => m.add_continuous(format!("x{j}"), at, at),
                    _ => m.add_continuous(format!("x{j}"), 0.0, upper),
                }
            })
            .collect();
        let cost = |rng: &mut Rng| rng.below(11) as f64 - 5.0;
        let objective: Vec<_> = vars.iter().map(|&v| (v, cost(rng))).collect();
        m.set_objective(Sense::Minimize, &objective);
        for _ in 0..3 + rng.below(15) {
            let terms = if rng.below(4) == 0 {
                1
            } else {
                2 + rng.below(3)
            };
            let row: Vec<_> = (0..terms)
                .map(|_| (rng.below(n), rng.below(7) as f64 - 3.0))
                .filter(|&(_, c)| c != 0.0)
                .collect();
            let activity: f64 = row.iter().map(|&(j, c)| c * point[j]).sum();
            let row: Vec<_> = row.into_iter().map(|(j, c)| (vars[j], c)).collect();
            let slack = rng.below(4) as f64;
            match rng.below(5) {
                0 => m.add_eq(&row, activity),
                1 | 2 => m.add_ge(&row, activity - slack),
                _ => m.add_le(&row, activity + slack),
            };
        }
        let lp = SparseLp::from_model(&m);
        (lp, bounds_of(&m))
    }

    #[test]
    fn mapping_an_unmapped_final_basis_gives_the_engines_basis_back() {
        // What lets a tree's nodes stay in the reduced numbering: the
        // original-space snapshot of an engine's final basis maps back to
        // that basis — statuses, basic order, Devex weights to the bit —
        // after a primal solve and after a dual reoptimization.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let check = |p: &Presolve, ws: &SimplexWorkspace, unmapped: &Basis| {
            let last = ws.engine.snapshot(&p.reduced);
            let mut mapped = Basis::from_parts(0, 0, Vec::new(), Vec::new(), Vec::new());
            assert!(p.map_basis(unmapped, &mut mapped, &mut Vec::new()));
            assert_eq!(mapped.dims(), last.dims());
            let ((status, basic, devex), (status0, basic0, devex0)) =
                (mapped.parts(), last.parts());
            assert_eq!(status, status0, "statuses");
            assert_eq!(basic, basic0, "basic order");
            assert_eq!(bits(devex), bits(devex0), "Devex weights");
        };
        let mut rng = Rng(0x0BA5_15ED);
        let (mut checked, mut reduced, mut reoptimized) = (0, 0, 0);
        for _ in 0..200 {
            let (lp, bounds) = reducible_lp(&mut rng);
            let integral = vec![false; lp.nstruct];
            let Some(p) = Presolve::build(&lp, &RowView::of(&lp), &bounds, &integral, true) else {
                continue;
            };
            let ws = &mut SimplexWorkspace::default();
            let Ok((root, Some(unmapped))) = p.solve(&bounds, 10_000, Warm::Cold, ws) else {
                continue;
            };
            check(&p, ws, &unmapped);
            checked += 1;
            if p.rows_removed() + p.cols_removed() > 0 {
                reduced += 1;
            }
            // Halve one column's upper bound below its optimal value, as a
            // branching does, and reoptimize by the dual simplex.
            let j = rng.below(lp.nstruct);
            let mut child = bounds.clone();
            child[j].1 = (root.values[j] * 0.5).floor().max(child[j].0);
            let warm = Warm::Dual(&unmapped, None, None);
            if let Ok((_, Some(unmapped))) = p.solve(&child, 10_000, warm, ws) {
                check(&p, ws, &unmapped);
                reoptimized += 1;
            }
        }
        assert!(
            checked >= 100 && reduced >= 50 && reoptimized >= 50,
            "{checked} checked, {reduced} reduced, {reoptimized} reoptimized"
        );
    }

    /// The LP of `lp`'s first `nstruct` structural columns and first
    /// `nrows` rows, as `lp` was before it grew.
    fn leading(lp: &SparseLp, nstruct: usize, nrows: usize) -> SparseLp {
        let mut cols = crate::sparse::CscMatrix::new(nrows);
        for j in 0..nstruct {
            let (rows, vals) = lp.cols.column(j);
            let entries: Vec<_> = (rows.iter().zip(vals))
                .filter(|&(&i, _)| i < nrows)
                .map(|(&i, &a)| (i, a))
                .collect();
            cols.push_column(&entries);
        }
        for i in 0..nrows {
            cols.push_column(&[(i, 1.0)]);
        }
        let mut cost = lp.cost[..nstruct].to_vec();
        cost.resize(nstruct + nrows, 0.0);
        SparseLp {
            nrows,
            nstruct,
            cols,
            cost,
            rhs: lp.rhs[..nrows].to_vec(),
            obj_offset: lp.obj_offset,
            logical_lower: lp.logical_lower[..nrows].to_vec(),
            logical_upper: lp.logical_upper[..nrows].to_vec(),
        }
    }

    #[test]
    fn presolve_off_is_the_raw_engine_solve() {
        // Presolve off takes nothing out, and a solve through it is the
        // engine's solve of the raw LP to the bit: counters, objective,
        // values and final basis, from a cold start, a primal start from a
        // snapshot of the LP before it grew, and a dual start from the
        // optimum with one bound tightened.
        let f64_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let compare = |p: &Presolve, lp: &SparseLp, bounds: &[(f64, f64)], warm: &Warm<'_>| {
            let start = || match warm {
                Warm::Cold => Warm::Cold,
                Warm::Primal(b) => Warm::Primal(b),
                Warm::Dual(b, ..) => Warm::Dual(b, None, None),
            };
            let ws = &mut SimplexWorkspace::default();
            let (layered, basis) = p.solve(bounds, 10_000, start(), ws).expect("layered solve");
            let engine = &mut SimplexWorkspace::default().engine;
            let raw = solve_in(lp, bounds, 10_000, start(), engine).expect("raw solve");
            let counts = |r: &LpResult| {
                let counters = (r.iterations, r.lu_factorizations, r.devex_resets);
                (r.status, counters, r.objective.to_bits())
            };
            assert_eq!(
                counts(&layered),
                counts(&raw),
                "status, counters, objective"
            );
            if raw.status != LpStatus::Optimal {
                assert!(basis.is_none());
                return None;
            }
            let mut values = vec![0.0; lp.nstruct];
            engine.structural_values(lp.nstruct, |j, v| values[j] = v);
            assert_eq!(f64_bits(&layered.values), f64_bits(&values), "values");
            let (basis, snapshot) = (basis.expect("optimal basis"), engine.snapshot(lp));
            assert_eq!(basis.dims(), snapshot.dims());
            assert_eq!(
                basis.status_letters(),
                snapshot.status_letters(),
                "statuses"
            );
            assert_eq!(basis.basic(), snapshot.basic(), "basic list");
            assert_eq!(f64_bits(basis.devex()), f64_bits(snapshot.devex()), "Devex");
            Some((layered, basis))
        };
        let mut rng = Rng(0x000F_F5E7);
        let (mut cold, mut grown, mut dual) = (0, 0, 0);
        for _ in 0..200 {
            let (lp, bounds) = reducible_lp(&mut rng);
            let integral = vec![false; lp.nstruct];
            let p = Presolve::build(&lp, &RowView::of(&lp), &bounds, &integral, false)
                .expect("presolve off proves nothing");
            assert_eq!((p.rows_removed(), p.cols_removed()), (0, 0));
            cold += 1;
            let Some((root, basis)) = compare(&p, &lp, &bounds, &Warm::Cold) else {
                continue;
            };
            // A snapshot of the LP before its last column and rows.
            let (s0, r0) = (lp.nstruct - 1, lp.nrows - 1 - rng.below(lp.nrows.min(3)));
            let small = leading(&lp, s0, r0);
            let ws = &mut SimplexWorkspace::default();
            if let Ok((_, Some(before))) =
                solve_sparse(&small, &bounds[..s0], 10_000, Warm::Cold, ws)
            {
                compare(&p, &lp, &bounds, &Warm::Primal(&before));
                grown += 1;
            }
            // Halve one column's upper bound below its optimal value, as a
            // branching does.
            let j = rng.below(lp.nstruct);
            let mut child = bounds.clone();
            child[j].1 = (root.values[j] * 0.5).floor().max(child[j].0);
            compare(&p, &lp, &child, &Warm::Dual(&basis, None, None));
            dual += 1;
        }
        assert!(
            cold == 200 && grown >= 100 && dual >= 150,
            "{cold} cold, {grown} grown, {dual} dual"
        );
    }

    #[test]
    fn node_bounds_excluding_a_fixed_value_are_infeasible() {
        let mut m = Model::new("node-clash");
        let x = m.add_continuous("x", 2.5, 2.5);
        m.add_ge(&[(x, 1.0)], 0.0);
        let lp = SparseLp::from_model(&m);
        let Some(p) = Presolve::build(
            &lp,
            &RowView::of(&lp),
            &bounds_of(&m),
            &continuous(&m),
            true,
        ) else {
            panic!("feasible instance");
        };
        // A branch-style child bound [3, 10] excludes the pinned 2.5.
        let ws = &mut SimplexWorkspace::default();
        let (res, basis) = p
            .solve(&[(3.0, 10.0)], 10_000, Warm::Cold, ws)
            .expect("solve");
        assert_eq!(res.status, LpStatus::Infeasible);
        assert!(basis.is_none());
    }
}
