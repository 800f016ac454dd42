//! Dense two-phase tableau simplex — the *reference oracle* for the sparse
//! revised simplex in [`crate::simplex`].
//!
//! This is the solver the crate shipped before the revised simplex landed: an
//! explicit Gauss-Jordan tableau over a standard-form expansion (shifted /
//! negated / split variables, slack + artificial columns). It is kept only to
//! cross-check the production solver — the agreement tests sweep both solvers
//! over the same instances and assert identical status and objective — and is
//! compiled solely under `cfg(test)` or the `dense-reference` feature (the
//! benchmarks enable the feature to report dense-vs-sparse pivot counts).

use crate::error::SolveError;
use crate::model::{ConstraintOp, Model};
use crate::simplex::{LpResult, LpStatus};

/// Numerical tolerance used for pivoting and feasibility decisions.
const EPS: f64 = 1e-9;
/// Number of non-improving iterations after which Bland's rule is enabled.
const STALL_LIMIT: usize = 200;

/// How an original model variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy)]
enum ColMap {
    /// `x = lower + y`, `y ≥ 0` stored in column `col`.
    Shifted { col: usize, lower: f64 },
    /// `x = upper − y`, `y ≥ 0` stored in column `col` (lower bound is −∞).
    Negated { col: usize, upper: f64 },
    /// `x = y⁺ − y⁻` for a free variable.
    Free { pos: usize, neg: usize },
}

/// A row of the standard-form problem before slack/artificial augmentation.
#[derive(Debug, Clone)]
struct StdRow {
    coeffs: Vec<(usize, f64)>,
    op: ConstraintOp,
    rhs: f64,
}

/// Standard-form representation of an LP.
#[derive(Debug, Clone)]
struct StandardForm {
    mapping: Vec<ColMap>,
    num_structural: usize,
    rows: Vec<StdRow>,
    objective: Vec<f64>,
    objective_offset: f64,
}

/// Side-by-side outcome of pricing one model's LP relaxation through the
/// dense reference tableau *and* the production sparse revised simplex.
///
/// This is the oracle hook the differential/agreement harnesses consume:
/// build it with [`compare_relaxations`], then assert
/// [`OracleComparison::agree_on_feasibility`] and, when both solvers report
/// optimality, a small [`OracleComparison::objective_gap`].
#[derive(Debug, Clone)]
pub struct OracleComparison {
    /// Status reported by the dense tableau.
    pub dense_status: LpStatus,
    /// Status reported by the sparse revised simplex.
    pub sparse_status: crate::Status,
    /// Dense objective, converted to the model's user-facing objective sense
    /// (the raw tableau works in the internal minimization form).
    pub dense_objective: f64,
    /// Sparse objective (already in the user-facing sense).
    pub sparse_objective: f64,
    /// Pivot count of the dense solve.
    pub dense_pivots: usize,
    /// Pivot count of the sparse solve.
    pub sparse_pivots: usize,
}

impl OracleComparison {
    /// `true` iff both solvers agree on whether the relaxation is optimal.
    pub fn agree_on_feasibility(&self) -> bool {
        self.both_optimal()
            || (self.dense_status != LpStatus::Optimal
                && self.sparse_status != crate::Status::Optimal)
    }

    /// `true` iff both solvers found an optimal point.
    pub fn both_optimal(&self) -> bool {
        self.dense_status == LpStatus::Optimal && self.sparse_status == crate::Status::Optimal
    }

    /// Absolute objective disagreement; `0.0` unless both solves are optimal.
    pub fn objective_gap(&self) -> f64 {
        if self.both_optimal() {
            (self.dense_objective - self.sparse_objective).abs()
        } else {
            0.0
        }
    }
}

/// Solves the LP relaxation of `model` with both the dense reference oracle
/// and the production sparse simplex and reports the two outcomes side by
/// side (statuses, user-sense objectives, pivot counts).
///
/// # Errors
///
/// Returns the first [`SolveError`] raised by either solver (typically an
/// exhausted pivot budget).
pub fn compare_relaxations(model: &Model) -> Result<OracleComparison, SolveError> {
    let bounds: Vec<(f64, f64)> = model.variables().map(|(_, v)| (v.lower, v.upper)).collect();
    let dense = solve_lp_dense(model, &bounds)?;
    let sparse = model.solve_relaxation()?;
    let (_, sense) = model.objective();
    let dense_objective = match sense {
        crate::Sense::Minimize => dense.objective,
        crate::Sense::Maximize => -dense.objective,
    };
    Ok(OracleComparison {
        dense_status: dense.status,
        sparse_status: sparse.status,
        dense_objective,
        sparse_objective: sparse.objective,
        dense_pivots: dense.iterations,
        sparse_pivots: sparse.simplex_iterations,
    })
}

/// Solves the LP relaxation of `model` with the dense reference tableau,
/// using the same bound-override convention as
/// [`crate::simplex::solve_lp`].
///
/// # Errors
///
/// Returns [`SolveError::IterationLimitReached`] if the pivot budget from the
/// model's [`crate::SolveParams`] is exhausted.
pub fn solve_lp_dense(model: &Model, bounds: &[(f64, f64)]) -> Result<LpResult, SolveError> {
    debug_assert_eq!(bounds.len(), model.num_vars());

    // A bound pair with lower > upper makes the subproblem trivially infeasible.
    if bounds.iter().any(|(l, u)| l > u) {
        return Ok(LpResult::infeasible_without_pivots());
    }

    let std = build_standard_form(model, bounds);
    let max_iters = model.params().max_simplex_iterations;
    let mut tableau = Tableau::new(&std);
    tableau.run_two_phase(&std, max_iters)
}

/// Converts the model plus bound overrides into standard form.
fn build_standard_form(model: &Model, bounds: &[(f64, f64)]) -> StandardForm {
    let mut mapping = Vec::with_capacity(model.num_vars());
    let mut next_col = 0usize;
    let mut extra_rows: Vec<StdRow> = Vec::new();

    for (_, (lower, upper)) in model.variables().zip(bounds.iter().copied()) {
        if lower.is_finite() {
            let col = next_col;
            next_col += 1;
            mapping.push(ColMap::Shifted { col, lower });
            if upper.is_finite() {
                extra_rows.push(StdRow {
                    coeffs: vec![(col, 1.0)],
                    op: ConstraintOp::Le,
                    rhs: upper - lower,
                });
            }
        } else if upper.is_finite() {
            let col = next_col;
            next_col += 1;
            mapping.push(ColMap::Negated { col, upper });
        } else {
            let pos = next_col;
            let neg = next_col + 1;
            next_col += 2;
            mapping.push(ColMap::Free { pos, neg });
        }
    }

    let num_structural = next_col;

    // Objective in standard columns.
    let mut objective = vec![0.0; num_structural];
    let mut objective_offset = 0.0;
    let min_obj = model.minimization_objective();
    for (var, coeff) in min_obj.iter() {
        match mapping[var.index()] {
            ColMap::Shifted { col, lower } => {
                objective[col] += coeff;
                objective_offset += coeff * lower;
            }
            ColMap::Negated { col, upper } => {
                objective[col] -= coeff;
                objective_offset += coeff * upper;
            }
            ColMap::Free { pos, neg } => {
                objective[pos] += coeff;
                objective[neg] -= coeff;
            }
        }
    }
    objective_offset += min_obj.constant_term();

    // Constraint rows in standard columns.
    let mut rows = Vec::with_capacity(model.num_constraints() + extra_rows.len());
    for c in model.constraints() {
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.expr.len());
        let mut rhs = c.rhs;
        let mut dense = vec![0.0; num_structural];
        for (var, coeff) in c.expr.iter() {
            match mapping[var.index()] {
                ColMap::Shifted { col, lower } => {
                    dense[col] += coeff;
                    rhs -= coeff * lower;
                }
                ColMap::Negated { col, upper } => {
                    dense[col] -= coeff;
                    rhs -= coeff * upper;
                }
                ColMap::Free { pos, neg } => {
                    dense[pos] += coeff;
                    dense[neg] -= coeff;
                }
            }
        }
        for (j, v) in dense.into_iter().enumerate() {
            if v.abs() > 0.0 {
                coeffs.push((j, v));
            }
        }
        rows.push(StdRow {
            coeffs,
            op: c.op,
            rhs,
        });
    }
    rows.extend(extra_rows);

    StandardForm {
        mapping,
        num_structural,
        rows,
        objective,
        objective_offset,
    }
}

/// Full-tableau simplex state.
struct Tableau {
    /// `rows × (num_cols + 1)`; the last column is the right-hand side.
    rows: Vec<Vec<f64>>,
    /// Objective row (reduced costs); last entry is `-objective_value`.
    obj: Vec<f64>,
    /// Basic column for each row.
    basis: Vec<usize>,
    /// Total number of columns (structural + slack/surplus + artificial).
    num_cols: usize,
    /// Columns `>= artificial_start` are artificial.
    artificial_start: usize,
    /// Number of structural columns.
    num_structural: usize,
    /// Pivot counter.
    iterations: usize,
}

impl Tableau {
    fn new(std: &StandardForm) -> Self {
        let m = std.rows.len();

        // Count slack/surplus and artificial columns.
        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        for row in &std.rows {
            let rhs_negative = row.rhs < 0.0;
            let op = effective_op(row.op, rhs_negative);
            match op {
                ConstraintOp::Le => num_slack += 1,
                ConstraintOp::Ge => {
                    num_slack += 1;
                    num_artificial += 1;
                }
                ConstraintOp::Eq => num_artificial += 1,
            }
        }

        let slack_start = std.num_structural;
        let artificial_start = slack_start + num_slack;
        let num_cols = artificial_start + num_artificial;

        let mut rows = vec![vec![0.0; num_cols + 1]; m];
        let mut basis = vec![0usize; m];
        let mut next_slack = slack_start;
        let mut next_artificial = artificial_start;

        for (i, row) in std.rows.iter().enumerate() {
            let sign = if row.rhs < 0.0 { -1.0 } else { 1.0 };
            for &(j, v) in &row.coeffs {
                rows[i][j] = sign * v;
            }
            rows[i][num_cols] = sign * row.rhs;
            let op = effective_op(row.op, row.rhs < 0.0);
            match op {
                ConstraintOp::Le => {
                    rows[i][next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                ConstraintOp::Ge => {
                    rows[i][next_slack] = -1.0;
                    next_slack += 1;
                    rows[i][next_artificial] = 1.0;
                    basis[i] = next_artificial;
                    next_artificial += 1;
                }
                ConstraintOp::Eq => {
                    rows[i][next_artificial] = 1.0;
                    basis[i] = next_artificial;
                    next_artificial += 1;
                }
            }
        }

        Tableau {
            rows,
            obj: vec![0.0; num_cols + 1],
            basis,
            num_cols,
            artificial_start,
            num_structural: std.num_structural,
            iterations: 0,
        }
    }

    /// Runs phase 1 and phase 2, returning the result in original variables.
    fn run_two_phase(
        &mut self,
        std: &StandardForm,
        max_iters: usize,
    ) -> Result<LpResult, SolveError> {
        // ---- Phase 1: minimize the sum of artificial variables. ----
        let phase1_costs: Vec<f64> = (0..self.num_cols)
            .map(|j| if j >= self.artificial_start { 1.0 } else { 0.0 })
            .collect();
        self.install_objective(&phase1_costs);
        let status = self.optimize(max_iters, true)?;
        debug_assert_ne!(status, LpStatus::Unbounded, "phase 1 is bounded below by 0");
        let phase1_value = -self.obj[self.num_cols];
        if phase1_value > 1e-6 {
            return Ok(LpResult {
                status: LpStatus::Infeasible,
                objective: f64::INFINITY,
                values: Vec::new(),
                iterations: self.iterations,
                devex_resets: 0,
                candidate_list_size: 0,
                lu_factorizations: 0,
            });
        }
        self.drive_out_artificials();

        // ---- Phase 2: minimize the user objective. ----
        let mut phase2_costs = vec![0.0; self.num_cols];
        phase2_costs[..std.num_structural].copy_from_slice(&std.objective);
        self.install_objective(&phase2_costs);
        let status = self.optimize(max_iters, false)?;
        if status == LpStatus::Unbounded {
            return Ok(LpResult {
                status: LpStatus::Unbounded,
                objective: f64::NEG_INFINITY,
                values: Vec::new(),
                iterations: self.iterations,
                devex_resets: 0,
                candidate_list_size: 0,
                lu_factorizations: 0,
            });
        }

        // Extract structural values, then map back to original variables.
        let mut structural = vec![0.0; self.num_structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.num_structural {
                structural[b] = self.rows[i][self.num_cols];
            }
        }
        let values = std
            .mapping
            .iter()
            .map(|map| match *map {
                ColMap::Shifted { col, lower } => lower + structural[col],
                ColMap::Negated { col, upper } => upper - structural[col],
                ColMap::Free { pos, neg } => structural[pos] - structural[neg],
            })
            .collect();
        let objective = -self.obj[self.num_cols] + std.objective_offset;

        Ok(LpResult {
            status: LpStatus::Optimal,
            objective,
            values,
            iterations: self.iterations,
            devex_resets: 0,
            candidate_list_size: 0,
            lu_factorizations: 0,
        })
    }

    /// Installs a cost vector and prices out the current basis.
    fn install_objective(&mut self, costs: &[f64]) {
        self.obj = vec![0.0; self.num_cols + 1];
        self.obj[..self.num_cols].copy_from_slice(costs);
        for i in 0..self.rows.len() {
            let c_b = costs[self.basis[i]];
            if c_b != 0.0 {
                for j in 0..=self.num_cols {
                    self.obj[j] -= c_b * self.rows[i][j];
                }
            }
        }
    }

    /// Pivots until optimality, unboundedness or the iteration budget.
    fn optimize(&mut self, max_iters: usize, phase1: bool) -> Result<LpStatus, SolveError> {
        let mut stall = 0usize;
        let mut last_obj = -self.obj[self.num_cols];
        loop {
            if self.iterations >= max_iters {
                return Err(SolveError::IterationLimitReached {
                    iterations: self.iterations,
                });
            }
            let use_bland = stall > STALL_LIMIT;
            let entering = self.choose_entering(phase1, use_bland);
            let Some(entering) = entering else {
                return Ok(LpStatus::Optimal);
            };
            let Some(leaving_row) = self.choose_leaving(entering) else {
                return Ok(LpStatus::Unbounded);
            };
            self.pivot(leaving_row, entering);
            self.iterations += 1;

            let obj = -self.obj[self.num_cols];
            if obj < last_obj - EPS {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
        }
    }

    /// Selects the entering column (negative reduced cost), or `None` if optimal.
    ///
    /// In phase 2 (`phase1 == false`) artificial columns never enter the basis.
    fn choose_entering(&self, phase1: bool, bland: bool) -> Option<usize> {
        let limit = if phase1 {
            self.num_cols
        } else {
            self.artificial_start
        };
        if bland {
            (0..limit).find(|&j| self.obj[j] < -EPS)
        } else {
            let mut best = None;
            let mut best_val = -EPS;
            for j in 0..limit {
                if self.obj[j] < best_val {
                    best_val = self.obj[j];
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Minimum-ratio test; ties broken by smallest basic column index
    /// (lexicographic safeguard compatible with Bland's rule).
    fn choose_leaving(&self, entering: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.rows.len() {
            let a = self.rows[i][entering];
            if a > EPS {
                let ratio = self.rows[i][self.num_cols] / a;
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < br - EPS || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                        {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Gauss-Jordan pivot on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.rows[row][col];
        debug_assert!(pivot_val.abs() > EPS);
        for v in self.rows[row].iter_mut() {
            *v /= pivot_val;
        }
        for i in 0..self.rows.len() {
            if i != row {
                let factor = self.rows[i][col];
                if factor.abs() > EPS {
                    for j in 0..=self.num_cols {
                        self.rows[i][j] -= factor * self.rows[row][j];
                    }
                }
            }
        }
        let factor = self.obj[col];
        if factor.abs() > EPS {
            for j in 0..=self.num_cols {
                self.obj[j] -= factor * self.rows[row][j];
            }
        }
        self.basis[row] = col;
    }

    /// After phase 1, pivots basic artificial variables (at value zero) out of
    /// the basis wherever a non-artificial pivot element exists.
    fn drive_out_artificials(&mut self) {
        for i in 0..self.rows.len() {
            if self.basis[i] >= self.artificial_start {
                if let Some(col) = (0..self.artificial_start).find(|&j| self.rows[i][j].abs() > EPS)
                {
                    self.pivot(i, col);
                    self.iterations += 1;
                }
                // If no pivot element exists the row is redundant; the
                // artificial stays basic at value zero, which is harmless
                // because artificial columns never re-enter in phase 2.
            }
        }
    }
}

/// Flips the relational operator when a row is multiplied by −1 to make its
/// right-hand side non-negative.
fn effective_op(op: ConstraintOp, rhs_negative: bool) -> ConstraintOp {
    if !rhs_negative {
        return op;
    }
    match op {
        ConstraintOp::Le => ConstraintOp::Ge,
        ConstraintOp::Ge => ConstraintOp::Le,
        ConstraintOp::Eq => ConstraintOp::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarKind};
    use crate::simplex::{solve_lp, SimplexWorkspace};

    fn both(model: &Model) -> (LpResult, LpResult) {
        let bounds: Vec<(f64, f64)> = model.variables().map(|(_, v)| (v.lower, v.upper)).collect();
        let dense = solve_lp_dense(model, &bounds).expect("dense solve");
        let sparse =
            solve_lp(model, &bounds, &mut SimplexWorkspace::default()).expect("sparse solve");
        (dense, sparse)
    }

    /// Sparse and dense must agree on status and (when optimal) objective.
    fn assert_agree(model: &Model) {
        let (dense, sparse) = both(model);
        assert_eq!(
            dense.status,
            sparse.status,
            "status disagreement on `{}`",
            model.name()
        );
        if dense.status == LpStatus::Optimal {
            assert!(
                (dense.objective - sparse.objective).abs() < 1e-6,
                "objective disagreement on `{}`: dense {} vs sparse {}",
                model.name(),
                dense.objective,
                sparse.objective
            );
        }
    }

    #[test]
    fn agreement_on_basic_shapes() {
        // max with ≤ rows.
        let mut m = Model::new("shape-le");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(Sense::Maximize, &[(x, 3.0), (y, 2.0)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        m.add_le(&[(x, 1.0), (y, 3.0)], 6.0);
        assert_agree(&m);

        // min with = and ≥ rows.
        let mut m = Model::new("shape-eq-ge");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 1.0)]);
        m.add_eq(&[(x, 1.0), (y, 1.0)], 10.0);
        m.add_ge(&[(x, 1.0)], 3.0);
        assert_agree(&m);

        // Infeasible.
        let mut m = Model::new("shape-infeasible");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_ge(&[(x, 1.0)], 5.0);
        assert_agree(&m);

        // Free variable and negative bounds.
        let mut m = Model::new("shape-free");
        let x = m.add_continuous("x", -5.0, 5.0);
        let y = m.add_continuous("y", f64::NEG_INFINITY, f64::INFINITY);
        m.set_objective(Sense::Minimize, &[(y, 1.0)]);
        m.add_eq(&[(y, 1.0), (x, -1.0)], -7.0);
        m.add_ge(&[(x, 1.0)], -3.0);
        assert_agree(&m);
    }

    #[test]
    fn agreement_on_deterministic_sweep() {
        // A deterministic family of LPs with mixed row types, fixed and free
        // variables: an exhaustive mini-sweep standing in for a property test
        // (the workspace has no proptest dependency).
        for seed in 0u64..40 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move || {
                // SplitMix64 step, mapped to [-5, 5] with one decimal digit.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z % 101) as i64 - 50) as f64 / 10.0
            };
            let mut m = Model::new(format!("sweep-{seed}"));
            let nvars = 2 + (seed % 3) as usize;
            let mut vars = Vec::new();
            for v in 0..nvars {
                let lo = next();
                let hi = lo + next().abs();
                let (lo, hi) = match seed % 4 {
                    0 => (lo, hi),
                    1 => (lo, f64::INFINITY),
                    2 => (f64::NEG_INFINITY, hi),
                    _ => (lo, lo + ((v % 2) as f64) * (hi - lo)), // some fixed
                };
                vars.push(m.add_continuous(format!("v{v}"), lo, hi));
            }
            let obj: Vec<(crate::VarId, f64)> = vars.iter().map(|&v| (v, next())).collect();
            let sense = if seed % 2 == 0 {
                Sense::Minimize
            } else {
                Sense::Maximize
            };
            m.set_objective(sense, &obj);
            for c in 0..2 + (seed % 2) as usize {
                let terms: Vec<(crate::VarId, f64)> = vars.iter().map(|&v| (v, next())).collect();
                let rhs = next() * 2.0;
                match (seed + c as u64) % 3 {
                    0 => m.add_le(&terms, rhs),
                    1 => m.add_ge(&terms, rhs),
                    _ => m.add_eq(&terms, rhs),
                };
            }
            // Unbounded outcomes are legitimate; agreement still must hold.
            assert_agree(&m);
        }
    }

    #[test]
    fn agreement_on_milp_relaxations() {
        // The relaxation of a small knapsack, solved at several bound
        // overrides a branch-and-bound search would generate.
        let mut m = Model::new("knapsack-relax");
        let a = m.add_var("a", VarKind::Binary, 0.0, 1.0);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0);
        let c = m.add_var("c", VarKind::Binary, 0.0, 1.0);
        m.set_objective(Sense::Maximize, &[(a, 10.0), (b, 13.0), (c, 7.0)]);
        m.add_le(&[(a, 3.0), (b, 4.0), (c, 2.0)], 6.0);
        for &fix_a in &[None, Some(0.0), Some(1.0)] {
            for &fix_b in &[None, Some(0.0), Some(1.0)] {
                let bounds: Vec<(f64, f64)> = [fix_a, fix_b, None]
                    .iter()
                    .map(|f| f.map_or((0.0, 1.0), |v| (v, v)))
                    .collect();
                let dense = solve_lp_dense(&m, &bounds).expect("dense");
                let sparse =
                    solve_lp(&m, &bounds, &mut SimplexWorkspace::default()).expect("sparse");
                assert_eq!(dense.status, sparse.status, "bounds {bounds:?}");
                if dense.status == LpStatus::Optimal {
                    assert!(
                        (dense.objective - sparse.objective).abs() < 1e-6,
                        "bounds {bounds:?}: dense {} vs sparse {}",
                        dense.objective,
                        sparse.objective
                    );
                }
            }
        }
    }

    #[test]
    fn compare_relaxations_reports_user_sense_objectives() {
        // Maximization: the raw tableau minimizes, so the hook must negate.
        let mut m = Model::new("max");
        let x = m.add_var("x", VarKind::Continuous, 0.0, 4.0);
        m.set_objective(Sense::Maximize, &[(x, 2.0)]);
        m.add_le(&[(x, 1.0)], 3.0);
        let cmp = compare_relaxations(&m).expect("both solve");
        assert!(cmp.both_optimal() && cmp.agree_on_feasibility());
        assert!((cmp.dense_objective - 6.0).abs() < 1e-9);
        assert!(cmp.objective_gap() < 1e-9);
    }

    #[test]
    fn compare_relaxations_agrees_on_infeasibility() {
        let mut m = Model::new("infeasible");
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_le(&[(x, -1.0)], -5.0); // x >= 5 contradicts x <= 1
        let cmp = compare_relaxations(&m).expect("both solve");
        assert!(!cmp.both_optimal());
        assert!(cmp.agree_on_feasibility());
        assert_eq!(cmp.objective_gap(), 0.0);
    }
}
