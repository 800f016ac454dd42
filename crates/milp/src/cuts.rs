//! Root cutting planes: Gomory mixed-integer cuts.
//!
//! Branch-and-bound calls [`Separator::separate_round`] on the optimal basis of the root
//! relaxation. It derives **Gomory mixed-integer (GMI) cuts** from tableau
//! rows whose basic variable is integral but fractional. The derivation
//! works on the exact row identity `x_k + Σ α_j x_j = β_r` (`α = B⁻¹A`,
//! valid for *every* feasible point, not just the current vertex), shifts
//! each nonbasic column to its bound and applies the standard GMI
//! coefficient map, so a cut is valid even when the warm-started basis is
//! slightly stale — a stale basis merely produces an unviolated cut, which
//! the pool filters out.
//!
//! Accepted cuts live in a [`CutPool`] which enforces a minimum violation, a
//! maximum pairwise parallelism, and purges cuts that stayed slack at the
//! root optimum for consecutive separation rounds (age-based purging); the
//! purge says which cuts it kept, so the next round can take the purged
//! rows out of its warm-start basis. [`lp_with_cuts`] materializes the base
//! equality form plus the active pool as a fresh [`SparseLp`] (each cut is
//! one extra `≤` row with its own logical column), and its [`RowView`] as
//! the base LP's plus the cut rows, which the tree then solves at every
//! node.
//!
//! Every cut right-hand side is relaxed by a tiny epsilon before it is
//! emitted: the relaxed cut is still valid for every integer point, and the
//! slack absorbs the floating-point error of the derivation, so the
//! cuts-on/cuts-off differential parity never hinges on the last ulp.

use crate::simplex::{Basis, RowView, SparseLp, VarStatus};
use crate::sparse::{BasisFactor, CscMatrix};

/// Fractional parts closer than this to the lattice produce no GMI cut.
const MIN_FRACTIONALITY: f64 = 5e-3;
/// Minimum relative violation (normalized by the coefficient norm) a cut
/// must achieve at the separating point to enter the pool.
const MIN_VIOLATION: f64 = 1e-6;
/// Cosine similarity above which two cuts are considered parallel.
const MAX_PARALLELISM: f64 = 0.999;
/// Largest accepted ratio between the extreme coefficient magnitudes.
const MAX_DYNAMISM: f64 = 1e7;
/// Largest accepted coefficient magnitude.
const MAX_COEFF: f64 = 1e8;
/// Consecutive root re-solves a cut may stay slack before it is purged.
const MAX_SLACK_AGE: usize = 2;
/// Most-fractional tableau rows considered per GMI separation round.
const MAX_GOMORY_PER_ROUND: usize = 16;
/// Coefficients below this are folded into the right-hand side (with a
/// bound-range relaxation keeping the cut valid) instead of kept.
const DROP_COEFF: f64 = 1e-11;
/// Relative epsilon by which every emitted cut's right-hand side is relaxed.
const RHS_RELAX: f64 = 1e-9;

/// A globally valid inequality `Σ coeffs·x ≤ rhs` over the structural
/// variables (valid for every integer-feasible point of the model).
#[derive(Debug, Clone)]
pub(crate) struct Cut {
    /// Sparse coefficients as `(structural column, coefficient)` pairs,
    /// sorted by column.
    pub(crate) coeffs: Vec<(usize, f64)>,
    /// Right-hand side of the `≤` relation.
    pub(crate) rhs: f64,
}

impl Cut {
    /// Left-hand-side activity at `x` (structural values).
    fn activity(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().map(|&(j, c)| c * x[j]).sum()
    }

    /// Euclidean norm of the coefficient vector.
    fn norm(&self) -> f64 {
        self.coeffs
            .iter()
            .map(|&(_, c)| c * c)
            .sum::<f64>()
            .sqrt()
            .max(f64::MIN_POSITIVE)
    }

    /// Violation at `x`, normalized by the coefficient norm (positive when
    /// the cut separates `x`).
    pub(crate) fn violation(&self, x: &[f64]) -> f64 {
        (self.activity(x) - self.rhs) / self.norm()
    }

    /// Cosine similarity with another cut (1 = parallel).
    fn parallelism(&self, other: &Cut) -> f64 {
        let mut dot = 0.0;
        let mut i = 0;
        let mut k = 0;
        while i < self.coeffs.len() && k < other.coeffs.len() {
            let (ja, ca) = self.coeffs[i];
            let (jb, cb) = other.coeffs[k];
            match ja.cmp(&jb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => k += 1,
                std::cmp::Ordering::Equal => {
                    dot += ca * cb;
                    i += 1;
                    k += 1;
                }
            }
        }
        (dot / (self.norm() * other.norm())).abs()
    }

    /// Structural sanity of the coefficient vector: bounded magnitude and
    /// bounded dynamism.
    fn well_scaled(&self) -> bool {
        if self.coeffs.is_empty() {
            return false;
        }
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for &(_, c) in &self.coeffs {
            lo = lo.min(c.abs());
            hi = hi.max(c.abs());
        }
        hi <= MAX_COEFF && hi / lo <= MAX_DYNAMISM
    }
}

/// One pooled cut with its slack age.
#[derive(Debug, Clone)]
struct PooledCut {
    cut: Cut,
    /// Consecutive root re-solves at which the cut was not tight.
    slack_age: usize,
}

/// The active cut pool of one branch-and-bound tree.
#[derive(Debug, Default)]
pub(crate) struct CutPool {
    active: Vec<PooledCut>,
}

impl CutPool {
    pub(crate) fn new() -> Self {
        CutPool { active: Vec::new() }
    }

    /// Number of active cuts.
    pub(crate) fn len(&self) -> usize {
        self.active.len()
    }

    /// Active cuts in pool order.
    pub(crate) fn cuts(&self) -> impl Iterator<Item = &Cut> {
        self.active.iter().map(|p| &p.cut)
    }

    /// Runs a candidate through the violation and parallelism filters and
    /// adopts it when both pass. Returns `true` if the cut was adopted.
    pub(crate) fn try_add(&mut self, cut: Cut, x: &[f64]) -> bool {
        if !cut.well_scaled() || cut.violation(x) < MIN_VIOLATION {
            return false;
        }
        if self
            .active
            .iter()
            .any(|p| p.cut.parallelism(&cut) > MAX_PARALLELISM)
        {
            return false;
        }
        self.active.push(PooledCut { cut, slack_age: 0 });
        true
    }

    /// Ages every active cut against the latest root optimum and purges the
    /// ones that stayed slack for more than [`MAX_SLACK_AGE`] consecutive
    /// re-solves. Returns, for every cut active before, whether it was kept.
    pub(crate) fn age_and_purge(&mut self, x: &[f64]) -> Vec<bool> {
        let kept: Vec<bool> = (self.active.iter_mut())
            .map(|p| {
                let slack = p.cut.rhs - p.cut.activity(x);
                if slack > 1e-7 * p.cut.rhs.abs().max(1.0) {
                    p.slack_age += 1;
                } else {
                    p.slack_age = 0;
                }
                p.slack_age <= MAX_SLACK_AGE
            })
            .collect();
        let mut verdicts = kept.iter();
        self.active.retain(|_| verdicts.next() == Some(&true));
        kept
    }

    /// Drops the cuts adopted after the first `len`.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.active.truncate(len);
    }
}

/// Materializes `base` plus one `≤` row per cut as a fresh equality-form LP,
/// with its [`RowView`]: `base_rows` with the cut rows appended.
///
/// The cut rows are appended after the base rows; each gets a `[0, ∞)`
/// logical column, zero cost and the cut's right-hand side. Structural
/// bounds are untouched, so the node bound vectors of the tree apply to the
/// extended LP unchanged.
pub(crate) fn lp_with_cuts<'c>(
    base: &SparseLp,
    base_rows: &RowView,
    cuts: impl Iterator<Item = &'c Cut>,
) -> (SparseLp, RowView) {
    let nstruct = base.nstruct;
    let mut rows = base_rows.clone();
    let mut rhs = base.rhs.clone();
    for cut in cuts {
        rows.push_row(&cut.coeffs);
        rhs.push(cut.rhs);
    }
    let nrows = rhs.len();
    let mut logical_lower = base.logical_lower.clone();
    logical_lower.resize(nrows, 0.0);
    let mut logical_upper = base.logical_upper.clone();
    logical_upper.resize(nrows, f64::INFINITY);

    // The cut rows' entries column by column (a counting sort), so that
    // every structural column is its base column followed by its cut
    // entries, rows ascending.
    let mut start = vec![0usize; nstruct + 1];
    for i in base.nrows..nrows {
        for &(j, _) in rows.row(i) {
            start[j + 1] += 1;
        }
    }
    for j in 0..nstruct {
        start[j + 1] += start[j];
    }
    let mut extra = vec![(0, 0.0); start[nstruct]];
    let mut next = start.clone();
    for i in base.nrows..nrows {
        for &(j, c) in rows.row(i) {
            extra[next[j]] = (i, c);
            next[j] += 1;
        }
    }

    let mut cols = CscMatrix::new(nrows);
    let mut column: Vec<(usize, f64)> = Vec::new();
    for j in 0..nstruct {
        let (base_rows, vals) = base.cols.column(j);
        column.clear();
        column.extend(base_rows.iter().copied().zip(vals.iter().copied()));
        column.extend_from_slice(&extra[start[j]..start[j + 1]]);
        cols.push_column(&column);
    }
    for i in 0..nrows {
        cols.push_column(&[(i, 1.0)]);
    }

    let mut cost = base.cost[..nstruct].to_vec();
    cost.resize(nstruct + nrows, 0.0);

    let lp = SparseLp {
        nrows,
        nstruct,
        cols,
        cost,
        rhs,
        obj_offset: base.obj_offset,
        logical_lower,
        logical_upper,
    };
    (lp, rows)
}

/// The buffers of [`Separator::separate_round`], kept from one cut round
/// to the next, in every tree of a mode (the `SimplexWorkspace` owns it):
/// the basis factorization the tableau rows are read through, and the dense
/// and sparse work vectors of the derivation.
#[derive(Debug, Default)]
pub(crate) struct Separator {
    factor: BasisFactor,
    /// β = B⁻¹ b.
    beta: Vec<f64>,
    /// The tableau row being derived from, `ρ = B⁻ᵀ e_r`.
    rho: Vec<f64>,
    /// Full column bounds, structural from the round's bounds, logical
    /// from the LP.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// `(row, basic column, distance of its fractional part from ½)`.
    candidates: Vec<(usize, usize, f64)>,
    gmi: GmiScratch,
}

/// Work vectors of one GMI derivation ([`gmi_from_row`]).
#[derive(Debug, Default)]
struct GmiScratch {
    /// `(column, â, at upper)` of every shifted nonbasic column.
    shifted: Vec<(usize, f64, bool)>,
    /// `(column, γ, at upper)` of every kept GMI term.
    terms: Vec<(usize, f64, bool)>,
    /// The cut over the full column space, before the logicals are
    /// substituted out.
    coeff: Vec<f64>,
}

impl Separator {
    /// Derives one round of candidate GMI cuts from the fractional basic
    /// integer variables of `basis`, the optimal basis of `lp` at the
    /// structural point `values`; `rows` is `lp`'s [`RowView`].
    ///
    /// `bounds` are the structural bounds the relaxation was solved under
    /// (the root bounds of the tree) and `integral` flags the
    /// integer-constrained structural columns. Candidates are returned
    /// unfiltered — the caller runs them through the [`CutPool`]. The basis
    /// factorization the tableau rows are read through is added to
    /// `lu_factorizations`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn separate_round(
        &mut self,
        lp: &SparseLp,
        rows: &RowView,
        bounds: &[(f64, f64)],
        integral: &[bool],
        basis: &Basis,
        values: &[f64],
        lu_factorizations: &mut usize,
    ) -> Vec<Cut> {
        debug_assert_eq!(bounds.len(), lp.nstruct);
        debug_assert_eq!(integral.len(), lp.nstruct);
        let (nstruct, nrows) = (lp.nstruct, lp.nrows);
        if values.len() != nstruct || basis.dims() != (nstruct, nrows) || nrows == 0 {
            return Vec::new();
        }
        let (status, basic, _) = basis.parts();

        let basis_columns = basic.iter().map(|&j| lp.cols.column(j));
        *lu_factorizations += 1;
        if self.factor.refactorize(nrows, basis_columns).is_err() {
            return Vec::new();
        }

        // β = B⁻¹ b, the tableau right-hand side.
        self.beta.clone_from(&lp.rhs);
        self.factor.ftran(&mut self.beta);

        self.lower.clear();
        self.lower.extend(bounds.iter().map(|&(l, _)| l));
        self.lower.extend_from_slice(&lp.logical_lower);
        self.upper.clear();
        self.upper.extend(bounds.iter().map(|&(_, u)| u));
        self.upper.extend_from_slice(&lp.logical_upper);

        // Candidate rows: basic structural integer variable with a usefully
        // fractional value, most fractional first.
        let candidates = &mut self.candidates;
        candidates.clear();
        for (r, &k) in basic.iter().enumerate() {
            if k < nstruct && integral[k] {
                let frac = values[k] - values[k].floor();
                if frac > MIN_FRACTIONALITY && frac < 1.0 - MIN_FRACTIONALITY {
                    candidates.push((r, k, (frac - 0.5).abs()));
                }
            }
        }
        candidates.sort_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        candidates.truncate(MAX_GOMORY_PER_ROUND);

        let mut cuts = Vec::new();
        for &(r, k, _) in candidates.iter() {
            self.rho.clear();
            self.rho.resize(nrows, 0.0);
            self.rho[r] = 1.0;
            self.factor.btran(&mut self.rho);

            if let Some(cut) = gmi_from_row(
                lp,
                &self.lower,
                &self.upper,
                integral,
                status,
                &self.rho,
                self.beta[r],
                values[k],
                rows,
                &mut self.gmi,
            ) {
                cuts.push(cut);
            }
        }
        cuts
    }
}

/// Derives one GMI cut from the tableau row `x_k + Σ α_j x_j = β_r` given by
/// the BTRAN'd unit vector `rho` (`α_j = a_j · ρ`).
///
/// Returns `None` when the row yields no usable cut (tiny fractionality, a
/// nonbasic free column in the support, stale basis, bad scaling).
#[allow(clippy::too_many_arguments)]
fn gmi_from_row(
    lp: &SparseLp,
    lower: &[f64],
    upper: &[f64],
    integral: &[bool],
    status: &[VarStatus],
    rho: &[f64],
    beta_r: f64,
    basic_value: f64,
    rows: &RowView,
    scratch: &mut GmiScratch,
) -> Option<Cut> {
    let nstruct = lp.nstruct;
    let ncols = lp.ncols();
    let GmiScratch {
        shifted,
        terms,
        coeff,
    } = scratch;

    // Shift every nonbasic column to its bound: collect (column, â_j) with
    // â_j the coefficient of the nonnegative shifted variable t_j, and
    // accumulate the bound mass so β̂ = β_r − Σ α_j·bound_j is exact.
    shifted.clear();
    let mut bound_mass = 0.0;
    for j in 0..ncols {
        if status[j] == VarStatus::Basic {
            continue;
        }
        let alpha = lp.cols.column_dot(j, rho);
        if alpha == 0.0 {
            continue;
        }
        // Fixed columns contribute a constant only.
        if lower[j] == upper[j] {
            bound_mass += alpha * lower[j];
            continue;
        }
        match status[j] {
            VarStatus::AtLower => {
                if !lower[j].is_finite() {
                    return None;
                }
                bound_mass += alpha * lower[j];
                shifted.push((j, alpha, false));
            }
            VarStatus::AtUpper => {
                if !upper[j].is_finite() {
                    return None;
                }
                bound_mass += alpha * upper[j];
                shifted.push((j, -alpha, true));
            }
            VarStatus::Free => {
                // A nonbasic free column can move either way; the shifted
                // form needs a one-sided variable, so the row is unusable
                // unless the coefficient is numerically zero.
                if alpha.abs() > 1e-9 {
                    return None;
                }
            }
            VarStatus::Basic => unreachable!("basic columns are skipped above"),
        }
    }

    let beta_hat = beta_r - bound_mass;
    let f0 = beta_hat - beta_hat.floor();
    if !(MIN_FRACTIONALITY..=1.0 - MIN_FRACTIONALITY).contains(&f0) {
        return None;
    }
    // A stale (warm-mapped) basis whose basic solution disagrees with the
    // reported point would still produce a *valid* cut, but its violation is
    // unknown; require consistency so the effort is not wasted.
    if (beta_hat - basic_value).abs() > 1e-6 * basic_value.abs().max(1.0) {
        return None;
    }

    // GMI coefficients on the shifted variables: Σ γ_j t_j ≥ f0.
    let ratio = f0 / (1.0 - f0);
    terms.clear();
    let mut rhs_ge = f0;
    for &(j, a_hat, at_upper) in shifted.iter() {
        // Integrality of t_j needs an integral column shifted by an integral
        // bound; anything else is treated as continuous (always valid).
        let bound = if at_upper { upper[j] } else { lower[j] };
        let is_int = j < nstruct && integral[j] && (bound - bound.round()).abs() < 1e-9;
        let gamma = if is_int {
            let fj = a_hat - a_hat.floor();
            if fj <= f0 {
                fj
            } else {
                ratio * (1.0 - fj)
            }
        } else if a_hat >= 0.0 {
            a_hat
        } else {
            -a_hat * ratio
        };
        if gamma <= DROP_COEFF {
            // Fold the term into the right-hand side: t_j ≤ range, so the
            // relaxed cut Σ γ t ≥ f0 − γ·range stays valid.
            let range = upper[j] - lower[j];
            if range.is_finite() {
                rhs_ge -= gamma * range;
            } else if gamma > 0.0 {
                terms.push((j, gamma, at_upper));
            }
            continue;
        }
        terms.push((j, gamma, at_upper));
    }
    if terms.is_empty() {
        return None;
    }

    // Translate t_j back to x_j: t = x − l (at lower) or u − x (at upper),
    // giving Σ c_j x_j ≥ d over the full column space.
    coeff.clear();
    coeff.resize(ncols, 0.0);
    let mut d = rhs_ge;
    for &(j, gamma, at_upper) in terms.iter() {
        if at_upper {
            coeff[j] -= gamma;
            d -= gamma * upper[j];
        } else {
            coeff[j] += gamma;
            d += gamma * lower[j];
        }
    }

    // Substitute the logical columns out: s_i = rhs_i − Σ a_ip x_p.
    for i in 0..lp.nrows {
        let c = coeff[nstruct + i];
        if c == 0.0 {
            continue;
        }
        d -= c * lp.rhs[i];
        for &(p, a) in rows.row(i) {
            coeff[p] -= c * a;
        }
        coeff[nstruct + i] = 0.0;
    }

    // Flip `≥` to the pool's `≤` orientation and relax the right-hand side.
    let mut out = Vec::new();
    let mut rhs = -d;
    for (j, &c) in coeff.iter().take(nstruct).enumerate() {
        let c = -c;
        if c.abs() <= DROP_COEFF {
            // Dropping c·x_j from the left of a `≤` cut stays valid when the
            // right-hand side gives up the term's minimum over the box:
            // Σ'c·x = Σc·x − c·x_j ≤ rhs − min(c·l, c·u).
            if c != 0.0 {
                let (l, u) = (lower[j], upper[j]);
                if !l.is_finite() || !u.is_finite() {
                    return None;
                }
                rhs -= (c * l).min(c * u);
            }
            continue;
        }
        out.push((j, c));
    }
    rhs += RHS_RELAX * (1.0 + rhs.abs());
    let cut = Cut { coeffs: out, rhs };
    cut.well_scaled().then_some(cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use crate::simplex::{solve_sparse, LpStatus, SimplexWorkspace, Warm};

    /// Everything cut separation needs about a solved root relaxation:
    /// the LP, its bounds, integrality flags, optimal basis and point.
    type RootRelaxation = (SparseLp, Vec<(f64, f64)>, Vec<bool>, Basis, Vec<f64>);

    /// Solves the relaxation of `model` at its integral-snapped root bounds.
    fn root_relaxation(model: &Model) -> RootRelaxation {
        let lp = SparseLp::from_model(model);
        let bounds: Vec<(f64, f64)> = model
            .variables()
            .map(|(_, v)| match v.kind {
                k if k.is_integral() => (v.lower.ceil(), v.upper.floor()),
                _ => (v.lower, v.upper),
            })
            .collect();
        let integral: Vec<bool> = model
            .variables()
            .map(|(_, v)| v.kind.is_integral())
            .collect();
        let ws = &mut SimplexWorkspace::default();
        let (res, basis) = solve_sparse(&lp, &bounds, 10_000, Warm::Cold, ws).expect("solve");
        assert_eq!(res.status, LpStatus::Optimal);
        (lp, bounds, integral, basis.expect("basis"), res.values)
    }

    /// Enumerates every integer-feasible point of an all-integral model with
    /// small finite bounds (test fixtures only).
    fn integer_feasible_points(model: &Model) -> Vec<Vec<f64>> {
        let ranges: Vec<(i64, i64)> = model
            .variables()
            .map(|(_, v)| (v.lower.ceil() as i64, v.upper.floor() as i64))
            .collect();
        let mut points = vec![Vec::new()];
        for &(lo, hi) in &ranges {
            let mut next = Vec::new();
            for p in &points {
                for v in lo..=hi {
                    let mut q = p.clone();
                    q.push(v as f64);
                    next.push(q);
                }
            }
            points = next;
        }
        points
            .into_iter()
            .filter(|p| {
                model.constraints().all(|c| {
                    let lhs: f64 = c.expr.iter().map(|(var, co)| co * p[var.index()]).sum();
                    match c.op {
                        crate::model::ConstraintOp::Le => lhs <= c.rhs + 1e-9,
                        crate::model::ConstraintOp::Ge => lhs >= c.rhs - 1e-9,
                        crate::model::ConstraintOp::Eq => (lhs - c.rhs).abs() <= 1e-9,
                    }
                })
            })
            .collect()
    }

    /// Every cut must separate the fractional point and keep every
    /// integer-feasible point.
    fn assert_cuts_valid(cuts: &[Cut], fractional: &[f64], feasible: &[Vec<f64>]) {
        assert!(!cuts.is_empty(), "expected at least one cut");
        for (i, cut) in cuts.iter().enumerate() {
            assert!(
                cut.violation(fractional) > 0.0,
                "cut {i} not violated by the fractional point: {cut:?}"
            );
            for p in feasible {
                assert!(
                    cut.activity(p) <= cut.rhs + 1e-7,
                    "cut {i} cuts off integer point {p:?}: {cut:?}"
                );
            }
        }
    }

    fn knapsack_fixture() -> Model {
        // max 10a + 13b + 7c  s.t.  3a + 4b + 2c ≤ 6, binaries.
        // LP optimum (1, 0.25, 1) is fractional in b.
        let mut m = Model::new("knapsack");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective(Sense::Maximize, &[(a, 10.0), (b, 13.0), (c, 7.0)]);
        m.add_le(&[(a, 3.0), (b, 4.0), (c, 2.0)], 6.0);
        m
    }

    #[test]
    fn gomory_cuts_separate_fractional_knapsack_vertex() {
        let m = knapsack_fixture();
        let (lp, bounds, integral, basis, values) = root_relaxation(&m);
        let mut factorized = 0;
        let cuts = Separator::default().separate_round(
            &lp,
            &RowView::of(&lp),
            &bounds,
            &integral,
            &basis,
            &values,
            &mut factorized,
        );
        assert_eq!(factorized, 1);
        assert_cuts_valid(&cuts, &values, &integer_feasible_points(&m));
    }

    #[test]
    fn gomory_cut_rounds_up_pure_integer_bound() {
        // min x  s.t. 2x ≥ 3, x integer in [0, 10]: relaxation sits at 1.5,
        // the GMI cut must enforce x ≥ 2.
        let mut m = Model::new("halfint");
        let x = m.add_integer("x", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_ge(&[(x, 2.0)], 3.0);
        let (lp, bounds, integral, basis, values) = root_relaxation(&m);
        assert!((values[0] - 1.5).abs() < 1e-9);
        let rows = RowView::of(&lp);
        let cuts = Separator::default()
            .separate_round(&lp, &rows, &bounds, &integral, &basis, &values, &mut 0);
        assert_cuts_valid(&cuts, &values, &integer_feasible_points(&m));
    }

    #[test]
    fn pool_rejects_parallel_and_unviolated_cuts() {
        let x = vec![0.6, 0.6];
        let mut pool = CutPool::new();
        let c1 = Cut {
            coeffs: vec![(0, 1.0), (1, 1.0)],
            rhs: 1.0,
        };
        assert!(pool.try_add(c1, &x), "violated cut must be adopted");
        // Scaled copy of the same hyperplane: parallelism filter.
        let c2 = Cut {
            coeffs: vec![(0, 2.0), (1, 2.0)],
            rhs: 2.0,
        };
        assert!(!pool.try_add(c2, &x), "parallel cut must be rejected");
        // Satisfied cut: violation filter.
        let c3 = Cut {
            coeffs: vec![(0, 1.0), (1, -1.0)],
            rhs: 1.0,
        };
        assert!(!pool.try_add(c3, &x), "unviolated cut must be rejected");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn pool_purges_cuts_after_consecutive_slack_rounds() {
        let tight = vec![0.5, 0.5];
        let slack = vec![0.0, 0.0];
        let mut pool = CutPool::new();
        assert!(pool.try_add(
            Cut {
                coeffs: vec![(0, 1.0), (1, 1.0)],
                rhs: 0.9,
            },
            &tight,
        ));
        // Stays while the slack age is within the limit…
        for _ in 0..MAX_SLACK_AGE {
            assert_eq!(pool.age_and_purge(&slack), [true]);
        }
        assert_eq!(pool.len(), 1);
        // …and is purged one slack round later.
        assert_eq!(pool.age_and_purge(&slack), [false]);
        assert_eq!(pool.len(), 0);
        // A tight cut never ages.
        assert!(pool.try_add(
            Cut {
                coeffs: vec![(0, 1.0), (1, 1.0)],
                rhs: 0.9,
            },
            &tight,
        ));
        for _ in 0..4 {
            assert_eq!(pool.age_and_purge(&tight), [true]);
        }
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn a_purged_cuts_rows_leave_the_basis_without_costing_a_pivot() {
        // max x + ½y s.t. x + y ≤ 4 in [0, 10]², and the cuts x ≤ 8 and
        // y ≤ 9, both slack at the optimum x = 4, y = 0. In the start, the
        // first cut's logical is basic at the base row's position and x at
        // the first cut's: purging that cut moves x into the freed place.
        let mut m = Model::new("purge");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Maximize, &[(x, 1.0), (y, 0.5)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        let base = SparseLp::from_model(&m);
        let rows = RowView::of(&base);
        let purged = Cut {
            coeffs: vec![(0, 1.0)],
            rhs: 8.0,
        };
        let kept = Cut {
            coeffs: vec![(1, 1.0)],
            rhs: 9.0,
        };
        let (full, _) = lp_with_cuts(&base, &rows, [&purged, &kept].into_iter());
        let (slim, _) = lp_with_cuts(&base, &rows, std::iter::once(&kept));
        let (s0, s1, s2) = (2, 3, 4);
        let mut status = vec![VarStatus::Basic; 5];
        status[1] = VarStatus::AtLower;
        status[s0] = VarStatus::AtLower;
        let start = Basis::from_parts(2, 3, status, vec![s1, 0, s2], vec![1.0; 5]);
        let bounds = [(0.0, 10.0), (0.0, 10.0)];
        let ws = &mut SimplexWorkspace::default();

        let (before, _) =
            solve_sparse(&full, &bounds, 100, Warm::Primal(&start), ws).expect("solve");
        assert_eq!((before.status, before.iterations), (LpStatus::Optimal, 0));

        let remapped = start
            .without_rows(&[false, true])
            .expect("the purged logical is basic");
        assert_eq!(remapped.dims(), (2, 2));
        // x took the base row's position; the kept cut's logical is now the
        // second row's.
        assert_eq!(remapped.parts().1, &[0, 3]);
        let mut factor = BasisFactor::default();
        let columns = remapped.parts().1.iter().map(|&j| slim.cols.column(j));
        assert!(factor.refactorize(slim.nrows, columns).is_ok());
        let (after, _) =
            solve_sparse(&slim, &bounds, 100, Warm::Primal(&remapped), ws).expect("solve");
        assert_eq!((after.status, after.iterations), (LpStatus::Optimal, 0));
        assert_eq!(after.lu_factorizations, 1);
        assert_eq!(after.objective, before.objective);
        assert_eq!(after.values, before.values);

        // A purged cut whose logical is nonbasic has no remap.
        assert!(start.without_rows(&[true, true]).is_some());
        let mut tight = start.parts().0.to_vec();
        tight.swap(s1, s0);
        let tight = Basis::from_parts(2, 3, tight, vec![s0, 0, s2], vec![1.0; 5]);
        assert!(tight.without_rows(&[false, true]).is_none());
    }

    #[test]
    fn lp_with_cuts_appends_le_rows() {
        let m = knapsack_fixture();
        let base = SparseLp::from_model(&m);
        let cut = Cut {
            coeffs: vec![(0, 1.0), (1, 1.0)],
            rhs: 1.0,
        };
        let (ext, rows) = lp_with_cuts(&base, &RowView::of(&base), std::iter::once(&cut));
        assert_eq!(ext.nrows, base.nrows + 1);
        assert_eq!(ext.nstruct, base.nstruct);
        assert_eq!(ext.rhs.last().copied(), Some(1.0));
        assert_eq!(ext.logical_lower.last().copied(), Some(0.0));
        assert_eq!(ext.logical_upper.last().copied(), Some(f64::INFINITY));
        assert_eq!(ext.cost.len(), ext.ncols());
        // The cut row must be reachable from the structural columns.
        let (rows_a, vals_a) = ext.cols.column(0);
        assert!(rows_a
            .iter()
            .zip(vals_a)
            .any(|(&r, &v)| r == base.nrows && v == 1.0));
        // The appended row view is the extended LP's own.
        assert_eq!(rows.row(base.nrows), cut.coeffs.as_slice());
        for i in 0..ext.nrows {
            assert_eq!(rows.row(i), RowView::of(&ext).row(i), "row {i}");
        }
    }
}
