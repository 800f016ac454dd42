//! Model builder: variables, constraints, objective and solver entry points.

use crate::branch_bound;
use crate::error::SolveError;
use crate::expr::{LinExpr, VarId};
use crate::simplex;
use crate::solution::{Solution, SolverCounters, Status};

/// The kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Integer variable implicitly bounded to `[0, 1]`.
    Binary,
}

impl VarKind {
    /// Returns `true` for [`VarKind::Integer`] and [`VarKind::Binary`].
    pub fn is_integral(self) -> bool {
        matches!(self, VarKind::Integer | VarKind::Binary)
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective expression.
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// A decision variable with its bounds.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Human-readable name (used by the LP writer and error messages).
    pub name: String,
    /// Variable kind.
    pub kind: VarKind,
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
}

/// A linear constraint `expr op rhs`.
///
/// Any constant part of `expr` is folded into `rhs` when the constraint is
/// added to the model, so `expr.constant_term()` is always zero here.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Human-readable name.
    pub name: String,
    /// Left-hand side (variable terms only).
    pub expr: LinExpr,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// Opaque handle to a constraint of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

/// Absolute distance from the nearest integer below which branch-and-bound
/// treats an LP value as integral, and which presolve absorbs when it rounds
/// a derived bound of an integral column to the lattice.
///
/// A constant, not a [`SolveParams`] field: with the tolerance a caller's
/// choice, a loose one accepted fractional LP points as integer solutions
/// (rounded into schedules that miss deadlines or overlap tasks) and a
/// negative or very large one made feasible systems report infeasible.
pub(crate) const INTEGRALITY_TOL: f64 = 1e-6;

/// Resource budgets of the solver and the layers it may switch off.
#[derive(Debug, Clone)]
pub struct SolveParams {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Maximum number of simplex pivots per LP solve.
    pub max_simplex_iterations: usize,
    /// Run the LP presolve (fixed-column substitution, empty/singleton row
    /// elimination, activity-based bound tightening) before the simplex.
    /// Enabled by default; disable to get the raw equality-form solve (used
    /// by the differential harness to cross-check the reduction).
    pub presolve: bool,
    /// Separate Gomory mixed-integer cutting planes at the root of the
    /// branch-and-bound tree. Enabled by default; disable to get the pure
    /// relaxation tree (used by the differential harness to prove cuts never
    /// change the verdict or the objective).
    pub cuts: bool,
    /// Branch on pseudocost scores (per-variable up/down objective
    /// degradation averages, learned from every node LP) instead of the
    /// lowest-index fractional variable. Enabled by default; disabled, the
    /// lowest-index rule is the reference the differential harness compares
    /// against.
    pub pseudocost: bool,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            max_nodes: 200_000,
            max_simplex_iterations: 50_000,
            presolve: true,
            cuts: true,
            pseudocost: true,
        }
    }
}

/// A mixed-integer linear program.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
    sense: Sense,
    params: SolveParams,
}

impl Model {
    /// Creates an empty model with the default (minimize-zero) objective.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            variables: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense: Sense::Minimize,
            params: SolveParams::default(),
        }
    }

    /// Returns the model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the solver parameters.
    pub fn params(&self) -> &SolveParams {
        &self.params
    }

    /// Mutable access to the solver parameters.
    pub fn params_mut(&mut self) -> &mut SolveParams {
        &mut self.params
    }

    /// Adds a variable and returns its handle.
    ///
    /// For [`VarKind::Binary`] the bounds are clamped to `[0, 1]`.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
    ) -> VarId {
        let (lower, upper) = match kind {
            VarKind::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            kind,
            lower,
            upper,
        });
        id
    }

    /// Adds a continuous variable with the given bounds.
    pub fn add_continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, VarKind::Continuous, lower, upper)
    }

    /// Adds an integer variable with the given bounds.
    pub fn add_integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, VarKind::Integer, lower, upper)
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Tightens the bounds of an existing variable.
    ///
    /// This is the cheap alternative to rebuilding the model when a subset of
    /// variables becomes known (e.g. offsets inherited from an already
    /// synthesized mode): the column stays in place, only its feasible range
    /// shrinks. For [`VarKind::Binary`] the bounds are clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn set_var_bounds(&mut self, id: VarId, lower: f64, upper: f64) {
        let v = &mut self.variables[id.0];
        let (lower, upper) = match v.kind {
            VarKind::Binary => (lower.clamp(0.0, 1.0), upper.clamp(0.0, 1.0)),
            _ => (lower, upper),
        };
        v.lower = lower;
        v.upper = upper;
    }

    /// Fixes a variable to a single value (`lower = upper = value`) without
    /// rebuilding the model.
    ///
    /// Together with [`Model::set_var_bounds`] this is the pinning API used to
    /// impose inherited task/message offsets during multi-mode schedule
    /// synthesis.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn fix_var(&mut self, id: VarId, value: f64) {
        self.set_var_bounds(id, value, value);
    }

    /// Adds (or merges) a term into the left-hand side of an existing
    /// constraint.
    ///
    /// Used when growing a model incrementally: e.g. a new communication
    /// round's allocation variable joins an existing per-message total-count
    /// equality row.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn add_term_to_constraint(&mut self, id: ConstraintId, var: VarId, coeff: f64) {
        self.constraints[id.0].expr.add_term(var, coeff);
    }

    /// Returns the constraint with the given handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn constraint(&self, id: ConstraintId) -> &Constraint {
        &self.constraints[id.0]
    }

    /// Adds (or merges) a term into the objective, keeping the current sense.
    ///
    /// Used when growing a model incrementally (new variables that must take
    /// part in an anchoring/tie-breaking objective term).
    pub fn add_objective_term(&mut self, var: VarId, coeff: f64) {
        self.objective.add_term(var, coeff);
    }

    /// Number of variables in the model.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints in the model.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Returns the variable metadata for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.variables[id.0]
    }

    /// Iterates over all variables in column order.
    pub fn variables(&self) -> impl Iterator<Item = (VarId, &Variable)> {
        self.variables
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i), v))
    }

    /// Iterates over all constraints in insertion order.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Returns the objective expression and sense.
    pub fn objective(&self) -> (&LinExpr, Sense) {
        (&self.objective, self.sense)
    }

    /// Sets the objective from `(variable, coefficient)` pairs.
    pub fn set_objective(&mut self, sense: Sense, terms: &[(VarId, f64)]) {
        self.set_objective_expr(sense, LinExpr::from_terms(terms.iter().copied()));
    }

    /// Sets the objective from a full linear expression.
    pub fn set_objective_expr(&mut self, sense: Sense, expr: LinExpr) {
        self.sense = sense;
        self.objective = expr;
    }

    /// Adds the constraint `expr op rhs` and returns its handle.
    ///
    /// Any constant part of `expr` is moved to the right-hand side.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        op: ConstraintOp,
        rhs: f64,
    ) -> ConstraintId {
        let mut expr = expr;
        let rhs = rhs - expr.constant_term();
        expr.add_constant(-expr.constant_term());
        let id = ConstraintId(self.constraints.len());
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            op,
            rhs,
        });
        id
    }

    /// Convenience: adds `Σ coeffᵢ·xᵢ ≤ rhs`.
    pub fn add_le(&mut self, terms: &[(VarId, f64)], rhs: f64) -> ConstraintId {
        let n = self.constraints.len();
        self.add_constraint(
            format!("c{n}"),
            LinExpr::from_terms(terms.iter().copied()),
            ConstraintOp::Le,
            rhs,
        )
    }

    /// Convenience: adds `Σ coeffᵢ·xᵢ ≥ rhs`.
    pub fn add_ge(&mut self, terms: &[(VarId, f64)], rhs: f64) -> ConstraintId {
        let n = self.constraints.len();
        self.add_constraint(
            format!("c{n}"),
            LinExpr::from_terms(terms.iter().copied()),
            ConstraintOp::Ge,
            rhs,
        )
    }

    /// Convenience: adds `Σ coeffᵢ·xᵢ = rhs`.
    pub fn add_eq(&mut self, terms: &[(VarId, f64)], rhs: f64) -> ConstraintId {
        let n = self.constraints.len();
        self.add_constraint(
            format!("c{n}"),
            LinExpr::from_terms(terms.iter().copied()),
            ConstraintOp::Eq,
            rhs,
        )
    }

    /// Checks the model for structural problems (bad bounds, dangling variable
    /// ids, non-finite coefficients).
    ///
    /// # Errors
    ///
    /// Returns the first [`SolveError`] found, if any.
    pub fn validate(&self) -> Result<(), SolveError> {
        for v in &self.variables {
            if v.lower > v.upper {
                return Err(SolveError::InvalidBounds {
                    name: v.name.clone(),
                    lower: v.lower,
                    upper: v.upper,
                });
            }
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(SolveError::NonFiniteCoefficient {
                    context: format!("bounds of variable `{}`", v.name),
                });
            }
        }
        let check_expr = |expr: &LinExpr, context: &str| -> Result<(), SolveError> {
            for (var, coeff) in expr.iter() {
                if var.0 >= self.variables.len() {
                    return Err(SolveError::UnknownVariable {
                        index: var.0,
                        model_len: self.variables.len(),
                    });
                }
                if !coeff.is_finite() {
                    return Err(SolveError::NonFiniteCoefficient {
                        context: context.to_string(),
                    });
                }
            }
            Ok(())
        };
        check_expr(&self.objective, "objective")?;
        for c in &self.constraints {
            check_expr(&c.expr, &c.name)?;
            if !c.rhs.is_finite() {
                return Err(SolveError::NonFiniteCoefficient {
                    context: format!("right-hand side of `{}`", c.name),
                });
            }
        }
        Ok(())
    }

    /// Solves the mixed-integer program to optimality.
    ///
    /// Infeasibility and unboundedness are reported through
    /// [`Solution::status`], not as errors.
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] if the model is malformed or a resource budget
    /// (nodes, simplex pivots) is exhausted.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.validate()?;
        branch_bound::solve(self)
    }

    /// Solves the mixed-integer program, optionally warm-starting from the
    /// basis snapshot of an earlier solve, and returns the optimal basis of
    /// the root LP relaxation for the caller to reuse.
    ///
    /// The warm-start contract: a snapshot taken from this model stays valid
    /// while the model only *grows* — variables or constraints appended
    /// ([`Model::add_var`], [`Model::add_constraint`]), coefficients merged
    /// into existing rows ([`Model::add_term_to_constraint`]), bounds
    /// tightened ([`Model::set_var_bounds`] / [`Model::fix_var`]), right-hand
    /// sides or objective terms adjusted. The solver extends the snapshot with
    /// default statuses for anything new and repairs feasibility from there;
    /// a snapshot that cannot be applied falls back to a cold start, so a
    /// stale basis can cost time but never correctness.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Model::solve`].
    pub fn solve_with_basis(
        &self,
        warm: Option<&simplex::Basis>,
    ) -> Result<(Solution, Option<simplex::Basis>), SolveError> {
        self.validate()?;
        branch_bound::solve_warm(self, warm)
    }

    /// Solves only the LP relaxation (integrality constraints dropped).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Model::solve`].
    pub fn solve_relaxation(&self) -> Result<Solution, SolveError> {
        self.validate()?;
        let bounds: Vec<(f64, f64)> = self.variables.iter().map(|v| (v.lower, v.upper)).collect();
        let lp = simplex::solve_lp(self, &bounds)?;
        let counters = SolverCounters {
            simplex_iterations: lp.iterations,
            ..SolverCounters::default()
        };
        Ok(match lp.status {
            simplex::LpStatus::Optimal => {
                Solution::optimal(self.signed_objective(lp.objective), lp.values, counters)
            }
            simplex::LpStatus::Infeasible => Solution::without_values(Status::Infeasible, counters),
            simplex::LpStatus::Unbounded => Solution::without_values(Status::Unbounded, counters),
        })
    }

    /// Converts an internal (always-minimize) objective value back to the
    /// user-facing sense.
    pub(crate) fn signed_objective(&self, minimized: f64) -> f64 {
        match self.sense {
            Sense::Minimize => minimized,
            Sense::Maximize => -minimized,
        }
    }

    /// Returns the objective coefficients as used internally (minimization).
    pub(crate) fn minimization_objective(&self) -> LinExpr {
        match self.sense {
            Sense::Minimize => self.objective.clone(),
            Sense::Maximize => self.objective.clone() * -1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_bounds_are_clamped() {
        let mut m = Model::new("t");
        let b = m.add_var("b", VarKind::Binary, -3.0, 9.0);
        assert_eq!(m.var(b).lower, 0.0);
        assert_eq!(m.var(b).upper, 1.0);
    }

    #[test]
    fn constant_folded_into_rhs() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let expr = LinExpr::term(x, 1.0) + LinExpr::constant(4.0);
        m.add_constraint("c", expr, ConstraintOp::Le, 10.0);
        let c = m.constraints().next().unwrap();
        assert_eq!(c.rhs, 6.0);
        assert_eq!(c.expr.constant_term(), 0.0);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut m = Model::new("t");
        m.add_continuous("x", 5.0, 1.0);
        assert!(matches!(
            m.validate(),
            Err(SolveError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn validate_rejects_nan_coefficient() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.set_objective(Sense::Minimize, &[(x, f64::NAN)]);
        assert!(matches!(
            m.validate(),
            Err(SolveError::NonFiniteCoefficient { .. })
        ));
    }

    #[test]
    fn validate_rejects_foreign_variable() {
        let mut m = Model::new("t");
        let _x = m.add_continuous("x", 0.0, 1.0);
        let foreign = VarId::from_index_for_test(10);
        m.add_le(&[(foreign, 1.0)], 1.0);
        assert!(matches!(
            m.validate(),
            Err(SolveError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn fixing_a_variable_pins_the_optimum() {
        // maximize x + y s.t. x + y <= 1.5; fixing x = 0.25 forces y to 1.
        let mut m = Model::new("pin");
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.set_objective(Sense::Maximize, &[(x, 1.0), (y, 1.0)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 1.5);
        m.fix_var(x, 0.25);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 0.25).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn binary_fix_is_clamped() {
        let mut m = Model::new("pin");
        let b = m.add_binary("b");
        m.fix_var(b, 3.0);
        assert_eq!(m.var(b).lower, 1.0);
        assert_eq!(m.var(b).upper, 1.0);
        m.set_var_bounds(b, -2.0, 0.0);
        assert_eq!(m.var(b).lower, 0.0);
        assert_eq!(m.var(b).upper, 0.0);
    }

    #[test]
    fn growing_a_constraint_changes_the_solution() {
        // minimize x + y/2 s.t. x >= 2; once y joins the row (x + y >= 2),
        // the cheaper y covers it and the optimum falls from 2 to 1.
        let mut m = Model::new("grow");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 0.5)]);
        let c = m.add_ge(&[(x, 1.0)], 2.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-6);
        m.add_term_to_constraint(c, y, 1.0);
        assert_eq!(m.constraint(c).expr.coeff(y), 1.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn objective_terms_can_be_added_incrementally() {
        let mut m = Model::new("obj");
        let x = m.add_continuous("x", 1.0, 5.0);
        let y = m.add_continuous("y", 1.0, 5.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_objective_term(y, 2.0);
        let s = m.solve().unwrap();
        // Both variables sit at their lower bound 1: objective 1 + 2.
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn simple_lp_relaxation() {
        // maximize x + y s.t. x + y <= 1.5, 0 <= x,y <= 1 → objective 1.5
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.set_objective(Sense::Maximize, &[(x, 1.0), (y, 1.0)]);
        m.add_le(&[(x, 1.0), (y, 1.0)], 1.5);
        let s = m.solve_relaxation().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 1.5).abs() < 1e-6);
    }

    #[test]
    fn default_objective_is_zero() {
        let mut m = Model::new("feasibility-only");
        let x = m.add_continuous("x", 2.0, 5.0);
        m.add_ge(&[(x, 1.0)], 3.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(s.value(x) >= 3.0 - 1e-6);
        assert!((s.objective).abs() < 1e-9);
    }
}
