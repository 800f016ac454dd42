//! Structural audit of a built [`Model`]: pieces no assignment can satisfy.
//!
//! The audit never solves anything — it inspects the model's shape and
//! reports an [`AuditFinding`] for every structurally broken piece a
//! well-formed builder should never emit: a row with no variables whose
//! right-hand side the zero activity violates, a column whose lower bound
//! exceeds its upper bound, and an integral (or binary) column whose bounds
//! contain no admissible integer — the classic result of [`Model::fix_var`]
//! pinning to a value outside the variable's domain.
//!
//! The differential test harness runs it on every generated scheduler model;
//! the solver itself never does.

use crate::model::{ConstraintOp, Model, VarKind};
use std::fmt;

/// One structural finding of [`audit_model`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// Stable machine-readable code, e.g. `bounds-reversed`.
    pub code: &'static str,
    /// Human-readable description naming the offending row or column.
    pub message: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Tolerance when deciding whether an integral domain is empty (matches the
/// default integrality tolerance of the branch-and-bound).
const INTEGRALITY_TOL: f64 = 1e-6;

fn finding(code: &'static str, message: String) -> AuditFinding {
    AuditFinding { code, message }
}

/// Inspects `model` and returns every structural finding, deterministically
/// ordered (row findings in row order, then column findings).
pub fn audit_model(model: &Model) -> Vec<AuditFinding> {
    let mut findings = Vec::new();

    // Rows: empty rows the zero activity violates.
    for (index, constraint) in model.constraints().enumerate() {
        if !constraint.expr.is_empty() {
            continue;
        }
        let (satisfied, op) = match constraint.op {
            ConstraintOp::Le => (0.0 <= constraint.rhs, "<="),
            ConstraintOp::Ge => (0.0 >= constraint.rhs, ">="),
            ConstraintOp::Eq => (constraint.rhs == 0.0, "="),
        };
        if !satisfied {
            findings.push(finding(
                "empty-row-violated",
                format!(
                    "row {index} `{}` has no variables but demands 0 {op} {}; no \
                     assignment can satisfy it",
                    constraint.name, constraint.rhs
                ),
            ));
        }
    }

    // Columns: reversed bounds and empty integral domains.
    for (_, var) in model.variables() {
        if var.lower > var.upper {
            findings.push(finding(
                "bounds-reversed",
                format!(
                    "column `{}` has lower bound {} above upper bound {}",
                    var.name, var.lower, var.upper
                ),
            ));
            continue;
        }
        if var.kind.is_integral() && var.lower.is_finite() && var.upper.is_finite() {
            let lowest = (var.lower - INTEGRALITY_TOL).ceil();
            let highest = (var.upper + INTEGRALITY_TOL).floor();
            if lowest > highest {
                findings.push(finding(
                    "integral-bounds-empty",
                    format!(
                        "integral column `{}` has bounds [{}, {}] containing no integer \
                         (was it pinned with `fix_var` outside its domain?)",
                        var.name, var.lower, var.upper
                    ),
                ));
            } else if var.kind == VarKind::Binary && (highest < 0.0 || lowest > 1.0) {
                findings.push(finding(
                    "binary-bounds-empty",
                    format!(
                        "binary column `{}` has bounds [{}, {}] excluding both 0 and 1",
                        var.name, var.lower, var.upper
                    ),
                ));
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, Sense};

    fn codes(findings: &[AuditFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn clean_model_has_no_findings() {
        let mut m = Model::new("clean");
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 5.0);
        m.add_le(&[(x, 1.0), (y, 2.0)], 8.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0), (y, 1.0)]);
        assert!(audit_model(&m).is_empty());
    }

    #[test]
    fn empty_rows_are_classified_by_satisfiability() {
        let mut m = Model::new("empty");
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_constraint("fine", LinExpr::new(), ConstraintOp::Le, 1.0);
        m.add_constraint("broken", LinExpr::new(), ConstraintOp::Ge, 2.0);
        assert_eq!(codes(&audit_model(&m)), vec!["empty-row-violated"]);
    }

    #[test]
    fn fractional_pin_on_integer_column_is_an_error() {
        let mut m = Model::new("pin");
        let k = m.add_var("k", VarKind::Integer, 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(k, 1.0)]);
        m.fix_var(k, 2.5);
        assert_eq!(codes(&audit_model(&m)), vec!["integral-bounds-empty"]);
    }

    #[test]
    fn integral_pins_on_integers_are_fine() {
        let mut m = Model::new("pin-ok");
        let k = m.add_var("k", VarKind::Integer, 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(k, 1.0)]);
        m.fix_var(k, 3.0);
        assert!(audit_model(&m).is_empty());
    }

    #[test]
    fn scheduler_shaped_model_solves_and_audits_clean() {
        // A tiny MILP in the scheduler's idiom: binaries + a pinned integer.
        let mut m = Model::new("shaped");
        let b0 = m.add_var("b0", VarKind::Binary, 0.0, 1.0);
        let b1 = m.add_var("b1", VarKind::Binary, 0.0, 1.0);
        let k = m.add_var("k", VarKind::Integer, 0.0, 4.0);
        m.set_objective(Sense::Minimize, &[(k, 1.0)]);
        m.add_ge(&[(b0, 1.0), (b1, 1.0)], 1.0);
        m.add_le(&[(b0, 1.0), (k, -1.0)], 0.0);
        m.fix_var(k, 2.0);
        assert!(audit_model(&m).is_empty());
        let solution = m.solve().expect("solvable");
        assert!(solution.is_optimal());
    }
}
