//! Structural audit of a built [`Model`]: degenerate rows, suspicious
//! columns, conditioning, and integrality-pinning contradictions.
//!
//! The audit never solves anything — it inspects the model's shape and
//! reports [`AuditFinding`]s. **Errors** are structurally broken pieces a
//! well-formed builder should never emit (a row no assignment can satisfy, an
//! integral variable whose bounds contain no integer — the classic result of
//! [`Model::fix_var`] pinning to a value outside the variable's domain).
//! **Warnings** flag legal but degenerate structure: empty or duplicate rows,
//! rows dominated by an identical row with a looser right-hand side, free
//! columns the objective never prices, and coefficient magnitude ranges wide
//! enough to strain the simplex tolerances.
//!
//! The differential test harness runs it on every generated scheduler model;
//! the solver itself never does.

use crate::expr::LinExpr;
use crate::model::{ConstraintOp, Model, VarKind};
use std::collections::BTreeMap;
use std::fmt;

/// Severity of an [`AuditFinding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditSeverity {
    /// Legal but degenerate structure (redundancy, conditioning).
    Warning,
    /// Structurally broken: no assignment can satisfy the flagged piece.
    Error,
}

impl fmt::Display for AuditSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditSeverity::Warning => write!(f, "warning"),
            AuditSeverity::Error => write!(f, "error"),
        }
    }
}

/// One structural finding of [`audit_model`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// How serious the finding is.
    pub severity: AuditSeverity,
    /// Stable machine-readable code, e.g. `duplicate-row`.
    pub code: &'static str,
    /// Human-readable description naming the offending rows/columns.
    pub message: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Coefficient-magnitude ratio above which a conditioning warning is emitted.
const CONDITIONING_RATIO_LIMIT: f64 = 1e8;

/// Tolerance when deciding whether an integral domain is empty (matches the
/// default integrality tolerance of the branch-and-bound).
const INTEGRALITY_TOL: f64 = 1e-6;

fn finding(severity: AuditSeverity, code: &'static str, message: String) -> AuditFinding {
    AuditFinding {
        severity,
        code,
        message,
    }
}

/// A canonical form of a row's left-hand side for duplicate detection: the
/// relation tag, then the terms sorted by variable index with coefficients
/// bit-compared.
type RowKey = (u8, Vec<(usize, u64)>);

fn row_key(expr: &LinExpr, op: ConstraintOp) -> RowKey {
    let mut terms: Vec<(usize, u64)> = expr
        .iter()
        .map(|(var, coeff)| (var.index(), coeff.to_bits()))
        .collect();
    terms.sort_unstable();
    let op_tag = match op {
        ConstraintOp::Le => 0,
        ConstraintOp::Ge => 1,
        ConstraintOp::Eq => 2,
    };
    (op_tag, terms)
}

/// Inspects `model` and returns every structural finding, deterministically
/// ordered (row findings in row order, then column findings, then the global
/// conditioning check).
pub fn audit_model(model: &Model) -> Vec<AuditFinding> {
    let mut findings = Vec::new();

    // Rows: empty, duplicate, dominated.
    let mut seen_rows: BTreeMap<RowKey, Vec<(usize, f64, String)>> = BTreeMap::new();
    for (index, constraint) in model.constraints().enumerate() {
        if constraint.expr.is_empty() {
            let satisfied = match constraint.op {
                ConstraintOp::Le => 0.0 <= constraint.rhs,
                ConstraintOp::Ge => 0.0 >= constraint.rhs,
                ConstraintOp::Eq => constraint.rhs == 0.0,
            };
            if satisfied {
                findings.push(finding(
                    AuditSeverity::Warning,
                    "empty-row",
                    format!(
                        "row {index} `{}` has no variables and is trivially satisfied",
                        constraint.name
                    ),
                ));
            } else {
                let op = match constraint.op {
                    ConstraintOp::Le => "<=",
                    ConstraintOp::Ge => ">=",
                    ConstraintOp::Eq => "=",
                };
                findings.push(finding(
                    AuditSeverity::Error,
                    "empty-row-violated",
                    format!(
                        "row {index} `{}` has no variables but demands 0 {op} {}; no \
                         assignment can satisfy it",
                        constraint.name, constraint.rhs
                    ),
                ));
            }
            continue;
        }
        seen_rows
            .entry(row_key(&constraint.expr, constraint.op))
            .or_default()
            .push((index, constraint.rhs, constraint.name.clone()));
    }
    for group in seen_rows.values() {
        if group.len() < 2 {
            continue;
        }
        for pair in group.windows(2) {
            let (first_index, first_rhs, first_name) = &pair[0];
            let (second_index, second_rhs, second_name) = &pair[1];
            if first_rhs == second_rhs {
                findings.push(finding(
                    AuditSeverity::Warning,
                    "duplicate-row",
                    format!(
                        "rows {first_index} `{first_name}` and {second_index} \
                         `{second_name}` are identical"
                    ),
                ));
            } else {
                // Same lhs and op, different rhs: for ≤ the larger rhs is
                // slack, for ≥ the smaller; equalities with different rhs are
                // outright contradictory.
                findings.push(finding(
                    AuditSeverity::Warning,
                    "dominated-row",
                    format!(
                        "rows {first_index} `{first_name}` (rhs {first_rhs}) and \
                         {second_index} `{second_name}` (rhs {second_rhs}) share the \
                         same left-hand side; one of them is redundant or conflicting"
                    ),
                ));
            }
        }
    }

    // Columns: reversed/empty integral domains and unpriced free variables.
    let (objective, _) = model.objective();
    for (id, var) in model.variables() {
        if var.lower > var.upper {
            findings.push(finding(
                AuditSeverity::Error,
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
                    AuditSeverity::Error,
                    "integral-bounds-empty",
                    format!(
                        "integral column `{}` has bounds [{}, {}] containing no integer \
                         (was it pinned with `fix_var` outside its domain?)",
                        var.name, var.lower, var.upper
                    ),
                ));
                continue;
            }
            if var.kind == VarKind::Binary && (highest < 0.0 || lowest > 1.0) {
                findings.push(finding(
                    AuditSeverity::Error,
                    "binary-bounds-empty",
                    format!(
                        "binary column `{}` has bounds [{}, {}] excluding both 0 and 1",
                        var.name, var.lower, var.upper
                    ),
                ));
                continue;
            }
        }
        if var.lower == f64::NEG_INFINITY
            && var.upper == f64::INFINITY
            && objective.coeff(id) == 0.0
        {
            findings.push(finding(
                AuditSeverity::Warning,
                "free-column",
                format!(
                    "column `{}` is free in both directions and absent from the \
                     objective; its value is arbitrary (or unbounded) in any solution",
                    var.name
                ),
            ));
        }
    }

    // Conditioning: the magnitude range over all nonzero constraint
    // coefficients.
    let mut smallest = f64::INFINITY;
    let mut largest: f64 = 0.0;
    for constraint in model.constraints() {
        for (_, coeff) in constraint.expr.iter() {
            let magnitude = coeff.abs();
            if magnitude > 0.0 {
                smallest = smallest.min(magnitude);
                largest = largest.max(magnitude);
            }
        }
    }
    if largest > 0.0 && largest / smallest > CONDITIONING_RATIO_LIMIT {
        findings.push(finding(
            AuditSeverity::Warning,
            "coefficient-range",
            format!(
                "constraint coefficient magnitudes span [{smallest:e}, {largest:e}] \
                 (ratio {:e} > {CONDITIONING_RATIO_LIMIT:e}); expect tolerance strain \
                 in the simplex",
                largest / smallest
            ),
        ));
    }

    findings
}

/// `true` if any finding is an [`AuditSeverity::Error`].
pub fn has_errors(findings: &[AuditFinding]) -> bool {
    findings.iter().any(|f| f.severity == AuditSeverity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let findings = audit_model(&m);
        assert_eq!(codes(&findings), vec!["empty-row", "empty-row-violated"]);
        assert!(has_errors(&findings));
    }

    #[test]
    fn duplicate_and_dominated_rows_are_flagged() {
        let mut m = Model::new("rows");
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_le(&[(x, 1.0)], 5.0);
        m.add_le(&[(x, 1.0)], 5.0); // duplicate
        m.add_le(&[(x, 1.0)], 7.0); // dominated (looser rhs, same lhs)
        let findings = audit_model(&m);
        assert!(codes(&findings).contains(&"duplicate-row"), "{findings:?}");
        assert!(codes(&findings).contains(&"dominated-row"), "{findings:?}");
        assert!(!has_errors(&findings));
    }

    #[test]
    fn fractional_pin_on_integer_column_is_an_error() {
        let mut m = Model::new("pin");
        let k = m.add_var("k", VarKind::Integer, 0.0, 10.0);
        m.set_objective(Sense::Minimize, &[(k, 1.0)]);
        m.fix_var(k, 2.5);
        let findings = audit_model(&m);
        assert_eq!(codes(&findings), vec!["integral-bounds-empty"]);
        assert!(has_errors(&findings));
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
    fn unpriced_free_column_is_flagged() {
        let mut m = Model::new("free");
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0);
        let _free = m.add_var(
            "free",
            VarKind::Continuous,
            f64::NEG_INFINITY,
            f64::INFINITY,
        );
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_le(&[(x, 1.0)], 1.0);
        let findings = audit_model(&m);
        assert_eq!(codes(&findings), vec!["free-column"]);
    }

    #[test]
    fn wide_coefficient_range_is_flagged() {
        let mut m = Model::new("conditioning");
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 1.0);
        m.set_objective(Sense::Minimize, &[(x, 1.0)]);
        m.add_le(&[(x, 1e-6), (y, 1e6)], 1.0);
        let findings = audit_model(&m);
        assert_eq!(codes(&findings), vec!["coefficient-range"]);
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
