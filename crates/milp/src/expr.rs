//! Linear expressions over model variables.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Opaque handle to a decision variable of a [`crate::Model`].
///
/// `VarId`s are only meaningful for the model that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Returns the position of the variable in the model's column order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// One `coefficient * variable` term of a linear expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// Variable referenced by the term.
    pub var: VarId,
    /// Multiplicative coefficient.
    pub coeff: f64,
}

/// A linear expression `Σ coeffᵢ·xᵢ + constant`.
///
/// Duplicate variables are merged; terms whose coefficient collapses to zero
/// are removed. The expression supports the usual arithmetic operators:
///
/// ```
/// use ttw_milp::{LinExpr, VarId};
/// let x = VarId::from_index_for_test(0);
/// let y = VarId::from_index_for_test(1);
/// let e = LinExpr::term(x, 2.0) + LinExpr::term(y, 3.0) - LinExpr::constant(1.0);
/// assert_eq!(e.coeff(x), 2.0);
/// assert_eq!(e.coeff(y), 3.0);
/// assert_eq!(e.constant_term(), -1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: BTreeMap<VarId, f64>,
    constant: f64,
}

impl VarId {
    /// Constructs a `VarId` from a raw index.
    ///
    /// Intended for doc-tests and unit tests only; regular code should obtain
    /// ids from [`crate::Model::add_var`].
    pub fn from_index_for_test(index: usize) -> Self {
        VarId(index)
    }
}

impl LinExpr {
    /// Creates the empty expression `0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a constant expression.
    pub fn constant(value: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: value,
        }
    }

    /// Creates the single-term expression `coeff * var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut e = LinExpr::new();
        e.add_term(var, coeff);
        e
    }

    /// Builds an expression from `(variable, coefficient)` pairs.
    pub fn from_terms<I>(terms: I) -> Self
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        let mut e = LinExpr::new();
        for (v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    /// Adds `coeff * var` to the expression, merging with any existing term.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        let entry = self.terms.entry(var).or_insert(0.0);
        *entry += coeff;
        if entry.abs() < f64::EPSILON {
            self.terms.remove(&var);
        }
        self
    }

    /// Adds a constant to the expression.
    pub fn add_constant(&mut self, value: f64) -> &mut Self {
        self.constant += value;
        self
    }

    /// Returns the coefficient of `var` (zero if absent).
    pub fn coeff(&self, var: VarId) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// Returns the constant part of the expression.
    pub fn constant_term(&self) -> f64 {
        self.constant
    }

    /// Returns the number of non-zero terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over the `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }

    /// Returns `true` if every coefficient and the constant are finite.
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.terms.values().all(|c| c.is_finite())
    }

    /// Multiplies every coefficient and the constant by `factor`.
    pub fn scale(&mut self, factor: f64) -> &mut Self {
        for c in self.terms.values_mut() {
            *c *= factor;
        }
        self.constant *= factor;
        self.terms.retain(|_, c| c.abs() >= f64::EPSILON);
        self
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                write!(f, "{c} {v}")?;
                first = false;
            } else if *c >= 0.0 {
                write!(f, " + {c} {v}")?;
            } else {
                write!(f, " - {} {v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0.0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0.0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

impl From<(VarId, f64)> for LinExpr {
    fn from((var, coeff): (VarId, f64)) -> Self {
        LinExpr::term(var, coeff)
    }
}

impl From<f64> for LinExpr {
    fn from(value: f64) -> Self {
        LinExpr::constant(value)
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> Self {
        LinExpr::from_terms(iter)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.scale(-1.0);
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        self.scale(rhs);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId(i)
    }

    #[test]
    fn merges_duplicate_terms() {
        let mut e = LinExpr::new();
        e.add_term(v(0), 1.5);
        e.add_term(v(0), 2.5);
        assert_eq!(e.coeff(v(0)), 4.0);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn removes_cancelled_terms() {
        let mut e = LinExpr::term(v(1), 3.0);
        e.add_term(v(1), -3.0);
        assert!(e.is_empty());
        assert_eq!(e.coeff(v(1)), 0.0);
    }

    #[test]
    fn arithmetic_operators() {
        let a = LinExpr::term(v(0), 1.0) + LinExpr::term(v(1), 2.0);
        let b = LinExpr::term(v(1), 2.0) + LinExpr::constant(7.0);
        let diff = a.clone() - b.clone();
        assert_eq!(diff.coeff(v(0)), 1.0);
        assert_eq!(diff.coeff(v(1)), 0.0);
        assert_eq!(diff.constant_term(), -7.0);

        let neg = -a;
        assert_eq!(neg.coeff(v(0)), -1.0);
        assert_eq!(neg.coeff(v(1)), -2.0);

        let scaled = b * 2.0;
        assert_eq!(scaled.coeff(v(1)), 4.0);
        assert_eq!(scaled.constant_term(), 14.0);
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr::from_terms([(v(0), 1.0), (v(1), -2.0)]) + LinExpr::constant(3.0);
        let s = e.to_string();
        assert!(s.contains("x0"));
        assert!(s.contains("x1"));
        assert!(s.contains('3'));
    }

    #[test]
    fn from_iterator_collects() {
        let e: LinExpr = vec![(v(0), 1.0), (v(1), 1.0), (v(0), 1.0)]
            .into_iter()
            .collect();
        assert_eq!(e.coeff(v(0)), 2.0);
        assert_eq!(e.coeff(v(1)), 1.0);
    }

    #[test]
    fn finite_check_detects_nan() {
        let mut e = LinExpr::term(v(0), f64::NAN);
        assert!(!e.is_finite());
        e = LinExpr::term(v(0), 1.0);
        e.add_constant(f64::INFINITY);
        assert!(!e.is_finite());
    }
}
