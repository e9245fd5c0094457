use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use crate::model::VarId;

/// A linear expression: `Σ cᵢ·xᵢ + constant`.
///
/// Built by combining [`VarId`]s with `+`, `-` and `* f64`. Terms on the same
/// variable are merged lazily when the expression is consumed by the model.
///
/// ```
/// use sherlock_lp::{LinExpr, Model};
/// let mut m = Model::new();
/// let x = m.add_var("x", 0.0, 1.0);
/// let e = LinExpr::from(x) * 3.0 + LinExpr::constant(1.0) - LinExpr::from(x);
/// assert_eq!(e.coefficients(), vec![(x, 2.0)]);
/// assert_eq!(e.constant_term(), 1.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression with no variables.
    pub fn constant(c: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// A single weighted term `c·x`.
    pub fn term(x: VarId, c: f64) -> Self {
        LinExpr {
            terms: vec![(x, c)],
            constant: 0.0,
        }
    }

    /// Adds `c·x` in place.
    pub fn add_term(&mut self, x: VarId, c: f64) {
        self.terms.push((x, c));
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: f64) {
        self.constant += c;
    }

    /// The constant component.
    pub fn constant_term(&self) -> f64 {
        self.constant
    }

    /// Merged `(variable, coefficient)` pairs, sorted by variable, with
    /// zero-coefficient terms removed.
    pub fn coefficients(&self) -> Vec<(VarId, f64)> {
        let mut terms = self.terms.clone();
        merge_terms(&mut terms);
        terms
    }

    /// [`coefficients`](Self::coefficients) over raw variable indices.
    pub(crate) fn index_coefficients(&self) -> Vec<(usize, f64)> {
        let mut terms: Vec<(usize, f64)> = self.terms.iter().map(|&(v, c)| (v.0, c)).collect();
        merge_terms(&mut terms);
        terms
    }

    /// Whether the expression references no variables (after merging).
    pub fn is_constant(&self) -> bool {
        self.coefficients().is_empty()
    }
}

/// Sorts terms by variable (stably, so equal variables keep insertion
/// order), sums each run in that order, and drops zero sums, all in place.
fn merge_terms<K: Ord + Copy>(terms: &mut Vec<(K, f64)>) {
    terms.sort_by_key(|&(v, _)| v);
    let mut out = 0usize;
    for i in 0..terms.len() {
        let (v, c) = terms[i];
        if out > 0 && terms[out - 1].0 == v {
            terms[out - 1].1 += c;
        } else {
            terms[out] = (v, c);
            out += 1;
        }
    }
    terms.truncate(out);
    terms.retain(|&(_, c)| c != 0.0);
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= k;
        }
        self.constant *= k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn merge_and_drop_zero_terms() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0);
        let e = LinExpr::from(x) + LinExpr::from(y) - LinExpr::from(x);
        assert_eq!(e.coefficients(), vec![(y, 1.0)]);
    }

    #[test]
    fn scaling_and_negation() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0);
        let e = -(LinExpr::from(x) * 2.0 + LinExpr::constant(3.0));
        assert_eq!(e.coefficients(), vec![(x, -2.0)]);
        assert_eq!(e.constant_term(), -3.0);
    }

    #[test]
    fn constant_detection() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0);
        assert!(LinExpr::constant(4.0).is_constant());
        assert!((LinExpr::from(x) - LinExpr::from(x)).is_constant());
        assert!(!LinExpr::from(x).is_constant());
    }
}
