//! Posynomials: the building blocks of geometric programs.
//!
//! A *monomial* is `c * x_1^{a_1} * ... * x_n^{a_n}` with `c > 0` and real
//! exponents `a_i`. A *posynomial* is a sum of monomials. Geometric programs
//! minimize a posynomial subject to posynomial constraints `f_i(x) <= 1`
//! over strictly positive variables.

use crate::error::GpError;

/// A single monomial term `coef * prod_i x_i^{exp_i}` with `coef > 0`.
///
/// Exponents are stored sparsely as `(variable index, exponent)` pairs,
/// sorted by variable index with no duplicates and no zero exponents.
#[derive(Debug, Clone, PartialEq)]
pub struct Monomial {
    coef: f64,
    exps: Vec<(usize, f64)>,
}

impl Monomial {
    /// Creates a monomial from a coefficient and `(var, exponent)` pairs.
    ///
    /// Pairs may arrive unsorted and with duplicates (exponents for the same
    /// variable are summed). Zero exponents are dropped.
    ///
    /// # Errors
    /// Returns [`GpError::NonPositiveCoefficient`] unless `coef > 0` and
    /// finite, and [`GpError::InvalidExponent`] for non-finite exponents.
    pub fn new(coef: f64, exps: impl IntoIterator<Item = (usize, f64)>) -> Result<Self, GpError> {
        if !(coef.is_finite() && coef > 0.0) {
            return Err(GpError::NonPositiveCoefficient(coef));
        }
        let mut pairs: Vec<(usize, f64)> = exps.into_iter().collect();
        if pairs.iter().any(|&(_, e)| !e.is_finite()) {
            return Err(GpError::InvalidExponent);
        }
        // Already in stored form (the common case: rows copied from
        // another monomial or built in variable order).
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) && pairs.iter().all(|&(_, e)| e != 0.0) {
            return Ok(Monomial { coef, exps: pairs });
        }
        pairs.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(pairs.len());
        for (v, e) in pairs {
            match merged.last_mut() {
                Some((lv, le)) if *lv == v => *le += e,
                _ => merged.push((v, e)),
            }
        }
        merged.retain(|&(_, e)| e != 0.0);
        Ok(Monomial { coef, exps: merged })
    }

    /// A constant monomial (no variables).
    pub fn constant(coef: f64) -> Result<Self, GpError> {
        Monomial::new(coef, [])
    }

    /// The coefficient `c > 0`.
    #[inline]
    pub fn coef(&self) -> f64 {
        self.coef
    }

    /// Sparse `(variable, exponent)` pairs, sorted by variable index.
    #[inline]
    pub fn exponents(&self) -> &[(usize, f64)] {
        &self.exps
    }

    /// Evaluates the monomial at strictly positive `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let mut v = self.coef;
        for &(i, e) in &self.exps {
            v *= x[i].powf(e);
        }
        v
    }

    /// Multiplies two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut exps = self.exps.clone();
        exps.extend_from_slice(&other.exps);
        Monomial::new(self.coef * other.coef, exps).expect("product of valid monomials is valid")
    }

    /// Scales the coefficient by `alpha > 0`.
    pub fn scaled(&self, alpha: f64) -> Result<Monomial, GpError> {
        Monomial::new(self.coef * alpha, self.exps.iter().copied())
    }

    /// Largest variable index referenced, if any.
    pub fn max_var(&self) -> Option<usize> {
        self.exps.last().map(|&(v, _)| v)
    }
}

/// A posynomial: a sum of monomials, `f(x) = sum_k c_k prod_i x_i^{a_ki}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Posynomial {
    terms: Vec<Monomial>,
}

impl Posynomial {
    /// The zero posynomial (empty sum). Valid as a building block but not
    /// as an objective or constraint.
    pub fn zero() -> Self {
        Posynomial { terms: Vec::new() }
    }

    /// Creates a posynomial from monomial terms.
    pub fn from_terms(terms: Vec<Monomial>) -> Self {
        Posynomial { terms }
    }

    /// A posynomial with a single monomial term.
    pub fn monomial(m: Monomial) -> Self {
        Posynomial { terms: vec![m] }
    }

    /// The monomial terms.
    #[inline]
    pub fn terms(&self) -> &[Monomial] {
        &self.terms
    }

    /// Number of monomial terms.
    #[inline]
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// True if this is the empty (zero) posynomial.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Appends a term.
    pub fn push(&mut self, m: Monomial) {
        self.terms.push(m);
    }

    /// Adds another posynomial (term concatenation).
    pub fn add(&mut self, other: &Posynomial) {
        self.terms.extend_from_slice(&other.terms);
    }

    /// Returns `self * alpha` for `alpha > 0`.
    pub fn scaled(&self, alpha: f64) -> Result<Posynomial, GpError> {
        let terms = self
            .terms
            .iter()
            .map(|m| m.scaled(alpha))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Posynomial { terms })
    }

    /// Evaluates at strictly positive `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|m| m.eval(x)).sum()
    }

    /// Largest variable index referenced, if any.
    pub fn max_var(&self) -> Option<usize> {
        self.terms.iter().filter_map(Monomial::max_var).max()
    }

    /// Merges terms with identical exponent vectors, summing coefficients.
    ///
    /// Constraint construction by multinomial expansion produces many
    /// structurally equal terms; merging keeps solver cost proportional to
    /// the number of *distinct* monomials.
    pub fn simplify(&mut self) {
        self.terms.sort_by(|a, b| cmp_exps(&a.exps, &b.exps));
        let mut out: Vec<Monomial> = Vec::with_capacity(self.terms.len());
        for t in self.terms.drain(..) {
            match out.last_mut() {
                Some(last) if last.exps == t.exps => last.coef += t.coef,
                _ => out.push(t),
            }
        }
        self.terms = out;
    }
}

fn cmp_exps(a: &[(usize, f64)], b: &[(usize, f64)]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (&(va, ea), &(vb, eb)) in a.iter().zip(b.iter()) {
        match va.cmp(&vb) {
            Ordering::Equal => {}
            o => return o,
        }
        match ea.partial_cmp(&eb) {
            Some(Ordering::Equal) | None => {}
            Some(o) => return o,
        }
    }
    a.len().cmp(&b.len())
}

impl std::fmt::Display for Monomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.coef)?;
        for &(v, e) in &self.exps {
            if e == 1.0 {
                write!(f, "*x{v}")?;
            } else {
                write!(f, "*x{v}^{e}")?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Posynomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomial_rejects_bad_coefficients() {
        assert!(Monomial::new(0.0, []).is_err());
        assert!(Monomial::new(-1.0, []).is_err());
        assert!(Monomial::new(f64::NAN, []).is_err());
        assert!(Monomial::new(f64::INFINITY, []).is_err());
        assert!(Monomial::new(1.0, [(0, f64::NAN)]).is_err());
    }

    #[test]
    fn monomial_merges_duplicate_vars() {
        let m = Monomial::new(2.0, [(1, 1.0), (0, 2.0), (1, 3.0)]).unwrap();
        assert_eq!(m.exponents(), &[(0, 2.0), (1, 4.0)]);
    }

    #[test]
    fn monomial_drops_zero_exponents() {
        let m = Monomial::new(2.0, [(0, 1.0), (0, -1.0), (2, 1.0)]).unwrap();
        assert_eq!(m.exponents(), &[(2, 1.0)]);
    }

    #[test]
    fn eval_matches_manual() {
        // 3 * x0^2 * x1^-1 at x = (2, 4) -> 3*4/4 = 3.
        let m = Monomial::new(3.0, [(0, 2.0), (1, -1.0)]).unwrap();
        assert!((m.eval(&[2.0, 4.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn posynomial_eval_sums_terms() {
        let p = Posynomial::from_terms(vec![
            Monomial::new(1.0, [(0, 1.0)]).unwrap(),
            Monomial::new(2.0, [(1, 1.0)]).unwrap(),
        ]);
        assert!((p.eval(&[3.0, 5.0]) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn simplify_merges_equal_exponent_terms() {
        let mut p = Posynomial::from_terms(vec![
            Monomial::new(1.0, [(0, 1.0), (1, 1.0)]).unwrap(),
            Monomial::new(2.5, [(1, 1.0), (0, 1.0)]).unwrap(),
            Monomial::new(1.0, [(0, 2.0)]).unwrap(),
        ]);
        p.simplify();
        assert_eq!(p.n_terms(), 2);
        let x = [1.7, 2.3];
        assert!((p.eval(&x) - (3.5 * 1.7 * 2.3 + 1.7 * 1.7)).abs() < 1e-12);
    }

    #[test]
    fn max_var_reports_largest_index() {
        let p = Posynomial::from_terms(vec![
            Monomial::new(1.0, [(3, 1.0)]).unwrap(),
            Monomial::new(1.0, [(7, 2.0)]).unwrap(),
        ]);
        assert_eq!(p.max_var(), Some(7));
        assert_eq!(Posynomial::zero().max_var(), None);
    }

    #[test]
    fn display_is_readable() {
        let m = Monomial::new(2.0, [(0, 1.0), (1, 2.0)]).unwrap();
        assert_eq!(format!("{m}"), "2*x0*x1^2");
    }
}
