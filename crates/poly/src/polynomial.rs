//! Multivariate polynomials over data items.
//!
//! These are the query bodies of the paper: `P(x_1..x_n) = sum_i w_i *
//! x^{p_i} ...` with real weights of either sign and **non-negative integer
//! exponents**. Integer exponents are what the paper's evaluated queries use
//! (degree-2 products) and what the exact worst-case-deviation expansion in
//! [`crate::constraint`] requires; geometric programming itself would allow
//! fractional exponents, for which the crate offers a conservative
//! first-order fallback.

use crate::error::PolyError;
use crate::item::ItemId;

/// One polynomial term `coef * prod_i x_i^{e_i}`.
///
/// Variables are sorted by item id, merged, with no zero exponents.
#[derive(Debug, Clone, PartialEq)]
pub struct PTerm {
    coef: f64,
    vars: Vec<(ItemId, u32)>,
}

impl PTerm {
    /// Creates a term; exponent pairs may be unsorted/duplicated.
    ///
    /// # Errors
    /// [`PolyError::InvalidCoefficient`] unless `coef` is finite & non-zero;
    /// [`PolyError::ExponentOverflow`] when an item's exponents sum past
    /// `u32::MAX`.
    pub fn new(
        coef: f64,
        vars: impl IntoIterator<Item = (ItemId, u32)>,
    ) -> Result<Self, PolyError> {
        if coef == 0.0 || !coef.is_finite() {
            return Err(PolyError::InvalidCoefficient(coef));
        }
        let mut pairs: Vec<(ItemId, u32)> = vars.into_iter().collect();
        pairs.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(ItemId, u32)> = Vec::with_capacity(pairs.len());
        for (v, e) in pairs {
            match merged.last_mut() {
                Some((lv, le)) if *lv == v => {
                    *le = le
                        .checked_add(e)
                        .ok_or(PolyError::ExponentOverflow { item: v.0 })?;
                }
                _ => merged.push((v, e)),
            }
        }
        merged.retain(|&(_, e)| e != 0);
        Ok(PTerm { coef, vars: merged })
    }

    /// A constant term.
    pub fn constant(coef: f64) -> Result<Self, PolyError> {
        PTerm::new(coef, [])
    }

    /// The coefficient (weight) of the term.
    #[inline]
    pub fn coef(&self) -> f64 {
        self.coef
    }

    /// The `(item, exponent)` pairs, sorted by item id.
    #[inline]
    pub fn vars(&self) -> &[(ItemId, u32)] {
        &self.vars
    }

    /// Total degree (sum of exponents), saturating at `u32::MAX`.
    pub fn degree(&self) -> u32 {
        self.vars.iter().fold(0, |d, &(_, e)| d.saturating_add(e))
    }

    /// Evaluates the term at `values[item.index()]`.
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut v = self.coef;
        for &(i, e) in &self.vars {
            v *= values[i.index()].powi(e as i32);
        }
        v
    }

    fn with_coef(&self, coef: f64) -> PTerm {
        PTerm {
            coef,
            vars: self.vars.clone(),
        }
    }
}

/// A polynomial: a sum of [`PTerm`]s with distinct variable signatures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polynomial {
    terms: Vec<PTerm>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { terms: Vec::new() }
    }

    /// Builds a polynomial from terms, merging equal variable signatures and
    /// dropping terms that cancel to zero.
    pub fn from_terms(terms: impl IntoIterator<Item = PTerm>) -> Self {
        let mut p = Polynomial::zero();
        for t in terms {
            p.accumulate(t);
        }
        p
    }

    /// A single-term polynomial.
    pub fn term(t: PTerm) -> Self {
        Polynomial { terms: vec![t] }
    }

    fn accumulate(&mut self, t: PTerm) {
        if let Some(existing) = self.terms.iter_mut().find(|e| e.vars == t.vars) {
            existing.coef += t.coef;
            if existing.coef == 0.0 {
                self.terms.retain(|e| e.coef != 0.0);
            }
        } else {
            self.terms.push(t);
        }
    }

    /// The terms of the polynomial.
    #[inline]
    pub fn terms(&self) -> &[PTerm] {
        &self.terms
    }

    /// Number of terms.
    #[inline]
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// True for the zero polynomial.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The polynomial degree: max over terms of the total degree.
    pub fn degree(&self) -> u32 {
        self.terms.iter().map(PTerm::degree).max().unwrap_or(0)
    }

    /// True if every coefficient is positive (a PPQ body; §I-A).
    pub fn is_positive_coefficient(&self) -> bool {
        self.terms.iter().all(|t| t.coef > 0.0)
    }

    /// True if the degree is at most 1 (an LAQ body; §I-A).
    pub fn is_linear(&self) -> bool {
        self.degree() <= 1
    }

    /// The distinct items referenced, in ascending id order.
    pub fn items(&self) -> Vec<ItemId> {
        // Sized for every occurrence: one allocation, not a growth chain.
        let mut v = Vec::with_capacity(self.terms.iter().map(|t| t.vars.len()).sum());
        v.extend(
            self.terms
                .iter()
                .flat_map(|t| t.vars.iter().map(|&(i, _)| i)),
        );
        v.sort();
        v.dedup();
        v
    }

    /// Largest referenced item id, if any.
    pub fn max_item(&self) -> Option<ItemId> {
        self.items().last().copied()
    }

    /// The same polynomial over a renamed item space: every referenced
    /// item `i` becomes `f(i)`. Term variable lists are re-sorted and
    /// re-merged, so `f` need not be monotone; it must however be
    /// injective on the referenced items — mapping two distinct items of
    /// one term onto the same id would silently merge their exponents.
    ///
    /// This is the shard-local renumbering step of the partitioned
    /// engine: a query assigned to a shard is rewritten from global item
    /// ids onto that shard's dense local ids.
    pub fn map_items(&self, mut f: impl FnMut(ItemId) -> ItemId) -> Polynomial {
        Polynomial::from_terms(self.terms.iter().map(|t| {
            PTerm::new(t.coef, t.vars.iter().map(|&(i, e)| (f(i), e)))
                .expect("coefficient was already valid")
        }))
    }

    /// Evaluates at `values[item.index()]`.
    ///
    /// # Panics
    /// Panics if `values` is shorter than the largest referenced item id;
    /// use [`Polynomial::checked_eval`] for a fallible version.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.terms.iter().map(|t| t.eval(values)).sum()
    }

    /// Evaluates, checking that all referenced items have values.
    pub fn checked_eval(&self, values: &[f64]) -> Result<f64, PolyError> {
        if let Some(mx) = self.max_item() {
            if mx.index() >= values.len() {
                return Err(PolyError::MissingValue { item: mx.0 });
            }
        }
        Ok(self.eval(values))
    }

    /// Splits `P = P1 - P2` into positive-coefficient polynomials `P1`
    /// (positive terms) and `P2` (absolute values of negative terms).
    ///
    /// This is the key observation of §III-B.1 enabling the Half-and-Half
    /// and Different-Sum heuristics.
    pub fn split_pos_neg(&self) -> (Polynomial, Polynomial) {
        let mut pos = Polynomial::zero();
        let mut neg = Polynomial::zero();
        for t in &self.terms {
            if t.coef > 0.0 {
                pos.terms.push(t.clone());
            } else {
                neg.terms.push(t.with_coef(-t.coef));
            }
        }
        (pos, neg)
    }

    /// `self + other`.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let mut p = self.clone();
        for t in &other.terms {
            p.accumulate(t.clone());
        }
        p
    }

    /// `self - other`.
    pub fn sub(&self, other: &Polynomial) -> Polynomial {
        let mut p = self.clone();
        for t in &other.terms {
            p.accumulate(t.with_coef(-t.coef));
        }
        p
    }

    /// `self * alpha` (dropping terms if `alpha == 0`).
    pub fn scale(&self, alpha: f64) -> Polynomial {
        if alpha == 0.0 {
            return Polynomial::zero();
        }
        Polynomial {
            terms: self
                .terms
                .iter()
                .map(|t| t.with_coef(t.coef * alpha))
                .collect(),
        }
    }

    /// `self * other` (term-by-term products, merged).
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut p = Polynomial::zero();
        for a in &self.terms {
            for b in &other.terms {
                let mut vars = a.vars.clone();
                vars.extend_from_slice(&b.vars);
                if let Ok(t) = PTerm::new(a.coef * b.coef, vars) {
                    p.accumulate(t);
                }
            }
        }
        p
    }

    /// True if the two polynomials share no data items (the paper's
    /// *independence*; §III-B.1).
    pub fn is_independent_of(&self, other: &Polynomial) -> bool {
        let mine = self.items();
        other.items().iter().all(|i| mine.binary_search(i).is_err())
    }

    /// Maximum of `|P(v') - P(values)|` over the box
    /// `|v'_i - values_i| <= dabs_i`, by corner enumeration.
    ///
    /// Exact for boxes contained in the positive orthant (each term is then
    /// monotone in each variable, so the extremum sits at a corner). Used to
    /// validate DAB assignments in tests and the simulator; cost is
    /// `O(2^k)` in the number of referenced items, so `k` is capped at 20.
    ///
    /// # Panics
    /// Panics if more than 20 items are referenced.
    pub fn max_abs_deviation_over_box(&self, values: &[f64], dabs: &[f64]) -> f64 {
        let items = self.items();
        assert!(items.len() <= 20, "corner enumeration capped at 20 items");
        let base = self.eval(values);
        let mut worst = 0.0_f64;
        let mut v = values.to_vec();
        for mask in 0u32..(1u32 << items.len()) {
            for (bit, &it) in items.iter().enumerate() {
                let d = dabs[it.index()];
                v[it.index()] = if mask >> bit & 1 == 1 {
                    values[it.index()] + d
                } else {
                    values[it.index()] - d
                };
            }
            worst = worst.max((self.eval(&v) - base).abs());
        }
        worst
    }
}

impl std::fmt::Display for Polynomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            let c = t.coef();
            if i == 0 {
                if c < 0.0 {
                    write!(f, "-")?;
                }
            } else if c < 0.0 {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let a = c.abs();
            if a != 1.0 || t.vars().is_empty() {
                write!(f, "{a}")?;
                if !t.vars().is_empty() {
                    write!(f, "*")?;
                }
            }
            for (j, &(v, e)) in t.vars().iter().enumerate() {
                if j > 0 {
                    write!(f, "*")?;
                }
                if e == 1 {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{v}^{e}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    #[test]
    fn term_merges_and_sorts_vars() {
        let t = PTerm::new(2.0, [(x(3), 1), (x(1), 2), (x(3), 1)]).unwrap();
        assert_eq!(t.vars(), &[(x(1), 2), (x(3), 2)]);
        assert_eq!(t.degree(), 4);
    }

    #[test]
    fn term_rejects_zero_and_nonfinite_coefficients() {
        assert!(PTerm::new(0.0, []).is_err());
        assert!(PTerm::new(f64::NAN, []).is_err());
        assert!(PTerm::new(f64::INFINITY, []).is_err());
    }

    #[test]
    fn term_rejects_an_exponent_that_overflows_u32() {
        // Used to wrap to x^0 in release and panic in debug.
        assert_eq!(
            PTerm::new(1.0, [(x(2), u32::MAX), (x(2), 1)]),
            Err(PolyError::ExponentOverflow { item: 2 })
        );
        let top = PTerm::new(1.0, [(x(2), u32::MAX - 1), (x(2), 1)]).unwrap();
        assert_eq!(top.vars(), &[(x(2), u32::MAX)]);
        let wide = PTerm::new(1.0, [(x(0), u32::MAX), (x(1), u32::MAX)]).unwrap();
        assert_eq!(wide.degree(), u32::MAX, "saturates");
    }

    #[test]
    fn from_terms_merges_duplicates_and_cancels() {
        let p = Polynomial::from_terms([
            PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(3.0, [(x(1), 1), (x(0), 1)]).unwrap(),
            PTerm::new(1.0, [(x(2), 1)]).unwrap(),
            PTerm::new(-1.0, [(x(2), 1)]).unwrap(),
        ]);
        assert_eq!(p.n_terms(), 1);
        assert!((p.eval(&[2.0, 3.0, 100.0]) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn eval_matches_manual_product_query() {
        // Q = x*y, Fig. 2's example.
        let p = Polynomial::term(PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap());
        assert_eq!(p.eval(&[2.0, 2.0]), 4.0);
        assert_eq!(p.eval(&[3.0, 2.0]), 6.0);
        assert!((p.eval(&[3.9, 2.9]) - 11.31).abs() < 1e-12);
    }

    #[test]
    fn degree_and_classification() {
        let lin = Polynomial::from_terms([
            PTerm::new(1.0, [(x(0), 1)]).unwrap(),
            PTerm::new(2.0, [(x(1), 1)]).unwrap(),
        ]);
        assert!(lin.is_linear());
        assert!(lin.is_positive_coefficient());

        let quad = Polynomial::term(PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap());
        assert_eq!(quad.degree(), 2);
        assert!(!quad.is_linear());

        let gen = quad.sub(&Polynomial::term(PTerm::new(1.0, [(x(2), 2)]).unwrap()));
        assert!(!gen.is_positive_coefficient());
    }

    #[test]
    fn split_pos_neg_recombines() {
        // P = x y - u v + 2 x^2.
        let p = Polynomial::from_terms([
            PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(-1.0, [(x(2), 1), (x(3), 1)]).unwrap(),
            PTerm::new(2.0, [(x(0), 2)]).unwrap(),
        ]);
        let (p1, p2) = p.split_pos_neg();
        assert!(p1.is_positive_coefficient());
        assert!(p2.is_positive_coefficient());
        // P1 - P2 == P as a function (term order may differ).
        assert!(p1.sub(&p2).sub(&p).is_zero());
        let v = [1.5, 2.5, 0.5, 3.0];
        assert!((p1.eval(&v) - p2.eval(&v) - p.eval(&v)).abs() < 1e-12);
    }

    #[test]
    fn independence_detection() {
        let p1 = Polynomial::term(PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap());
        let p2 = Polynomial::term(PTerm::new(1.0, [(x(2), 1), (x(3), 1)]).unwrap());
        let p3 = Polynomial::term(PTerm::new(1.0, [(x(1), 2)]).unwrap());
        assert!(p1.is_independent_of(&p2));
        assert!(!p1.is_independent_of(&p3));
    }

    #[test]
    fn arithmetic_identities() {
        let a = Polynomial::from_terms([
            PTerm::new(2.0, [(x(0), 1)]).unwrap(),
            PTerm::new(1.0, [(x(1), 2)]).unwrap(),
        ]);
        let b = Polynomial::term(PTerm::new(3.0, [(x(0), 1)]).unwrap());
        let v = [1.7, 0.9];
        assert!((a.add(&b).eval(&v) - (a.eval(&v) + b.eval(&v))).abs() < 1e-12);
        assert!((a.sub(&b).eval(&v) - (a.eval(&v) - b.eval(&v))).abs() < 1e-12);
        assert!((a.mul(&b).eval(&v) - a.eval(&v) * b.eval(&v)).abs() < 1e-12);
        assert!((a.scale(2.5).eval(&v) - 2.5 * a.eval(&v)).abs() < 1e-12);
        assert!(a.sub(&a).is_zero());
    }

    #[test]
    fn box_deviation_matches_paper_example() {
        // Fig. 2: Q = xy at V = (3, 2) with b = (1, 1): the worst corner is
        // (4, 3) giving |12 - 6| = 6 > 5 = QAB, i.e. b = 1 is invalid there.
        let p = Polynomial::term(PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap());
        let dev = p.max_abs_deviation_over_box(&[3.0, 2.0], &[1.0, 1.0]);
        assert!((dev - 6.0).abs() < 1e-12);
        // At V = (2, 2) the same DABs are valid: worst corner (3,3) -> 5.
        let dev = p.max_abs_deviation_over_box(&[2.0, 2.0], &[1.0, 1.0]);
        assert!((dev - 5.0).abs() < 1e-12);
    }

    #[test]
    fn checked_eval_reports_missing_values() {
        let p = Polynomial::term(PTerm::new(1.0, [(x(5), 1)]).unwrap());
        assert_eq!(
            p.checked_eval(&[1.0, 2.0]),
            Err(PolyError::MissingValue { item: 5 })
        );
        assert!(p.checked_eval(&[0.0; 6]).is_ok());
    }

    #[test]
    fn display_is_readable() {
        let p = Polynomial::from_terms([
            PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(-2.0, [(x(2), 2)]).unwrap(),
        ]);
        assert_eq!(format!("{p}"), "x0*x1 - 2*x2^2");
    }
}
