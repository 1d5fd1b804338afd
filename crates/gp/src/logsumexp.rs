//! Log-space transform of posynomials.
//!
//! Under the change of variables `y_i = ln x_i`, a posynomial
//! `f(x) = sum_k c_k prod_i x_i^{a_ki}` becomes
//! `F(y) = ln sum_k exp(a_k . y + ln c_k)`, a smooth convex function
//! (log-sum-exp of affine functions). This module pre-compiles a posynomial
//! into that form and evaluates value, gradient and Hessian stably.

use crate::error::GpError;
use crate::linalg::Matrix;
use crate::posynomial::Posynomial;

/// A posynomial compiled to log-space: rows of exponents plus log-coefficients.
#[derive(Debug, Clone)]
pub struct LogPosynomial {
    /// Every term's sparse exponent row `(var, exponent)`, back to back:
    /// one allocation per posynomial, read front to back by every pass.
    entries: Vec<(usize, f64)>,
    /// Term `k`'s row is `entries[row_ends[k - 1]..row_ends[k]]`.
    row_ends: Vec<u32>,
    /// Per-term `ln c_k`.
    log_coefs: Vec<f64>,
    /// Number of variables in the ambient space.
    n_vars: usize,
}

/// Value, gradient and Hessian of a `LogPosynomial` at a point.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// `F(y)`.
    pub value: f64,
    /// `∇F(y)`.
    pub grad: Vec<f64>,
    /// `∇²F(y)` (symmetric, `n_vars x n_vars`).
    pub hess: Matrix,
}

impl LogPosynomial {
    /// The log-space form of `sum_k scale * coef_k * prod x_v^e` over
    /// `n_vars` variables, from `(coef_k, exponent row)` terms wherever
    /// they are kept: a program that knows its rows compiles them without
    /// building a [`Posynomial`] first. The one place the arrays are
    /// filled, each sized exactly.
    ///
    /// # Errors
    /// * [`GpError::EmptyPosynomial`] when there is no term;
    /// * [`GpError::NonPositiveCoefficient`] unless every `scale * coef_k`
    ///   is finite and `> 0`;
    /// * [`GpError::InvalidExponent`] unless every row is strictly
    ///   ascending by variable, below `n_vars`, with finite non-zero
    ///   exponents (the stored form of a [`crate::Monomial`]);
    /// * [`GpError::NumericalFailure`] when the rows outgrow the `u32`
    ///   offsets.
    pub fn from_rows<R: AsRef<[(usize, f64)]>>(
        terms: impl Iterator<Item = (f64, R)> + Clone,
        scale: f64,
        n_vars: usize,
    ) -> Result<Self, GpError> {
        let (n_terms, n_entries) = (terms.clone()).fold((0, 0), |(terms, entries), (_, row)| {
            (terms + 1, entries + row.as_ref().len())
        });
        if n_terms == 0 {
            return Err(GpError::EmptyPosynomial);
        }
        if u32::try_from(n_entries).is_err() {
            return Err(GpError::NumericalFailure(
                "posynomial has over 2^32 exponents",
            ));
        }
        let mut entries = Vec::with_capacity(n_entries);
        let mut row_ends = Vec::with_capacity(n_terms);
        let mut log_coefs = Vec::with_capacity(n_terms);
        for (coef, row) in terms {
            let (coef, row) = (coef * scale, row.as_ref());
            if !(coef.is_finite() && coef > 0.0) {
                return Err(GpError::NonPositiveCoefficient(coef));
            }
            let ascending = row.windows(2).all(|w| w[0].0 < w[1].0);
            let in_range = row.last().is_none_or(|&(v, _)| v < n_vars);
            if !(ascending && in_range && row.iter().all(|&(_, e)| e.is_finite() && e != 0.0)) {
                return Err(GpError::InvalidExponent);
            }
            entries.extend_from_slice(row);
            row_ends.push(entries.len() as u32);
            log_coefs.push(coef.ln());
        }
        Ok(LogPosynomial {
            entries,
            row_ends,
            log_coefs,
            n_vars,
        })
    }

    /// Compiles a posynomial for an ambient space of `n_vars` variables.
    ///
    /// # Panics
    /// Panics if the posynomial references a variable `>= n_vars` or is
    /// empty (callers validate through [`crate::problem::GpProblem`]).
    pub fn compile(p: &Posynomial, n_vars: usize) -> Self {
        let terms = p.terms().iter().map(|t| (t.coef(), t.exponents()));
        Self::from_rows(terms, 1.0, n_vars).expect("a validated posynomial compiles")
    }

    /// Number of monomial terms.
    pub fn n_terms(&self) -> usize {
        self.row_ends.len()
    }

    /// Number of variables in the ambient space.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Term `k`'s sparse exponent row (the sparse KKT plan reads the
    /// structure directly to build its support cliques).
    pub(crate) fn row(&self, k: usize) -> &[(usize, f64)] {
        let start = if k == 0 { 0 } else { self.row_ends[k - 1] };
        &self.entries[start as usize..self.row_ends[k] as usize]
    }

    /// Every term's sparse exponent row, in term order.
    pub fn rows(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        self.row_ends.iter().scan(0, |start, &end| {
            let row = &self.entries[*start..end as usize];
            *start = end as usize;
            Some(row)
        })
    }

    /// Every term's `ln c_k`, in term order.
    pub fn log_coefs(&self) -> &[f64] {
        &self.log_coefs
    }

    /// Log-coefficient of term `k`.
    pub(crate) fn log_coef(&self, k: usize) -> f64 {
        self.log_coefs[k]
    }

    /// Refreshes the log-coefficients in place from `p` when the term
    /// structure (number of terms and exponent rows) matches; returns
    /// `false` (leaving `self` untouched) when it does not.
    ///
    /// DAB recomputation rebuilds the same condition posynomial with
    /// coefficients that track the drifting data values, so the exponent
    /// structure is almost always stable and recompilation is wasted work.
    pub fn refresh_coefs(&mut self, p: &Posynomial) -> bool {
        if p.n_terms() != self.n_terms() {
            return false;
        }
        for (t, row) in p.terms().iter().zip(self.rows()) {
            if t.exponents() != row {
                return false;
            }
        }
        for (t, lc) in p.terms().iter().zip(self.log_coefs.iter_mut()) {
            *lc = t.coef().ln();
        }
        true
    }

    /// Overwrites the coefficients with `scale * coefs[k]` (one per term,
    /// each strictly positive and finite), keeping the exponent rows.
    pub(crate) fn set_coefs(&mut self, coefs: &[f64], scale: f64) {
        debug_assert_eq!(coefs.len(), self.log_coefs.len());
        for (c, lc) in coefs.iter().zip(self.log_coefs.iter_mut()) {
            *lc = (c * scale).ln();
        }
    }

    /// True if this is a single monomial, i.e. `F` is affine in `y`.
    pub fn is_affine(&self) -> bool {
        self.n_terms() == 1
    }

    /// Appends the per-term affine values `z_k = a_k . y + ln c_k`.
    fn term_values(&self, y: &[f64], out: &mut Vec<f64>) {
        for (row, lc) in self.rows().zip(&self.log_coefs) {
            let mut z = *lc;
            for &(v, e) in row {
                z += e * y[v];
            }
            out.push(z);
        }
    }

    /// The phase-I lift `F(y) - y_n` over `n_vars + 1` variables: every
    /// term gains exponent `-1` in the new last variable, so
    /// `F(y) <= sigma` reads as the posynomial constraint `f(x)/sigma <= 1`.
    pub(crate) fn lifted(&self) -> Self {
        let mut entries = Vec::with_capacity(self.entries.len() + self.n_terms());
        let mut row_ends = Vec::with_capacity(self.n_terms());
        for row in self.rows() {
            entries.extend_from_slice(row);
            entries.push((self.n_vars, -1.0));
            row_ends.push(entries.len() as u32);
        }
        LogPosynomial {
            entries,
            row_ends,
            log_coefs: self.log_coefs.clone(),
            n_vars: self.n_vars + 1,
        }
    }

    /// Evaluates `F(y)` and appends the softmax weights `p_k` to `probs`
    /// (the solver keeps every posynomial's weights in one flat buffer).
    pub(crate) fn softmax_append(&self, y: &[f64], probs: &mut Vec<f64>) -> f64 {
        debug_assert_eq!(y.len(), self.n_vars);
        let at = probs.len();
        self.term_values(y, probs);
        softmax_in_place(&mut probs[at..])
    }

    /// Adds `w * grad F = w * sum_k p_k a_k` into `out`.
    pub(crate) fn add_gradient(&self, probs: &[f64], w: f64, out: &mut [f64]) {
        debug_assert_eq!(probs.len(), self.n_terms());
        for (row, pk) in self.rows().zip(probs) {
            let wp = w * pk;
            for &(v, e) in row {
                out[v] += wp * e;
            }
        }
    }

    /// Directional derivative `grad F . d = sum_k p_k (a_k . d)`.
    pub(crate) fn directional(&self, probs: &[f64], d: &[f64]) -> f64 {
        debug_assert_eq!(probs.len(), self.n_terms());
        let mut acc = 0.0;
        for (row, pk) in self.rows().zip(probs) {
            let mut ad = 0.0;
            for &(v, e) in row {
                ad += e * d[v];
            }
            acc += pk * ad;
        }
        acc
    }

    /// Evaluates `F(y)` only.
    pub fn value(&self, y: &[f64]) -> f64 {
        debug_assert_eq!(y.len(), self.n_vars);
        self.value_buf(y, &mut Vec::with_capacity(self.n_terms()))
    }

    /// Evaluates `F(y)` reusing `z` as the per-term scratch buffer.
    pub fn value_buf(&self, y: &[f64], z: &mut Vec<f64>) -> f64 {
        debug_assert_eq!(y.len(), self.n_vars);
        z.clear();
        self.term_values(y, z);
        log_sum_exp(z)
    }

    /// Evaluates value and gradient without allocating: `probs` is reused
    /// as scratch and left holding the softmax weights `p_k` (needed by
    /// [`LogPosynomial::add_second_moment`]); `grad` is overwritten.
    pub fn value_grad_buf(&self, y: &[f64], probs: &mut Vec<f64>, grad: &mut [f64]) -> f64 {
        debug_assert_eq!(y.len(), self.n_vars);
        debug_assert_eq!(grad.len(), self.n_vars);
        probs.clear();
        let value = self.softmax_append(y, probs);
        grad.fill(0.0);
        self.add_gradient(probs, 1.0, grad);
        value
    }

    /// Adds `alpha * sum_k p_k a_k a_kᵀ` (the softmax second moment of the
    /// exponent rows) into `hess`, with `probs` as produced by
    /// [`LogPosynomial::value_grad_buf`]; each term scatters only the
    /// `k x k` entries its `k` variables span.
    ///
    /// Together with the gradient this yields the Hessian:
    /// `∇²F = sum_k p_k a_k a_kᵀ − ∇F ∇Fᵀ`.
    pub fn add_second_moment(&self, probs: &[f64], alpha: f64, hess: &mut Matrix) {
        debug_assert_eq!(probs.len(), self.n_terms());
        for (row, pk) in self.rows().zip(probs.iter()) {
            hess.add_outer_sparse(alpha * pk, row);
        }
    }

    /// Evaluates value and gradient.
    pub fn value_grad(&self, y: &[f64]) -> (f64, Vec<f64>) {
        let mut z = Vec::with_capacity(self.n_terms());
        self.term_values(y, &mut z);
        let (value, p) = softmax(&z);
        let mut grad = vec![0.0; self.n_vars];
        for (row, pk) in self.rows().zip(&p) {
            for &(v, e) in row {
                grad[v] += pk * e;
            }
        }
        (value, grad)
    }

    /// Evaluates value, gradient and Hessian.
    ///
    /// `∇F = sum_k p_k a_k`, `∇²F = sum_k p_k a_k a_kᵀ − ∇F ∇Fᵀ`, where
    /// `p = softmax(z)`.
    pub fn evaluate(&self, y: &[f64]) -> Evaluation {
        let mut z = Vec::with_capacity(self.n_terms());
        self.term_values(y, &mut z);
        let (value, p) = softmax(&z);
        let n = self.n_vars;
        let mut grad = vec![0.0; n];
        let mut hess = Matrix::zeros(n, n);
        let mut dense_row = vec![0.0; n];
        for (row, pk) in self.rows().zip(&p) {
            if *pk == 0.0 {
                continue;
            }
            for &(v, e) in row {
                grad[v] += pk * e;
            }
            if self.n_terms() > 1 {
                // Accumulate p_k a_k a_k^T using the sparse row.
                for d in dense_row.iter_mut() {
                    *d = 0.0;
                }
                for &(v, e) in row {
                    dense_row[v] = e;
                }
                hess.add_outer(*pk, &dense_row);
            }
        }
        if self.n_terms() > 1 {
            hess.add_outer(-1.0, &grad);
        }
        Evaluation { value, grad, hess }
    }
}

/// Numerically stable `ln sum_k exp(z_k)`.
pub fn log_sum_exp(z: &[f64]) -> f64 {
    debug_assert!(!z.is_empty());
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    let s: f64 = z.iter().map(|&zi| (zi - m).exp()).sum();
    m + s.ln()
}

/// Stable softmax over `z` in place; returns `log_sum_exp(z)` and leaves
/// `z` holding the softmax weights.
pub(crate) fn softmax_in_place(z: &mut [f64]) -> f64 {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut s = 0.0;
    for zi in z.iter_mut() {
        *zi = (*zi - m).exp();
        s += *zi;
    }
    for zi in z.iter_mut() {
        *zi /= s;
    }
    m + s.ln()
}

/// Stable softmax; returns `(log_sum_exp(z), softmax(z))`.
fn softmax(z: &[f64]) -> (f64, Vec<f64>) {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut p: Vec<f64> = z.iter().map(|&zi| (zi - m).exp()).collect();
    let s: f64 = p.iter().sum();
    for pi in &mut p {
        *pi /= s;
    }
    (m + s.ln(), p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posynomial::Monomial;

    fn sample() -> Posynomial {
        // f(x) = 2 x0 x1 + 3 / x0
        Posynomial::from_terms(vec![
            Monomial::new(2.0, [(0, 1.0), (1, 1.0)]).unwrap(),
            Monomial::new(3.0, [(0, -1.0)]).unwrap(),
        ])
    }

    #[test]
    fn value_matches_direct_evaluation() {
        let p = sample();
        let lp = LogPosynomial::compile(&p, 2);
        let x = [1.5_f64, 0.7_f64];
        let y = [x[0].ln(), x[1].ln()];
        assert!((lp.value(&y) - p.eval(&x).ln()).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let lp = LogPosynomial::compile(&sample(), 2);
        let y = [0.3, -0.2];
        let (_, g) = lp.value_grad(&y);
        let h = 1e-6;
        for i in 0..2 {
            let mut yp = y;
            yp[i] += h;
            let mut ym = y;
            ym[i] -= h;
            let fd = (lp.value(&yp) - lp.value(&ym)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-6, "grad[{i}] {} vs fd {fd}", g[i]);
        }
    }

    #[test]
    fn hessian_matches_finite_differences() {
        let lp = LogPosynomial::compile(&sample(), 2);
        let y = [0.1, 0.4];
        let ev = lp.evaluate(&y);
        let h = 1e-5;
        for i in 0..2 {
            for j in 0..2 {
                let mut ypp = y;
                ypp[i] += h;
                ypp[j] += h;
                let mut ypm = y;
                ypm[i] += h;
                ypm[j] -= h;
                let mut ymp = y;
                ymp[i] -= h;
                ymp[j] += h;
                let mut ymm = y;
                ymm[i] -= h;
                ymm[j] -= h;
                let fd = (lp.value(&ypp) - lp.value(&ypm) - lp.value(&ymp) + lp.value(&ymm))
                    / (4.0 * h * h);
                assert!(
                    (ev.hess[(i, j)] - fd).abs() < 1e-4,
                    "hess[{i}{j}] {} vs fd {fd}",
                    ev.hess[(i, j)]
                );
            }
        }
    }

    #[test]
    fn monomial_transform_is_affine() {
        let p = Posynomial::monomial(Monomial::new(5.0, [(0, 2.0)]).unwrap());
        let lp = LogPosynomial::compile(&p, 1);
        assert!(lp.is_affine());
        let ev = lp.evaluate(&[0.7]);
        assert!((ev.value - (5.0_f64.ln() + 2.0 * 0.7)).abs() < 1e-12);
        assert!((ev.grad[0] - 2.0).abs() < 1e-12);
        assert!(ev.hess[(0, 0)].abs() < 1e-12);
    }

    /// What `Monomial::new` and `GpProblem` refuse, refused as rows: a
    /// typed error each, never a panic.
    #[test]
    fn from_rows_rejects_what_is_not_a_posynomial() {
        type Row = &'static [(usize, f64)];
        let ok: Row = &[(0, 1.0), (2, -2.0)];
        // The bad term last, after one that is fine.
        let refused = |coef: f64, scale: f64, row: Row| {
            let terms = [(2.0 / scale, ok), (coef, row)];
            LogPosynomial::from_rows(terms.into_iter(), scale, 3).unwrap_err()
        };
        // (coefficient, scale, the product the error reports)
        let coefficients = [
            (f64::NAN, 1.0, f64::NAN),
            (f64::INFINITY, 1.0, f64::INFINITY),
            (0.0, 1.0, 0.0),
            (-2.0, 1.0, -2.0),
            (1e-200, 1e-200, 0.0),
            (1e200, 1e200, f64::INFINITY),
        ];
        for (coef, scale, reported) in coefficients {
            let GpError::NonPositiveCoefficient(got) = refused(coef, scale, ok) else {
                panic!("{coef} * {scale}: not a coefficient error");
            };
            assert_eq!(got.to_bits(), reported.to_bits(), "{coef} * {scale}");
        }
        let rows: [(&str, Row); 6] = [
            ("nan exponent", &[(0, f64::NAN)]),
            ("infinite exponent", &[(0, f64::INFINITY)]),
            ("zero exponent", &[(0, 1.0), (1, 0.0)]),
            ("unsorted variables", &[(2, 1.0), (0, 1.0)]),
            ("duplicate variable", &[(1, 1.0), (1, 2.0)]),
            ("variable out of range", &[(0, 1.0), (3, 1.0)]),
        ];
        for (name, row) in rows {
            assert_eq!(refused(1.0, 1.0, row), GpError::InvalidExponent, "{name}");
        }
        let none: [(f64, Row); 0] = [];
        assert_eq!(
            LogPosynomial::from_rows(none.into_iter(), 1.0, 3).unwrap_err(),
            GpError::EmptyPosynomial
        );
    }

    #[test]
    fn from_rows_scales_every_coefficient_and_sizes_its_arrays_exactly() {
        let rows: [(f64, &[(usize, f64)]); 3] = [
            (2.0, &[(0, 1.0), (1, 1.0)]),
            (3.0, &[(0, -1.0)]),
            (5.0, &[]),
        ];
        // A filter has no lower size hint, like `DeviationMap::terms`.
        let kept = rows.into_iter().filter(|&(c, _)| c != 3.0);
        let lp = LogPosynomial::from_rows(kept, 0.25, 2).unwrap();
        assert_eq!(
            lp.rows().collect::<Vec<_>>(),
            [&[(0, 1.0), (1, 1.0)][..], &[]]
        );
        assert_eq!(lp.log_coefs(), [0.5f64.ln(), 1.25f64.ln()]);
        assert_eq!(lp.entries.capacity(), 2);
        assert_eq!(lp.row_ends.capacity(), 2);
        assert_eq!(lp.log_coefs.capacity(), 2);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        let v = log_sum_exp(&[-1000.0, -1001.0]);
        assert!(v.is_finite());
    }
}
