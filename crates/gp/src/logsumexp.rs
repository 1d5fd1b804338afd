//! Log-space transform of posynomials.
//!
//! Under the change of variables `y_i = ln x_i`, a posynomial
//! `f(x) = sum_k c_k prod_i x_i^{a_ki}` becomes
//! `F(y) = ln sum_k exp(a_k . y + ln c_k)`, a smooth convex function
//! (log-sum-exp of affine functions). This module pre-compiles the
//! posynomials of a program into that form — all of them into one
//! [`LogArena`] — and evaluates value, gradient and Hessian stably through
//! borrowed per-posynomial views ([`LogPosynomial`]).

use crate::error::GpError;
use crate::linalg::Matrix;
use crate::posynomial::Posynomial;

/// The posynomials of one program compiled to log-space, back to back:
/// every term's exponent row in one array, every `ln c_k` in another, and
/// where each posynomial's terms end. Four allocations however many
/// posynomials there are, written once by a caller that knows its counts
/// ([`LogArena::with_capacity`] or [`LogArena::reset`], then
/// [`LogArena::push`]) and read front to back by every solver pass.
#[derive(Debug, Clone, Default)]
pub struct LogArena {
    /// Every term's sparse exponent row `(var, exponent)`.
    entries: Vec<(usize, f64)>,
    /// Term `k`'s row is `entries[row_ends[k - 1]..row_ends[k]]`.
    row_ends: Vec<u32>,
    /// Per-term `ln c_k`.
    log_coefs: Vec<f64>,
    /// Posynomial `p`'s terms are `term_ends[p - 1]..term_ends[p]`.
    term_ends: Vec<u32>,
    /// Number of variables in the ambient space.
    n_vars: usize,
}

/// One posynomial of a [`LogArena`]: rows of exponents plus
/// log-coefficients, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct LogPosynomial<'a> {
    /// The arena's exponent rows, all of them: `row_ends` indexes these.
    entries: &'a [(usize, f64)],
    /// Where this posynomial's first row starts in `entries`.
    first_row: u32,
    /// This posynomial's slice of the arena's `row_ends` and `log_coefs`.
    row_ends: &'a [u32],
    log_coefs: &'a [f64],
    n_vars: usize,
}

/// Value, gradient and Hessian of a [`LogPosynomial`] at a point.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// `F(y)`.
    pub value: f64,
    /// `∇F(y)`.
    pub grad: Vec<f64>,
    /// `∇²F(y)` (symmetric, `n_vars x n_vars`).
    pub hess: Matrix,
}

impl LogArena {
    /// An empty arena over `n_vars` variables with room for exactly
    /// `posynomials` posynomials of `terms` terms and `entries` exponents
    /// in all: a caller that counts first allocates each array once.
    pub fn with_capacity(n_vars: usize, posynomials: usize, terms: usize, entries: usize) -> Self {
        let mut arena = LogArena::default();
        arena.reset(n_vars, posynomials, terms, entries);
        arena
    }

    /// Empties the arena for a program over `n_vars` variables with room
    /// for exactly `posynomials` posynomials of `terms` terms and
    /// `entries` exponents in all, keeping what it already reserved: an
    /// arena kept as scratch is refilled without allocating once it has
    /// held a program that large.
    pub fn reset(&mut self, n_vars: usize, posynomials: usize, terms: usize, entries: usize) {
        self.entries.clear();
        self.row_ends.clear();
        self.log_coefs.clear();
        self.term_ends.clear();
        self.entries.reserve_exact(entries);
        self.row_ends.reserve_exact(terms);
        self.log_coefs.reserve_exact(terms);
        self.term_ends.reserve_exact(posynomials);
        self.n_vars = n_vars;
    }

    /// Appends the log-space form of `sum_k scale * coef_k * prod x_v^e`
    /// from `(coef_k, exponent row)` terms wherever they are kept: a
    /// program that knows its rows compiles them without building a
    /// [`Posynomial`] first. The one place the arrays are filled.
    ///
    /// # Errors
    /// With the arena as it was:
    /// * [`GpError::EmptyPosynomial`] when there is no term;
    /// * [`GpError::NonPositiveCoefficient`] unless every `scale * coef_k`
    ///   is finite and `> 0`;
    /// * [`GpError::InvalidExponent`] unless every row is strictly
    ///   ascending by variable, below `n_vars`, with finite non-zero
    ///   exponents (the stored form of a [`crate::Monomial`]);
    /// * [`GpError::NumericalFailure`] when the rows outgrow the `u32`
    ///   offsets.
    pub fn push<R: AsRef<[(usize, f64)]>>(
        &mut self,
        terms: impl Iterator<Item = (f64, R)>,
        scale: f64,
    ) -> Result<(), GpError> {
        let (first_entry, first_term) = (self.entries.len(), self.row_ends.len());
        let pushed = self.push_terms(terms, scale);
        if pushed.is_err() {
            self.entries.truncate(first_entry);
            self.row_ends.truncate(first_term);
            self.log_coefs.truncate(first_term);
        }
        pushed
    }

    fn push_terms<R: AsRef<[(usize, f64)]>>(
        &mut self,
        terms: impl Iterator<Item = (f64, R)>,
        scale: f64,
    ) -> Result<(), GpError> {
        let first_term = self.row_ends.len();
        for (coef, row) in terms {
            let (coef, row) = (coef * scale, row.as_ref());
            if !(coef.is_finite() && coef > 0.0) {
                return Err(GpError::NonPositiveCoefficient(coef));
            }
            let ascending = row.windows(2).all(|w| w[0].0 < w[1].0);
            let in_range = row.last().is_none_or(|&(v, _)| v < self.n_vars);
            if !(ascending && in_range && row.iter().all(|&(_, e)| e.is_finite() && e != 0.0)) {
                return Err(GpError::InvalidExponent);
            }
            self.entries.extend_from_slice(row);
            let end = u32::try_from(self.entries.len())
                .map_err(|_| GpError::NumericalFailure("program has over 2^32 exponents"))?;
            self.row_ends.push(end);
            self.log_coefs.push(coef.ln());
        }
        if self.row_ends.len() == first_term {
            return Err(GpError::EmptyPosynomial);
        }
        self.term_ends.push(self.row_ends.len() as u32);
        Ok(())
    }

    /// Compiles validated posynomials, in order, for an ambient space of
    /// `n_vars` variables.
    ///
    /// # Panics
    /// Panics if a posynomial references a variable `>= n_vars` or is
    /// empty (callers validate through [`crate::problem::GpProblem`]).
    pub fn compile<'p>(
        posynomials: impl Iterator<Item = &'p Posynomial> + Clone,
        n_vars: usize,
    ) -> Self {
        let rows = |p: &'p Posynomial| p.terms().iter().map(|t| (t.coef(), t.exponents()));
        let (mut n_posys, mut n_terms, mut n_entries) = (0, 0, 0);
        for p in posynomials.clone() {
            let (terms, entries) = count_rows(rows(p));
            (n_posys, n_terms, n_entries) = (n_posys + 1, n_terms + terms, n_entries + entries);
        }
        let mut arena = LogArena::with_capacity(n_vars, n_posys, n_terms, n_entries);
        for p in posynomials {
            (arena.push(rows(p), 1.0)).expect("a validated posynomial compiles");
        }
        arena
    }

    /// Number of posynomials.
    pub fn len(&self) -> usize {
        self.term_ends.len()
    }

    /// True when no posynomial has been pushed.
    pub fn is_empty(&self) -> bool {
        self.term_ends.is_empty()
    }

    /// Number of variables in the ambient space.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of monomial terms, over every posynomial.
    pub fn n_terms(&self) -> usize {
        self.row_ends.len()
    }

    /// Slots reserved beyond what is stored, over all four arrays: zero
    /// for an arena whose builder counted exactly.
    pub fn spare_capacity(&self) -> usize {
        (self.entries.capacity() - self.entries.len())
            + (self.row_ends.capacity() - self.row_ends.len())
            + (self.log_coefs.capacity() - self.log_coefs.len())
            + (self.term_ends.capacity() - self.term_ends.len())
    }

    /// Posynomial `p`.
    ///
    /// # Panics
    /// Panics unless `p < self.len()`.
    pub fn get(&self, p: usize) -> LogPosynomial<'_> {
        self.iter().nth(p).expect("no such posynomial")
    }

    /// Every posynomial, in push order.
    #[inline]
    pub fn iter(&self) -> Views<'_> {
        Views {
            entries: &self.entries,
            first_row: 0,
            row_ends: &self.row_ends,
            log_coefs: &self.log_coefs,
            first_term: 0,
            term_ends: self.term_ends.iter(),
            n_vars: self.n_vars,
        }
    }

    /// The phase-I program over `n_vars + 1` variables: the objective is
    /// the new last variable `σ`, and every posynomial of `self` but the
    /// first (the objective phase I ignores) becomes the lift
    /// `F(y) - ln σ`, each term gaining exponent `-1` in `σ`, so
    /// `F(y) <= ln σ` reads as the posynomial constraint `f(x)/σ <= 1`.
    /// Log-coefficients are copied verbatim.
    pub(crate) fn phase_one_lift(&self) -> Self {
        let first = self.term_ends[0] as usize;
        let terms = 1 + self.n_terms() - first;
        let kept = self.entries.len() - self.row_ends[first - 1] as usize;
        let mut lift = LogArena::with_capacity(self.n_vars + 1, self.len(), terms, kept + terms);
        lift.entries.push((self.n_vars, 1.0));
        lift.row_ends.push(1);
        lift.log_coefs.push(0.0);
        lift.term_ends.push(1);
        for f in self.iter().skip(1) {
            for row in f.rows() {
                lift.entries.extend_from_slice(row);
                lift.entries.push((self.n_vars, -1.0));
                lift.row_ends.push(lift.entries.len() as u32);
            }
            lift.log_coefs.extend_from_slice(f.log_coefs);
            lift.term_ends.push(lift.row_ends.len() as u32);
        }
        lift
    }
}

/// The posynomials of a [`LogArena`] front to back ([`LogArena::iter`]):
/// what every solver pass walks, so a step costs two slice splits — no
/// lookup of where the posynomial starts.
#[derive(Debug, Clone)]
pub struct Views<'a> {
    entries: &'a [(usize, f64)],
    /// Where the next posynomial's first row starts in `entries`.
    first_row: u32,
    /// The arena's `row_ends` and `log_coefs` from the next posynomial on.
    row_ends: &'a [u32],
    log_coefs: &'a [f64],
    /// The next posynomial's first term, and where each one's terms end.
    first_term: u32,
    term_ends: std::slice::Iter<'a, u32>,
    n_vars: usize,
}

impl<'a> Iterator for Views<'a> {
    type Item = LogPosynomial<'a>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let end = *self.term_ends.next()?;
        let n_terms = (end - self.first_term) as usize;
        let (row_ends, later_rows) = self.row_ends.split_at(n_terms);
        let (log_coefs, later_coefs) = self.log_coefs.split_at(n_terms);
        let view = LogPosynomial {
            entries: self.entries,
            first_row: self.first_row,
            row_ends,
            log_coefs,
            n_vars: self.n_vars,
        };
        self.first_row = row_ends.last().copied().unwrap_or(self.first_row);
        (self.row_ends, self.log_coefs, self.first_term) = (later_rows, later_coefs, end);
        Some(view)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.term_ends.size_hint()
    }
}

impl ExactSizeIterator for Views<'_> {}

/// `(terms, exponents)` of a run of rows: what [`LogArena::with_capacity`]
/// is sized by.
pub fn count_rows<R: AsRef<[(usize, f64)]>>(
    terms: impl Iterator<Item = (f64, R)>,
) -> (usize, usize) {
    terms.fold((0, 0), |(terms, entries), (_, row)| {
        (terms + 1, entries + row.as_ref().len())
    })
}

// A solve builds a view per posynomial per pass, and all but two
// posynomials of a Dual-DAB program have one term: what the passes call is
// `#[inline]`, so a view stays in registers instead of being spilled for
// each call (2–3 % of a Newton step on a 6-item unit).
impl<'a> LogPosynomial<'a> {
    /// Number of monomial terms.
    #[inline]
    pub fn n_terms(&self) -> usize {
        self.row_ends.len()
    }

    /// Number of variables in the ambient space.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Term `k`'s sparse exponent row (the sparse KKT plan reads the
    /// structure directly to build its support cliques).
    #[inline]
    pub(crate) fn row(&self, k: usize) -> &'a [(usize, f64)] {
        let start = if k == 0 {
            self.first_row
        } else {
            self.row_ends[k - 1]
        };
        &self.entries[start as usize..self.row_ends[k] as usize]
    }

    /// Every term's sparse exponent row, in term order.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = &'a [(usize, f64)]> + 'a {
        let entries = self.entries;
        (self.row_ends.iter()).scan(self.first_row as usize, move |start, &end| {
            let row = &entries[*start..end as usize];
            *start = end as usize;
            Some(row)
        })
    }

    /// Every term's `ln c_k`, in term order.
    pub fn log_coefs(&self) -> &'a [f64] {
        self.log_coefs
    }

    /// Log-coefficient of term `k`.
    pub(crate) fn log_coef(&self, k: usize) -> f64 {
        self.log_coefs[k]
    }

    /// True if this is a single monomial, i.e. `F` is affine in `y`.
    #[inline]
    pub fn is_affine(&self) -> bool {
        self.n_terms() == 1
    }

    /// Appends the per-term affine values `z_k = a_k . y + ln c_k`.
    #[inline]
    fn term_values(&self, y: &[f64], out: &mut Vec<f64>) {
        for (row, lc) in self.rows().zip(self.log_coefs) {
            let mut z = *lc;
            for &(v, e) in row {
                z += e * y[v];
            }
            out.push(z);
        }
    }

    /// Evaluates `F(y)` and appends the softmax weights `p_k` to `probs`
    /// (the solver keeps every posynomial's weights in one flat buffer).
    #[inline]
    pub(crate) fn softmax_append(&self, y: &[f64], probs: &mut Vec<f64>) -> f64 {
        debug_assert_eq!(y.len(), self.n_vars);
        let at = probs.len();
        self.term_values(y, probs);
        softmax_in_place(&mut probs[at..])
    }

    /// Adds `w * grad F = w * sum_k p_k a_k` into `out`.
    #[inline]
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
    #[inline]
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
    /// exponent rows) into the lower triangle of `hess`, with `probs` as
    /// produced by [`LogPosynomial::value_grad_buf`]; each term scatters
    /// only the lower half of the `k x k` entries its `k` variables span.
    ///
    /// Together with the gradient this yields the Hessian:
    /// `∇²F = sum_k p_k a_k a_kᵀ − ∇F ∇Fᵀ`.
    #[inline]
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
        // `add_outer` keeps the lower triangle; callers get both.
        for i in 0..n {
            for j in 0..i {
                hess[(j, i)] = hess[(i, j)];
            }
        }
        Evaluation { value, grad, hess }
    }
}

/// The log-sum-exp of `z` when it is one finite term, whose softmax
/// weight is `1.0`: `z + 0.0`, what `z + ln(exp(z - z) / 1.0)` comes to
/// bit for bit (`+ 0.0` is what turns a `-0.0` into `0.0`), so an affine
/// row pays neither `exp` nor `ln`.
#[inline]
fn lone_finite_term(z: &[f64]) -> Option<f64> {
    match z {
        &[z] if z.is_finite() => Some(z + 0.0),
        _ => None,
    }
}

/// Numerically stable `ln sum_k exp(z_k)`.
pub fn log_sum_exp(z: &[f64]) -> f64 {
    debug_assert!(!z.is_empty());
    if let Some(value) = lone_finite_term(z) {
        return value;
    }
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
    if let Some(value) = lone_finite_term(z) {
        z[0] = 1.0;
        return value;
    }
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
        let arena = LogArena::compile([&p].into_iter(), 2);
        let lp = arena.get(0);
        let x = [1.5_f64, 0.7_f64];
        let y = [x[0].ln(), x[1].ln()];
        assert!((lp.value(&y) - p.eval(&x).ln()).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let arena = LogArena::compile([&sample()].into_iter(), 2);
        let lp = arena.get(0);
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
        let arena = LogArena::compile([&sample()].into_iter(), 2);
        let lp = arena.get(0);
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
        let arena = LogArena::compile([&p].into_iter(), 1);
        let lp = arena.get(0);
        assert!(lp.is_affine());
        let ev = lp.evaluate(&[0.7]);
        assert!((ev.value - (5.0_f64.ln() + 2.0 * 0.7)).abs() < 1e-12);
        assert!((ev.grad[0] - 2.0).abs() < 1e-12);
        assert!(ev.hess[(0, 0)].abs() < 1e-12);
    }

    /// The one-posynomial arena of `terms`, counted first the way an
    /// emitter counts (a filter iterator has no size hint).
    fn single<R: AsRef<[(usize, f64)]>>(
        terms: impl Iterator<Item = (f64, R)> + Clone,
        scale: f64,
        n_vars: usize,
    ) -> Result<LogArena, GpError> {
        let (n_terms, n_entries) = count_rows(terms.clone());
        let mut arena = LogArena::with_capacity(n_vars, 1, n_terms, n_entries);
        arena.push(terms, scale)?;
        Ok(arena)
    }

    /// What `Monomial::new` and `GpProblem` refuse, refused as rows: a
    /// typed error each, never a panic.
    #[test]
    fn push_rejects_what_is_not_a_posynomial() {
        type Row = &'static [(usize, f64)];
        let ok: Row = &[(0, 1.0), (2, -2.0)];
        // The bad term last, after one that is fine.
        let refused = |coef: f64, scale: f64, row: Row| {
            let terms = [(2.0 / scale, ok), (coef, row)];
            single(terms.into_iter(), scale, 3).unwrap_err()
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
            single(none.into_iter(), 1.0, 3).unwrap_err(),
            GpError::EmptyPosynomial
        );
    }

    #[test]
    fn push_scales_every_coefficient_into_arrays_counted_exactly() {
        let rows: [(f64, &[(usize, f64)]); 3] = [
            (2.0, &[(0, 1.0), (1, 1.0)]),
            (3.0, &[(0, -1.0)]),
            (5.0, &[]),
        ];
        // A filter has no lower size hint, like `DeviationMap::terms`.
        let kept = rows.into_iter().filter(|&(c, _)| c != 3.0);
        let arena = single(kept, 0.25, 2).unwrap();
        let lp = arena.get(0);
        assert_eq!(
            lp.rows().collect::<Vec<_>>(),
            [&[(0, 1.0), (1, 1.0)][..], &[]]
        );
        assert_eq!(lp.log_coefs(), [0.5f64.ln(), 1.25f64.ln()]);
        assert_eq!(arena.entries.capacity(), 2);
        assert_eq!(arena.row_ends.capacity(), 2);
        assert_eq!(arena.log_coefs.capacity(), 2);
        assert_eq!(arena.spare_capacity(), 0);
    }

    /// Three posynomials in one arena: each view reads its own rows and
    /// coefficients, a rejected push changes nothing, and the phase-I
    /// lift copies every constraint's `ln` coefficients verbatim.
    #[test]
    fn views_partition_the_arena_and_failed_writes_leave_it_alone() {
        type Row = &'static [(usize, f64)];
        let posys: [&[(f64, Row)]; 3] = [
            &[(2.0, &[(0, -1.0)]), (3.0, &[(1, -1.0)])],
            &[(0.5, &[(0, 1.0), (1, 1.0)])],
            &[(0.25, &[(0, 1.0)]), (0.125, &[(1, 2.0)]), (4.0, &[])],
        ];
        let mut arena = LogArena::with_capacity(2, 3, 6, 6);
        for terms in posys {
            arena.push(terms.iter().copied(), 1.0).unwrap();
        }
        assert_eq!((arena.len(), arena.n_terms()), (3, 6));
        assert_eq!(arena.spare_capacity(), 0);
        for (v, terms) in arena.iter().zip(posys) {
            let alone = single(terms.iter().copied(), 1.0, 2).unwrap();
            let alone = alone.get(0);
            assert_eq!(
                v.rows().collect::<Vec<_>>(),
                alone.rows().collect::<Vec<_>>()
            );
            assert_eq!(v.log_coefs(), alone.log_coefs());
            assert_eq!(
                (0..v.n_terms()).map(|k| v.row(k)).collect::<Vec<_>>(),
                v.rows().collect::<Vec<_>>()
            );
        }

        let before = format!("{arena:?}");
        let bad: [(f64, Row); 2] = [(1.0, &[(0, 1.0)]), (-1.0, &[(1, 1.0)])];
        assert!(arena.push(bad.into_iter(), 1.0).is_err());
        assert_eq!(format!("{arena:?}"), before);

        let lift = arena.phase_one_lift();
        assert_eq!((lift.n_vars(), lift.len()), (3, 3));
        assert_eq!(lift.spare_capacity(), 0);
        assert_eq!(lift.get(0).rows().collect::<Vec<_>>(), [&[(2, 1.0)][..]]);
        assert_eq!(lift.get(0).log_coefs(), [0.0]);
        for p in 1..3 {
            assert_eq!(lift.get(p).log_coefs(), arena.get(p).log_coefs());
            for (lifted, row) in lift.get(p).rows().zip(arena.get(p).rows()) {
                assert_eq!(lifted, [row, &[(2, -1.0)]].concat());
            }
        }
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        let v = log_sum_exp(&[-1000.0, -1001.0]);
        assert!(v.is_finite());
    }

    /// A lone finite term skips `exp` and `ln`; the numbers are the ones
    /// the general loop (`softmax` still is it) produces, sign of zero
    /// included, at every binary exponent.
    #[test]
    fn a_lone_finite_term_reads_as_the_general_loop_would_bit_for_bit() {
        for exponent in 0..0x7ff_u64 {
            for (sign, mantissa) in [(0, 0), (1, 0), (0, 1), (1, 0x000f_ffff_ffff_ffff)] {
                let z = f64::from_bits(sign << 63 | exponent << 52 | mantissa);
                let (value, weights) = softmax(&[z]);
                assert_eq!(weights, [1.0], "z = {z:e}");
                let mut in_place = [z];
                assert_eq!(softmax_in_place(&mut in_place).to_bits(), value.to_bits());
                assert_eq!(in_place, [1.0], "z = {z:e}");
                assert_eq!(log_sum_exp(&[z]).to_bits(), value.to_bits(), "z = {z:e}");
            }
        }
    }

    /// A lone term that is not finite takes the general path: no weight
    /// of 1 is invented for it and its value stays non-finite.
    #[test]
    fn a_lone_non_finite_term_is_not_short_cut() {
        for z in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut in_place = [z];
            assert!(softmax_in_place(&mut in_place).is_nan(), "z = {z}");
            assert!(in_place[0].is_nan(), "z = {z}");
            assert!(!log_sum_exp(&[z]).is_finite(), "z = {z}");
        }
    }
}
