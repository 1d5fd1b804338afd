//! Minimal dense linear algebra used by the interior-point solver.
//!
//! The solver now has two KKT backends. Small geometric programs (tens to
//! a couple hundred variables) use the dense, row-major Cholesky kernels
//! here — simpler, cache-friendly, and the correctness oracle for the
//! sparse path. Large AAO units route through the sparse path in
//! [`crate::sparse`] (upper-CSC up-looking Cholesky under a min-degree
//! ordering from [`crate::ordering`], driven by the structure plan in
//! `kkt.rs`). The crossover is picked automatically in `solver.rs`:
//! sparse kicks in when the variable count is large and the estimated
//! clique density of the query↔item graph stays low (see
//! [`crate::KktMode`]); dense remains the unconditional fallback.

/// A dense, row-major matrix of `f64`. `Default` is the empty `0 x 0`
/// matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n_rows x n_cols` matrix of zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Matrix {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Returns a view of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.n_rows);
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Returns a mutable view of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.n_rows);
        &mut self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix-vector product `self * x` written into `out` — the
    /// allocation-free variant of [`Matrix::matvec`] for hot paths that
    /// own a reusable buffer.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.n_rows, "matvec output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(self.row(i), x);
        }
    }

    /// Rank-one symmetric update `self += alpha * v * v^T`.
    ///
    /// Only valid for square matrices with `v.len() == n`.
    pub fn add_outer(&mut self, alpha: f64, v: &[f64]) {
        assert_eq!(self.n_rows, self.n_cols);
        assert_eq!(v.len(), self.n_rows);
        if alpha == 0.0 {
            return;
        }
        let n = self.n_rows;
        for i in 0..n {
            let avi = alpha * v[i];
            if avi == 0.0 {
                continue;
            }
            let row = self.row_mut(i);
            for (j, vj) in v.iter().enumerate().take(n) {
                row[j] += avi * vj;
            }
        }
    }

    /// Symmetric update `self += alpha * a * a^T` for a sparse vector `a`
    /// given as `(index, value)` pairs: touches only the `k x k` entries
    /// its `k` non-zeros span.
    pub fn add_outer_sparse(&mut self, alpha: f64, a: &[(usize, f64)]) {
        debug_assert_eq!(self.n_rows, self.n_cols);
        if alpha == 0.0 {
            return;
        }
        for &(i, ai) in a {
            let row = self.row_mut(i);
            let aai = alpha * ai;
            for &(j, aj) in a {
                row[j] += aai * aj;
            }
        }
    }

    /// Adds `alpha` to every diagonal entry (Tikhonov regularization).
    pub fn add_diagonal(&mut self, alpha: f64) {
        let n = self.n_rows.min(self.n_cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Adds `alpha * other` elementwise.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.n_rows, other.n_rows);
        assert_eq!(self.n_cols, other.n_cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn set_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Scales every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Resizes to `n x n` zeros, reusing the allocation when possible.
    pub fn resize_zeroed(&mut self, n_rows: usize, n_cols: usize) {
        self.n_rows = n_rows;
        self.n_cols = n_cols;
        self.data.clear();
        self.data.resize(n_rows * n_cols, 0.0);
    }

    /// Overwrites `self` with `other`, reusing the allocation (the derived
    /// `clone_from` would allocate a fresh buffer per call).
    fn copy_from(&mut self, other: &Matrix) {
        self.n_rows = other.n_rows;
        self.n_cols = other.n_cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Largest absolute diagonal entry (used to scale regularization).
    pub fn max_abs_diagonal(&self) -> f64 {
        let n = self.n_rows.min(self.n_cols);
        (0..n).fold(0.0_f64, |m, i| m.max(self[(i, i)].abs()))
    }

    /// In-place Cholesky factorization of a symmetric positive-definite
    /// matrix; on success the lower triangle holds `L` with `L L^T = A`.
    /// Pair with [`Matrix::solve_factored`] to solve many right-hand
    /// sides against one factorization without cloning the matrix.
    ///
    /// Returns `false` if the matrix is not numerically positive definite.
    pub fn factor_in_place(&mut self) -> bool {
        assert_eq!(self.n_rows, self.n_cols);
        let n = self.n_rows;
        // Row by row (Cholesky–Banachiewicz): row `i` of `L` needs only
        // the finished rows above it, all contiguous slices.
        for i in 0..n {
            let (above, rest) = self.data.split_at_mut(i * n);
            let row_i = &mut rest[..=i];
            for j in 0..i {
                let row_j = &above[j * n..j * n + j + 1];
                row_i[j] = (row_i[j] - dot(&row_i[..j], &row_j[..j])) / row_j[j];
            }
            let d = row_i[i] - dot(&row_i[..i], &row_i[..i]);
            if !(d.is_finite() && d > 0.0) {
                return false;
            }
            row_i[i] = d.sqrt();
        }
        true
    }

    /// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
    ///
    /// Returns `None` if the factorization fails (matrix not PD).
    pub fn cholesky_solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        let mut scratch = Matrix::zeros(self.n_rows, self.n_cols);
        let mut x = Vec::new();
        if self.cholesky_solve_into(b, &mut scratch, &mut x) {
            Some(x)
        } else {
            None
        }
    }

    /// Allocation-free variant of [`Matrix::cholesky_solve`]: factors into
    /// `scratch` (resized as needed) and writes the solution into `x`.
    /// Returns `false` if the matrix is not numerically positive definite.
    pub fn cholesky_solve_into(&self, b: &[f64], scratch: &mut Matrix, x: &mut Vec<f64>) -> bool {
        assert_eq!(self.n_rows, self.n_cols);
        assert_eq!(b.len(), self.n_rows);
        scratch.copy_from(self);
        if !scratch.factor_in_place() {
            return false;
        }
        x.clear();
        x.extend_from_slice(b);
        scratch.solve_factored(x);
        true
    }

    /// Forward/back substitution with an already-factored `L` (as left by
    /// [`Matrix::factor_in_place`]), overwriting `z` with the solution.
    pub fn solve_factored(&self, z: &mut [f64]) {
        let n = self.n_rows;
        assert_eq!(z.len(), n);
        for i in 0..n {
            let row = &self.row(i)[..=i];
            z[i] = (z[i] - dot(&row[..i], &z[..i])) / row[i];
        }
        // `L^T x = z` column by column, so `L` is still read along rows.
        for i in (0..n).rev() {
            let row = &self.row(i)[..=i];
            let zi = z[i] / row[i];
            z[i] = zi;
            axpy(-zi, &row[..i], &mut z[..i]);
        }
    }

    /// Solves `A x = b` for a symmetric matrix that should be positive
    /// definite, factoring in place and retrying with progressively larger
    /// diagonal regularization if the plain factorization fails.
    ///
    /// `fill` writes `A` into `self` and `b` into `x`; it runs once per
    /// attempt, because a failed in-place factorization destroys the
    /// matrix (no second `n × n` buffer is kept for the rare retry). On
    /// success `x` holds the solution and the shift that was needed is
    /// returned: `Some(0.0)` when the plain factorization succeeded,
    /// `Some(reg > 0)` when the ladder had to bump the diagonal (callers
    /// surface this as the `gp.chol_regularized` counter), `None` when
    /// every level failed.
    ///
    /// Interior-point matrices can lose definiteness to rounding near the
    /// central path; a small ridge restores it while barely perturbing the
    /// Newton direction.
    pub fn solve_regularized_in_place(
        &mut self,
        mut fill: impl FnMut(&mut Matrix, &mut [f64]),
        x: &mut [f64],
    ) -> Option<f64> {
        assert_eq!(self.n_rows, self.n_cols);
        assert_eq!(x.len(), self.n_rows);
        let mut reg = 0.0;
        for _ in 0..41 {
            fill(self, x);
            let scale = self.max_abs_diagonal().max(1.0);
            if reg > 0.0 {
                self.add_diagonal(reg);
            }
            if self.factor_in_place() {
                self.solve_factored(x);
                return Some(reg);
            }
            reg = if reg == 0.0 {
                1e-12 * scale
            } else {
                reg * 10.0
            };
        }
        None
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.n_rows && j < self.n_cols);
        &self.data[i * self.n_cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.n_rows && j < self.n_cols);
        &mut self.data[i * self.n_cols + j]
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` elementwise.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = a.cholesky_solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn solves_known_spd_system() {
        // A = [[4,2],[2,3]], b = [2,1] -> x = [1/2, 0].
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 4.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        let x = a.cholesky_solve(&[2.0, 1.0]).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!(x[1].abs() < 1e-12);
    }

    #[test]
    fn residual_is_small_on_random_spd() {
        // Build SPD as M^T M + I from a deterministic pseudo-random M.
        let n = 12;
        let mut m = Matrix::zeros(n, n);
        let mut state = 0x12345678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
        }
        let mut a = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += m[(k, i)] * m[(k, j)];
                }
                a[(i, j)] += s;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let x = a.cholesky_solve(&b).unwrap();
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9, "residual too large");
        }
    }

    #[test]
    fn non_pd_matrix_is_rejected() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = -1.0;
        assert!(a.cholesky_solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn regularized_in_place_reports_shift() {
        let fill_with = |vals: [f64; 4], b: [f64; 2]| {
            move |a: &mut Matrix, x: &mut [f64]| {
                a.data.copy_from_slice(&vals);
                x.copy_from_slice(&b);
            }
        };
        // Well-conditioned SPD [[4,2],[2,3]]: no shift needed.
        let mut a = Matrix::zeros(2, 2);
        let mut x = [0.0; 2];
        let reg = a.solve_regularized_in_place(fill_with([4.0, 2.0, 2.0, 3.0], [2.0, 1.0]), &mut x);
        assert_eq!(reg, Some(0.0));
        assert!((x[0] - 0.5).abs() < 1e-12 && x[1].abs() < 1e-12);
        // Singular PSD ones(2,2): the ladder must bump the diagonal, and
        // refill the matrix the failed factorization destroyed.
        let reg = a
            .solve_regularized_in_place(fill_with([1.0; 4], [1.0, 1.0]), &mut x)
            .unwrap();
        assert!(reg > 0.0);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6, "x = {x:?}");
    }

    #[test]
    fn add_outer_sparse_matches_dense() {
        let mut sparse = Matrix::zeros(4, 4);
        let mut dense = Matrix::zeros(4, 4);
        sparse.add_outer_sparse(1.5, &[(1, 2.0), (3, -0.5)]);
        dense.add_outer(1.5, &[0.0, 2.0, 0.0, -0.5]);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn add_outer_matches_manual() {
        let mut a = Matrix::zeros(3, 3);
        let v = [1.0, 2.0, 3.0];
        a.add_outer(2.0, &v);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a[(i, j)], 2.0 * v[i] * v[j]);
            }
        }
    }

    #[test]
    fn matvec_matches_manual() {
        let mut a = Matrix::zeros(2, 3);
        a.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        a.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        let y = a.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![6.0, 15.0]);
    }

    #[test]
    fn matvec_into_reuses_buffer_and_matches_matvec() {
        let mut a = Matrix::zeros(2, 3);
        a.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        a.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        let mut out = vec![99.0, 99.0];
        a.matvec_into(&[0.5, -1.0, 2.0], &mut out);
        assert_eq!(out, a.matvec(&[0.5, -1.0, 2.0]));
    }

    #[test]
    fn one_factorization_solves_many_rhs() {
        // A = [[4,2],[2,3]]; factor once, solve two right-hand sides, and
        // check each against the cloning cholesky_solve path bit-for-bit.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 4.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        let mut l = a.clone();
        assert!(l.factor_in_place());
        for b in [[2.0, 1.0], [-1.0, 5.0]] {
            let mut z = b.to_vec();
            l.solve_factored(&mut z);
            assert_eq!(z, a.cholesky_solve(&b).unwrap());
        }
    }

    #[test]
    fn cholesky_solve_into_matches_allocating_solve() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 4.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        let mut scratch = Matrix::zeros(0, 0);
        let mut x = Vec::new();
        assert!(a.cholesky_solve_into(&[2.0, 1.0], &mut scratch, &mut x));
        assert_eq!(x, a.cholesky_solve(&[2.0, 1.0]).unwrap());

        let mut bad = Matrix::zeros(2, 2);
        bad[(0, 0)] = 1.0;
        bad[(1, 1)] = -1.0;
        assert!(!bad.cholesky_solve_into(&[1.0, 1.0], &mut scratch, &mut x));
    }
}
