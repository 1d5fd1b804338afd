//! Minimal dense linear algebra used by the interior-point solver.
//!
//! The solver now has two KKT backends. Small geometric programs (tens to
//! a couple hundred variables) use the dense, row-major Cholesky kernels
//! here — simpler, cache-friendly, and the correctness oracle for the
//! sparse path. Large AAO units route through the sparse path in
//! [`crate::sparse`] (upper-CSC up-looking Cholesky under a min-degree
//! ordering from [`crate::ordering`], driven by the structure plan in
//! `kkt.rs`). The crossover is picked when a program is compiled:
//! sparse kicks in when the variable count is large and the estimated
//! clique density of the query↔item graph stays low (see
//! [`crate::CompiledGp`]); dense remains the unconditional fallback.

/// A dense, row-major matrix of `f64`. `Default` is the empty `0 x 0`
/// matrix.
///
/// A symmetric matrix is kept as its lower triangle: [`Matrix::add_outer`]
/// and [`Matrix::add_outer_sparse`] write row `i`'s columns `<= i` only,
/// and [`Matrix::factor_in_place`], [`Matrix::solve_factored`],
/// [`Matrix::max_abs_diagonal`] and [`Matrix::add_diagonal`] read nothing
/// above the diagonal.
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

    /// Matrix-vector product `self * x` written into `out`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.n_rows, "matvec output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(self.row(i), x);
        }
    }

    /// Rank-one symmetric update `self += alpha * v * v^T`, lower
    /// triangle only: entry `(i, j)`, `j <= i`, gains `(alpha * v_i) * v_j`.
    ///
    /// Only valid for square matrices with `v.len() == n`.
    pub fn add_outer(&mut self, alpha: f64, v: &[f64]) {
        assert_eq!(self.n_rows, self.n_cols);
        assert_eq!(v.len(), self.n_rows);
        if alpha == 0.0 {
            return;
        }
        for (i, vi) in v.iter().enumerate() {
            let avi = alpha * vi;
            if avi == 0.0 {
                continue;
            }
            for (rj, vj) in self.row_mut(i).iter_mut().zip(&v[..=i]) {
                *rj += avi * vj;
            }
        }
    }

    /// [`Matrix::add_outer`] for a sparse vector `a` given as
    /// `(index, value)` pairs ascending by index (a [`crate::logsumexp::LogArena`]
    /// row): touches only the lower half of the `k x k` entries its `k`
    /// non-zeros span.
    pub fn add_outer_sparse(&mut self, alpha: f64, a: &[(usize, f64)]) {
        debug_assert_eq!(self.n_rows, self.n_cols);
        debug_assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        if alpha == 0.0 {
            return;
        }
        for (p, &(i, ai)) in a.iter().enumerate() {
            let row = self.row_mut(i);
            let aai = alpha * ai;
            for &(j, aj) in &a[..=p] {
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

    /// Sets every entry to zero, keeping the allocation.
    pub fn set_zero(&mut self) {
        self.data.fill(0.0);
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
        // Column by column (Cholesky–Crout). An entry is what it is row by
        // row, `(a_ij - dot(L_i[..j], L_j[..j])) / l_jj` summed in `dot`'s
        // order, so every bit stays; but a column's entries do not wait for
        // one another, so four rows' sums advance together, adds overlapping.
        for j in 0..n {
            let (upto_j, below) = self.data.split_at_mut((j + 1) * n);
            let row_j = &mut upto_j[j * n..=j * n + j];
            let d = row_j[j] - dot(&row_j[..j], &row_j[..j]);
            if !(d.is_finite() && d > 0.0) {
                return false;
            }
            let l_jj = d.sqrt();
            row_j[j] = l_jj;
            let l_j = &row_j[..j];
            let mut quads = below.chunks_exact_mut(4 * n);
            for quad in &mut quads {
                let (r0, rest) = quad.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let (r0, r1, r2, r3) = (&mut r0[..=j], &mut r1[..=j], &mut r2[..=j], &mut r3[..=j]);
                // `f64::sum` starts from -0.0 and adds in index order.
                let mut s = [-0.0_f64; 4];
                for (k, l) in l_j.iter().enumerate() {
                    s[0] += r0[k] * l;
                    s[1] += r1[k] * l;
                    s[2] += r2[k] * l;
                    s[3] += r3[k] * l;
                }
                r0[j] = (r0[j] - s[0]) / l_jj;
                r1[j] = (r1[j] - s[1]) / l_jj;
                r2[j] = (r2[j] - s[2]) / l_jj;
                r3[j] = (r3[j] - s[3]) / l_jj;
            }
            for row in quads.into_remainder().chunks_exact_mut(n) {
                row[j] = (row[j] - dot(&row[..j], l_j)) / l_jj;
            }
        }
        true
    }

    /// Solves `A x = b` for symmetric positive-definite `A` (its lower
    /// triangle) via Cholesky without allocating: factors into `scratch`
    /// (resized as needed) and writes the solution into `x`.
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
    /// `Some(reg > 0)` when the ladder had to bump the diagonal, `None`
    /// when every level failed.
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

    /// Row-by-row (Cholesky–Banachiewicz) factorization, one entry at a
    /// time: `factor_in_place`'s oracle. The failing pivot, `None` if none.
    fn factor_row_wise(a: &mut Matrix) -> Option<usize> {
        let n = a.n_rows;
        for i in 0..n {
            let (above, rest) = a.data.split_at_mut(i * n);
            let row_i = &mut rest[..=i];
            for j in 0..i {
                let row_j = &above[j * n..j * n + j + 1];
                row_i[j] = (row_i[j] - dot(&row_i[..j], &row_j[..j])) / row_j[j];
            }
            let d = row_i[i] - dot(&row_i[..i], &row_i[..i]);
            if !(d.is_finite() && d > 0.0) {
                return Some(i);
            }
            row_i[i] = d.sqrt();
        }
        None
    }

    /// Deterministic draws from `[-0.5, 0.5)`.
    fn lcg(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        }
    }

    /// `MᵀM + I` for a pseudo-random `M`, both triangles filled.
    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut next = lcg(seed);
        let m: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| next()).collect()).collect();
        let mut a = Matrix::zeros(n, n);
        a.add_diagonal(1.0);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] += (0..n).map(|k| m[k][i] * m[k][j]).sum::<f64>();
            }
        }
        a
    }

    fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        let (mut scratch, mut x) = (Matrix::default(), Vec::new());
        a.cholesky_solve_into(b, &mut scratch, &mut x).then_some(x)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Rows `..rows` of the lower triangle, as bits.
    fn lower_bits(a: &Matrix, rows: usize) -> Vec<u64> {
        (0..rows).flat_map(|i| bits(&a.row(i)[..=i])).collect()
    }

    #[test]
    fn column_order_factor_matches_the_row_wise_oracle_bit_for_bit() {
        // Every n up to 41: all four remainders of the four-row interleave
        // in every column, from the empty-`dot` column 0 on.
        for n in 1..=41 {
            // Definite as drawn; then a failing pivot first, midway, last.
            let mut cases = vec![random_spd(n, n as u64); 4];
            for (a, p) in cases[1..].iter_mut().zip([0, n / 2, n - 1]) {
                a[(p, p)] = -1.0;
            }
            let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
            for a in cases {
                let (mut new, mut old) = (a.clone(), a.clone());
                let failed = factor_row_wise(&mut old);
                assert_eq!(new.factor_in_place(), failed.is_none(), "n = {n}");
                // Both orders have finished the rows above a failing pivot
                // and its own row up to the diagonal, which neither wrote.
                let rows = failed.map_or(n, |p| p + 1);
                assert_eq!(lower_bits(&new, rows), lower_bits(&old, rows), "n = {n}");
                let expect = failed.is_none().then(|| {
                    let mut z = b.clone();
                    old.solve_factored(&mut z);
                    bits(&z)
                });
                assert_eq!(solve(&a, &b).map(|x| bits(&x)), expect, "n = {n}");
            }
        }
    }

    #[test]
    fn regularization_ladder_matches_one_over_the_row_wise_oracle() {
        for n in [1, 2, 7, 23, 41] {
            // `v vᵀ x = v`: singular past n = 1, so the ladder has to climb,
            // refilling the matrix each failed factorization destroyed.
            let v: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / 8.0).collect();
            let fill = |fills: &mut usize, a: &mut Matrix, x: &mut [f64]| {
                *fills += 1;
                a.set_zero();
                a.add_outer(1.0, &v);
                x.copy_from_slice(&v);
            };
            let (mut a, mut x, mut fills) = (Matrix::zeros(n, n), vec![0.0; n], 0);
            let got = a.solve_regularized_in_place(|a, x| fill(&mut fills, a, x), &mut x);
            // The same ladder over the oracle.
            let (mut ox, mut reg, mut ofills) = (vec![0.0; n], 0.0, 0);
            loop {
                fill(&mut ofills, &mut a, &mut ox);
                let scale = a.max_abs_diagonal().max(1.0);
                if reg > 0.0 {
                    a.add_diagonal(reg);
                }
                if factor_row_wise(&mut a).is_none() {
                    break;
                }
                reg = if reg > 0.0 { reg * 10.0 } else { 1e-12 * scale };
            }
            a.solve_factored(&mut ox);
            assert_eq!(
                (got, fills, bits(&x)),
                (Some(reg), ofills, bits(&ox)),
                "n = {n}"
            );
            assert_eq!(reg > 0.0, n > 1);
            assert!((dot(&v, &x) - 1.0).abs() < 1e-6, "x = {x:?}");
        }
    }

    #[test]
    fn residual_is_small_on_random_spd() {
        let n = 12;
        let a = random_spd(n, 0x12345678);
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let x = solve(&a, &b).unwrap();
        let mut r = vec![0.0; n];
        a.matvec_into(&x, &mut r);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9, "residual too large");
        }
    }

    #[test]
    fn outer_products_fill_the_lower_triangle_only() {
        let (mut dense, mut sparse) = (Matrix::zeros(4, 4), Matrix::zeros(4, 4));
        let v = [0.0, 2.0, 0.0, -0.5];
        dense.add_outer(1.5, &v);
        sparse.add_outer_sparse(1.5, &[(1, 2.0), (3, -0.5)]);
        assert_eq!(sparse, dense);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if j <= i { 1.5 * v[i] * v[j] } else { 0.0 };
                assert_eq!(dense[(i, j)], expect);
            }
        }
    }

    #[test]
    fn matvec_into_overwrites_its_buffer() {
        let mut a = Matrix::zeros(2, 3);
        a.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        a.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        let mut out = vec![99.0, 99.0];
        a.matvec_into(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![6.0, 15.0]);
    }

    #[test]
    fn one_factorization_solves_many_rhs() {
        // A = [[4,2],[2,3]]: factor once, solve two right-hand sides, each
        // bit for bit what cholesky_solve_into's copy gives; [2,1] -> [1/2, 0].
        let mut a = Matrix::zeros(2, 2);
        a.data.copy_from_slice(&[4.0, 2.0, 2.0, 3.0]);
        let mut l = a.clone();
        assert!(l.factor_in_place());
        for b in [[2.0, 1.0], [-1.0, 5.0]] {
            let mut z = b.to_vec();
            l.solve_factored(&mut z);
            assert_eq!(z, solve(&a, &b).unwrap());
        }
        let x = solve(&a, &[2.0, 1.0]).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-12 && x[1].abs() < 1e-12);
    }
}
