//! Dense LU: the reference solver and the band-limited production rescue.
//!
//! The Krylov solvers in [`crate::solve`] handle the production-size systems.
//! [`DenseMatrix::solve`] is the *reference* partially pivoted LU that unit
//! and property tests compare against. The direct step of
//! [`crate::resilience::solve`] does not expand its system to `n × n`: it
//! runs `band_solve`, the same LU restricted to the matrix's bandwidth,
//! which returns the reference's result bits at `O(n·kl·(kl+ku))` cost
//! instead of `O(n³)`.

use crate::csr::CsrMatrix;
use crate::solve::SolveError;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix.
///
/// # Examples
///
/// ```
/// use coolnet_sparse::DenseMatrix;
/// # fn main() -> Result<(), coolnet_sparse::SolveError> {
/// let mut a = DenseMatrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let x = a.solve(&[2.0, 8.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "x has wrong length");
        (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| self.data[r * self.cols + c] * x[c])
                    .sum()
            })
            .collect()
    }

    /// Solves `A·x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] if a pivot underflows, and
    /// [`SolveError::DimensionMismatch`] if the matrix is not square or `b`
    /// has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        debug_assert!(
            b.iter().all(|v| v.is_finite()),
            "right-hand side contains a non-finite entry"
        );
        if self.rows != self.cols {
            return Err(SolveError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(SolveError::DimensionMismatch {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut x = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        #[allow(clippy::needless_range_loop)] // permutation indexing is clearer by row
        for k in 0..n {
            // Partial pivot.
            let mut pivot_row = k;
            let mut pivot_val = lu[perm[k] * n + k].abs();
            for r in (k + 1)..n {
                let v = lu[perm[r] * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(SolveError::Singular { pivot: k });
            }
            perm.swap(k, pivot_row);
            let pk = perm[k];
            let pivot = lu[pk * n + k];
            for r in (k + 1)..n {
                let pr = perm[r];
                let factor = lu[pr * n + k] / pivot;
                lu[pr * n + k] = factor;
                for c in (k + 1)..n {
                    lu[pr * n + c] -= factor * lu[pk * n + c];
                }
            }
        }

        // Forward substitution (apply permutation to b).
        let mut y = vec![0.0; n];
        #[allow(clippy::needless_range_loop)] // r walks y and perm in lockstep
        for r in 0..n {
            let pr = perm[r];
            let mut acc = x[pr];
            for c in 0..r {
                acc -= lu[pr * n + c] * y[c];
            }
            y[r] = acc;
        }
        // Back substitution.
        for r in (0..n).rev() {
            let pr = perm[r];
            let mut acc = y[r];
            for c in (r + 1)..n {
                acc -= lu[pr * n + c] * x[c];
            }
            x[r] = acc / lu[pr * n + r];
        }
        Ok(x)
    }
}

/// Solves `A·x = b` with the partially pivoted LU of
/// [`DenseMatrix::solve`], restricted to the band of `a`'s stored pattern.
///
/// With lower and upper bandwidths `kl` and `ku`, the working row at
/// permutation position `p` keeps only the columns `p − kl ..= p + kl + ku`
/// (the fill bound of LAPACK's `dgbtrf`); rows are swapped physically, and
/// each row's multipliers are kept apart so forward substitution can
/// replay them in the reference's order. The pivot search covers positions
/// `k ..= k + kl`: every position further down still holds its own original
/// row, whose column-`k` entry is a structural zero, so the reference
/// search can never pick it either. Every nonzero entry then sees the same
/// operations in the same order as in the reference (separate multiply and
/// subtract, no fused multiply-add); only operations on exact zeros are
/// skipped, and those can change nothing but the sign of a zero. The
/// result therefore equals the reference bit for bit whenever it is finite
/// and free of zeros; otherwise (a sign of zero might differ) this returns
/// the reference solve itself, which physical systems never reach.
///
/// # Errors
///
/// Exactly those of [`DenseMatrix::solve`]: [`SolveError::Singular`] at the
/// same pivot index, [`SolveError::DimensionMismatch`] with the same sizes.
pub(crate) fn band_solve(a: &CsrMatrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    debug_assert!(
        b.iter().all(|v| v.is_finite()),
        "right-hand side contains a non-finite entry"
    );
    if a.rows() != a.cols() {
        return Err(SolveError::DimensionMismatch {
            expected: a.rows(),
            actual: a.cols(),
        });
    }
    if b.len() != a.rows() {
        return Err(SolveError::DimensionMismatch {
            expected: a.rows(),
            actual: b.len(),
        });
    }
    let n = a.rows();
    let (kl, ku) = bandwidths(a);
    let width = 2 * kl + ku + 1;
    // Entry (p, c) of the row at position p, for p − kl ≤ c ≤ p + kl + ku.
    let at = |p: usize, c: usize| p * width + c + kl - p;
    let mut band = vec![0.0; n * width];
    // Rightmost column the row at each position may hold a nonzero in;
    // everything right of it is an exact zero the updates can skip.
    let mut reach: Vec<usize> = (0..n).collect();
    for r in 0..n {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            band[at(r, c as usize)] = v;
            reach[r] = reach[r].max(c as usize);
        }
    }
    let mut perm: Vec<usize> = (0..n).collect();
    // Each original row's multipliers as (column, value), columns ascending.
    let mut lower: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];

    for k in 0..n {
        let last_row = (k + kl).min(n - 1);
        let mut pivot_row = k;
        let mut pivot_val = band[at(k, k)].abs();
        for r in (k + 1)..=last_row {
            let v = band[at(r, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return Err(SolveError::Singular { pivot: k });
        }
        if pivot_row != k {
            for c in k..=reach[k].max(reach[pivot_row]) {
                band.swap(at(k, c), at(pivot_row, c));
            }
            perm.swap(k, pivot_row);
            reach.swap(k, pivot_row);
        }
        // The pivot is nonzero, so `end ≥ k`.
        let end = reach[k];
        let (upper, below) = band.split_at_mut((k + 1) * width);
        let pivot_lane = &upper[k * width..];
        let pivot = pivot_lane[kl];
        let pivot_tail = &pivot_lane[kl + 1..=end + kl - k];
        for r in (k + 1)..=last_row {
            let row = &mut below[(r - k - 1) * width..(r - k) * width];
            let v = row[k + kl - r];
            if v == 0.0 {
                continue;
            }
            let factor = v / pivot;
            lower[perm[r]].push((k, factor));
            let tail = &mut row[k + 1 + kl - r..=end + kl - r];
            for (t, &u) in tail.iter_mut().zip(pivot_tail) {
                *t -= factor * u;
            }
            reach[r] = reach[r].max(end);
        }
    }

    // Forward substitution, row by row as in the reference.
    let mut y = vec![0.0; n];
    for r in 0..n {
        let pr = perm[r];
        let mut acc = b[pr];
        for &(c, l) in &lower[pr] {
            acc -= l * y[c];
        }
        y[r] = acc;
    }
    // Back substitution within the band.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let lane = &band[r * width + kl..=r * width + reach[r] + kl - r];
        let mut acc = y[r];
        for (&u, &xc) in lane[1..].iter().zip(&x[r + 1..]) {
            acc -= u * xc;
        }
        x[r] = acc / lane[0];
    }
    if x.iter().all(|v| v.is_finite() && *v != 0.0) {
        Ok(x)
    } else {
        a.to_dense().solve(b)
    }
}

/// Lower and upper bandwidths `(kl, ku)` of `a`'s stored pattern.
fn bandwidths(a: &CsrMatrix) -> (usize, usize) {
    let (mut kl, mut ku) = (0, 0);
    for r in 0..a.rows() {
        let cols = a.row(r).0;
        if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
            kl = kl.max(r.saturating_sub(first as usize));
            ku = ku.max((last as usize).saturating_sub(r));
        }
    }
    (kl, ku)
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coo::TripletBuilder;

    /// Near-singular conduction-style Laplacian: every row sum is a tiny
    /// `ε`, so `net_dominance ≈ ε/2` sits far below the gate threshold —
    /// the shape of the workspace's escalating low-pressure thermal probes.
    pub(crate) fn near_singular(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            let neighbors = usize::from(i > 0) + usize::from(i + 1 < n);
            b.add(i, i, neighbors as f64 + 1e-12);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    /// A banded matrix with lower bandwidth `kl` and upper bandwidth `ku`
    /// whose in-band entries are all nonzero (deterministic, mixed signs).
    fn banded(n: usize, kl: usize, ku: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let v = ((i * 7 + j * 13) % 11) as f64 - 5.5;
                b.add(i, j, if i == j { v + 0.25 } else { v / 3.0 });
            }
        }
        b.to_csr()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 7) as f64) - 3.0 + 0.5).collect()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The band kernel returns the reference's result bits (or its error).
    fn assert_band_matches_reference(a: &CsrMatrix, b: &[f64]) {
        let band = band_solve(a, b);
        let reference = a.to_dense().solve(b);
        match (&band, &reference) {
            (Ok(x), Ok(r)) => assert_eq!(bits(x), bits(r)),
            _ => assert_eq!(band, reference),
        }
    }

    #[test]
    fn band_solve_matches_reference_on_near_singular_laplacian() {
        let a = near_singular(25);
        assert_eq!(bandwidths(&a), (1, 1));
        assert_band_matches_reference(&a, &rhs(25));
    }

    #[test]
    fn band_solve_takes_pivot_from_the_last_row_of_the_window() {
        // Column k's largest entry sits kl = 2 rows below the diagonal, so
        // every step pivots on the last row of its search window.
        let n = 12;
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 0.01 * (i + 1) as f64);
            if i >= 1 {
                b.add(i, i - 1, 0.5);
            }
            if i >= 2 {
                b.add(i, i - 2, 4.0 + i as f64);
            }
            if i + 1 < n {
                b.add(i, i + 1, 1.0);
            }
        }
        let a = b.to_csr();
        assert_eq!(bandwidths(&a), (2, 1));
        assert_band_matches_reference(&a, &rhs(n));
    }

    #[test]
    fn band_solve_matches_reference_with_unequal_bandwidths() {
        for (kl, ku) in [(1, 3), (3, 1), (4, 0), (0, 4)] {
            let a = banded(17, kl, ku);
            assert_eq!(bandwidths(&a), (kl, ku));
            assert_band_matches_reference(&a, &rhs(17));
        }
    }

    #[test]
    fn band_solve_matches_reference_on_triangular_and_scalar_systems() {
        let lower = banded(9, 2, 0);
        let upper = banded(9, 0, 2);
        assert_band_matches_reference(&lower, &rhs(9));
        assert_band_matches_reference(&upper, &rhs(9));
        assert_band_matches_reference(&banded(1, 0, 0), &[3.0]);
        assert_band_matches_reference(&CsrMatrix::from_triplets(0, 0, &[]), &[]);
    }

    #[test]
    fn band_solve_returns_the_reference_errors() {
        // [1 2; 2 4]: the second pivot cancels to exactly zero.
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        assert_eq!(
            band_solve(&a, &[1.0, 2.0]),
            Err(SolveError::Singular { pivot: 1 })
        );
        assert_band_matches_reference(&a, &[1.0, 2.0]);
        // An empty middle row: no pivot in column 1.
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 1, 1.0), (2, 2, 1.0)]);
        assert_band_matches_reference(&a, &[1.0, 2.0, 3.0]);
        assert!(matches!(
            band_solve(&a, &[1.0, 2.0, 3.0]),
            Err(SolveError::Singular { .. })
        ));

        let wide = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert_band_matches_reference(&wide, &[1.0, 2.0]);
        let square = CsrMatrix::identity(2);
        assert_band_matches_reference(&square, &[1.0]);
        assert_eq!(
            band_solve(&square, &[1.0]),
            Err(SolveError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn band_solve_returns_reference_signs_of_zero() {
        // Negative pivots and zero right-hand sides make signed zeros: a
        // solution with an exact zero must still carry the reference bits.
        let mut a = near_singular(8);
        for v in a.values_mut() {
            *v = -*v;
        }
        let mut b = vec![0.0; 8];
        assert_band_matches_reference(&a, &b);
        b[3] = -0.0;
        b[5] = 1.5;
        assert_band_matches_reference(&a, &b);
        // Two decoupled blocks, one with a zero right-hand side.
        let a = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, -2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, -3.0),
                (2, 2, 4.0),
                (3, 3, -1.0),
            ],
        );
        assert_band_matches_reference(&a, &[0.0, -0.0, 1.0, 2.0]);
        // The reference's back substitution subtracts `0 · x[1] = -0` from
        // `-0`, which gives `+0`; skipping that product would leave `-0`.
        let diag = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        let x = band_solve(&diag, &[-0.0, -1.0]).unwrap();
        assert_eq!(x[0].to_bits(), 0.0f64.to_bits());
        assert_band_matches_reference(&diag, &[-0.0, -1.0]);
    }

    #[test]
    fn solves_known_system() {
        // [3 1; 1 2] x = [9; 8] => x = [2; 3]
        let a = DenseMatrix::from_rows(2, 2, &[3.0, 1.0, 1.0, 2.0]);
        let x = a.solve(&[9.0, 8.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading entry zero requires a row swap.
        let a = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        match a.solve(&[1.0, 2.0]) {
            Err(SolveError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
        let b = DenseMatrix::identity(2);
        assert!(matches!(
            b.solve(&[1.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_inverts_mul() {
        let a = DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 5.0, 2.0, 0.0, 2.0, 6.0]);
        let x_true = [1.0, -2.0, 0.5];
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn index_round_trip() {
        let mut m = DenseMatrix::zeros(2, 2);
        m[(0, 1)] = 9.0;
        assert_eq!(m[(0, 1)], 9.0);
        assert_eq!(m[(1, 0)], 0.0);
    }
}
