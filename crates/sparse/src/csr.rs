//! Compressed sparse row (CSR) matrices.

use crate::dense::DenseMatrix;

/// A sparse matrix in compressed sparse row format.
///
/// Construct via [`TripletBuilder`](crate::TripletBuilder) (assembly) or
/// [`CsrMatrix::from_triplets`]. Column indices within each row are sorted
/// and unique.
///
/// Rows are also grouped into runs: maximal stretches of consecutive rows
/// that store the same number of entries. [`mul_vec_into`] hands each run
/// to a kernel whose inner loop has that length as a compile-time
/// constant, so the loop is fully unrolled and no row ends on a
/// mispredicted branch. The runs are built by the constructors and never
/// go stale: only the values, not the pattern, can change afterwards.
///
/// [`mul_vec_into`]: CsrMatrix::mul_vec_into
///
/// # Examples
///
/// ```
/// use coolnet_sparse::CsrMatrix;
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0), (0, 1, 1.0)]);
/// let y = m.mul_vec(&[1.0, 1.0]);
/// assert_eq!(y, vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// First row of each run of equal-length rows, closed by `rows`; a
    /// function of `row_ptr` alone.
    runs: Vec<usize>,
}

/// The first row of each maximal run of consecutive rows with the same
/// length in the row pointer `ptr`, closed by the row count (`[0]` when
/// there are no rows).
pub(crate) fn equal_length_runs(ptr: &[usize]) -> Vec<usize> {
    let len = |r: usize| ptr[r + 1] - ptr[r];
    let rows = ptr.len() - 1;
    let mut runs: Vec<usize> = (0..rows)
        .filter(|&r| r == 0 || len(r) != len(r - 1))
        .collect();
    runs.push(rows);
    runs
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets, accumulating
    /// duplicates and dropping entries that cancel to exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "triplet ({r}, {c}) out of bounds for {rows}x{cols} matrix"
            );
        }
        // Count entries per row (with duplicates), bucket, then sort+merge
        // each row. This is O(nnz log nnz_row) without a global sort.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut bucket_col: Vec<u32> = vec![0; triplets.len()];
        let mut bucket_val: Vec<f64> = vec![0.0; triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let slot = next[r as usize];
            bucket_col[slot] = c;
            bucket_val[slot] = v;
            next[r as usize] += 1;
        }

        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            scratch.extend(
                bucket_col[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(bucket_val[counts[r]..counts[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    sum += scratch[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    col_idx.push(c);
                    values.push(sum);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            runs: equal_length_runs(&row_ptr),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let row_ptr: Vec<usize> = (0..=n).collect();
        Self {
            rows: n,
            cols: n,
            runs: equal_length_runs(&row_ptr),
            row_ptr,
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
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

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at `(row, col)` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let (cols, vals) = self.row(row);
        match cols.binary_search(&(col as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Returns the column indices and values of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The CSR row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The stored column indices, in row-major slot order.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// The stored values, in row-major slot order (parallel to
    /// [`col_indices`](Self::col_indices)).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values, keeping the sparsity pattern
    /// fixed. This is the numeric-phase hook of the probe-path cache: a
    /// pressure sweep rewrites only the advection-dependent slots instead of
    /// re-running the full symbolic assembly.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The storage slot of `(row, col)` within [`values`](Self::values), or
    /// `None` if the position is not part of the sparsity pattern.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi]
            .binary_search(&(col as u32))
            .ok()
            .map(|k| lo + k)
    }

    /// Sum of the stored values in `row`.
    pub fn row_sum(&self, row: usize) -> f64 {
        self.row(row).1.iter().sum()
    }

    /// Extracts the diagonal as a dense vector (missing entries are zero).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product writing into an existing buffer (avoids the
    /// per-iteration allocation inside Krylov loops).
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "x has wrong length");
        assert_eq!(y.len(), self.rows, "y has wrong length");
        for w in self.runs.windows(2) {
            let (lo, hi) = (self.row_ptr[w[0]], self.row_ptr[w[1]]);
            let (vals, cols) = (&self.values[lo..hi], &self.col_idx[lo..hi]);
            let y = &mut y[w[0]..w[1]];
            match self.row_ptr[w[0] + 1] - lo {
                4 => mul_rows::<4>(vals, cols, x, y),
                5 => mul_rows::<5>(vals, cols, x, y),
                6 => mul_rows::<6>(vals, cols, x, y),
                7 => mul_rows::<7>(vals, cols, x, y),
                8 => mul_rows::<8>(vals, cols, x, y),
                9 => mul_rows::<9>(vals, cols, x, y),
                _ => {
                    for (yr, p) in y.iter_mut().zip(self.row_ptr[w[0]..=w[1]].windows(2)) {
                        *yr = dot_row(&self.values[p[0]..p[1]], &self.col_idx[p[0]..p[1]], x);
                    }
                }
            }
        }
    }

    /// Returns `‖b - A·x‖₂`, the 2-norm of the residual.
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        let ax = self.mul_vec(x);
        ax.iter()
            .zip(b)
            .map(|(axi, bi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let triplets: Vec<(u32, u32, f64)> = self
            .iter()
            .map(|(r, c, v)| (c as u32, r as u32, v))
            .collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Returns `true` if the matrix is structurally and numerically symmetric
    /// to within `tol` (relative to the largest entry magnitude).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let scale = self
            .values
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        let t = self.transpose();
        if t.nnz() != self.nnz() {
            return false;
        }
        self.iter()
            .zip(t.iter())
            .all(|((r1, c1, v1), (r2, c2, v2))| {
                r1 == r2 && c1 == c2 && (v1 - v2).abs() <= tol * scale
            })
    }

    /// Iterates over stored entries as `(row, col, value)` in row-major order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            matrix: self,
            row: 0,
            pos: 0,
        }
    }

    /// Converts to a dense matrix (intended for tests and tiny systems).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Estimated infinity-norm condition diagnostics: returns the min and max
    /// absolute diagonal entry. Useful for spotting near-singular assemblies
    /// before handing the system to a Krylov solver.
    pub fn diagonal_range(&self) -> (f64, f64) {
        let diag = self.diagonal();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for d in diag {
            lo = lo.min(d.abs());
            hi = hi.max(d.abs());
        }
        (lo, hi)
    }
}

/// One row of `A·x`: `0.0 + v₀·x[c₀] + v₁·x[c₁] + …`, left to right.
fn dot_row(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (v, &c) in vals.iter().zip(cols) {
        acc += v * x[c as usize];
    }
    acc
}

/// `y = A·x` over rows that each store exactly `L` entries, their slots
/// back to back in `vals` / `cols`: [`dot_row`] with the row length known
/// at compile time, so the compiler unrolls it.
fn mul_rows<const L: usize>(vals: &[f64], cols: &[u32], x: &[f64], y: &mut [f64]) {
    let (vals, _) = vals.as_chunks::<L>();
    let (cols, _) = cols.as_chunks::<L>();
    for ((yr, v), c) in y.iter_mut().zip(vals).zip(cols) {
        *yr = dot_row(v, c, x);
    }
}

/// Iterator over stored entries of a [`CsrMatrix`]; see [`CsrMatrix::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    matrix: &'a CsrMatrix,
    row: usize,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = (usize, usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.row < self.matrix.rows {
            if self.pos < self.matrix.row_ptr[self.row + 1] {
                let k = self.pos;
                self.pos += 1;
                return Some((
                    self.row,
                    self.matrix.col_idx[k] as usize,
                    self.matrix.values[k],
                ));
            }
            self.row += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [2 1 0]
        // [0 3 0]
        // [4 0 5]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.mul_vec(&x), vec![4.0, 6.0, 19.0]);
    }

    #[test]
    fn get_and_row_access() {
        let m = sample();
        assert_eq!(m.get(2, 0), 4.0);
        assert_eq!(m.get(1, 0), 0.0);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[2.0, 1.0]);
        assert_eq!(m.row_sum(2), 9.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)],
        );
        assert!(sym.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
    }

    #[test]
    fn identity_is_identity() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x), x.to_vec());
        assert!(i.is_symmetric(0.0));
    }

    #[test]
    fn diagonal_and_range() {
        let m = sample();
        assert_eq!(m.diagonal(), vec![2.0, 3.0, 5.0]);
        assert_eq!(m.diagonal_range(), (2.0, 5.0));
    }

    #[test]
    fn iter_visits_row_major_sorted() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0)
            ]
        );
    }

    #[test]
    fn to_dense_matches() {
        let d = sample().to_dense();
        assert_eq!(d[(2, 2)], 5.0);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn residual_norm_zero_for_exact_solution() {
        let m = CsrMatrix::identity(3);
        let b = [1.0, 2.0, 3.0];
        assert!(m.residual_norm(&b, &b) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_rejects_out_of_bounds() {
        CsrMatrix::from_triplets(1, 1, &[(1, 0, 1.0)]);
    }

    #[test]
    fn runs_split_rows_of_equal_length() {
        // Row lengths [2, 2, 3, 0, 0, 3].
        let m = CsrMatrix::from_triplets(
            6,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (2, 2, 1.0),
                (2, 3, 1.0),
                (5, 1, 1.0),
                (5, 2, 1.0),
                (5, 3, 1.0),
            ],
        );
        assert_eq!(m.runs, [0, 2, 3, 5, 6]);
        assert_eq!(
            m.mul_vec(&[1.0, 2.0, 3.0, 4.0]),
            [3.0, 5.0, 8.0, 0.0, 0.0, 9.0]
        );
        assert_eq!(CsrMatrix::from_triplets(0, 0, &[]).runs, [0]);
        assert_eq!(CsrMatrix::identity(0).runs, [0]);
        assert_eq!(CsrMatrix::identity(3).runs, [0, 3]);
    }

    #[test]
    fn slot_lookup_and_value_rewrite() {
        let mut m = sample();
        assert_eq!(m.slot(2, 0), Some(3));
        assert_eq!(m.slot(1, 0), None);
        let s = m.slot(0, 1).unwrap();
        m.values_mut()[s] = 7.0;
        assert_eq!(m.get(0, 1), 7.0);
        assert_eq!(m.values().len(), m.nnz());
        assert_eq!(m.row_ptr().len(), 4);
        assert_eq!(m.col_indices().len(), m.nnz());
    }
}
