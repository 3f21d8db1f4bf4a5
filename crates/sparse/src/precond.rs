//! Preconditioners for the Krylov solvers.

use crate::csr::CsrMatrix;

/// A left preconditioner: given a residual `r`, computes `z ≈ A⁻¹·r`.
///
/// Implemented by [`Identity`], [`Jacobi`] and [`Ilu0`]. The trait is
/// object-safe so solver configuration can store a `Box<dyn Preconditioner>`.
pub trait Preconditioner {
    /// Applies the preconditioner: `z ← M⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r.len()` or `z.len()` does not match the
    /// dimension the preconditioner was built for.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// The system dimension this preconditioner was built for.
    fn dim(&self) -> usize;
}

/// The do-nothing preconditioner (`M = I`).
#[derive(Debug, Clone, Copy)]
pub struct Identity {
    dim: usize,
}

impl Identity {
    /// Creates an identity preconditioner for dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl Preconditioner for Identity {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

/// Diagonal (Jacobi) preconditioner: `z_i = r_i / a_ii`.
///
/// Rows with a zero diagonal fall back to the identity on that row.
#[derive(Debug, Clone)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Builds the Jacobi preconditioner from the diagonal of `a`.
    pub fn new(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .into_iter()
            .map(|d| if d.abs() < 1e-300 { 1.0 } else { 1.0 / d })
            .collect();
        Self { inv_diag }
    }
}

impl Preconditioner for Jacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }

    fn dim(&self) -> usize {
        self.inv_diag.len()
    }
}

/// Incomplete LU factorization with zero fill-in, ILU(0).
///
/// Factors `A ≈ L·U` on the sparsity pattern of `A` (unit-diagonal `L`).
/// This is the workhorse preconditioner for the nonsymmetric
/// advection–diffusion thermal systems, where Jacobi alone converges
/// slowly at high flow rates.
#[derive(Debug, Clone)]
pub struct Ilu0 {
    /// Combined L\U factors on A's pattern (row-major CSR arrays).
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Position of the diagonal entry within each row's slice.
    diag_pos: Vec<usize>,
    /// Factor slot holding the `k`-th stored entry of the source matrix
    /// (factor pattern = A's pattern plus inserted diagonals, so the map is
    /// injective but not surjective).
    a_slot: Vec<usize>,
    dim: usize,
}

impl Ilu0 {
    /// Computes the ILU(0) factorization of `a`.
    ///
    /// Equivalent to [`Ilu0::symbolic`] followed by [`Ilu0::refactor`].
    /// Rows missing a diagonal entry, or where elimination produces a zero
    /// pivot, have the pivot replaced by a small multiple of the row's
    /// largest magnitude (diagonal shifting), keeping the preconditioner
    /// usable on mildly indefinite assemblies.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: &CsrMatrix) -> Self {
        let mut ilu = Self::symbolic(a);
        ilu.refactor(a);
        ilu
    }

    /// Builds the reusable symbolic structure for `a`'s sparsity pattern:
    /// the factor pattern (A's pattern plus explicit diagonals), diagonal
    /// positions, and the A-slot → factor-slot map used by
    /// [`Ilu0::refactor`]. Factor values are left at zero; call
    /// [`Ilu0::refactor`] before [`Preconditioner::apply`].
    ///
    /// This is the one-time half of the probe-path split: callers that
    /// re-factor the same pattern with new numeric values (the
    /// pressure-probe loop) pay this cost once.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn symbolic(a: &CsrMatrix) -> Self {
        assert_eq!(a.rows(), a.cols(), "ILU(0) requires a square matrix");
        let n = a.rows();

        // Copy A's pattern, inserting an explicit diagonal if absent, and
        // record where each of A's stored entries and each row's diagonal
        // land in the factor.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut a_slot = Vec::with_capacity(a.nnz());
        let mut diag_pos = Vec::with_capacity(n);
        row_ptr.push(0);
        for r in 0..n {
            let (cols, _) = a.row(r);
            let mut diag = None;
            for &c in cols {
                if c as usize == r {
                    diag = Some(col_idx.len());
                }
                a_slot.push(col_idx.len());
                col_idx.push(c);
            }
            let diag = diag.unwrap_or_else(|| {
                // Insert zero diagonal keeping the row sorted, shifting the
                // slot map for this row's entries past the insertion point.
                let lo = row_ptr[r];
                let insert_at = lo
                    + col_idx[lo..]
                        .iter()
                        .position(|&c| c as usize > r)
                        .unwrap_or(col_idx.len() - lo);
                col_idx.insert(insert_at, r as u32);
                for s in a_slot.iter_mut().rev() {
                    if *s < insert_at {
                        break;
                    }
                    *s += 1;
                }
                insert_at
            });
            diag_pos.push(diag);
            row_ptr.push(col_idx.len());
        }

        let nnz = col_idx.len();
        Self {
            row_ptr,
            col_idx,
            values: vec![0.0; nnz],
            diag_pos,
            a_slot,
            dim: n,
        }
    }

    /// Recomputes the numeric factorization from `a`'s current values,
    /// reusing the symbolic structure. This is the per-probe half of the
    /// split: a value copy plus one IKJ elimination sweep, with no
    /// allocation beyond the scatter workspace.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s sparsity pattern differs from the one this structure
    /// was built for (checked via dimension and stored-entry count).
    pub fn refactor(&mut self, a: &CsrMatrix) {
        assert_eq!(a.rows(), self.dim, "refactor: dimension mismatch");
        assert_eq!(
            a.nnz(),
            self.a_slot.len(),
            "refactor: sparsity pattern mismatch"
        );
        let n = self.dim;
        let row_ptr = &self.row_ptr;
        let col_idx = &self.col_idx;
        let diag_pos = &self.diag_pos;
        let values = &mut self.values;

        // Numeric copy: zero everything (inserted diagonals must reset),
        // then scatter A's values through the slot map.
        values.iter_mut().for_each(|v| *v = 0.0);
        for (&slot, &v) in self.a_slot.iter().zip(a.values()) {
            values[slot] = v;
        }

        // IKJ-variant ILU(0) with a scatter workspace mapping column -> slot.
        let mut slot_of_col: Vec<isize> = vec![-1; n];
        for i in 0..n {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            for k in lo..hi {
                slot_of_col[col_idx[k] as usize] = k as isize;
            }
            // Eliminate using rows k < i present in row i's pattern.
            for kk in lo..diag_pos[i] {
                let k = col_idx[kk] as usize;
                let pivot = values[diag_pos[k]];
                let factor = values[kk] / pivot;
                values[kk] = factor;
                // Update row i entries for columns j > k found in row k.
                for jj in (diag_pos[k] + 1)..row_ptr[k + 1] {
                    let j = col_idx[jj] as usize;
                    let slot = slot_of_col[j];
                    if slot >= 0 {
                        values[slot as usize] -= factor * values[jj];
                    }
                }
            }
            // Pivot guard.
            let dp = diag_pos[i];
            if values[dp].abs() < 1e-300 {
                let row_max = values[lo..hi]
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.abs()))
                    .max(1e-30);
                values[dp] = row_max * 1e-8;
            }
            for k in lo..hi {
                slot_of_col[col_idx[k] as usize] = -1;
            }
        }
    }
}

impl Preconditioner for Ilu0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.dim, "r has wrong length");
        assert_eq!(z.len(), self.dim, "z has wrong length");
        // Forward solve L·y = r (unit diagonal L, strictly-lower entries).
        for i in 0..self.dim {
            let mut acc = r[i];
            for k in self.row_ptr[i]..self.diag_pos[i] {
                acc -= self.values[k] * z[self.col_idx[k] as usize];
            }
            z[i] = acc;
        }
        // Backward solve U·z = y.
        for i in (0..self.dim).rev() {
            let mut acc = z[i];
            for k in (self.diag_pos[i] + 1)..self.row_ptr[i + 1] {
                acc -= self.values[k] * z[self.col_idx[k] as usize];
            }
            z[i] = acc / self.values[self.diag_pos[i]];
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletBuilder;

    fn tridiag(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0);
            }
        }
        b.to_csr()
    }

    #[test]
    fn identity_copies() {
        let p = Identity::new(3);
        let mut z = vec![0.0; 3];
        p.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let a = tridiag(3);
        let p = Jacobi::new(&a);
        let mut z = vec![0.0; 3];
        p.apply(&[2.0, 4.0, 6.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ilu0_is_exact_for_tridiagonal() {
        // A tridiagonal matrix has no fill-in, so ILU(0) == full LU and the
        // preconditioner solves the system exactly.
        let a = tridiag(5);
        let x_true = [1.0, -1.0, 2.0, 0.5, 3.0];
        let b = a.mul_vec(&x_true);
        let p = Ilu0::new(&a);
        let mut z = vec![0.0; 5];
        p.apply(&b, &mut z);
        for (zi, ti) in z.iter().zip(&x_true) {
            assert!((zi - ti).abs() < 1e-12, "z = {z:?}");
        }
    }

    #[test]
    fn ilu0_handles_missing_diagonal() {
        // Row 1 has no stored diagonal; construction must not panic and the
        // preconditioner must stay finite. With the inserted diagonal the
        // pattern is full, so ILU(0) is the exact LU and applying it solves
        // A·z = r exactly: z = (1, -1).
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0)]);
        let p = Ilu0::new(&a);
        let mut z = vec![0.0; 2];
        p.apply(&[1.0, 1.0], &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(z, [1.0, -1.0]);
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        // Probe use case: same pattern, new numeric values. A symbolic
        // structure refactored with the new values must behave exactly like
        // a factorization built from scratch.
        let n = 24;
        let build = |scale: f64| {
            let mut b = TripletBuilder::new(n, n);
            for i in 0..n {
                b.add(i, i, 4.0 + scale * (i % 5) as f64);
                if i + 1 < n {
                    b.add(i, i + 1, -1.0 - scale);
                    b.add(i + 1, i, -0.5 * scale);
                }
                if i + 4 < n {
                    b.add(i, i + 4, -0.25 * scale);
                }
            }
            b.to_csr()
        };
        let a1 = build(1.0);
        let a2 = build(3.5);
        let mut ilu = Ilu0::symbolic(&a1);
        ilu.refactor(&a1);
        let r: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut z_re = vec![0.0; n];
        let mut z_fresh = vec![0.0; n];
        ilu.apply(&r, &mut z_re);
        Ilu0::new(&a1).apply(&r, &mut z_fresh);
        assert_eq!(z_re, z_fresh);
        // Now rewrite with a2's values and compare against a cold build.
        ilu.refactor(&a2);
        ilu.apply(&r, &mut z_re);
        Ilu0::new(&a2).apply(&r, &mut z_fresh);
        assert_eq!(z_re, z_fresh);
    }

    #[test]
    fn refactor_resets_inserted_diagonal() {
        // Row 1 has no stored diagonal; two refactors in a row must give
        // identical results (the inserted zero diagonal is re-zeroed).
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]);
        let mut ilu = Ilu0::symbolic(&a);
        ilu.refactor(&a);
        let mut z1 = vec![0.0; 2];
        ilu.apply(&[1.0, 1.0], &mut z1);
        ilu.refactor(&a);
        let mut z2 = vec![0.0; 2];
        ilu.apply(&[1.0, 1.0], &mut z2);
        assert_eq!(z1, z2);
        assert!(z1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ilu0_nonsymmetric_improves_residual() {
        // Advection-like nonsymmetric matrix.
        let mut b = TripletBuilder::new(4, 4);
        for i in 0..4usize {
            b.add(i, i, 3.0);
            if i + 1 < 4 {
                b.add(i, i + 1, -2.0);
                b.add(i + 1, i, -0.5);
            }
        }
        let a = b.to_csr();
        let rhs = [1.0, 0.0, 0.0, 1.0];
        let p = Ilu0::new(&a);
        let mut z = vec![0.0; 4];
        p.apply(&rhs, &mut z);
        // ILU(0) on a tridiagonal pattern is exact.
        assert!(a.residual_norm(&z, &rhs) < 1e-12);
    }
}
