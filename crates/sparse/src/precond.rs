//! Preconditioners for the Krylov solvers.

use crate::csr::{equal_length_runs, CsrMatrix};
use std::ops::Range;

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
///
/// The factor lives in a natural-order CSR workspace. The IKJ
/// elimination's structure depends on the pattern alone, so
/// [`symbolic`](Ilu0::symbolic) records it once: for each strictly-lower
/// slot, the pivot slot it divides by and the `(target, source)` slot
/// pairs it updates. [`refactor`](Ilu0::refactor) replays that list with
/// the new values, with no column lookups. [`apply`] reads two
/// level-ordered copies of the triangles (see `Sweep`), so rows that do
/// not depend on each other run back to back instead of waiting on their
/// x-neighbour. Inside a level, rows sort by stored length, and each run
/// of equal-length rows goes through a loop with that length fixed at
/// compile time. Each row's arithmetic is unchanged, so the result is bit
/// for bit the natural-order elimination's and sweep's.
///
/// [`apply`]: Preconditioner::apply
#[derive(Debug, Clone)]
pub struct Ilu0 {
    /// Combined L\U factors on A's pattern (row-major CSR arrays): the
    /// elimination workspace. Only the test references read the columns
    /// once the elimination list and the sweeps are built.
    row_ptr: Vec<usize>,
    #[cfg(test)]
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Position of the diagonal entry within each row's slice.
    diag_pos: Vec<usize>,
    /// Factor slot holding the `k`-th stored entry of the source matrix
    /// when a row lacked its diagonal (factor pattern = A's pattern plus
    /// inserted diagonals, so the map is injective but not surjective);
    /// `None` when the two patterns are equal.
    a_slot: Option<Vec<usize>>,
    /// One elimination step per strictly-lower slot, in CSR slot order.
    steps: Vec<Step>,
    /// `(target, source)` slot pairs of every step, back to back: the
    /// step at lower slot `kk` runs `values[target] -= l · values[source]`
    /// with `l = values[kk] / values[pivot]`.
    updates: Vec<[u32; 2]>,
    /// Strictly-lower entries, forward-sweep level order.
    lower: Sweep,
    /// Diagonal followed by the strictly-upper entries, backward-sweep
    /// level order.
    upper: Sweep,
    dim: usize,
}

/// One step of the IKJ elimination, at one strictly-lower slot: the slot
/// of the pivot it divides by, and where its update pairs end in
/// `Ilu0::updates` (they start where the previous step's pairs end).
#[derive(Debug, Clone, Copy)]
struct Step {
    pivot: u32,
    end: u32,
}

/// One triangle of the factor, stored row after row in dependency-level
/// order. Every row a sweep reads lies on a lower level, so it is final
/// before the row's level starts; rows of one level are independent, so
/// within a level they sort by stored length. Consecutive rows of equal
/// length form runs (about 50 rows long on a 41×41 4RM grid), and
/// [`for_each_row`](Sweep::for_each_row) gives each run a loop whose row
/// length is a compile-time constant. Within a row, entries keep the CSR's
/// ascending column order.
#[derive(Debug, Clone)]
struct Sweep {
    /// Matrix row of each stored row, sorted by `(level, length, row)`.
    rows: Vec<u32>,
    /// Offsets of each stored row in `cols` / `vals` (`rows.len() + 1`).
    ptr: Vec<usize>,
    /// Index in `rows` of the first row of each run of equal-length rows,
    /// closed by `rows.len()`.
    runs: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// CSR workspace slot of each stored value.
    src: Vec<usize>,
}

impl Sweep {
    /// Lays out the `slots(i)` part of each row of the CSR pattern, rows in
    /// `order`.
    fn new(order: Vec<u32>, col_idx: &[u32], slots: impl Fn(usize) -> Range<usize>) -> Self {
        let mut ptr = Vec::with_capacity(order.len() + 1);
        let mut src = Vec::new();
        ptr.push(0);
        for &i in &order {
            src.extend(slots(i as usize));
            ptr.push(src.len());
        }
        Self {
            rows: order,
            runs: equal_length_runs(&ptr),
            ptr,
            cols: src.iter().map(|&s| col_idx[s]).collect(),
            vals: vec![0.0; src.len()],
            src,
        }
    }

    /// Copies the factor out of the CSR workspace `values`.
    fn gather(&mut self, values: &[f64]) {
        for (v, &s) in self.vals.iter_mut().zip(&self.src) {
            *v = values[s];
        }
    }

    /// Calls `row(i, cols, vals)` on each stored row, in level order. A
    /// run of rows storing 1 to 5 entries (every length the 2RM and 4RM
    /// factors have but the lone empty first lower row) goes through
    /// [`run`], which fixes the length at compile time; other runs take a
    /// plain row loop.
    fn for_each_row(&self, mut row: impl FnMut(usize, &[u32], &[f64])) {
        for w in self.runs.windows(2) {
            let rows = &self.rows[w[0]..w[1]];
            let (lo, hi) = (self.ptr[w[0]], self.ptr[w[1]]);
            let (cols, vals) = (&self.cols[lo..hi], &self.vals[lo..hi]);
            match self.ptr[w[0] + 1] - lo {
                1 => run::<1>(rows, cols, vals, &mut row),
                2 => run::<2>(rows, cols, vals, &mut row),
                3 => run::<3>(rows, cols, vals, &mut row),
                4 => run::<4>(rows, cols, vals, &mut row),
                5 => run::<5>(rows, cols, vals, &mut row),
                _ => {
                    for (&i, p) in rows.iter().zip(self.ptr[w[0]..=w[1]].windows(2)) {
                        row(i as usize, &self.cols[p[0]..p[1]], &self.vals[p[0]..p[1]]);
                    }
                }
            }
        }
    }
}

/// Calls `row` on each of `rows`, whose entries are `L` apiece, back to
/// back in `cols` / `vals`.
fn run<const L: usize>(
    rows: &[u32],
    cols: &[u32],
    vals: &[f64],
    row: &mut impl FnMut(usize, &[u32], &[f64]),
) {
    let (cols, _) = cols.as_chunks::<L>();
    let (vals, _) = vals.as_chunks::<L>();
    for ((&i, c), v) in rows.iter().zip(cols).zip(vals) {
        row(i as usize, c, v);
    }
}

/// Orders `0..n` by `(level, reads, row)`, where `level(i)` is one more
/// than the highest level among the rows `reads(i)` names, or 0 when it
/// names none, and `reads` is how many rows it names. `visit` must list
/// every row after all the rows it reads.
fn level_order<'a>(
    n: usize,
    visit: impl Iterator<Item = usize>,
    reads: impl Fn(usize) -> &'a [u32],
) -> Vec<u32> {
    let width = (0..n).map(|i| reads(i).len()).max().unwrap_or(0) + 1;
    let mut level = vec![0usize; n];
    let mut key = vec![0usize; n];
    let mut buckets = 0;
    for i in visit {
        let cols = reads(i);
        let l = cols
            .iter()
            .map(|&c| level[c as usize] + 1)
            .max()
            .unwrap_or(0);
        level[i] = l;
        key[i] = l * width + cols.len();
        buckets = buckets.max(key[i] + 1);
    }
    // Counting sort by key; rows enter each bucket in ascending order.
    let mut next = vec![0usize; buckets + 1];
    for &k in &key {
        next[k + 1] += 1;
    }
    for b in 0..buckets {
        next[b + 1] += next[b];
    }
    let mut order = vec![0u32; n];
    for (i, &k) in key.iter().enumerate() {
        order[next[k]] = i as u32;
        next[k] += 1;
    }
    order
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
    /// positions, the A-slot → factor-slot map and the elimination list
    /// used by [`Ilu0::refactor`], and the level schedule of both
    /// triangular sweeps. Factor values are left at zero; call
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

        // When every row stores its diagonal (the thermal and hydraulic
        // systems do), the factor pattern is A's own.
        let diagonals: Option<Vec<usize>> = (0..n)
            .map(|r| {
                let lo = a.row_ptr()[r];
                a.row(r).0.binary_search(&(r as u32)).ok().map(|k| lo + k)
            })
            .collect();
        let (row_ptr, col_idx, diag_pos, a_slot) = match diagonals {
            Some(diag_pos) => (
                a.row_ptr().to_vec(),
                a.col_indices().to_vec(),
                diag_pos,
                None,
            ),
            None => {
                let (row_ptr, col_idx, diag_pos, a_slot) = insert_diagonals(a);
                (row_ptr, col_idx, diag_pos, Some(a_slot))
            }
        };

        // The forward sweep reads the columns below each row, the backward
        // sweep those above it, so the latter's levels count from the end.
        let lower_slots = |i: usize| row_ptr[i]..diag_pos[i];
        let upper_slots = |i: usize| diag_pos[i]..row_ptr[i + 1];
        let lower_order = level_order(n, 0..n, |i| &col_idx[lower_slots(i)]);
        let upper_order = level_order(n, (0..n).rev(), |i| &col_idx[upper_slots(i)][1..]);
        let lower = Sweep::new(lower_order, &col_idx, lower_slots);
        let upper = Sweep::new(upper_order, &col_idx, upper_slots);
        let (steps, updates) = elimination_list(&row_ptr, &col_idx, &diag_pos);

        let nnz = col_idx.len();
        Self {
            row_ptr,
            #[cfg(test)]
            col_idx,
            values: vec![0.0; nnz],
            diag_pos,
            a_slot,
            steps,
            updates,
            lower,
            upper,
            dim: n,
        }
    }

    /// Recomputes the numeric factorization from `a`'s current values,
    /// reusing the symbolic structure. This is the per-probe half of the
    /// split: a value copy, a replay of the recorded elimination list, and
    /// one pass that copies the factor into the level-ordered sweeps; it
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s sparsity pattern differs from the one this structure
    /// was built for (checked via dimension and stored-entry count).
    pub fn refactor(&mut self, a: &CsrMatrix) {
        assert_eq!(a.rows(), self.dim, "refactor: dimension mismatch");
        assert_eq!(
            a.nnz(),
            self.a_slot.as_ref().map_or(self.values.len(), Vec::len),
            "refactor: sparsity pattern mismatch"
        );
        let Self {
            row_ptr,
            values,
            diag_pos,
            a_slot,
            steps,
            updates,
            ..
        } = self;
        // Numeric copy. With an inserted diagonal, zero everything (the
        // inserted diagonals must reset), then scatter A's values through
        // the slot map.
        match a_slot {
            None => values.copy_from_slice(a.values()),
            Some(a_slot) => {
                values.fill(0.0);
                for (&slot, &v) in a_slot.iter().zip(a.values()) {
                    values[slot] = v;
                }
            }
        }
        let mut steps = steps.iter();
        let mut from = 0;
        for (i, &dp) in diag_pos.iter().enumerate() {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            for (kk, step) in (lo..dp).zip(&mut steps) {
                let end = step.end as usize;
                let factor = values[kk] / values[step.pivot as usize];
                values[kk] = factor;
                for &[target, source] in &updates[from..end] {
                    values[target as usize] -= factor * values[source as usize];
                }
                from = end;
            }
            // Pivot guard.
            if values[dp].abs() < 1e-300 {
                let row_max = values[lo..hi]
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.abs()))
                    .max(1e-30);
                values[dp] = row_max * 1e-8;
            }
        }
        self.lower.gather(&self.values);
        self.upper.gather(&self.values);
    }

    /// The natural-order sweeps over the CSR workspace: the reference the
    /// level-ordered [`apply`](Preconditioner::apply) must match bit for
    /// bit.
    #[cfg(test)]
    fn apply_natural(&self, r: &[f64], z: &mut [f64]) {
        for i in 0..self.dim {
            let mut acc = r[i];
            for k in self.row_ptr[i]..self.diag_pos[i] {
                acc -= self.values[k] * z[self.col_idx[k] as usize];
            }
            z[i] = acc;
        }
        for i in (0..self.dim).rev() {
            let mut acc = z[i];
            for k in (self.diag_pos[i] + 1)..self.row_ptr[i + 1] {
                acc -= self.values[k] * z[self.col_idx[k] as usize];
            }
            z[i] = acc / self.values[self.diag_pos[i]];
        }
    }
}

/// A's pattern with an explicit diagonal inserted in each row that lacks
/// one: the factor's row pointer, columns and diagonal slots, and the
/// factor slot of each of A's stored entries.
fn insert_diagonals(a: &CsrMatrix) -> (Vec<usize>, Vec<u32>, Vec<usize>, Vec<usize>) {
    let n = a.rows();
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
    (row_ptr, col_idx, diag_pos, a_slot)
}

/// The IKJ elimination's structure on the factor pattern: per row `i`
/// and strictly-lower slot `kk` (column `k < i`), in CSR order, the
/// `Step` dividing by row `k`'s pivot and the `(target, source)` pairs
/// for every column `j > k` of row `k` that row `i` also stores, in row
/// `k`'s column order. Replaying the list runs exactly the arithmetic the
/// elimination runs, in the same order.
///
/// # Panics
///
/// Panics if a slot or the list length does not fit in `u32`.
fn elimination_list(
    row_ptr: &[usize],
    col_idx: &[u32],
    diag_pos: &[usize],
) -> (Vec<Step>, Vec<[u32; 2]>) {
    assert!(col_idx.len() < u32::MAX as usize, "ILU(0) factor too large");
    let n = diag_pos.len();
    let lower = |i: usize| &col_idx[row_ptr[i]..diag_pos[i]];
    let upper_len = |k: u32| row_ptr[k as usize + 1] - diag_pos[k as usize] - 1;
    let mut steps = Vec::with_capacity((0..n).map(|i| lower(i).len()).sum());
    // Room for a pair per strictly-upper entry of each row read, plus one:
    // every candidate is written, and only a hit advances `len`.
    let bound: usize = (0..n)
        .map(|i| lower(i).iter().map(|&k| upper_len(k)).sum::<usize>())
        .sum();
    assert!(bound < u32::MAX as usize, "ILU(0) list too long");
    let mut updates = vec![[0u32; 2]; bound + 1];
    let mut len = 0;
    // Column -> one past its slot in the latest row that stores it, so
    // that a value at or below the current row's first slot is stale and
    // no row needs clearing.
    let mut seen = vec![0u32; n];
    for i in 0..n {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        for (&c, s) in col_idx[lo..hi].iter().zip(lo as u32 + 1..) {
            seen[c as usize] = s;
        }
        for &k in lower(i) {
            let k = k as usize;
            let from = diag_pos[k] + 1;
            for (&j, jj) in col_idx[from..row_ptr[k + 1]].iter().zip(from as u32..) {
                let s = seen[j as usize];
                updates[len] = [s.wrapping_sub(1), jj];
                len += usize::from(s as usize > lo);
            }
            steps.push(Step {
                pivot: diag_pos[k] as u32,
                end: len as u32,
            });
        }
    }
    updates.truncate(len);
    updates.shrink_to_fit();
    (steps, updates)
}

/// IKJ-variant ILU(0) elimination in place on the CSR factor `values`,
/// with `slot_of_col` (all `-1` on entry and on exit) mapping each column
/// of the current row to its slot: the arithmetic `refactor` replays from
/// the elimination list, kept as the reference it must match bit for bit.
#[cfg(test)]
fn eliminate(
    row_ptr: &[usize],
    col_idx: &[u32],
    diag_pos: &[usize],
    values: &mut [f64],
    slot_of_col: &mut [isize],
) {
    for i in 0..diag_pos.len() {
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

impl Preconditioner for Ilu0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.dim, "r has wrong length");
        assert_eq!(z.len(), self.dim, "z has wrong length");
        // Forward solve L·y = r (unit diagonal L, strictly-lower entries).
        self.lower.for_each_row(|i, cols, vals| {
            let mut acc = r[i];
            for (&c, &l) in cols.iter().zip(vals) {
                acc -= l * z[c as usize];
            }
            z[i] = acc;
        });
        // Backward solve U·z = y; each stored row leads with its pivot.
        self.upper.for_each_row(|i, cols, vals| {
            let mut acc = z[i];
            for (&c, &u) in cols[1..].iter().zip(&vals[1..]) {
                acc -= u * z[c as usize];
            }
            z[i] = acc / vals[0];
        });
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

    /// Nonsymmetric 5-point operator on an `nx × ny` grid, natural order
    /// x fastest; `skew` scales the upwind (west and south) couplings.
    fn grid(nx: usize, ny: usize, skew: f64) -> CsrMatrix {
        let mut b = TripletBuilder::new(nx * ny, nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                b.add(i, i, 4.0 + skew);
                if x > 0 {
                    b.add(i, i - 1, -1.0 - skew);
                }
                if x + 1 < nx {
                    b.add(i, i + 1, -1.0);
                }
                if y > 0 {
                    b.add(i, i - nx, -0.5 - skew);
                }
                if y + 1 < ny {
                    b.add(i, i + nx, -0.5);
                }
            }
        }
        b.to_csr()
    }

    #[test]
    fn grid_levels_are_antidiagonal_wavefronts() {
        // On a 3×3 grid the forward sweep's level is x + y and the backward
        // sweep's is (2 − x) + (2 − y); rows sort by level, then stored
        // length, then index, so the centre row 4 (two reads in each
        // triangle) follows the edge rows of its level.
        let ilu = Ilu0::symbolic(&grid(3, 3, 1.0));
        assert_eq!(ilu.lower.rows, [0, 1, 3, 2, 6, 4, 5, 7, 8]);
        assert_eq!(ilu.upper.rows, [8, 5, 7, 2, 6, 4, 1, 3, 0]);
        assert_eq!(ilu.lower.runs, [0, 1, 5, 9]);
        assert_eq!(ilu.upper.runs, [0, 1, 5, 9]);
    }

    fn bits(z: &[f64]) -> Vec<u64> {
        z.iter().map(|v| v.to_bits()).collect()
    }

    /// Row 0 stores no diagonal.
    fn missing_diag() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 1, 1.0),
                (1, 0, 2.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 1, -1.0),
            ],
        )
    }

    /// In each triangle a two-read row on level 2 is read by a one-read
    /// row on level 3, so ordering by length before level breaks it.
    fn long_row_read_late(s: f64) -> CsrMatrix {
        let mut t = vec![(1, 0, -1.0), (2, 0, -s), (2, 1, -1.0), (3, 2, -s)];
        t.extend([(2, 3, -1.0), (1, 2, -s), (1, 3, -1.0), (0, 1, -s)]);
        t.extend((0..4).map(|i| (i, i, 4.0 + i as f64)));
        CsrMatrix::from_triplets(4, 4, &t)
    }

    /// Elimination zeroes row 1's pivot (`2 − 1·2`), so the guard sets it.
    fn zero_pivot() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 1.0),
                (1, 1, 2.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 3.0),
            ],
        )
    }

    /// The union patterns of a 9×9 two-die stack's 4RM and 2RM systems
    /// (`tests/data/two_die_9x9_patterns.txt`), with values that depend on
    /// `(row, col)` and `scale`: a pivot that grows down the diagonal,
    /// upwind-heavy couplings below it.
    fn two_die_patterns(scale: f64) -> Vec<CsrMatrix> {
        let text = include_str!("../tests/data/two_die_9x9_patterns.txt");
        let mut matrices = Vec::new();
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let mut finish = |rows: &mut Vec<Vec<u32>>| {
            let mut t = Vec::new();
            for (r, cols) in rows.iter().enumerate() {
                for &c in cols {
                    let v = if c as usize == r {
                        4.0 + (r % 7) as f64 * 0.25
                    } else {
                        let w = 0.5 + ((r * 31 + c as usize * 17) % 11) as f64 / 10.0;
                        if (c as usize) < r {
                            -w * scale
                        } else {
                            -w / scale
                        }
                    };
                    t.push((r as u32, c, v));
                }
            }
            if !rows.is_empty() {
                matrices.push(CsrMatrix::from_triplets(rows.len(), rows.len(), &t));
            }
            rows.clear();
        };
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if line.starts_with("matrix") {
                finish(&mut rows);
            } else {
                rows.push(line.split(' ').map(|c| c.parse().unwrap()).collect());
            }
        }
        finish(&mut rows);
        matrices
    }

    #[test]
    fn two_die_fixture_holds_both_patterns() {
        let sizes: Vec<_> = two_die_patterns(1.0)
            .iter()
            .map(|m| (m.rows(), m.nnz()))
            .collect();
        assert_eq!(sizes, [(486, 3024), (72, 378)]);
    }

    /// The factor the IKJ [`eliminate`] reference computes from `a` on
    /// `ilu`'s pattern, after the scatter copy `refactor` used to make.
    fn eliminated(ilu: &Ilu0, a: &CsrMatrix) -> Vec<f64> {
        let mut values = vec![0.0; ilu.values.len()];
        let identity: Vec<usize> = (0..a.nnz()).collect();
        for (&slot, &v) in ilu
            .a_slot
            .as_ref()
            .unwrap_or(&identity)
            .iter()
            .zip(a.values())
        {
            values[slot] = v;
        }
        let mut slot_of_col = vec![-1; ilu.dim];
        eliminate(
            &ilu.row_ptr,
            &ilu.col_idx,
            &ilu.diag_pos,
            &mut values,
            &mut slot_of_col,
        );
        assert!(slot_of_col.iter().all(|&s| s == -1));
        values
    }

    #[test]
    fn list_refactor_matches_ikj_elimination_bit_for_bit() {
        let mut cases = vec![
            (tridiag(7), tridiag(7)),
            (grid(9, 7, 0.5), grid(9, 7, 3.0)),
            (long_row_read_late(0.5), long_row_read_late(2.0)),
            (missing_diag(), missing_diag()),
            (zero_pivot(), zero_pivot()),
        ];
        cases.extend(two_die_patterns(1.0).into_iter().zip(two_die_patterns(7.5)));
        for (a, refreshed) in cases {
            let mut ilu = Ilu0::new(&a);
            assert_eq!(bits(&ilu.values), bits(&eliminated(&ilu, &a)));
            ilu.refactor(&refreshed);
            assert_eq!(bits(&ilu.values), bits(&eliminated(&ilu, &refreshed)));
        }
        // The guard fired: row 1's pivot is 1e-8 of its largest entry.
        let ilu = Ilu0::new(&zero_pivot());
        assert_eq!(ilu.values[ilu.diag_pos[1]], 1e-8);
    }

    #[test]
    fn level_ordered_apply_matches_natural_order_bit_for_bit() {
        let mut cases = vec![
            (tridiag(7), tridiag(7)),
            (grid(9, 7, 0.5), grid(9, 7, 3.0)),
            (long_row_read_late(0.5), long_row_read_late(2.0)),
            (missing_diag(), missing_diag()),
        ];
        cases.extend(two_die_patterns(1.0).into_iter().zip(two_die_patterns(7.5)));
        for (a, refreshed) in cases {
            let n = a.rows();
            let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64 / 3.0).collect();
            let (mut z, mut z_ref) = (vec![0.0; n], vec![0.0; n]);
            let mut ilu = Ilu0::new(&a);
            ilu.apply(&r, &mut z);
            ilu.apply_natural(&r, &mut z_ref);
            assert_eq!(bits(&z), bits(&z_ref));
            ilu.refactor(&refreshed);
            ilu.apply(&r, &mut z);
            ilu.apply_natural(&r, &mut z_ref);
            assert_eq!(bits(&z), bits(&z_ref));
        }
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
