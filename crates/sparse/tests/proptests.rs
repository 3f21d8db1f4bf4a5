//! Property-based tests for the sparse linear-algebra substrate.
//!
//! Strategy: generate random diagonally dominant systems (which are
//! guaranteed nonsingular and keep both CG and BiCGSTAB in their comfort
//! zone), then check the algebraic invariants that the rest of the
//! workspace relies on.

use coolnet_sparse::precond::{Ilu0, Jacobi, Preconditioner};
use coolnet_sparse::resilience;
use coolnet_sparse::{solve, CsrMatrix, SolverOptions, TripletBuilder};
use proptest::prelude::*;

/// Random symmetric diagonally dominant matrix plus a dense vector.
fn spd_system(max_n: usize) -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (2..max_n).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..4 * n);
        let rhs = proptest::collection::vec(-10.0f64..10.0, n);
        (Just(n), entries, rhs).prop_map(|(n, entries, rhs)| {
            let mut b = TripletBuilder::new(n, n);
            let mut diag = vec![1.0f64; n];
            for (i, j, v) in entries {
                if i != j {
                    b.add(i, j, v);
                    b.add(j, i, v);
                    diag[i] += 2.0 * v.abs();
                    diag[j] += 2.0 * v.abs();
                }
            }
            for (i, d) in diag.iter().enumerate() {
                b.add(i, i, *d);
            }
            (b.to_csr(), rhs)
        })
    })
}

/// Random (generally nonsymmetric) diagonally dominant matrix plus RHS.
fn nonsym_system(max_n: usize) -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (2..max_n).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..4 * n);
        let rhs = proptest::collection::vec(-10.0f64..10.0, n);
        (Just(n), entries, rhs).prop_map(|(n, entries, rhs)| {
            let mut b = TripletBuilder::new(n, n);
            let mut diag = vec![1.0f64; n];
            for (i, j, v) in entries {
                if i != j {
                    b.add(i, j, v);
                    diag[i] += v.abs();
                }
            }
            for (i, d) in diag.iter().enumerate() {
                b.add(i, i, *d);
            }
            (b.to_csr(), rhs)
        })
    })
}

/// Random square matrix with random lower and upper bandwidths whose
/// in-band entries are all nonzero (random magnitude and sign), plus RHS.
fn banded_system(max_n: usize) -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (1..=max_n)
        .prop_flat_map(|n| (Just(n), 0..n, 0..n))
        .prop_flat_map(|(n, kl, ku)| {
            let in_band: usize = (0..n)
                .map(|i| (i + ku).min(n - 1) + 1 - i.saturating_sub(kl))
                .sum();
            let values = proptest::collection::vec((0.1f64..2.0, proptest::bool::ANY), in_band);
            let rhs = proptest::collection::vec(-10.0f64..10.0, n);
            (Just((n, kl, ku)), values, rhs)
        })
        .prop_map(|((n, kl, ku), values, rhs)| {
            let mut b = TripletBuilder::new(n, n);
            let mut next = values.into_iter();
            for i in 0..n {
                for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                    if let Some((v, negative)) = next.next() {
                        b.add(i, j, if negative { -v } else { v });
                    }
                }
            }
            (b.to_csr(), rhs)
        })
}

/// Random nonsymmetric pattern with per-row shape defects, plus a second
/// value set for the same pattern and a right-hand side. Each row draws a
/// shape: no stored diagonal, no strictly-lower part, no strictly-upper
/// part, or everything it was given.
fn ragged_system(max_n: usize) -> impl Strategy<Value = (CsrMatrix, Vec<f64>, Vec<f64>)> {
    (1..=max_n).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..4 * n);
        let shapes = proptest::collection::vec(0u8..8, n);
        let scales = proptest::collection::vec(0.25f64..4.0, 5 * n);
        let rhs = proptest::collection::vec(-10.0f64..10.0, n);
        (Just(n), entries, shapes, scales, rhs).prop_map(|(n, entries, shapes, scales, rhs)| {
            let mut b = TripletBuilder::new(n, n);
            let mut diag = vec![1.0f64; n];
            for (i, j, v) in entries {
                let keep = match shapes[i] {
                    1 => j > i,
                    2 => j < i,
                    _ => j != i,
                };
                if keep && v != 0.0 {
                    b.add(i, j, v);
                    diag[i] += v.abs();
                }
            }
            for (i, d) in diag.iter().enumerate() {
                if shapes[i] != 0 {
                    b.add(i, i, *d);
                }
            }
            let a = b.to_csr();
            let values2 = a.values().iter().zip(&scales).map(|(v, s)| v * s).collect();
            (a, values2, rhs)
        })
    })
}

/// ILU(0) in natural row order, written out independently of the crate:
/// the factor on A's pattern plus explicit diagonals, the same pivot guard,
/// then a forward sweep over rows `0..n` and a backward sweep over rows
/// `n..0`. Any reordering of the crate's sweeps must reproduce its bits.
fn natural_order_ilu0(a: &CsrMatrix, r: &[f64]) -> Vec<f64> {
    let n = a.rows();
    let mut rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|i| {
            let (cols, vals) = a.row(i);
            let mut row: Vec<(usize, f64)> = cols
                .iter()
                .map(|&c| c as usize)
                .zip(vals.iter().copied())
                .collect();
            if let Err(at) = row.binary_search_by_key(&i, |e| e.0) {
                row.insert(at, (i, 0.0));
            }
            row
        })
        .collect();
    let diag_at = |row: &[(usize, f64)], i: usize| row.iter().position(|e| e.0 == i).unwrap();
    for i in 0..n {
        let mut row = std::mem::take(&mut rows[i]);
        let di = diag_at(&row, i);
        for kk in 0..di {
            let k = row[kk].0;
            let rk = &rows[k];
            let dk = diag_at(rk, k);
            let factor = row[kk].1 / rk[dk].1;
            row[kk].1 = factor;
            for &(j, u) in &rk[dk + 1..] {
                if let Ok(s) = row.binary_search_by_key(&j, |e| e.0) {
                    row[s].1 -= factor * u;
                }
            }
        }
        if row[di].1.abs() < 1e-300 {
            let row_max = row.iter().fold(0.0f64, |m, e| m.max(e.1.abs())).max(1e-30);
            row[di].1 = row_max * 1e-8;
        }
        rows[i] = row;
    }
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut acc = r[i];
        for &(c, l) in rows[i].iter().take_while(|e| e.0 < i) {
            acc -= l * z[c];
        }
        z[i] = acc;
    }
    for i in (0..n).rev() {
        let row = &rows[i];
        let di = diag_at(row, i);
        let mut acc = z[i];
        for &(c, u) in &row[di + 1..] {
            acc -= u * z[c];
        }
        z[i] = acc / row[di].1;
    }
    z
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// A random shape plus up to 120 coordinates inside it, duplicates and
/// empty rows included.
fn coordinates() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32)>)> {
    (1usize..30, 1usize..30).prop_flat_map(|(rows, cols)| {
        let coords = proptest::collection::vec((0..rows as u32, 0..cols as u32), 0..120);
        (Just(rows), Just(cols), coords)
    })
}

proptest! {
    #[test]
    fn pattern_with_slots_matches_from_triplets((rows, cols, coords) in coordinates()) {
        let (mut m, slots) = CsrMatrix::pattern_with_slots(rows, cols, coords.iter().copied());
        prop_assert!(m.values().iter().all(|v| v.to_bits() == 0));
        prop_assert_eq!(slots.len(), coords.len());
        for (&(r, c), &s) in coords.iter().zip(&slots) {
            let row = m.row_ptr()[r as usize]..m.row_ptr()[r as usize + 1];
            prop_assert!(row.contains(&s));
            prop_assert_eq!(m.col_indices()[s], c);
        }
        // Nonzero placeholders cannot cancel, so `from_triplets` keeps
        // every coordinate; with its values copied in, the two matrices
        // (shape, pattern and row runs) are equal.
        let triplets: Vec<_> = coords.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        let want = CsrMatrix::from_triplets(rows, cols, &triplets);
        prop_assert_eq!(m.nnz(), want.nnz());
        m.values_mut().copy_from_slice(want.values());
        prop_assert_eq!(m, want);
    }

    #[test]
    fn dense_rung_matches_dense_lu_bit_for_bit((a, b) in banded_system(80)) {
        // The direct step, non-finite results included: the finiteness
        // guard sits in `resilience::solve`, not in the step itself.
        match (a.to_dense().solve(&b), resilience::direct(&a, &b)) {
            (Ok(x), Ok(sol)) => prop_assert_eq!(bits(&sol.solution), bits(&x)),
            (want, got) => prop_assert_eq!(want.err(), got.err()),
        }
    }

    #[test]
    fn csr_matches_dense_matvec((a, x) in nonsym_system(20)) {
        let sparse_y = a.mul_vec(&x);
        let dense_y = a.to_dense().mul_vec(&x);
        for (s, d) in sparse_y.iter().zip(&dense_y) {
            prop_assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_is_involutive((a, _x) in nonsym_system(20)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn spd_construction_is_symmetric((a, _x) in spd_system(20)) {
        prop_assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn cg_solves_random_spd((a, b) in spd_system(20)) {
        let sol = solve::cg(&a, &b, &Jacobi::new(&a), &SolverOptions::default()).unwrap();
        let bn = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        prop_assert!(a.residual_norm(&sol.solution, &b) / bn < 1e-8);
    }

    #[test]
    fn bicgstab_solves_random_nonsymmetric((a, b) in nonsym_system(20)) {
        let sol =
            solve::bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::default()).unwrap();
        let bn = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        prop_assert!(a.residual_norm(&sol.solution, &b) / bn < 1e-7);
    }

    #[test]
    fn iterative_matches_dense_lu((a, b) in nonsym_system(14)) {
        let dense = a.to_dense().solve(&b).unwrap();
        let sol =
            solve::bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::with_tolerance(1e-12))
                .unwrap();
        let scale = dense.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (s, d) in sol.solution.iter().zip(&dense) {
            prop_assert!((s - d).abs() / scale < 1e-6, "{} vs {}", s, d);
        }
    }

    #[test]
    fn row_sums_match_dense((a, _x) in nonsym_system(20)) {
        let d = a.to_dense();
        for r in 0..a.rows() {
            let dense_sum: f64 = (0..a.cols()).map(|c| d[(r, c)]).sum();
            prop_assert!((a.row_sum(r) - dense_sum).abs() < 1e-10);
        }
    }

    #[test]
    fn csr_mul_vec_matches_row_loop_bit_for_bit((a, _values2, x) in ragged_system(80)) {
        // Rows of 0 to ~12 entries reach every fixed-length kernel of
        // `mul_vec_into`, its generic fallback and empty rows. The
        // reference sums each row `0.0 + v₀·x₀ + v₁·x₁ + …` left to right.
        let want: Vec<f64> = (0..a.rows())
            .map(|i| {
                let (cols, vals) = a.row(i);
                let mut acc = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * x[c as usize];
                }
                acc
            })
            .collect();
        let mut y = vec![f64::NAN; a.rows()];
        a.mul_vec_into(&x, &mut y);
        prop_assert_eq!(bits(&y), bits(&want));
    }

    #[test]
    fn ilu0_apply_matches_natural_order_bit_for_bit((a, values2, r) in ragged_system(80)) {
        let mut ilu = Ilu0::new(&a);
        let mut z = vec![0.0; a.rows()];
        ilu.apply(&r, &mut z);
        prop_assert_eq!(bits(&z), bits(&natural_order_ilu0(&a, &r)));
        // New values on the same pattern: a stale copy of the old factor
        // anywhere in `apply` shows here.
        let mut a2 = a.clone();
        a2.values_mut().copy_from_slice(&values2);
        ilu.refactor(&a2);
        ilu.apply(&r, &mut z);
        prop_assert_eq!(bits(&z), bits(&natural_order_ilu0(&a2, &r)));
    }
}
