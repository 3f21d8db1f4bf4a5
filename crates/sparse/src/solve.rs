//! Krylov solvers: preconditioned CG and BiCGSTAB.

use crate::csr::CsrMatrix;
use crate::ops::{axpy, dot, norm2, xpby};
use crate::precond::Preconditioner;
use std::error::Error;
use std::fmt;

/// Error returned by the linear solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Dimensions of the matrix, right-hand side or guess do not agree.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Offending dimension.
        actual: usize,
    },
    /// A direct factorization hit a (near-)zero pivot.
    Singular {
        /// Elimination step at which the pivot vanished.
        pivot: usize,
    },
    /// The iteration did not reach the requested tolerance.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Relative residual at the last iteration.
        residual: f64,
    },
    /// The iteration broke down (an inner product required for the recurrence
    /// vanished), typically a symptom of an incompatible matrix class.
    Breakdown {
        /// Iterations performed before breakdown.
        iterations: usize,
    },
    /// A solver produced a non-finite (NaN or ±∞) entry. Raised by the
    /// [`resilience`](crate::resilience) layer, which checks every candidate
    /// solution before accepting it, so poisoned arithmetic falls through to
    /// the direct step instead of propagating NaNs into the caller's model.
    NonFinite,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            SolveError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at step {pivot})")
            }
            SolveError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (relative residual {residual:.3e})"
            ),
            SolveError::Breakdown { iterations } => {
                write!(
                    f,
                    "krylov recurrence broke down after {iterations} iterations"
                )
            }
            SolveError::NonFinite => {
                f.write_str("solver produced a non-finite (NaN or infinite) solution entry")
            }
        }
    }
}

impl Error for SolveError {}

/// Options controlling the iterative solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Relative residual target `‖b − A·x‖ / ‖b‖`.
    pub tolerance: f64,
    /// Hard iteration cap; `0` means `4 * n`.
    pub max_iterations: usize,
    /// Optional initial guess (must match the system dimension if set).
    pub initial_guess: Option<Vec<f64>>,
}

impl Default for SolverOptions {
    /// `tolerance = 1e-10`, automatic iteration cap, zero initial guess.
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 0,
            initial_guess: None,
        }
    }
}

impl SolverOptions {
    /// Returns options with the given relative tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self {
            tolerance,
            ..Self::default()
        }
    }

    fn cap(&self, n: usize) -> usize {
        if self.max_iterations == 0 {
            (4 * n).max(100)
        } else {
            self.max_iterations
        }
    }

    fn guess(&self, n: usize) -> Result<Vec<f64>, SolveError> {
        match &self.initial_guess {
            Some(g) if g.len() == n => Ok(g.clone()),
            Some(g) => Err(SolveError::DimensionMismatch {
                expected: n,
                actual: g.len(),
            }),
            None => Ok(vec![0.0; n]),
        }
    }
}

/// Statistics reported alongside a converged solution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
    /// Step of [`resilience::solve`](crate::resilience::solve) that
    /// produced the solution: `0` for the Krylov step (and for plain solver
    /// calls), `1` for the direct step.
    pub rung: usize,
}

/// A converged solution plus its [`SolveStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The solution vector.
    pub solution: Vec<f64>,
    /// Convergence statistics.
    pub stats: SolveStats,
}

fn check_square(a: &CsrMatrix, b: &[f64]) -> Result<usize, SolveError> {
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
    Ok(a.rows())
}

/// Preconditioned conjugate gradients for symmetric positive definite
/// systems — the pressure solve of Eq. (3).
///
/// # Errors
///
/// Returns [`SolveError::DimensionMismatch`] on shape errors,
/// [`SolveError::NotConverged`] if the iteration cap is reached, and
/// [`SolveError::Breakdown`] if a recurrence denominator vanishes (e.g. the
/// matrix is not positive definite).
pub fn cg(
    a: &CsrMatrix,
    b: &[f64],
    m: &dyn Preconditioner,
    options: &SolverOptions,
) -> Result<Solution, SolveError> {
    let n = check_square(a, b)?;
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(Solution {
            solution: vec![0.0; n],
            stats: SolveStats::default(),
        });
    }

    let mut x = options.guess(n)?;
    let mut r = b.to_vec();
    let mut ax = vec![0.0; n];
    a.mul_vec_into(&x, &mut ax);
    for (ri, axi) in r.iter_mut().zip(&ax) {
        *ri -= axi;
    }

    let mut z = vec![0.0; n];
    m.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let max_iter = options.cap(n);

    for it in 0..max_iter {
        let res = norm2(&r) / b_norm;
        if res <= options.tolerance {
            return Ok(Solution {
                solution: x,
                stats: SolveStats {
                    iterations: it,
                    residual: res,
                    ..SolveStats::default()
                },
            });
        }
        a.mul_vec_into(&p, &mut ax);
        let pap = dot(&p, &ax);
        if pap.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ax, &mut r);
        m.apply(&r, &mut z);
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        xpby(&z, beta, &mut p);
    }

    let res = norm2(&r) / b_norm;
    if res <= options.tolerance {
        Ok(Solution {
            solution: x,
            stats: SolveStats {
                iterations: max_iter,
                residual: res,
                ..SolveStats::default()
            },
        })
    } else {
        Err(SolveError::NotConverged {
            iterations: max_iter,
            residual: res,
        })
    }
}

/// Preconditioned BiCGSTAB for general (nonsymmetric) systems — the thermal
/// solves whose advection terms of Eq. (6) break symmetry.
///
/// Each reduction is folded into the loop that produces its operand:
/// `‖r‖²` and `r0·r` into the `r −= ω·t` update, `‖s‖²` into
/// `s = r − α·v`, and `t·t` with `t·r` into one pass; both `x` updates
/// ride along the `r −= ω·t` pass. Every sum still runs in index order
/// from `-0.0`, as [`dot`] does, so the iterates are bit for bit those of
/// the separate kernels.
///
/// # Errors
///
/// Same error conditions as [`cg`].
pub fn bicgstab(
    a: &CsrMatrix,
    b: &[f64],
    m: &dyn Preconditioner,
    options: &SolverOptions,
) -> Result<Solution, SolveError> {
    let n = check_square(a, b)?;
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(Solution {
            solution: vec![0.0; n],
            stats: SolveStats::default(),
        });
    }

    let mut x = options.guess(n)?;
    let mut r = b.to_vec();
    let mut tmp = vec![0.0; n];
    a.mul_vec_into(&x, &mut tmp);
    for (ri, ti) in r.iter_mut().zip(&tmp) {
        *ri -= ti;
    }
    let r0 = r.clone();
    // `‖r‖²` and `r0·r` of the current residual (equal while `r == r0`).
    let mut rr = dot(&r, &r);
    let mut r0r = rr;

    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut p_hat = vec![0.0; n];
    let mut s_hat = vec![0.0; n];
    let mut t = vec![0.0; n];
    let max_iter = options.cap(n);

    for it in 0..max_iter {
        let res = rr.sqrt() / b_norm;
        if res <= options.tolerance {
            // The recursive residual can drift from the true residual; verify
            // before declaring victory, and keep iterating on the *true*
            // residual if it disagrees.
            a.mul_vec_into(&x, &mut tmp);
            (rr, r0r) = (-0.0, -0.0);
            for (((ri, bi), ti), r0i) in r.iter_mut().zip(b).zip(&tmp).zip(&r0) {
                *ri = bi - ti;
                rr += *ri * *ri;
                r0r += r0i * *ri;
            }
            let true_res = rr.sqrt() / b_norm;
            if true_res <= options.tolerance * 10.0 {
                return Ok(Solution {
                    solution: x,
                    stats: SolveStats {
                        iterations: it,
                        residual: true_res,
                        ..SolveStats::default()
                    },
                });
            }
        }
        let rho_next = r0r;
        if rho_next.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        // p = r + beta * (p - omega * v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        m.apply(&p, &mut p_hat);
        a.mul_vec_into(&p_hat, &mut v);
        let r0v = dot(&r0, &v);
        if r0v.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        alpha = rho / r0v;
        // s = r - alpha * v (reuse r as s), with ‖s‖².
        let mut ss = -0.0;
        for (ri, vi) in r.iter_mut().zip(&v) {
            *ri += -alpha * vi;
            ss += *ri * *ri;
        }
        if ss.sqrt() / b_norm <= options.tolerance {
            // Early exit on the half-step. Verify with the true residual; if
            // it disagrees (recursive-residual drift), undo and continue.
            axpy(alpha, &p_hat, &mut x);
            a.mul_vec_into(&x, &mut tmp);
            let mut true_sq = 0.0;
            for (bi, ti) in b.iter().zip(&tmp) {
                true_sq += (bi - ti) * (bi - ti);
            }
            let res = true_sq.sqrt() / b_norm;
            if res <= options.tolerance * 10.0 {
                return Ok(Solution {
                    solution: x,
                    stats: SolveStats {
                        iterations: it + 1,
                        residual: res,
                        ..SolveStats::default()
                    },
                });
            }
            axpy(-alpha, &p_hat, &mut x);
        }
        m.apply(&r, &mut s_hat);
        a.mul_vec_into(&s_hat, &mut t);
        let (mut tt, mut tr) = (-0.0, -0.0);
        for (ti, ri) in t.iter().zip(&r) {
            tt += ti * ti;
            tr += ti * ri;
        }
        if tt.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
        omega = tr / tt;
        // x += alpha * p_hat + omega * s_hat (two rounded adds, as two
        // axpys make) and r = s - omega * t, with ‖r‖² and r0·r for the
        // next iteration.
        (rr, r0r) = (-0.0, -0.0);
        let xs = x.iter_mut().zip(&p_hat).zip(&s_hat);
        for (((xi, ph), sh), ((ri, ti), r0i)) in xs.zip(r.iter_mut().zip(&t).zip(&r0)) {
            *xi += alpha * ph;
            *xi += omega * sh;
            *ri += -omega * ti;
            rr += *ri * *ri;
            r0r += r0i * *ri;
        }
        if omega.abs() < 1e-300 {
            return Err(SolveError::Breakdown { iterations: it });
        }
    }

    let res = rr.sqrt() / b_norm;
    if res <= options.tolerance {
        Ok(Solution {
            solution: x,
            stats: SolveStats {
                iterations: max_iter,
                residual: res,
                ..SolveStats::default()
            },
        })
    } else {
        Err(SolveError::NotConverged {
            iterations: max_iter,
            residual: res,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletBuilder;
    use crate::precond::{Identity, Ilu0, Jacobi};

    /// How often [`bicgstab_unfused`] took each half-step branch.
    #[derive(Debug, Default)]
    struct Exits {
        half_step: usize,
        rejected_half_steps: usize,
    }

    /// BiCGSTAB with one kernel call per reduction and update: the loop
    /// [`bicgstab`] fuses, kept as the reference it must match bit for
    /// bit. `exits` records which half-step branches ran.
    fn bicgstab_unfused(
        a: &CsrMatrix,
        b: &[f64],
        m: &dyn Preconditioner,
        options: &SolverOptions,
        exits: &mut Exits,
    ) -> Result<Solution, SolveError> {
        let n = check_square(a, b)?;
        let b_norm = norm2(b);
        if b_norm == 0.0 {
            return Ok(Solution {
                solution: vec![0.0; n],
                stats: SolveStats::default(),
            });
        }

        let mut x = options.guess(n)?;
        let mut r = b.to_vec();
        let mut tmp = vec![0.0; n];
        a.mul_vec_into(&x, &mut tmp);
        for (ri, ti) in r.iter_mut().zip(&tmp) {
            *ri -= ti;
        }
        let r0 = r.clone();

        let mut rho = 1.0;
        let mut alpha = 1.0;
        let mut omega = 1.0;
        let mut v = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut p_hat = vec![0.0; n];
        let mut s_hat = vec![0.0; n];
        let mut t = vec![0.0; n];
        let max_iter = options.cap(n);

        for it in 0..max_iter {
            let res = norm2(&r) / b_norm;
            if res <= options.tolerance {
                // The recursive residual can drift from the true residual; verify
                // before declaring victory, and keep iterating on the *true*
                // residual if it disagrees.
                a.mul_vec_into(&x, &mut tmp);
                for ((ri, bi), ti) in r.iter_mut().zip(b).zip(&tmp) {
                    *ri = bi - ti;
                }
                let true_res = norm2(&r) / b_norm;
                if true_res <= options.tolerance * 10.0 {
                    return Ok(Solution {
                        solution: x,
                        stats: SolveStats {
                            iterations: it,
                            residual: true_res,
                            ..SolveStats::default()
                        },
                    });
                }
            }
            let rho_next = dot(&r0, &r);
            if rho_next.abs() < 1e-300 {
                return Err(SolveError::Breakdown { iterations: it });
            }
            let beta = (rho_next / rho) * (alpha / omega);
            rho = rho_next;
            // p = r + beta * (p - omega * v)
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
            m.apply(&p, &mut p_hat);
            a.mul_vec_into(&p_hat, &mut v);
            let r0v = dot(&r0, &v);
            if r0v.abs() < 1e-300 {
                return Err(SolveError::Breakdown { iterations: it });
            }
            alpha = rho / r0v;
            // s = r - alpha * v (reuse r as s)
            axpy(-alpha, &v, &mut r);
            if norm2(&r) / b_norm <= options.tolerance {
                // Early exit on the half-step. Verify with the true residual; if
                // it disagrees (recursive-residual drift), undo and continue.
                axpy(alpha, &p_hat, &mut x);
                a.mul_vec_into(&x, &mut tmp);
                let mut true_sq = 0.0;
                for (bi, ti) in b.iter().zip(&tmp) {
                    true_sq += (bi - ti) * (bi - ti);
                }
                let res = true_sq.sqrt() / b_norm;
                if res <= options.tolerance * 10.0 {
                    exits.half_step += 1;
                    return Ok(Solution {
                        solution: x,
                        stats: SolveStats {
                            iterations: it + 1,
                            residual: res,
                            ..SolveStats::default()
                        },
                    });
                }
                exits.rejected_half_steps += 1;
                axpy(-alpha, &p_hat, &mut x);
            }
            m.apply(&r, &mut s_hat);
            a.mul_vec_into(&s_hat, &mut t);
            let tt = dot(&t, &t);
            if tt.abs() < 1e-300 {
                return Err(SolveError::Breakdown { iterations: it });
            }
            omega = dot(&t, &r) / tt;
            axpy(alpha, &p_hat, &mut x);
            axpy(omega, &s_hat, &mut x);
            // r = s - omega * t
            axpy(-omega, &t, &mut r);
            if omega.abs() < 1e-300 {
                return Err(SolveError::Breakdown { iterations: it });
            }
        }

        let res = norm2(&r) / b_norm;
        if res <= options.tolerance {
            Ok(Solution {
                solution: x,
                stats: SolveStats {
                    iterations: max_iter,
                    residual: res,
                    ..SolveStats::default()
                },
            })
        } else {
            Err(SolveError::NotConverged {
                iterations: max_iter,
                residual: res,
            })
        }
    }

    /// 1-D Poisson matrix, the classic SPD test problem.
    fn poisson(n: usize) -> CsrMatrix {
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

    /// Nonsymmetric advection–diffusion matrix.
    fn advection(n: usize, peclet: f64) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0 + peclet);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0 - peclet);
            }
        }
        b.to_csr()
    }

    #[test]
    fn cg_solves_poisson() {
        let a = poisson(50);
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.mul_vec(&x_true);
        let sol = cg(&a, &b, &Jacobi::new(&a), &SolverOptions::default()).unwrap();
        for (xi, ti) in sol.solution.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7);
        }
        assert!(sol.stats.iterations <= 50);
    }

    #[test]
    fn cg_with_identity_converges_too() {
        let a = poisson(20);
        let b = vec![1.0; 20];
        let sol = cg(&a, &b, &Identity::new(20), &SolverOptions::default()).unwrap();
        assert!(a.residual_norm(&sol.solution, &b) < 1e-8);
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = poisson(5);
        let sol = cg(&a, &[0.0; 5], &Identity::new(5), &SolverOptions::default()).unwrap();
        assert_eq!(sol.solution, vec![0.0; 5]);
        assert_eq!(sol.stats.iterations, 0);
    }

    #[test]
    fn cg_respects_initial_guess() {
        let a = poisson(10);
        let x_true: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b = a.mul_vec(&x_true);
        let opts = SolverOptions {
            initial_guess: Some(x_true.clone()),
            ..SolverOptions::default()
        };
        let sol = cg(&a, &b, &Identity::new(10), &opts).unwrap();
        assert_eq!(sol.stats.iterations, 0);
    }

    #[test]
    fn cg_rejects_bad_guess_length() {
        let a = poisson(4);
        let opts = SolverOptions {
            initial_guess: Some(vec![0.0; 3]),
            ..SolverOptions::default()
        };
        assert!(matches!(
            cg(&a, &[1.0; 4], &Identity::new(4), &opts),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn cg_reports_nonconvergence() {
        let a = poisson(100);
        let b = vec![1.0; 100];
        let opts = SolverOptions {
            tolerance: 1e-14,
            max_iterations: 2,
            ..SolverOptions::default()
        };
        assert!(matches!(
            cg(&a, &b, &Identity::new(100), &opts),
            Err(SolveError::NotConverged { iterations: 2, .. })
        ));
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
    fn fused_bicgstab_matches_unfused_bit_for_bit() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut exits = Exits::default();
        let mut runs = 0;
        for a in [
            advection(60, 1.5),
            advection(40, 10.0),
            grid(12, 9, 0.5),
            grid(12, 9, 4.0),
        ] {
            let n = a.rows();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
            let ilu = Ilu0::new(&a);
            let jacobi = Jacobi::new(&a);
            let identity = Identity::new(n);
            let preconds: [&dyn Preconditioner; 3] = [&ilu, &jacobi, &identity];
            // Loose to unreachable tolerances, the last one capped: a
            // recursive residual under 1e-18 is far below what the true
            // residual can reach, so its half steps are rejected.
            for (tolerance, max_iterations) in [(1e-10, 0), (1e-6, 0), (1e-2, 0), (1e-18, 40)] {
                for guess in [None, Some(vec![0.5; n])] {
                    let options = SolverOptions {
                        tolerance,
                        max_iterations,
                        initial_guess: guess,
                    };
                    for &m in &preconds {
                        let fused = bicgstab(&a, &b, m, &options);
                        let plain = bicgstab_unfused(&a, &b, m, &options, &mut exits);
                        match (&fused, &plain) {
                            (Ok(f), Ok(p)) => {
                                assert_eq!(bits(&f.solution), bits(&p.solution));
                                assert_eq!(f.stats.iterations, p.stats.iterations);
                                assert_eq!(f.stats.residual.to_bits(), p.stats.residual.to_bits());
                            }
                            _ => assert_eq!(format!("{fused:?}"), format!("{plain:?}")),
                        }
                        runs += 1;
                    }
                }
            }
        }
        assert_eq!(runs, 96);
        assert!(exits.half_step > 0, "{exits:?}");
        assert!(exits.rejected_half_steps > 0, "{exits:?}");
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        let a = advection(60, 1.5);
        assert!(!a.is_symmetric(1e-12));
        let x_true: Vec<f64> = (0..60).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.mul_vec(&x_true);
        let sol = bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::default()).unwrap();
        assert!(a.residual_norm(&sol.solution, &b) / norm2(&b) < 1e-8);
    }

    #[test]
    fn bicgstab_with_jacobi_on_strong_advection() {
        let a = advection(40, 10.0);
        let b = vec![1.0; 40];
        let sol = bicgstab(&a, &b, &Jacobi::new(&a), &SolverOptions::default()).unwrap();
        assert!(a.residual_norm(&sol.solution, &b) < 1e-7);
    }

    #[test]
    fn bicgstab_zero_rhs_returns_zero() {
        let a = advection(5, 1.0);
        let sol = bicgstab(&a, &[0.0; 5], &Identity::new(5), &SolverOptions::default()).unwrap();
        assert_eq!(sol.solution, vec![0.0; 5]);
    }

    #[test]
    fn solvers_agree_with_dense_lu() {
        let a = advection(12, 2.0);
        let b: Vec<f64> = (0..12).map(|i| (i as f64 * 1.7).cos()).collect();
        let dense_x = a.to_dense().solve(&b).unwrap();
        let sol = bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::default()).unwrap();
        for (xi, di) in sol.solution.iter().zip(&dense_x) {
            assert!((xi - di).abs() < 1e-7, "{xi} vs {di}");
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(matches!(
            cg(
                &a,
                &[1.0, 1.0],
                &Identity::new(2),
                &SolverOptions::default()
            ),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = SolveError::NotConverged {
            iterations: 7,
            residual: 0.5,
        };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains("convergence"));
        assert!(SolveError::Singular { pivot: 3 }
            .to_string()
            .contains("singular"));
    }
}
