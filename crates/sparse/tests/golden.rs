//! Cross-revision golden pins for the ILU(0)-preconditioned BiCGSTAB path.
//!
//! The operator is a synthetic 3D upwind advection–diffusion stencil built
//! from `+ − × ÷` only (no libm call), so its bits, and the solve's bits,
//! are the same on every IEEE-754 host. A change to the ILU(0) kernels that
//! reorders independent work must leave both pins untouched; a change that
//! moves a single floating-point operation of the factorization or the
//! triangular sweeps moves the fingerprint.

use coolnet_sparse::precond::Ilu0;
use coolnet_sparse::{solve, CsrMatrix, SolverOptions, TripletBuilder};

const NX: usize = 24;
const NY: usize = 16;
const NZ: usize = 6;

/// 7-point diffusion with position-dependent conductances plus first-order
/// upwind advection along +x (speed `u`) and −y (speed `u / 3`). Every
/// coefficient is a rational function of the cell indices.
fn advection_diffusion(u: f64) -> CsrMatrix {
    let n = NX * NY * NZ;
    let idx = |x: usize, y: usize, z: usize| (z * NY + y) * NX + x;
    let cond = |a: usize, b: usize| 1.0 + ((a * 7 + b * 3) % 11) as f64 / 10.0;
    let mut b = TripletBuilder::new(n, n);
    for z in 0..NZ {
        for y in 0..NY {
            for x in 0..NX {
                let i = idx(x, y, z);
                // Weak sink keeps the operator nonsingular without boundaries.
                let mut diag = 1.0 / (1.0 + (x + y + z) as f64);
                let mut couple = |j: usize, g: f64, adv: f64| {
                    b.add(i, j, -(g + adv));
                    diag += g;
                };
                if x > 0 {
                    couple(idx(x - 1, y, z), cond(i, i - 1), u);
                }
                if x + 1 < NX {
                    couple(idx(x + 1, y, z), cond(i, i + 1), 0.0);
                }
                if y > 0 {
                    couple(idx(x, y - 1, z), cond(i, i - NX), 0.0);
                }
                if y + 1 < NY {
                    couple(idx(x, y + 1, z), cond(i, i + NX), u / 3.0);
                }
                if z > 0 {
                    couple(idx(x, y, z - 1), 0.5 * cond(i, i - NX * NY), 0.0);
                }
                if z + 1 < NZ {
                    couple(idx(x, y, z + 1), 0.5 * cond(i, i + NX * NY), 0.0);
                }
                if x > 0 {
                    diag += u;
                }
                if y + 1 < NY {
                    diag += u / 3.0;
                }
                b.add(i, i, diag);
            }
        }
    }
    b.to_csr()
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37) % 101) as f64 / 101.0 - 0.25)
        .collect()
}

/// Order-sensitive FNV-1a digest of the solution bits.
fn fingerprint(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn solve_with(a: &CsrMatrix, ilu: &Ilu0) -> (String, usize) {
    let b = rhs(a.rows());
    let sol = solve::bicgstab(a, &b, ilu, &SolverOptions::with_tolerance(1e-10))
        .expect("the golden system converges");
    (
        format!("{:016x}", fingerprint(&sol.solution)),
        sol.stats.iterations,
    )
}

#[test]
fn ilu0_bicgstab_solution_bits_are_pinned() {
    let a = advection_diffusion(2.5);
    let got = solve_with(&a, &Ilu0::new(&a));
    assert_eq!(
        got,
        (String::from("ac64e2ad0a31a40b"), 20),
        "fresh factorization"
    );

    // Same pattern, new values: the refactor path must land on its own pin.
    let a2 = advection_diffusion(7.0);
    let mut ilu = Ilu0::new(&a);
    ilu.refactor(&a2);
    let got = solve_with(&a2, &ilu);
    assert_eq!(got, (String::from("76f04ac9e7887348"), 19), "refactored");
}
