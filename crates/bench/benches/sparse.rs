//! Criterion benchmarks of the sparse-solver substrate: CG vs BiCGSTAB and
//! the preconditioners, on the two matrix classes the thermal
//! pipeline produces (SPD pressure Laplacians, nonsymmetric
//! advection–diffusion operators).

use coolnet::sparse::precond::{Ilu0, Jacobi};
use coolnet::sparse::{solve, CsrMatrix, SolverOptions, TripletBuilder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// 2-D Poisson matrix on an n×n grid (the pressure-solve class).
fn poisson2d(n: usize) -> CsrMatrix {
    let idx = |i: usize, j: usize| i * n + j;
    let mut b = TripletBuilder::new(n * n, n * n);
    for i in 0..n {
        for j in 0..n {
            b.add(idx(i, j), idx(i, j), 4.0);
            if i + 1 < n {
                b.add(idx(i, j), idx(i + 1, j), -1.0);
                b.add(idx(i + 1, j), idx(i, j), -1.0);
            }
            if j + 1 < n {
                b.add(idx(i, j), idx(i, j + 1), -1.0);
                b.add(idx(i, j + 1), idx(i, j), -1.0);
            }
        }
    }
    b.to_csr()
}

/// Nonsymmetric advection–diffusion on an n×n grid (the thermal class).
fn advection2d(n: usize, peclet: f64) -> CsrMatrix {
    let idx = |i: usize, j: usize| i * n + j;
    let mut b = TripletBuilder::new(n * n, n * n);
    for i in 0..n {
        for j in 0..n {
            b.add(idx(i, j), idx(i, j), 4.0 + peclet);
            if i + 1 < n {
                b.add(idx(i, j), idx(i + 1, j), -1.0);
                b.add(idx(i + 1, j), idx(i, j), -1.0 - peclet);
            }
            if j + 1 < n {
                b.add(idx(i, j), idx(i, j + 1), -1.0);
                b.add(idx(i, j + 1), idx(i, j), -1.0);
            }
        }
    }
    b.to_csr()
}

fn bench_spd_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("spd_pressure_class");
    group.sample_size(10);
    for n in [20usize, 40] {
        let a = poisson2d(n);
        let b = vec![1.0; n * n];
        group.bench_with_input(BenchmarkId::new("cg_jacobi", n), &n, |bench, _| {
            bench.iter(|| solve::cg(&a, &b, &Jacobi::new(&a), &SolverOptions::default()).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("bicgstab_ilu0", n), &n, |bench, _| {
            bench.iter(|| {
                solve::bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::default()).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_nonsymmetric_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("advection_thermal_class");
    group.sample_size(10);
    for peclet in [1.0f64, 8.0] {
        let a = advection2d(30, peclet);
        let b = vec![1.0; 30 * 30];
        group.bench_with_input(
            BenchmarkId::new("bicgstab_ilu0", format!("pe{peclet}")),
            &peclet,
            |bench, _| {
                bench.iter(|| {
                    solve::bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::default()).unwrap()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("bicgstab_jacobi", format!("pe{peclet}")),
            &peclet,
            |bench, _| {
                bench.iter(|| {
                    solve::bicgstab(&a, &b, &Jacobi::new(&a), &SolverOptions::default()).unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_preconditioner_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("preconditioner_setup");
    group.sample_size(10);
    let a = advection2d(40, 2.0);
    group.bench_function("ilu0_factorize", |b| {
        b.iter(|| Ilu0::new(&a));
    });
    group.bench_function("jacobi_build", |b| {
        b.iter(|| Jacobi::new(&a));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spd_solvers,
    bench_nonsymmetric_solvers,
    bench_preconditioner_setup
);
criterion_main!(benches);
