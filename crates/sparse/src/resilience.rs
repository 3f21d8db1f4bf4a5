//! Solver resilience: the fixed two-step solve and its fault-injection
//! harness.
//!
//! The SA design flows (Algorithms 1–3) evaluate dozens of candidate
//! networks per iteration over thousands of moves, and the run-time control
//! loop chains thousands of sequential transient solves; a single
//! ill-conditioned candidate must cost one infeasible score, not a dead
//! process or a wedged run. [`solve`](crate::resilience::solve()) provides
//! that guarantee for every linear solve backing the hydraulic and thermal
//! models, in two steps:
//!
//! 0. the model's Krylov solver ([`Cg`](crate::Krylov::Cg) for the SPD
//!    pressure systems of Eq. (3), [`Bicgstab`](crate::Krylov::Bicgstab)
//!    for the advection–diffusion thermal systems of Eq. (6)) with the
//!    caller's preconditioner and [`SolverOptions`] passed through
//!    unchanged, so a solve that converges here has the plain solver
//!    call's bits;
//! 1. a partially pivoted LU factored inside the matrix's bandwidth
//!    (`dense::band_solve`), for systems of at most
//!    [`DENSE_FALLBACK_CAP`](crate::resilience::DENSE_FALLBACK_CAP)
//!    unknowns: for lower/upper bandwidths `kl`/`ku` it costs
//!    `O(n·kl·(kl+ku))` time and `n·(2·kl+ku+1)` storage, and returns the
//!    result bits of the `n × n` reference [`crate::DenseMatrix::solve`].
//!    Larger systems skip the step.
//!
//! Every candidate solution is checked for finite entries before it is
//! accepted. The result is a [`Solution`] whose [`SolveStats::rung`] names
//! the step that produced it, or the [`SolveError`] of the last step that
//! failed.
//!
//! The companion `fault` module (compiled under `cfg(test)` or the
//! `fault-inject` feature) injects deterministic failures at chosen
//! attempt indices so tests can force the direct step, or exhaust both,
//! and prove the whole stack degrades gracefully.

use crate::csr::CsrMatrix;
use crate::dense;
use crate::ops;
use crate::precond::Preconditioner;
use crate::solve::{self, Solution, SolveError, SolveStats, SolverOptions};
use coolnet_obs::{LazyCounter, LazyHistogram};

/// Solves that returned a solution.
static M_SOLVES: LazyCounter = LazyCounter::new("ladder.solves");
/// Solver attempts actually run (skips excluded), successful or not.
static M_ATTEMPTS: LazyCounter = LazyCounter::new("ladder.attempts");
/// Solves that needed more than their first attempt.
static M_ESCALATIONS: LazyCounter = LazyCounter::new("ladder.escalations");
/// Solves for which both steps failed or were inapplicable.
static M_EXHAUSTED: LazyCounter = LazyCounter::new("ladder.exhausted");
/// Attempts whose outcome was forced by the fault-injection harness.
static M_INJECTED: LazyCounter = LazyCounter::new("ladder.injected_faults");
/// Iterations of each successful solve (from [`SolveStats`]).
static M_ITERATIONS: LazyHistogram = LazyHistogram::new("ladder.iterations");
/// Per-step convergence outcomes: the Krylov step, then the direct step.
static M_RUNG_CONVERGED: [LazyCounter; 2] = [
    LazyCounter::new("ladder.rung0_converged"),
    LazyCounter::new("ladder.rung1_converged"),
];

/// Eagerly registers every solve metric so snapshots report explicit
/// zeros for counters that have not fired (e.g. `ladder.rung1_converged`
/// on a run where no solve needed the direct step). Without this,
/// "never fired" and "not instrumented" are indistinguishable in an
/// exported [`coolnet_obs::MetricsSnapshot`].
fn register_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        M_SOLVES.register();
        M_ATTEMPTS.register();
        M_ESCALATIONS.register();
        M_EXHAUSTED.register();
        M_INJECTED.register();
        M_ITERATIONS.register();
        for c in &M_RUNG_CONVERGED {
            c.register();
        }
    });
}

/// Largest unknown count `n` the direct step takes. The step factors
/// inside the matrix's bandwidth, `O(n·kl·(kl+ku))` rather than `O(n³)`;
/// the cap still bounds `n`, not the band, so a wide-band system near the
/// cap costs close to a full dense factorization.
pub const DENSE_FALLBACK_CAP: usize = 4096;

/// The Krylov solver step 0 of [`solve()`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Krylov {
    /// Preconditioned conjugate gradients ([`cg`](crate::solve::cg)); SPD systems only.
    Cg,
    /// Preconditioned BiCGSTAB ([`bicgstab`](crate::solve::bicgstab)).
    Bicgstab,
}

/// Solves `A·x = b`: the `krylov` solver with the `caller` preconditioner
/// and `options` first, then, if that fails and `n ≤`
/// [`DENSE_FALLBACK_CAP`], the direct step.
///
/// Every candidate solution is checked for finite entries before it is
/// accepted, so NaN-poisoned arithmetic falls through to the direct step
/// instead of propagating. The solve is a pure function of its arguments.
/// The returned [`SolveStats::rung`] names the step that produced the
/// solution.
///
/// # Errors
///
/// When no step succeeds, the last failed step's error: the direct step's,
/// or the Krylov step's when `n > DENSE_FALLBACK_CAP`.
pub fn solve(
    krylov: Krylov,
    a: &CsrMatrix,
    b: &[f64],
    caller: &dyn Preconditioner,
    options: &SolverOptions,
) -> Result<Solution, SolveError> {
    // Output finiteness is guarded per attempt; here only the system
    // shape is validated.
    assert_eq!(a.rows(), b.len(), "rhs length must match the system");
    register_metrics();
    let plan = PlanState::current();
    let mut injected = 0;

    let krylov_step = attempt(&plan, &mut injected, || match krylov {
        Krylov::Cg => solve::cg(a, b, caller, options),
        Krylov::Bicgstab => solve::bicgstab(a, b, caller, options),
    });
    let (result, tried) = match krylov_step {
        Ok(sol) => (Ok((sol, 0)), 1),
        Err(e) if a.rows() > DENSE_FALLBACK_CAP => (Err(e), 1),
        Err(_) => (
            attempt(&plan, &mut injected, || direct(a, b)).map(|sol| (sol, 1)),
            2,
        ),
    };
    M_ATTEMPTS.add(tried);
    M_INJECTED.add(injected);
    let (mut sol, rung) = result.inspect_err(|_| M_EXHAUSTED.inc())?;
    sol.stats.rung = rung;
    M_SOLVES.inc();
    M_ESCALATIONS.add(u64::from(rung > 0));
    M_ITERATIONS.record(sol.stats.iterations as u64);
    M_RUNG_CONVERGED[rung].inc();
    Ok(sol)
}

/// The direct step on its own: `A·x = b` by the banded LU, with the
/// result bits of [`crate::DenseMatrix::solve`] and the relative residual
/// in its [`SolveStats`]. No size cap and no finiteness guard apply here;
/// [`solve()`] adds both.
///
/// # Errors
///
/// Exactly those of [`crate::DenseMatrix::solve`].
pub fn direct(a: &CsrMatrix, b: &[f64]) -> Result<Solution, SolveError> {
    let x = dense::band_solve(a, b)?;
    let b_norm = ops::norm2(b);
    let residual = if b_norm > 0.0 {
        a.residual_norm(&x, b) / b_norm
    } else {
        0.0
    };
    Ok(Solution {
        solution: x,
        stats: SolveStats {
            iterations: 0,
            residual,
            ..SolveStats::default()
        },
    })
}

/// Runs one step under the fault plan and the finiteness guard, counting
/// a forced outcome in `injected`.
fn attempt(
    plan: &PlanState,
    injected: &mut u64,
    run: impl FnOnce() -> Result<Solution, SolveError>,
) -> Result<Solution, SolveError> {
    let inject = plan.next();
    *injected += u64::from(inject.is_some());
    match inject {
        Some(Inject::Fail(e)) => Err(e),
        other => run().and_then(|mut sol| {
            if matches!(other, Some(Inject::Poison)) {
                if let Some(x0) = sol.solution.first_mut() {
                    *x0 = f64::NAN;
                }
            }
            if sol.solution.iter().all(|v| v.is_finite()) {
                Ok(sol)
            } else {
                Err(SolveError::NonFinite)
            }
        }),
    }
}

/// What the fault plan dictates for one attempt.
// The variants are only constructed under fault injection; without it the
// match arms over them remain but nothing produces them.
#[cfg_attr(not(any(test, feature = "fault-inject")), allow(dead_code))]
enum Inject {
    /// Fail the attempt with this error without running the solver.
    Fail(SolveError),
    /// Run the solver, then poison the solution with a NaN.
    Poison,
}

#[cfg(any(test, feature = "fault-inject"))]
struct PlanState(Option<std::sync::Arc<fault::FaultPlan>>);

#[cfg(any(test, feature = "fault-inject"))]
impl PlanState {
    fn current() -> Self {
        Self(fault::active())
    }

    fn next(&self) -> Option<Inject> {
        match self.0.as_ref()?.next()? {
            fault::FaultKind::Breakdown => {
                Some(Inject::Fail(SolveError::Breakdown { iterations: 0 }))
            }
            fault::FaultKind::NotConverged => Some(Inject::Fail(SolveError::NotConverged {
                iterations: 0,
                residual: f64::INFINITY,
            })),
            fault::FaultKind::PoisonNan => Some(Inject::Poison),
        }
    }
}

#[cfg(not(any(test, feature = "fault-inject")))]
struct PlanState;

#[cfg(not(any(test, feature = "fault-inject")))]
impl PlanState {
    fn current() -> Self {
        Self
    }

    fn next(&self) -> Option<Inject> {
        None
    }
}

/// Deterministic fault injection for [`solve()`](super::solve).
///
/// A [`FaultPlan`] maps global *attempt indices* (every solve attempt in
/// the process ticks one shared counter while a plan is active) to
/// [`FaultKind`]s. Activate a plan with [`inject`]; the returned
/// [`FaultScope`] deactivates it on drop and holds a process-wide gate so
/// concurrently running tests cannot consume each other's fault indices.
///
/// Only compiled under `cfg(test)` or the `fault-inject` feature; release
/// builds of dependent crates contain none of this machinery.
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The failure mode to inject at an attempt index.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// The attempt fails with [`SolveError::Breakdown`]
        /// (the solver does not run).
        ///
        /// [`SolveError::Breakdown`]: crate::solve::SolveError::Breakdown
        Breakdown,
        /// The attempt fails with [`SolveError::NotConverged`]
        /// (the solver does not run).
        ///
        /// [`SolveError::NotConverged`]: crate::solve::SolveError::NotConverged
        NotConverged,
        /// The solver runs, then its solution is poisoned with a NaN —
        /// exercising the solve's finiteness guard.
        PoisonNan,
    }

    /// A deterministic schedule of injected faults, keyed by the global
    /// attempt counter that ticks while the plan is active.
    #[derive(Debug)]
    pub struct FaultPlan {
        faults: BTreeMap<usize, FaultKind>,
        cursor: AtomicUsize,
        fired: AtomicUsize,
    }

    impl FaultPlan {
        /// A plan injecting the given `(attempt_index, kind)` pairs.
        pub fn at<I: IntoIterator<Item = (usize, FaultKind)>>(faults: I) -> Arc<Self> {
            Arc::new(Self {
                faults: faults.into_iter().collect(),
                cursor: AtomicUsize::new(0),
                fired: AtomicUsize::new(0),
            })
        }

        /// A plan failing the first `count` attempts with `kind`.
        pub fn fail_first(count: usize, kind: FaultKind) -> Arc<Self> {
            Self::at((0..count).map(|i| (i, kind)))
        }

        /// An empty plan: injects nothing, but (via [`inject`]) still holds
        /// the serialization gate — use in tests asserting no-fault behavior.
        pub fn none() -> Arc<Self> {
            Self::at([])
        }

        /// Ticks the attempt counter and returns the fault at that index.
        pub(crate) fn next(&self) -> Option<FaultKind> {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let fault = self.faults.get(&i).copied();
            if fault.is_some() {
                self.fired.fetch_add(1, Ordering::Relaxed);
            }
            fault
        }

        /// How many solve attempts consulted this plan.
        pub fn consulted(&self) -> usize {
            self.cursor.load(Ordering::Relaxed)
        }

        /// How many faults actually fired.
        pub fn fired(&self) -> usize {
            self.fired.load(Ordering::Relaxed)
        }
    }

    static ACTIVE: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
    static GATE: Mutex<()> = Mutex::new(());

    fn lock_active() -> MutexGuard<'static, Option<Arc<FaultPlan>>> {
        // Poisoning is harmless here: the registry holds no invariants
        // beyond "some plan or none", so take the lock over.
        coolnet_obs::sync::lock_recover(&ACTIVE)
    }

    /// The currently active plan, if any.
    pub(crate) fn active() -> Option<Arc<FaultPlan>> {
        lock_active().clone()
    }

    /// Activates `plan` for the duration of the returned scope.
    ///
    /// The scope holds a process-wide gate, serializing fault-injected
    /// sections across test threads; drop it to deactivate the plan.
    pub fn inject(plan: &Arc<FaultPlan>) -> FaultScope {
        let gate = coolnet_obs::sync::lock_recover(&GATE);
        *lock_active() = Some(Arc::clone(plan));
        FaultScope { _gate: gate }
    }

    /// RAII guard of an active [`FaultPlan`]; clears it on drop.
    pub struct FaultScope {
        _gate: MutexGuard<'static, ()>,
    }

    impl Drop for FaultScope {
        fn drop(&mut self) {
            *lock_active() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fault::{FaultKind, FaultPlan};
    use super::*;
    use crate::coo::TripletBuilder;
    use crate::dense::tests::near_singular;
    use crate::precond::{Identity, Ilu0, Jacobi};

    /// Nonsymmetric advection–diffusion matrix (same as solve.rs tests).
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

    /// 1-D Poisson matrix (SPD).
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

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 7) as f64) - 3.0).collect()
    }

    fn check_close(a: &CsrMatrix, x: &[f64], b: &[f64]) {
        let exact = a.to_dense().solve(b).unwrap();
        for (xi, ei) in x.iter().zip(&exact) {
            assert!((xi - ei).abs() < 1e-6, "{xi} vs {ei}");
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn no_fault_path_succeeds_on_first_rung() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        let opts = SolverOptions::default();
        let sol = solve(Krylov::Bicgstab, &a, &b, &Ilu0::new(&a), &opts).unwrap();
        assert_eq!(sol.stats.rung, 0);
        assert_eq!(plan.consulted(), 1);
        assert_eq!(plan.fired(), 0);
        check_close(&a, &sol.solution, &b);
        // The first step is the plain solver call, bit for bit.
        let plain = solve::bicgstab(&a, &b, &Ilu0::new(&a), &opts).unwrap();
        assert_eq!(sol.solution, plain.solution);
    }

    #[test]
    fn spd_ladder_runs_cg_first() {
        let a = poisson(30);
        let b = rhs(30);
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        let sol = solve(
            Krylov::Cg,
            &a,
            &b,
            &Jacobi::new(&a),
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.stats.rung, 0);
        check_close(&a, &sol.solution, &b);
        // Step 0 is the plain CG call, bit for bit.
        let plain = solve::cg(&a, &b, &Jacobi::new(&a), &SolverOptions::default()).unwrap();
        assert_eq!(sol.solution, plain.solution);
    }

    #[test]
    fn every_rung_recovers_from_faults_below_it() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        let plan = FaultPlan::fail_first(1, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let sol = solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Ilu0::new(&a),
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.stats.rung, 1);
        assert_eq!(plan.consulted(), 2);
        assert_eq!(plan.fired(), 1);
        check_close(&a, &sol.solution, &b);
    }

    #[test]
    fn dense_lu_is_the_terminal_rung() {
        let a = advection(25, 1.0);
        let b = rhs(25);
        let plan = FaultPlan::fail_first(1, FaultKind::NotConverged);
        let _scope = fault::inject(&plan);
        let sol = solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Ilu0::new(&a),
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.stats.rung, 1);
        assert_eq!(sol.stats.iterations, 0);
        // The direct step returns the reference LU's bits.
        assert_eq!(bits(&sol.solution), bits(&a.to_dense().solve(&b).unwrap()));
        assert_eq!(sol.solution, direct(&a, &b).unwrap().solution);
    }

    #[test]
    fn nan_poisoning_escalates_via_finiteness_guard() {
        let a = advection(30, 1.5);
        let b = rhs(30);
        let plan = FaultPlan::at([(0, FaultKind::PoisonNan)]);
        let scope = fault::inject(&plan);
        let sol = solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Ilu0::new(&a),
            &SolverOptions::default(),
        )
        .unwrap();
        drop(scope);
        assert_eq!(sol.stats.rung, 1);
        assert!(sol.solution.iter().all(|v| v.is_finite()));
        assert_eq!(plan.fired(), 1);

        // The guard covers the direct step too.
        let plan = FaultPlan::at([(0, FaultKind::NotConverged), (1, FaultKind::PoisonNan)]);
        let _scope = fault::inject(&plan);
        let err = solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Ilu0::new(&a),
            &SolverOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, SolveError::NonFinite);
    }

    #[test]
    fn exhausted_ladder_reports_every_failure() {
        let a = advection(20, 1.0);
        let b = rhs(20);
        let plan = FaultPlan::fail_first(2, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let err = solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Ilu0::new(&a),
            &SolverOptions::default(),
        )
        .unwrap_err();
        assert_eq!(plan.consulted(), 2);
        assert_eq!(plan.fired(), 2);
        assert!(matches!(err, SolveError::Breakdown { .. }));
    }

    #[test]
    fn oversized_system_skips_the_dense_rung() {
        let n = DENSE_FALLBACK_CAP + 1;
        let a = advection(n, 1.0);
        let b = rhs(n);
        let plan = FaultPlan::fail_first(1, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let err = solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Ilu0::new(&a),
            &SolverOptions::default(),
        )
        .unwrap_err();
        // The Krylov step's injected failure is the error; the skipped
        // direct step consumes no fault.
        assert!(matches!(err, SolveError::Breakdown { iterations: 0 }));
        assert_eq!(plan.consulted(), 1, "a skipped step consumes no fault");
    }

    /// A near-singular system starts at the Krylov step like any other.
    /// (The name predates the removal of the diagnostics gate, which
    /// could send such a system straight to the direct step.)
    #[test]
    fn disabled_gate_starts_at_rung_zero_even_on_singular_systems() {
        let a = near_singular(25);
        let b = rhs(25);
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        // ILU(0) is exact on a tridiagonal matrix, so step 0 converges
        // even here: no system is sent past it unless it fails.
        let sol = solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Ilu0::new(&a),
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.stats.rung, 0);
        assert_eq!(plan.consulted(), 1);
    }

    #[test]
    fn starved_budget_escalates_naturally_and_faults_force_the_dense_rung() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        // A one-iteration budget and an identity preconditioner starve the
        // Krylov step naturally; the direct step takes over.
        let opts = SolverOptions {
            max_iterations: 1,
            ..SolverOptions::default()
        };
        let plan = FaultPlan::none();
        let scope = fault::inject(&plan);
        let sol = solve(Krylov::Bicgstab, &a, &b, &Identity::new(40), &opts).unwrap();
        assert_eq!(sol.stats.rung, 1, "expected a natural escalation");
        assert_eq!(plan.consulted(), 2);
        assert_eq!(plan.fired(), 0);
        // The solve keeps no memory: the same solve starts at step 0 again
        // and ends on the same step with the same bits.
        let again = solve(Krylov::Bicgstab, &a, &b, &Identity::new(40), &opts).unwrap();
        assert_eq!(plan.consulted(), 4);
        assert_eq!(again, sol);
        drop(scope);

        // An injected fault lands a healthy solve on the same direct step.
        let plan = FaultPlan::fail_first(1, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let forced = solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Ilu0::new(&a),
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(forced.stats.rung, 1);
        assert_eq!(plan.fired(), 1);
        assert_eq!(bits(&forced.solution), bits(&sol.solution));
    }
}
