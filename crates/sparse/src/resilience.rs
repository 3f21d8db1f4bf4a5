//! Solver resilience: the escalation ladder and fault-injection harness.
//!
//! The SA design flows (Algorithms 1–3) evaluate dozens of candidate
//! networks per iteration over thousands of moves, and the run-time control
//! loop chains thousands of sequential transient solves; a single
//! ill-conditioned candidate must cost one infeasible score, not a dead
//! process or a wedged run. [`SolveLadder`] provides that guarantee for
//! every linear solve backing the hydraulic and thermal models: an ordered
//! list of [`Rung`]s (solver kind × preconditioner × budget) tried in
//! order under a [`RetryPolicy`], returning the solution together with a
//! [`SolveReport`] that records every attempt for observability.
//!
//! Two presets cover the workspace's systems:
//!
//! * [`SolveLadder::spd`] — for the symmetric positive definite pressure
//!   systems of Eq. (3): CG first, then ILU(0)-BiCGSTAB, restarted GMRES,
//!   and finally a direct LU below a size cap;
//! * [`SolveLadder::nonsymmetric`] (the [`Default`]) — for the
//!   advection–diffusion thermal systems of Eq. (6): BiCGSTAB first, then
//!   GMRES with an escalating restart, then the direct LU.
//!
//! The terminal direct rung factors the system inside its bandwidth
//! (`dense::band_solve`): for lower/upper bandwidths `kl`/`ku` it costs
//! `O(n·kl·(kl+ku))` time and `n·(2·kl+ku+1)` storage, and returns the
//! result bits of the `n × n` reference [`crate::DenseMatrix::solve`].
//!
//! The first rung of each preset reproduces the exact solver call the
//! models made before the ladder existed, so the no-fault fast path is
//! numerically identical to the historical behavior.
//!
//! The companion [`fault`] module (compiled under `cfg(test)` or the
//! `fault-inject` feature) injects deterministic failures at chosen
//! attempt indices so tests can force every rung — including the terminal
//! dense fallback — and prove the whole stack degrades gracefully.

use crate::csr::CsrMatrix;
use crate::dense;
use crate::ops;
use crate::precond::{Identity, Ilu0, Jacobi, Preconditioner};
use crate::solve::{self, Solution, SolveError, SolveStats, SolverOptions};
use coolnet_obs::{LazyCounter, LazyHistogram};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Ladder solves that returned a solution.
static M_SOLVES: LazyCounter = LazyCounter::new("ladder.solves");
/// Solver attempts actually run (skips excluded), successful or not.
static M_ATTEMPTS: LazyCounter = LazyCounter::new("ladder.attempts");
/// Solves that needed more than their first attempt.
static M_ESCALATIONS: LazyCounter = LazyCounter::new("ladder.escalations");
/// Solves for which every rung failed or was inapplicable.
static M_EXHAUSTED: LazyCounter = LazyCounter::new("ladder.exhausted");
/// Attempts whose outcome was forced by the fault-injection harness.
static M_INJECTED: LazyCounter = LazyCounter::new("ladder.injected_faults");
/// Iterations of each successful solve (from [`SolveStats`]).
static M_ITERATIONS: LazyHistogram = LazyHistogram::new("ladder.iterations");
/// Per-rung convergence outcomes; rungs past the array share the last slot
/// (no preset ladder is that deep).
static M_RUNG_CONVERGED: [LazyCounter; 5] = [
    LazyCounter::new("ladder.rung0_converged"),
    LazyCounter::new("ladder.rung1_converged"),
    LazyCounter::new("ladder.rung2_converged"),
    LazyCounter::new("ladder.rung3_converged"),
    LazyCounter::new("ladder.rung4plus_converged"),
];
/// Solves the diagnostics gate routed straight to the terminal dense rung.
static M_DIAG_ROUTED: LazyCounter = LazyCounter::new("ladder.diag_routed");

/// Eagerly registers every ladder metric so snapshots report explicit
/// zeros for counters that have not fired (e.g. `ladder.rung1_converged`
/// on a run where no solve ever converged on rung 1). Without this,
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
        M_DIAG_ROUTED.register();
    });
}

/// Default dimension cap for the terminal dense-LU rung, an upper bound on
/// the unknown count `n`. The rung factors inside the matrix's bandwidth,
/// `O(n·kl·(kl+ku))` rather than `O(n³)`; the cap still bounds `n`, not
/// the band, so a wide-band system near the cap costs close to a full
/// dense factorization.
pub const DENSE_FALLBACK_CAP: usize = 4096;

/// Which Krylov (or direct) solver a [`Rung`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    /// Preconditioned conjugate gradients ([`solve::cg`]); SPD systems only.
    Cg,
    /// Preconditioned BiCGSTAB ([`solve::bicgstab`]).
    Bicgstab,
    /// Restarted GMRES ([`solve::gmres`]) with the given restart length.
    Gmres {
        /// Krylov subspace dimension between restarts (`0` selects 50).
        restart: usize,
    },
    /// Partially pivoted LU, factored inside the matrix's bandwidth with the
    /// result bits of a dense LU; only attempted when the system dimension
    /// is at most `max_dim` (the rung is recorded as skipped otherwise).
    DenseLu {
        /// Largest dimension this rung accepts.
        max_dim: usize,
    },
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverKind::Cg => f.write_str("cg"),
            SolverKind::Bicgstab => f.write_str("bicgstab"),
            SolverKind::Gmres { restart } => write!(f, "gmres({restart})"),
            SolverKind::DenseLu { max_dim } => write!(f, "dense-lu(≤{max_dim})"),
        }
    }
}

/// Which preconditioner a [`Rung`] pairs with its solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecondSpec {
    /// The preconditioner the caller passed to [`SolveLadder::solve`]
    /// (e.g. a cached ILU(0) factorization on the probe path).
    Caller,
    /// No preconditioning.
    Identity,
    /// Diagonal (Jacobi) scaling, built from the matrix per attempt.
    Jacobi,
    /// A fresh ILU(0) factorization, built from the matrix per attempt —
    /// recovers from a stale or poisoned caller preconditioner.
    Ilu0,
}

impl fmt::Display for PrecondSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrecondSpec::Caller => f.write_str("caller"),
            PrecondSpec::Identity => f.write_str("identity"),
            PrecondSpec::Jacobi => f.write_str("jacobi"),
            PrecondSpec::Ilu0 => f.write_str("ilu0"),
        }
    }
}

/// One step of the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rung {
    /// Solver to run.
    pub solver: SolverKind,
    /// Preconditioner to pair it with.
    pub precond: PrecondSpec,
    /// Multiplier on the caller's residual tolerance (`1.0` keeps it).
    pub tolerance_factor: f64,
    /// Multiplier on the caller's iteration budget (`1.0` keeps it).
    pub iteration_factor: f64,
}

impl Rung {
    /// A rung at the caller's unchanged tolerance and iteration budget.
    pub fn new(solver: SolverKind, precond: PrecondSpec) -> Self {
        Self {
            solver,
            precond,
            tolerance_factor: 1.0,
            iteration_factor: 1.0,
        }
    }
}

/// How the ladder retries and loosens within each rung.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per rung before escalating. The default of `1` makes the
    /// ladder a pure escalation cascade (no within-rung retries), which
    /// keeps the no-fault path identical to the pre-ladder solvers.
    pub attempts_per_rung: usize,
    /// Multiplier applied to the effective tolerance on each retry within
    /// a rung (loosening; only meaningful with `attempts_per_rung > 1`).
    pub tolerance_growth: f64,
    /// Ceiling the loosened tolerance may never exceed (clamped to at
    /// least the caller's requested tolerance).
    pub max_tolerance: f64,
}

impl Default for RetryPolicy {
    /// One attempt per rung; retries (if enabled) loosen 10× up to `1e-4`.
    fn default() -> Self {
        Self {
            attempts_per_rung: 1,
            tolerance_growth: 10.0,
            max_tolerance: 1e-4,
        }
    }
}

/// Cheap structural diagnostics of a system matrix, measured in one
/// `O(nnz)` pass (negligible next to any Krylov solve on the same matrix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixDiagnostics {
    /// System dimension (rows).
    pub dim: usize,
    /// Smallest `|a_ii|` over all rows (`0` flags a structural zero pivot).
    pub min_abs_diag: f64,
    /// Largest `|a_ii|` over all rows.
    pub max_abs_diag: f64,
    /// Minimum per-row dominance `|a_ii| / Σ_{j≠i} |a_ij|`
    /// (`∞` for rows without off-diagonals).
    pub min_row_dominance: f64,
    /// Net diagonal dominance `Σ_i (|a_ii| − Σ_{j≠i} |a_ij|) / Σ_i |a_ii|`
    /// (`0` for an all-zero diagonal). Conservation-law operators (flow
    /// and thermal balances alike) have interior rows that cancel exactly,
    /// so this measures the *boundary* coupling that makes the system
    /// solvable; values near zero flag a numerically singular system.
    pub net_dominance: f64,
}

impl MatrixDiagnostics {
    /// Measures `a`.
    pub fn measure(a: &CsrMatrix) -> Self {
        let n = a.rows();
        let mut min_abs_diag = f64::INFINITY;
        let mut max_abs_diag = 0.0_f64;
        let mut min_row_dominance = f64::INFINITY;
        let mut total_excess = 0.0_f64;
        let mut total_diag = 0.0_f64;
        for r in 0..n {
            let (cols, vals) = a.row(r);
            let mut d = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == r {
                    d += v.abs();
                } else {
                    off += v.abs();
                }
            }
            min_abs_diag = min_abs_diag.min(d);
            max_abs_diag = max_abs_diag.max(d);
            let dominance = if off > 0.0 { d / off } else { f64::INFINITY };
            min_row_dominance = min_row_dominance.min(dominance);
            total_excess += d - off;
            total_diag += d;
        }
        let net_dominance = if total_diag > 0.0 {
            total_excess / total_diag
        } else {
            0.0
        };
        Self {
            dim: n,
            min_abs_diag: if n == 0 { 0.0 } else { min_abs_diag },
            max_abs_diag,
            min_row_dominance,
            net_dominance,
        }
    }
}

/// Routes pathological systems straight to the terminal dense rung instead
/// of burning the Krylov rungs that cannot converge on them.
///
/// The gate is *conservative by construction*: it only fires on systems
/// whose [`MatrixDiagnostics`] mark them numerically singular — where the
/// Krylov rungs fail within any realistic budget and the escalation would
/// have ended at the dense rung anyway. Routing therefore reproduces the
/// escalated solve's solution bit for bit (dense LU ignores the initial
/// guess and tolerance), just without the dead attempts. Systems the gate
/// misses still escalate normally from rung 0.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiagnosticsGate {
    /// Whether the gate routes at all (default `true`).
    #[serde(default = "default_gate_enabled")]
    pub enabled: bool,
    /// Systems with `|net_dominance|` below this are treated as
    /// numerically singular. The default sits in the measured gap between
    /// the workspace's escalating thermal probes (`≤ 2.3e-9`, conduction
    /// Laplacians whose advection vanishes at the lowest probed pressures)
    /// and the weakest healthy solves (`≥ 4.2e-9`).
    #[serde(default = "default_singular_net_dominance")]
    pub singular_net_dominance: f64,
}

fn default_gate_enabled() -> bool {
    true
}

fn default_singular_net_dominance() -> f64 {
    3e-9
}

impl Default for DiagnosticsGate {
    fn default() -> Self {
        Self {
            enabled: default_gate_enabled(),
            singular_net_dominance: default_singular_net_dominance(),
        }
    }
}

impl DiagnosticsGate {
    /// A gate that never routes (pure escalation-ladder behavior).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Whether `d` marks a system this gate routes to the dense rung.
    pub fn routes(&self, d: &MatrixDiagnostics) -> bool {
        self.enabled
            && d.dim > 0
            && (d.min_abs_diag <= 0.0
                || !d.net_dominance.is_finite()
                || d.net_dominance.abs() < self.singular_net_dominance)
    }
}

/// Outcome of one ladder attempt, recorded in a [`SolveReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The solver converged.
    Converged {
        /// Iterations the solver performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// The solver failed with the given error.
    Failed(SolveError),
    /// The rung was not applicable and no solver ran.
    Skipped {
        /// Why the rung was skipped (e.g. over the dense size cap).
        reason: String,
    },
}

/// One attempted (or skipped) rung execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Ladder rung index.
    pub rung: usize,
    /// Solver the rung ran.
    pub solver: SolverKind,
    /// Preconditioner the rung paired with it.
    pub precond: PrecondSpec,
    /// Effective relative tolerance of this attempt.
    pub tolerance: f64,
    /// Whether the fault-injection harness forced this attempt's outcome.
    pub injected: bool,
    /// What happened.
    pub outcome: AttemptOutcome,
}

/// The attempt-by-attempt record of one [`SolveLadder::solve`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveReport {
    /// Every attempt in execution order, skips included.
    pub attempts: Vec<Attempt>,
}

impl SolveReport {
    /// Number of attempts that actually ran a solver (skips excluded).
    pub fn tried(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| !matches!(a.outcome, AttemptOutcome::Skipped { .. }))
            .count()
    }

    /// The rung index that converged, if any.
    pub fn succeeded_rung(&self) -> Option<usize> {
        self.attempts
            .iter()
            .find(|a| matches!(a.outcome, AttemptOutcome::Converged { .. }))
            .map(|a| a.rung)
    }

    /// Whether the solve needed more than its first attempt.
    pub fn escalated(&self) -> bool {
        self.tried() > 1
    }

    /// The last solver error recorded, if any attempt failed.
    pub fn last_error(&self) -> Option<&SolveError> {
        self.attempts.iter().rev().find_map(|a| match &a.outcome {
            AttemptOutcome::Failed(e) => Some(e),
            _ => None,
        })
    }

    /// Number of attempts whose outcome was forced by fault injection.
    pub fn injected_faults(&self) -> usize {
        self.attempts.iter().filter(|a| a.injected).count()
    }
}

/// A solution produced by the ladder: the vector, its [`SolveStats`]
/// (with `rung`/`attempts` filled in), and the full [`SolveReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LadderSolution {
    /// The solution vector.
    pub solution: Vec<f64>,
    /// Convergence statistics of the successful attempt.
    pub stats: SolveStats,
    /// Every attempt made on the way there.
    pub report: SolveReport,
}

/// Every rung failed (or was inapplicable); carries the full record.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderError {
    /// The attempt-by-attempt record of the exhausted ladder.
    pub report: SolveReport,
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.report.last_error() {
            Some(e) => write!(
                f,
                "solver ladder exhausted after {} attempts over {} rungs; last error: {e}",
                self.report.tried(),
                self.report.attempts.len(),
            ),
            None => f.write_str("solver ladder has no applicable rungs"),
        }
    }
}

impl Error for LadderError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.report
            .last_error()
            .map(|e| e as &(dyn Error + 'static))
    }
}

impl From<LadderError> for SolveError {
    /// Collapses the report to its last recorded solver error, for callers
    /// whose error types wrap [`SolveError`].
    fn from(e: LadderError) -> Self {
        e.report
            .last_error()
            .cloned()
            .unwrap_or(SolveError::NotConverged {
                iterations: 0,
                residual: f64::INFINITY,
            })
    }
}

/// The ordered escalation ladder plus its retry policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveLadder {
    /// Rungs tried in order.
    pub rungs: Vec<Rung>,
    /// Within-rung retry/loosening policy.
    pub policy: RetryPolicy,
    /// Diagnostics gate routing numerically singular systems straight to
    /// the terminal dense rung (configs serialized before this field
    /// existed deserialize to the default, enabled gate).
    #[serde(default)]
    pub gate: DiagnosticsGate,
}

impl Default for SolveLadder {
    /// The [`nonsymmetric`](Self::nonsymmetric) ladder — safe for every
    /// matrix class the workspace produces.
    fn default() -> Self {
        Self::nonsymmetric()
    }
}

impl SolveLadder {
    /// Ladder for symmetric positive definite systems (the pressure solve
    /// of Eq. (3)): CG with the caller's preconditioner, then
    /// ILU(0)-BiCGSTAB, then restarted GMRES, then dense LU.
    pub fn spd() -> Self {
        Self {
            rungs: vec![
                Rung::new(SolverKind::Cg, PrecondSpec::Caller),
                Rung::new(SolverKind::Bicgstab, PrecondSpec::Ilu0),
                Rung::new(SolverKind::Gmres { restart: 60 }, PrecondSpec::Ilu0),
                Rung::new(
                    SolverKind::DenseLu {
                        max_dim: DENSE_FALLBACK_CAP,
                    },
                    PrecondSpec::Caller,
                ),
            ],
            policy: RetryPolicy::default(),
            gate: DiagnosticsGate::default(),
        }
    }

    /// Ladder for nonsymmetric advection–diffusion systems (the thermal
    /// solve of Eq. (6)): BiCGSTAB, then GMRES with an escalating restart,
    /// then dense LU — the same cascade `thermal::assembly` used before
    /// this layer existed, with one extra long-restart GMRES rung.
    pub fn nonsymmetric() -> Self {
        Self {
            rungs: vec![
                Rung::new(SolverKind::Bicgstab, PrecondSpec::Caller),
                Rung::new(SolverKind::Gmres { restart: 60 }, PrecondSpec::Caller),
                Rung::new(SolverKind::Gmres { restart: 150 }, PrecondSpec::Ilu0),
                Rung::new(
                    SolverKind::DenseLu {
                        max_dim: DENSE_FALLBACK_CAP,
                    },
                    PrecondSpec::Caller,
                ),
            ],
            policy: RetryPolicy::default(),
            gate: DiagnosticsGate::default(),
        }
    }

    /// Solves `A·x = b`, trying rungs in order until one converges.
    ///
    /// `caller` is the preconditioner rungs with [`PrecondSpec::Caller`]
    /// use (typically a cached ILU(0) factorization); other specs build
    /// their own from `a`. Every candidate solution is checked for finite
    /// entries before being accepted, so NaN-poisoned arithmetic escalates
    /// instead of propagating.
    ///
    /// The solve is a pure function of its arguments: the only
    /// starting-rung shortcut is the stateless [`DiagnosticsGate`], which
    /// sends a numerically singular system straight to the terminal dense
    /// rung and falls back to the full cascade from rung 0 if that rung
    /// fails.
    ///
    /// # Errors
    ///
    /// Returns [`LadderError`] with the full [`SolveReport`] when every
    /// rung fails or is inapplicable.
    pub fn solve(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        caller: &dyn Preconditioner,
        options: &SolverOptions,
    ) -> Result<LadderSolution, LadderError> {
        // Output finiteness is guarded per attempt inside the rung loop;
        // here only the system shape is validated.
        assert_eq!(a.rows(), b.len(), "rhs length must match the system");
        register_metrics();
        let plan = PlanState::current();
        let mut report = SolveReport::default();

        if let Some(terminal) = self.gate_route(a) {
            M_DIAG_ROUTED.inc();
            if let Some(sol) = self.try_rung(terminal, a, b, caller, options, &plan, &mut report) {
                return Ok(self.finish(sol, terminal, report));
            }
        }

        for ri in 0..self.rungs.len() {
            if let Some(sol) = self.try_rung(ri, a, b, caller, options, &plan, &mut report) {
                return Ok(self.finish(sol, ri, report));
            }
        }
        M_EXHAUSTED.inc();
        M_ATTEMPTS.add(report.tried() as u64);
        M_INJECTED.add(report.injected_faults() as u64);
        Err(LadderError { report })
    }

    /// The rung the diagnostics gate routes `a` to, if it routes at all:
    /// the last rung, provided it is a dense LU that accepts `a` and is
    /// not already rung 0.
    fn gate_route(&self, a: &CsrMatrix) -> Option<usize> {
        if !self.gate.enabled {
            return None;
        }
        let (ri, rung) = self.rungs.iter().enumerate().next_back()?;
        match rung.solver {
            SolverKind::DenseLu { max_dim }
                if ri > 0
                    && a.rows() <= max_dim
                    && self.gate.routes(&MatrixDiagnostics::measure(a)) =>
            {
                Some(ri)
            }
            _ => None,
        }
    }

    /// Runs every retry of rung `ri`, recording each attempt (or the skip)
    /// in `report`; returns the solution if one attempt converged.
    #[allow(clippy::too_many_arguments)]
    fn try_rung(
        &self,
        ri: usize,
        a: &CsrMatrix,
        b: &[f64],
        caller: &dyn Preconditioner,
        options: &SolverOptions,
        plan: &PlanState,
        report: &mut SolveReport,
    ) -> Option<Solution> {
        let rung = &self.rungs[ri];
        let n = a.rows();
        let attempts_per_rung = self.policy.attempts_per_rung.max(1);
        let ceiling = self.policy.max_tolerance.max(options.tolerance);
        if let SolverKind::DenseLu { max_dim } = rung.solver {
            if n > max_dim {
                report.attempts.push(Attempt {
                    rung: ri,
                    solver: rung.solver,
                    precond: rung.precond,
                    tolerance: options.tolerance,
                    injected: false,
                    outcome: AttemptOutcome::Skipped {
                        reason: format!("{n} unknowns exceed the {max_dim}-unknown dense cap"),
                    },
                });
                return None;
            }
        }
        let built: Option<Box<dyn Preconditioner>> = match rung.precond {
            PrecondSpec::Caller => None,
            PrecondSpec::Identity => Some(Box::new(Identity::new(n))),
            PrecondSpec::Jacobi => Some(Box::new(Jacobi::new(a))),
            PrecondSpec::Ilu0 => Some(Box::new(Ilu0::new(a))),
        };
        let m: &dyn Preconditioner = match &built {
            Some(p) => p.as_ref(),
            None => caller,
        };

        for retry in 0..attempts_per_rung {
            let tolerance = (options.tolerance
                * rung.tolerance_factor
                * self.policy.tolerance_growth.powi(retry as i32))
            .min(ceiling);
            let mut opts = options.clone();
            opts.tolerance = tolerance;
            opts.max_iterations =
                (((options.cap(n) as f64) * rung.iteration_factor).ceil() as usize).max(1);

            let inject = plan.next();
            let injected = inject.is_some();
            let result = match inject {
                Some(Inject::Fail(e)) => Err(e),
                other => run_rung(rung.solver, a, b, m, &opts).and_then(|mut sol| {
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
            };
            match result {
                Ok(sol) => {
                    report.attempts.push(Attempt {
                        rung: ri,
                        solver: rung.solver,
                        precond: rung.precond,
                        tolerance,
                        injected,
                        outcome: AttemptOutcome::Converged {
                            iterations: sol.stats.iterations,
                            residual: sol.stats.residual,
                        },
                    });
                    return Some(sol);
                }
                Err(e) => {
                    report.attempts.push(Attempt {
                        rung: ri,
                        solver: rung.solver,
                        precond: rung.precond,
                        tolerance,
                        injected,
                        outcome: AttemptOutcome::Failed(e),
                    });
                }
            }
        }
        None
    }

    /// Stamps stats, records the success metrics and packages the result.
    fn finish(&self, sol: Solution, ri: usize, report: SolveReport) -> LadderSolution {
        let stats = SolveStats {
            rung: ri,
            attempts: report.tried(),
            ..sol.stats
        };
        M_SOLVES.inc();
        M_ATTEMPTS.add(stats.attempts as u64);
        M_ESCALATIONS.add(u64::from(report.escalated()));
        M_INJECTED.add(report.injected_faults() as u64);
        M_ITERATIONS.record(stats.iterations as u64);
        M_RUNG_CONVERGED[ri.min(M_RUNG_CONVERGED.len() - 1)].inc();
        LadderSolution {
            solution: sol.solution,
            stats,
            report,
        }
    }
}

/// Dispatches one rung's solver.
fn run_rung(
    kind: SolverKind,
    a: &CsrMatrix,
    b: &[f64],
    m: &dyn Preconditioner,
    options: &SolverOptions,
) -> Result<Solution, SolveError> {
    match kind {
        SolverKind::Cg => solve::cg(a, b, m, options),
        SolverKind::Bicgstab => solve::bicgstab(a, b, m, options),
        SolverKind::Gmres { restart } => solve::gmres(a, b, m, restart, options),
        SolverKind::DenseLu { .. } => {
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

/// Deterministic fault injection for the escalation ladder.
///
/// A [`FaultPlan`] maps global *attempt indices* (every ladder attempt in
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
        /// exercising the ladder's finiteness guard.
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

        /// How many ladder attempts consulted this plan.
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

    #[test]
    fn no_fault_path_succeeds_on_first_rung() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.stats.rung, 0);
        assert_eq!(sol.stats.attempts, 1);
        assert_eq!(sol.report.succeeded_rung(), Some(0));
        assert!(!sol.report.escalated());
        assert_eq!(sol.report.injected_faults(), 0);
        check_close(&a, &sol.solution, &b);
        // The first rung reproduces the direct solver call bit for bit.
        let direct = solve::bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::default()).unwrap();
        assert_eq!(sol.solution, direct.solution);
    }

    #[test]
    fn spd_ladder_runs_cg_first() {
        let a = poisson(30);
        let b = rhs(30);
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::spd()
            .solve(&a, &b, &Jacobi::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.stats.rung, 0);
        check_close(&a, &sol.solution, &b);
    }

    #[test]
    fn every_rung_recovers_from_faults_below_it() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        let ladder = SolveLadder::nonsymmetric();
        for k in 1..=3 {
            let plan = FaultPlan::fail_first(k, FaultKind::Breakdown);
            let _scope = fault::inject(&plan);
            let sol = ladder
                .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
                .unwrap();
            assert_eq!(sol.stats.rung, k, "expected rung {k}");
            assert_eq!(sol.stats.attempts, k + 1);
            assert_eq!(sol.report.succeeded_rung(), Some(k));
            assert!(sol.report.escalated());
            assert_eq!(sol.report.injected_faults(), k);
            assert_eq!(plan.fired(), k);
            check_close(&a, &sol.solution, &b);
        }
    }

    #[test]
    fn dense_lu_is_the_terminal_rung() {
        let a = advection(25, 1.0);
        let b = rhs(25);
        let plan = FaultPlan::fail_first(3, FaultKind::NotConverged);
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.stats.rung, 3);
        assert!(matches!(
            sol.report.attempts[3].solver,
            SolverKind::DenseLu { .. }
        ));
        check_close(&a, &sol.solution, &b);
    }

    #[test]
    fn nan_poisoning_escalates_via_finiteness_guard() {
        let a = advection(30, 1.5);
        let b = rhs(30);
        let plan = FaultPlan::at([(0, FaultKind::PoisonNan)]);
        let _scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.stats.rung, 1);
        assert!(sol.solution.iter().all(|v| v.is_finite()));
        assert_eq!(
            sol.report.attempts[0].outcome,
            AttemptOutcome::Failed(SolveError::NonFinite)
        );
        assert!(sol.report.attempts[0].injected);
    }

    #[test]
    fn exhausted_ladder_reports_every_failure() {
        let a = advection(20, 1.0);
        let b = rhs(20);
        let plan = FaultPlan::fail_first(4, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let err = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap_err();
        assert_eq!(err.report.attempts.len(), 4);
        assert_eq!(err.report.tried(), 4);
        assert_eq!(err.report.succeeded_rung(), None);
        assert!(matches!(
            err.report.last_error(),
            Some(SolveError::Breakdown { .. })
        ));
        assert!(err.to_string().contains("exhausted"));
        let solve_err: SolveError = err.into();
        assert!(matches!(solve_err, SolveError::Breakdown { .. }));
    }

    #[test]
    fn oversized_system_skips_the_dense_rung() {
        let a = advection(10, 1.0);
        let b = rhs(10);
        let mut ladder = SolveLadder::nonsymmetric();
        ladder.rungs[3].solver = SolverKind::DenseLu { max_dim: 4 };
        let plan = FaultPlan::fail_first(3, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let err = ladder
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap_err();
        // Three injected failures plus the skipped dense rung.
        assert_eq!(err.report.attempts.len(), 4);
        assert_eq!(err.report.tried(), 3);
        assert!(matches!(
            err.report.attempts[3].outcome,
            AttemptOutcome::Skipped { .. }
        ));
    }

    #[test]
    fn retry_policy_allows_second_attempt_on_same_rung() {
        let a = advection(30, 1.5);
        let b = rhs(30);
        let mut ladder = SolveLadder::nonsymmetric();
        ladder.policy.attempts_per_rung = 2;
        let plan = FaultPlan::at([(0, FaultKind::NotConverged)]);
        let _scope = fault::inject(&plan);
        let sol = ladder
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        // Second attempt of rung 0 succeeds (with a loosened tolerance).
        assert_eq!(sol.stats.rung, 0);
        assert_eq!(sol.stats.attempts, 2);
        assert!(sol.report.attempts[1].tolerance > sol.report.attempts[0].tolerance);
    }

    #[test]
    fn report_display_names_solvers() {
        assert_eq!(SolverKind::Gmres { restart: 60 }.to_string(), "gmres(60)");
        assert_eq!(PrecondSpec::Ilu0.to_string(), "ilu0");
        assert!(SolverKind::DenseLu { max_dim: 9 }.to_string().contains('9'));
        assert_eq!(SolverKind::Cg.to_string(), "cg");
        assert_eq!(SolverKind::Bicgstab.to_string(), "bicgstab");
    }

    #[test]
    fn matrix_diagnostics_measure_matches_hand_computation() {
        // [[ 4, -1], [-2, 2]]
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 4.0);
        b.add(0, 1, -1.0);
        b.add(1, 0, -2.0);
        b.add(1, 1, 2.0);
        let d = MatrixDiagnostics::measure(&b.to_csr());
        assert_eq!(d.dim, 2);
        assert_eq!(d.min_abs_diag, 2.0);
        assert_eq!(d.max_abs_diag, 4.0);
        // Row dominances are 4/1 and 2/2.
        assert_eq!(d.min_row_dominance, 1.0);
        // Net: ((4-1) + (2-2)) / (4+2).
        assert_eq!(d.net_dominance, 0.5);

        let healthy = MatrixDiagnostics::measure(&advection(40, 2.0));
        assert!(!DiagnosticsGate::default().routes(&healthy));
        let sick = MatrixDiagnostics::measure(&near_singular(40));
        assert!(sick.net_dominance.abs() < 3e-9);
        assert!(DiagnosticsGate::default().routes(&sick));
    }

    #[test]
    fn gate_routes_near_singular_system_to_dense_rung() {
        let a = near_singular(25);
        let b = rhs(25);
        let plan = FaultPlan::none();
        let scope = fault::inject(&plan);
        let sol = SolveLadder::nonsymmetric()
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        drop(scope);
        // One attempt, straight at the terminal dense rung: no escalation
        // recorded, no Krylov budget burned.
        assert_eq!(sol.stats.rung, 3);
        assert_eq!(sol.report.tried(), 1);
        assert_eq!(sol.report.attempts[0].rung, 3);
        assert!(!sol.report.escalated());
        // Bitwise-identical to what the full escalation cascade produces
        // when forced to the same dense rung (dense LU ignores attempt
        // history, the initial guess and the tolerance).
        let mut ungated = SolveLadder::nonsymmetric();
        ungated.gate = DiagnosticsGate::disabled();
        let plan = FaultPlan::fail_first(3, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let cascade = ungated
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(cascade.stats.rung, 3);
        assert!(cascade.report.escalated());
        assert_eq!(sol.solution, cascade.solution);
    }

    #[test]
    fn gate_stands_down_when_dense_rung_cannot_take_the_system() {
        let a = near_singular(10);
        let b = rhs(10);
        let mut ladder = SolveLadder::nonsymmetric();
        ladder.rungs[3].solver = SolverKind::DenseLu { max_dim: 4 };
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        // No dense rung available: the ladder escalates normally (and
        // exhausts, since every Krylov rung stalls on a singular system).
        let err = ladder
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap_err();
        assert_eq!(err.report.attempts[0].rung, 0);
        assert!(matches!(
            err.report.attempts.last().unwrap().outcome,
            AttemptOutcome::Skipped { .. }
        ));
    }

    #[test]
    fn disabled_gate_starts_at_rung_zero_even_on_singular_systems() {
        let a = near_singular(25);
        let b = rhs(25);
        let mut ladder = SolveLadder::nonsymmetric();
        ladder.gate = DiagnosticsGate::disabled();
        let plan = FaultPlan::none();
        let _scope = fault::inject(&plan);
        // ILU(0) is exact on a tridiagonal matrix, so rung 0 still
        // converges here; the point is that nothing was routed.
        let sol = ladder
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(sol.report.attempts[0].rung, 0);
    }

    #[test]
    fn starved_budget_escalates_naturally_and_faults_force_the_dense_rung() {
        let a = advection(40, 2.0);
        let b = rhs(40);
        let ladder = SolveLadder::nonsymmetric();
        // A one-iteration budget and an identity caller preconditioner
        // starve the caller-preconditioned Krylov rungs naturally; the
        // ladder escalates until a rung that builds its own (exact,
        // tridiagonal) ILU(0) or the dense terminal rung succeeds.
        let opts = SolverOptions {
            max_iterations: 1,
            ..SolverOptions::default()
        };
        let plan = FaultPlan::none();
        let scope = fault::inject(&plan);
        let sol = ladder.solve(&a, &b, &Identity::new(40), &opts).unwrap();
        assert!(sol.stats.rung > 0, "expected a natural escalation");
        assert_eq!(sol.report.injected_faults(), 0);
        // The ladder keeps no memory: the same solve escalates from rung 0
        // again and ends on the same rung with the same bits.
        let again = ladder.solve(&a, &b, &Identity::new(40), &opts).unwrap();
        assert_eq!(again.report.attempts[0].rung, 0);
        assert_eq!(again.report, sol.report);
        assert_eq!(again.solution, sol.solution);
        drop(scope);

        // The same cascade forced by injected faults lands on dense LU.
        let plan = FaultPlan::fail_first(3, FaultKind::Breakdown);
        let _scope = fault::inject(&plan);
        let forced = ladder
            .solve(&a, &b, &Ilu0::new(&a), &SolverOptions::default())
            .unwrap();
        assert_eq!(forced.stats.rung, 3);
        assert_eq!(forced.report.injected_faults(), 3);
    }

    #[test]
    fn ladder_serde_defaults_gate_on_for_old_configs() {
        let ladder = SolveLadder::nonsymmetric();
        let json = serde_json::to_string(&ladder).unwrap();
        assert!(json.contains("singular_net_dominance"));
        let back: SolveLadder = serde_json::from_str(&json).unwrap();
        assert_eq!(back.gate, ladder.gate);
        // Pre-gate configs (no `gate` key) must still load, gate enabled.
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        if let serde_json::Value::Object(map) = &mut value {
            assert!(map.remove("gate").is_some());
        }
        let legacy: SolveLadder =
            serde_json::from_str(&serde_json::to_string(&value).unwrap()).unwrap();
        assert!(legacy.gate.enabled);
        assert_eq!(legacy.gate, DiagnosticsGate::default());
    }
}
