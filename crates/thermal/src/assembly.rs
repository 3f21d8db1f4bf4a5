//! Shared assembly core of the 4RM and 2RM models.
//!
//! Both models reduce to the same algebraic shape: a conduction operator
//! that is independent of the operating point, plus an advection operator
//! and an inlet source that scale linearly with the system pressure drop
//! (flows are linear in `P_sys`). [`Assembled`] stores the two parts
//! separately so a pressure sweep costs one re-combination and one Krylov
//! solve per point instead of a full re-assembly.

use crate::config::{AdvectionScheme, ThermalConfig};
use crate::error::ThermalError;
use crate::solution::{Resolution, SourceLayerTemps, ThermalSolution};
use coolnet_grid::GridDims;
use coolnet_obs::LazyCounter;
use coolnet_sparse::ops::{axpy, dot, norm2};
use coolnet_sparse::precond::Ilu0;
use coolnet_sparse::resilience::{self, Krylov};
use coolnet_sparse::{CsrMatrix, SolverOptions, TripletBuilder};
use coolnet_units::Pascal;
use std::sync::Mutex;

/// One-time symbolic [`ProbeCache`] constructions (union pattern + ILU(0)
/// structure).
static M_SYMBOLIC_BUILDS: LazyCounter = LazyCounter::new("probe.symbolic_builds");
/// Numeric refreshes: matrix values rewritten + numeric ILU(0) sweep.
static M_REFRESHES: LazyCounter = LazyCounter::new("probe.refreshes");
/// Refreshes skipped because the cache was already at the probed pressure.
static M_REFRESH_SKIPS: LazyCounter = LazyCounter::new("probe.refresh_skips");
/// Probes warm-started from the cache's solution history.
static M_WARM_STARTS: LazyCounter = LazyCounter::new("probe.warm_starts");
/// Steady-state solves, cached and reference paths alike.
static M_STEADY_SOLVES: LazyCounter = LazyCounter::new("probe.steady_solves");

/// Node indices of one source layer plus its spatial resolution.
#[derive(Debug, Clone)]
pub(crate) struct SourceLayerMeta {
    pub layer_index: usize,
    pub dims: GridDims,
    pub resolution: Resolution,
    /// Node index per layer position (row-major; fine or coarse).
    pub nodes: Vec<usize>,
}

/// The assembled, pressure-parametric thermal system.
#[derive(Debug, Clone)]
pub(crate) struct Assembled {
    /// Number of thermal nodes.
    pub n: usize,
    /// Conduction couplings (pressure-independent triplets).
    pub cond: Vec<(u32, u32, f64)>,
    /// Advection couplings at `P_sys = 1` (scale linearly with pressure).
    pub adv_unit: Vec<(u32, u32, f64)>,
    /// Die power per node (RHS, pressure-independent).
    pub rhs_source: Vec<f64>,
    /// `C_v · Q_in` per node at `P_sys = 1`; multiplied by
    /// `P_sys · T_in` when forming the RHS.
    pub rhs_inlet_unit: Vec<f64>,
    /// Thermal capacitance per node in J/K (for the transient extension).
    pub capacitance: Vec<f64>,
    /// Source-layer metadata for building solutions.
    pub source_meta: Vec<SourceLayerMeta>,
    /// Lazily built probe-path cache (symbolic pattern + ILU structure).
    pub cache: ProbeCacheCell,
}

/// `A(p) = cond + p · adv_unit` on its fixed union pattern.
///
/// The matrix is linear in the system pressure, so its sparsity pattern
/// never changes: the union pattern and the slot-aligned split into
/// conduction and unit-advection values are computed once, and a new
/// pressure only rewrites `nnz` values in place. Shared by the steady
/// probe path ([`ProbeCache`]) and the transient integrator.
#[derive(Debug)]
pub(crate) struct SplitSystem {
    /// System matrix on the union pattern; values rewritten per pressure.
    pub matrix: CsrMatrix,
    /// Conduction (pressure-independent) value per stored slot.
    pub base_values: Vec<f64>,
    /// Unit-advection value per stored slot (scaled by `P_sys`).
    pub adv_values: Vec<f64>,
}

impl SplitSystem {
    /// Builds the union pattern of `asm`'s couplings and their slot split;
    /// the matrix values stay zero until [`write`](Self::write).
    ///
    /// One counting pass ([`CsrMatrix::pattern_with_slots`]) gives the
    /// pattern and every coupling's slot. No coupling is dropped, even
    /// where real coefficients cancel at some pressure. Each list is then
    /// added into its slots in the couplings' own order, the summation
    /// order that fixes the value bits.
    pub fn new(asm: &Assembled) -> Self {
        let coords = asm
            .cond
            .iter()
            .chain(&asm.adv_unit)
            .map(|&(r, c, _)| (r, c));
        let (matrix, slots) = CsrMatrix::pattern_with_slots(asm.n, asm.n, coords);
        let (cond_slots, adv_slots) = slots.split_at(asm.cond.len());
        let nnz = matrix.nnz();
        let mut base_values = vec![0.0; nnz];
        let mut adv_values = vec![0.0; nnz];
        for (&s, &(_, _, v)) in cond_slots.iter().zip(&asm.cond) {
            base_values[s] += v;
        }
        for (&s, &(_, _, v)) in adv_slots.iter().zip(&asm.adv_unit) {
            adv_values[s] += v;
        }
        Self {
            matrix,
            base_values,
            adv_values,
        }
    }

    /// The two pressure-independent images of `x`: `cond_x = K_cond·x`
    /// and `adv_x = K_adv·x`, in one pass over the pattern, so that
    /// `A(p)·x = cond_x + p·adv_x` at any pressure.
    pub fn images(&self, x: &[f64], cond_x: &mut [f64], adv_x: &mut [f64]) {
        let cols = self.matrix.col_indices();
        for ((ptr, c), a) in self
            .matrix
            .row_ptr()
            .windows(2)
            .zip(cond_x.iter_mut())
            .zip(adv_x.iter_mut())
        {
            let (mut sum_c, mut sum_a) = (0.0, 0.0);
            for s in ptr[0]..ptr[1] {
                let xj = x[cols[s] as usize];
                sum_c += self.base_values[s] * xj;
                sum_a += self.adv_values[s] * xj;
            }
            *c = sum_c;
            *a = sum_a;
        }
    }

    /// Rewrites the matrix values as `base + p · adv`.
    pub fn write(&mut self, p: f64) {
        let values = self.matrix.values_mut();
        for ((v, &base), &adv) in values
            .iter_mut()
            .zip(&self.base_values)
            .zip(&self.adv_values)
        {
            *v = base + p * adv;
        }
    }
}

/// Solutions a [`ProbeCache`] keeps for its projected initial iterate.
const HISTORY: usize = 4;

/// One converged probe solution with its two operator images.
#[derive(Debug)]
struct Recorded {
    p: f64,
    x: Vec<f64>,
    /// `K_cond·x`.
    cond_x: Vec<f64>,
    /// `K_adv·x` at unit pressure.
    adv_x: Vec<f64>,
}

/// One-time symbolic state of the probe path, built on the first `steady`
/// call and reused for every subsequent pressure probe.
///
/// The pattern of [`SplitSystem`] never changes with pressure, so the
/// ILU(0) symbolic structure is computed once too. A probe then only
/// rewrites `nnz` values in place and runs the numeric ILU sweep.
#[derive(Debug)]
pub(crate) struct ProbeCache {
    /// The system on its union pattern; values rewritten per probe.
    system: SplitSystem,
    /// ILU(0) factor with reusable symbolic structure.
    ilu: Ilu0,
    /// Pressure of the last [`refresh`](ProbeCache::refresh); identical
    /// re-probes (golden-section reuses interior points) skip the numeric
    /// phase entirely.
    refreshed_p: Option<f64>,
    /// Stored slot of each row's diagonal entry, if it has one.
    diag_slots: Vec<Option<usize>>,
    /// Row weights `1/|a_ii(p)|` at the refreshed pressure (1 where the
    /// diagonal is missing or zero): the projection minimizes the
    /// Jacobi-scaled residual.
    row_weights: Vec<f64>,
    /// The last [`HISTORY`] converged solutions, oldest first.
    history: Vec<Recorded>,
    /// Orthonormalized weighted columns `W·A(p)·x_i` of the current
    /// projection, kept between probes so a probe allocates only its
    /// guess.
    basis: Vec<Vec<f64>>,
}

impl ProbeCache {
    /// Builds the symbolic state for `asm`'s couplings.
    fn build(asm: &Assembled) -> Self {
        let system = SplitSystem::new(asm);
        let ilu = Ilu0::symbolic(&system.matrix);
        let diag_slots = (0..asm.n).map(|i| system.matrix.slot(i, i)).collect();
        M_SYMBOLIC_BUILDS.inc();
        Self {
            system,
            ilu,
            refreshed_p: None,
            diag_slots,
            row_weights: vec![1.0; asm.n],
            history: Vec::with_capacity(HISTORY),
            basis: Vec::with_capacity(HISTORY),
        }
    }

    /// Numeric phase: rewrites the matrix values for pressure `p` and
    /// re-runs the numeric ILU(0) sweep on the cached structure. A no-op
    /// when the cache is already at `p`.
    fn refresh(&mut self, p: f64) {
        if self.refreshed_p == Some(p) {
            M_REFRESH_SKIPS.inc();
            return;
        }
        M_REFRESHES.inc();
        self.system.write(p);
        self.ilu.refactor(&self.system.matrix);
        let values = self.system.matrix.values();
        for (w, slot) in self.row_weights.iter_mut().zip(&self.diag_slots) {
            let d = slot.map_or(0.0, |s| values[s].abs());
            *w = if d > 0.0 && d.is_finite() {
                1.0 / d
            } else {
                1.0
            };
        }
        self.refreshed_p = Some(p);
    }

    /// Initial iterate for a probe at `p` with right-hand side `b` (the
    /// cache must be refreshed at `p`): the combination `Σ c_i·x_i` of the
    /// recorded solutions with the least Jacobi-scaled residual
    /// `‖W·(b − A(p)·Σ c_i·x_i)‖₂`, `W = diag(1/|a_ii(p)|)`.
    ///
    /// `A(p) = K_cond + p·K_adv` is affine in `p`, so the columns
    /// `A(p)·x_i = K_cond·x_i + p·K_adv·x_i` come from the images stored
    /// with each solution, without a matrix product. Modified Gram–Schmidt
    /// orthonormalizes the weighted columns, newest first, dropping a
    /// column whose orthogonal part falls under `1e-10` of its own norm;
    /// `R·c = Qᵀ·W·b` then gives the coefficients. The last solution and
    /// the linear extrapolation through the last two both lie in the span,
    /// so the projection starts no farther from the solution, in that
    /// norm, than either. The weights matter: the unscaled residual is
    /// dominated by the rows with the largest coefficients, and its
    /// minimizer started BiCGSTAB worse than the linear extrapolation on
    /// an evenly spaced pressure ladder.
    ///
    /// Falls back to the last solution when no column survives or `c` is
    /// not finite, and returns `None` (caller supplies its own guess) with
    /// an empty history.
    fn guess(&mut self, p: f64, b: &[f64]) -> Option<Vec<f64>> {
        let last = self.history.last()?;
        M_WARM_STARTS.inc();
        let n = last.x.len();
        let k = self.history.len();
        while self.basis.len() < k {
            self.basis.push(vec![0.0; n]);
        }
        let w = &self.row_weights;
        // `r[i][j]`: coefficient of basis column `i` in `W·A(p)·x_j`;
        // `kept` lists the surviving history indices in orthogonalization
        // order.
        let mut r = [[0.0; HISTORY]; HISTORY];
        let mut kept = [0usize; HISTORY];
        let mut m = 0;
        for j in (0..k).rev() {
            let e = &self.history[j];
            let (done, rest) = self.basis.split_at_mut(j + 1);
            let q = &mut done[j];
            for (((qv, &c), &a), &wi) in q.iter_mut().zip(&e.cond_x).zip(&e.adv_x).zip(w) {
                *qv = wi * (c + p * a);
            }
            let own = norm2(q);
            for &i in &kept[..m] {
                let qi = &rest[i - j - 1];
                r[i][j] = dot(qi, q);
                axpy(-r[i][j], qi, q);
            }
            let norm = norm2(q);
            // Also drops a zero column and a NaN norm.
            if norm.is_nan() || norm <= 1e-10 * own {
                continue;
            }
            r[j][j] = norm;
            let inv = 1.0 / norm;
            q.iter_mut().for_each(|v| *v *= inv);
            kept[m] = j;
            m += 1;
        }
        // Back substitution on R·c = Qᵀ·W·b, last surviving column first.
        let mut c = [0.0; HISTORY];
        for t in (0..m).rev() {
            let j = kept[t];
            let q = &self.basis[j];
            let mut v: f64 = q
                .iter()
                .zip(w)
                .zip(b)
                .map(|((&qi, &wi), &bi)| qi * (wi * bi))
                .sum();
            for u in t + 1..m {
                v -= r[j][kept[u]] * c[u];
            }
            c[t] = v / r[j][j];
        }
        if m == 0 || c[..m].iter().any(|v| !v.is_finite()) {
            return Some(last.x.clone());
        }
        let mut x0 = vec![0.0; n];
        for (&j, &cj) in kept[..m].iter().zip(&c) {
            axpy(cj, &self.history[j].x, &mut x0);
        }
        Some(x0)
    }

    /// Forgets the solution history (and with it the warm-start guesses).
    ///
    /// After a reset the next probe starts from the caller's guess exactly
    /// like a freshly built cache would. The symbolic structure, the
    /// numeric values, the row weights and `refreshed_p` are kept: they
    /// are pure functions of the assembly and the probed pressure, so
    /// reusing them is value-identical to rebuilding — only the *iterate
    /// history* can make a reused cache diverge from a fresh one.
    fn reset_history(&mut self) {
        self.history.clear();
    }

    /// Records a converged solution at `p` as the newest history entry,
    /// replacing an entry recorded at the same pressure or, with a full
    /// history, the oldest one (reusing its buffers).
    fn record(&mut self, p: f64, x: &[f64]) {
        let same = self
            .history
            .iter()
            .position(|e| (e.p - p).abs() <= 1e-12 * p.abs());
        let mut entry = match same {
            Some(i) => self.history.remove(i),
            None if self.history.len() == HISTORY => self.history.remove(0),
            None => Recorded {
                p,
                x: Vec::with_capacity(x.len()),
                cond_x: vec![0.0; x.len()],
                adv_x: vec![0.0; x.len()],
            },
        };
        entry.p = p;
        entry.x.clear();
        entry.x.extend_from_slice(x);
        self.system
            .images(&entry.x, &mut entry.cond_x, &mut entry.adv_x);
        self.history.push(entry);
    }
}

/// Interior-mutable holder for the lazily built [`ProbeCache`].
///
/// Cloning an [`Assembled`] resets the cache: it is derived state that the
/// clone rebuilds on its first probe, which keeps `Clone` cheap and avoids
/// sharing mutable solver state across threads.
#[derive(Debug, Default)]
pub(crate) struct ProbeCacheCell(Mutex<Option<ProbeCache>>);

impl Clone for ProbeCacheCell {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Assembled {
    /// Drops the probe cache's warm-start solution history, restoring the
    /// state a freshly built cache starts from (used by evaluator reuse to
    /// keep repeated evaluations bitwise-identical to fresh ones).
    pub(crate) fn reset_probe_history(&self) {
        let mut guard = coolnet_obs::sync::lock_recover(&self.cache.0);
        if let Some(cache) = guard.as_mut() {
            cache.reset_history();
        }
    }

    /// The RHS at pressure `p`: die power plus the inlet advection source.
    fn rhs_at(&self, p: f64, t_inlet: f64) -> Vec<f64> {
        self.rhs_source
            .iter()
            .zip(&self.rhs_inlet_unit)
            .map(|(&q, &g_in)| q + g_in * p * t_inlet)
            .collect()
    }

    /// Builds the full system matrix and RHS at the given pressure.
    ///
    /// This is the cold (reference) assembly path; the probe loop goes
    /// through the [`ProbeCache`] numeric phase instead.
    pub fn system(&self, p_sys: Pascal, t_inlet: f64) -> (CsrMatrix, Vec<f64>) {
        let p = p_sys.value();
        let mut b =
            TripletBuilder::with_capacity(self.n, self.n, self.cond.len() + self.adv_unit.len());
        for &(r, c, v) in &self.cond {
            b.add(r as usize, c as usize, v);
        }
        for &(r, c, v) in &self.adv_unit {
            b.add(r as usize, c as usize, v * p);
        }
        (b.to_csr(), self.rhs_at(p, t_inlet))
    }

    /// Rejects a non-positive `p_sys` (no flow, singular system) and
    /// counts the steady solve.
    fn check_pressure(p_sys: Pascal) -> Result<(), ThermalError> {
        if p_sys.value() <= 0.0 {
            return Err(ThermalError::ZeroFlow);
        }
        M_STEADY_SOLVES.inc();
        Ok(())
    }

    /// The caller's guess, or a uniform `T_in` field without one.
    fn caller_iterate(&self, config: &ThermalConfig, guess: Option<&[f64]>) -> Vec<f64> {
        match guess {
            Some(g) => g.to_vec(),
            None => vec![config.t_inlet.value(); self.n],
        }
    }

    /// Solver options of a steady solve from `initial`: the config's
    /// tolerance and a generous iteration cap.
    fn steady_options(&self, config: &ThermalConfig, initial: Vec<f64>) -> SolverOptions {
        let mut options = SolverOptions::with_tolerance(config.tolerance);
        options.initial_guess = Some(initial);
        options.max_iterations = (8 * self.n).max(400);
        options
    }

    /// Solves the steady-state system at `p_sys` through the cached
    /// symbolic state ([`ProbeCache`]): per probe only the matrix values
    /// are rewritten and the numeric ILU(0) sweep re-run, and the Krylov
    /// solve starts from the projection onto the recorded solutions.
    pub fn steady(
        &self,
        p_sys: Pascal,
        config: &ThermalConfig,
        guess: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        Self::check_pressure(p_sys)?;
        // Lock poisoning only happens if a panic escaped mid-refresh, which
        // may have left a partially refreshed cache behind: drop the cached
        // state (forcing a fresh build) and clear the flag so later calls
        // warm-start normally again.
        let poisoned = self.cache.0.is_poisoned();
        let mut guard = coolnet_obs::sync::lock_recover(&self.cache.0);
        if poisoned {
            *guard = None;
            self.cache.0.clear_poison();
        }
        let cache = guard.get_or_insert_with(|| ProbeCache::build(self));
        cache.refresh(p_sys.value());
        let rhs = self.rhs_at(p_sys.value(), config.t_inlet.value());
        // The cache's solution history overrides the caller's guess: the
        // projection is never farther (in residual) than its last solution.
        let initial = cache
            .guess(p_sys.value(), &rhs)
            .unwrap_or_else(|| self.caller_iterate(config, guess));
        let options = self.steady_options(config, initial);
        // BiCGSTAB with the cached ILU(0); the direct step only runs when
        // it fails.
        let solution = resilience::solve(
            Krylov::Bicgstab,
            &cache.system.matrix,
            &rhs,
            &cache.ilu,
            &options,
        )?;
        cache.record(p_sys.value(), &solution.solution);
        Ok(self.extract(solution.solution, solution.stats))
    }

    /// Solves the steady-state system at `p_sys` from scratch: full
    /// assembly ([`system`](Self::system)), a fresh ILU(0) factorization
    /// and a two-step solve from the caller's guess, with no cache read or
    /// written. This is the reference [`steady`](Self::steady) is checked
    /// against.
    pub fn steady_reference(
        &self,
        p_sys: Pascal,
        config: &ThermalConfig,
        guess: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        Self::check_pressure(p_sys)?;
        let options = self.steady_options(config, self.caller_iterate(config, guess));
        let (matrix, rhs) = self.system(p_sys, config.t_inlet.value());
        let precond = Ilu0::new(&matrix);
        let solution = resilience::solve(Krylov::Bicgstab, &matrix, &rhs, &precond, &options)?;
        Ok(self.extract(solution.solution, solution.stats))
    }

    /// Packages raw node temperatures into a [`ThermalSolution`].
    pub fn extract(&self, temps: Vec<f64>, stats: coolnet_sparse::SolveStats) -> ThermalSolution {
        let layers = self
            .source_meta
            .iter()
            .map(|m| {
                let values = m.nodes.iter().map(|&i| temps[i]).collect();
                SourceLayerTemps::new(m.layer_index, m.dims, m.resolution, values)
            })
            .collect();
        ThermalSolution::new(layers, temps, stats)
    }

    /// Adds the advection coupling for a face carrying flow `q_unit` (at
    /// `P_sys = 1`) from node `up` into node `down` of the energy balance.
    ///
    /// For the balance row of node `i` written as `A·T = b`, the net
    /// advected energy into `i` from a neighboring liquid node `j` carrying
    /// `Q_ji` is `C_v · Q_ji · T*` with `T* = (T_i + T_j)/2` (central,
    /// Eq. (6)) or the upwind temperature. This helper adds both rows of
    /// one face at once; `q_unit` is the *signed* flow from `i` to `j`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_advection_face(
        &mut self,
        i: usize,
        j: usize,
        q_unit: f64,
        cv: f64,
        scheme: AdvectionScheme,
    ) {
        // Flow from j into i is -q_unit; into j is +q_unit.
        match scheme {
            AdvectionScheme::Central => {
                // Row i: -(Cv·Q_ji/2)·(T_i + T_j), Q_ji = -q_unit.
                let half = cv * q_unit / 2.0;
                self.adv_unit.push((i as u32, i as u32, half));
                self.adv_unit.push((i as u32, j as u32, half));
                // Row j: Q_ij = +q_unit.
                self.adv_unit.push((j as u32, j as u32, -half));
                self.adv_unit.push((j as u32, i as u32, -half));
            }
            AdvectionScheme::Upwind => {
                // Energy into i: Cv·Q_ji·T_up where T_up = T_j if Q_ji > 0
                // (flow j→i), else T_i. Row coefficients are -Cv·Q_ji on the
                // upwind unknown. Flow sign is fixed at assembly time from
                // the unit solution; the field direction does not change
                // with P_sys (linearity), so this is exact for all P_sys.
                let c = cv * q_unit;
                if q_unit > 0.0 {
                    // i → j: into j from i carries T_i; out of i carries T_i.
                    self.adv_unit.push((i as u32, i as u32, c));
                    self.adv_unit.push((j as u32, i as u32, -c));
                } else {
                    // j → i: into i carries T_j.
                    self.adv_unit.push((i as u32, j as u32, c));
                    self.adv_unit.push((j as u32, j as u32, -c));
                }
            }
        }
    }

    /// Adds the inlet/outlet advection terms of a node: `q_in_unit` enters
    /// at `T_in` (RHS) and `q_out_unit` leaves at the node temperature
    /// (diagonal).
    pub fn add_port_advection(&mut self, i: usize, q_in_unit: f64, q_out_unit: f64, cv: f64) {
        if q_in_unit != 0.0 {
            self.rhs_inlet_unit[i] += cv * q_in_unit;
            // Mass entering also leaves through cell faces or the outlet;
            // the inlet face itself carries no T_i term.
        }
        if q_out_unit != 0.0 {
            self.adv_unit.push((i as u32, i as u32, cv * q_out_unit));
        }
    }

    /// Adds a symmetric conductance between two nodes.
    pub fn add_conductance(&mut self, i: usize, j: usize, g: f64) {
        if g <= 0.0 {
            return;
        }
        self.cond.push((i as u32, i as u32, g));
        self.cond.push((j as u32, j as u32, g));
        self.cond.push((i as u32, j as u32, -g));
        self.cond.push((j as u32, i as u32, -g));
    }
}

/// Series combination of two half-path conductances (Eqs. (5) and (7)):
/// `g = g_a·g_b / (g_a + g_b)`, zero if either vanishes.
pub(crate) fn series(g_a: f64, g_b: f64) -> f64 {
    if g_a <= 0.0 || g_b <= 0.0 {
        0.0
    } else {
        g_a * g_b / (g_a + g_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(n: usize) -> Assembled {
        Assembled {
            n,
            cond: Vec::new(),
            adv_unit: Vec::new(),
            rhs_source: vec![0.0; n],
            rhs_inlet_unit: vec![0.0; n],
            capacitance: vec![1.0; n],
            source_meta: vec![SourceLayerMeta {
                layer_index: 0,
                dims: GridDims::new(n as u16, 1),
                resolution: Resolution::Fine,
                nodes: (0..n).collect(),
            }],
            cache: ProbeCacheCell::default(),
        }
    }

    #[test]
    fn series_combination() {
        assert_eq!(series(2.0, 2.0), 1.0);
        assert_eq!(series(0.0, 5.0), 0.0);
        assert_eq!(series(5.0, 0.0), 0.0);
    }

    #[test]
    fn central_advection_row_sums_preserve_energy() {
        // One face between nodes 0 and 1 carrying q: column sums of the
        // advection operator must vanish for interior faces (what enters j
        // left i).
        let mut a = empty(2);
        a.add_advection_face(0, 1, 3.0, 2.0, AdvectionScheme::Central);
        let mut col_sums = [0.0f64; 2];
        for &(_, c, v) in &a.adv_unit {
            col_sums[c as usize] += v;
        }
        assert!(col_sums.iter().all(|s| s.abs() < 1e-12), "{col_sums:?}");
    }

    #[test]
    fn upwind_advection_is_conservative_too() {
        let mut a = empty(2);
        a.add_advection_face(0, 1, -1.5, 4.0, AdvectionScheme::Upwind);
        let mut col_sums = [0.0f64; 2];
        for &(_, c, v) in &a.adv_unit {
            col_sums[c as usize] += v;
        }
        assert!(col_sums.iter().all(|s| s.abs() < 1e-12));
    }

    #[test]
    fn pure_advection_chain_transports_inlet_temperature() {
        // Inlet -> node0 -> node1 -> outlet at flow q: with no conduction
        // and central differencing, both nodes sit at T_in in steady state.
        let mut a = empty(2);
        let (cv, q) = (4e6, 1e-9);
        a.add_port_advection(0, q, 0.0, cv);
        a.add_advection_face(0, 1, q, cv, AdvectionScheme::Central);
        a.add_port_advection(1, 0.0, q, cv);
        let sol = a
            .steady(Pascal::new(1.0), &ThermalConfig::default(), None)
            .unwrap();
        for &t in sol.all_temperatures() {
            assert!((t - 300.0).abs() < 1e-6, "t = {t}");
        }
    }

    #[test]
    fn heated_advection_chain_rises_by_q_over_cvq() {
        // Node 0 receives power P; outlet temperature rise = P / (Cv·Q).
        let mut a = empty(2);
        let (cv, q) = (4e6, 1e-9);
        a.add_port_advection(0, q, 0.0, cv);
        a.add_advection_face(0, 1, q, cv, AdvectionScheme::Upwind);
        a.add_port_advection(1, 0.0, q, cv);
        a.rhs_source[0] = 0.01; // 10 mW
        let sol = a
            .steady(Pascal::new(1.0), &ThermalConfig::default(), None)
            .unwrap();
        let rise = 0.01 / (cv * q);
        let t = sol.all_temperatures();
        assert!((t[1] - (300.0 + rise)).abs() / rise < 1e-6, "t = {t:?}");
    }

    #[test]
    fn zero_pressure_is_rejected() {
        let a = empty(2);
        assert!(matches!(
            a.steady(Pascal::new(0.0), &ThermalConfig::default(), None),
            Err(ThermalError::ZeroFlow)
        ));
    }

    /// A 9×9 single-die 4RM stack with straight channels on even rows.
    fn four_rm_9x9() -> crate::Simulator {
        crate::Simulator::new(
            &stack_9x9(1),
            crate::ModelChoice::FourRm,
            &ThermalConfig::default(),
        )
        .unwrap()
    }

    /// A 9×9 interlayer stack of `dies` uniformly powered dies, with
    /// straight channels on the even rows shared by every channel layer.
    fn stack_9x9(dies: usize) -> crate::Stack {
        use coolnet_grid::{Cell, Dir, Side};
        use coolnet_network::{CoolingNetwork, PortKind};
        let dims = GridDims::new(9, 9);
        let mut b = CoolingNetwork::builder(dims);
        for y in (0..9).step_by(2) {
            b.segment(Cell::new(0, y), Dir::East, 9);
        }
        b.port(PortKind::Inlet, Side::West, 0, 8);
        b.port(PortKind::Outlet, Side::East, 0, 8);
        let maps = vec![crate::PowerMap::uniform(dims, 3.0); dies];
        crate::Stack::interlayer(dims, 100e-6, maps, &[b.build().unwrap()], 200e-6).unwrap()
    }

    /// The two-die stack's systems under 4RM and 2RM (m = 3).
    fn two_die_systems() -> Vec<crate::Simulator> {
        let stack = stack_9x9(2);
        [
            crate::ModelChoice::FourRm,
            crate::ModelChoice::TwoRm { m: 3 },
        ]
        .into_iter()
        .map(|model| crate::Simulator::new(&stack, model, &ThermalConfig::default()).unwrap())
        .collect()
    }

    /// The split `SplitSystem::new` used to build: the union pattern from
    /// all-positive placeholders through `from_triplets`, then one binary
    /// search per coupling. The reference the counting pass must match.
    fn split_by_lookup(asm: &Assembled) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let mut b =
            TripletBuilder::with_capacity(asm.n, asm.n, asm.cond.len() + asm.adv_unit.len());
        for &(r, c, _) in asm.cond.iter().chain(&asm.adv_unit) {
            b.add(r as usize, c as usize, 1.0);
        }
        let matrix = b.to_csr();
        let nnz = matrix.nnz();
        let mut base_values = vec![0.0; nnz];
        let mut adv_values = vec![0.0; nnz];
        for &(r, c, v) in &asm.cond {
            if let Some(s) = matrix.slot(r as usize, c as usize) {
                base_values[s] += v;
            }
        }
        for &(r, c, v) in &asm.adv_unit {
            if let Some(s) = matrix.slot(r as usize, c as usize) {
                adv_values[s] += v;
            }
        }
        (matrix, base_values, adv_values)
    }

    #[test]
    fn split_system_matches_lookup_split_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let single = four_rm_9x9();
        let sims = two_die_systems();
        for sim in sims.iter().chain([&single]) {
            let asm = &sim.assembled;
            let split = SplitSystem::new(asm);
            let (matrix, base, adv) = split_by_lookup(asm);
            assert_eq!(split.matrix.row_ptr(), matrix.row_ptr());
            assert_eq!(split.matrix.col_indices(), matrix.col_indices());
            assert_eq!(bits(&split.base_values), bits(&base));
            assert_eq!(bits(&split.adv_values), bits(&adv));
        }
    }

    #[test]
    fn two_die_patterns_match_the_sparse_fixture() {
        // coolnet-sparse's ILU(0) tests factor these patterns; keep them
        // in step with what the stack assembles.
        let fixture = include_str!("../../sparse/tests/data/two_die_9x9_patterns.txt");
        let mut want = String::new();
        for (name, sim) in ["4rm", "2rm"].iter().zip(two_die_systems()) {
            let m = SplitSystem::new(&sim.assembled).matrix;
            want += &format!("matrix {name} {}\n", m.rows());
            for r in 0..m.rows() {
                let cols: Vec<String> = m.row(r).0.iter().map(|c| c.to_string()).collect();
                want += &cols.join(" ");
                want += "\n";
            }
        }
        let got: String = fixture
            .lines()
            .filter(|l| !l.starts_with('#'))
            .flat_map(|l| [l, "\n"])
            .collect();
        assert_eq!(got, want);
    }

    /// Probes `asm` through its cache at each pressure in turn.
    fn probe_all(asm: &Assembled, ps: &[f64]) -> Vec<ThermalSolution> {
        let config = ThermalConfig::default();
        ps.iter()
            .map(|&p| asm.steady(Pascal::new(p), &config, None).unwrap())
            .collect()
    }

    /// The Jacobi-scaled residual `‖D⁻¹·(b − A(p)·x)‖₂` on a freshly
    /// assembled system, the norm the projection minimizes.
    fn true_residual(asm: &Assembled, p: f64, x: &[f64]) -> f64 {
        let t_in = ThermalConfig::default().t_inlet.value();
        let (a, b) = asm.system(Pascal::new(p), t_in);
        let ax = a.mul_vec(x);
        let scaled: Vec<f64> = (0..asm.n)
            .map(|i| (b[i] - ax[i]) / a.get(i, i).abs())
            .collect();
        norm2(&scaled)
    }

    #[test]
    fn projected_guess_beats_extrapolation_and_last_solution() {
        let sim = four_rm_9x9();
        let asm = &sim.assembled;
        let ps = [2000.0, 3000.0, 4000.0];
        let sols = probe_all(asm, &ps);
        let (x1, x2) = (sols[1].all_temperatures(), sols[2].all_temperatures());
        let t_in = ThermalConfig::default().t_inlet.value();
        // Inside and far outside the old `|t| ≤ 4` extrapolation guard.
        for p in [4500.0, 2500.0, 500.0, 30_000.0] {
            let b = asm.rhs_at(p, t_in);
            let projected = {
                let mut guard = asm.cache.0.lock().unwrap();
                let cache = guard.as_mut().unwrap();
                cache.refresh(p);
                cache.guess(p, &b).unwrap()
            };
            let t = (p - ps[2]) / (ps[2] - ps[1]);
            let linear: Vec<f64> = x2.iter().zip(x1).map(|(&a, &b)| a + t * (a - b)).collect();
            let r_proj = true_residual(asm, p, &projected);
            let r_lin = true_residual(asm, p, &linear);
            let r_last = true_residual(asm, p, x2);
            assert!(
                r_proj <= r_lin && r_proj <= r_last,
                "p = {p}: projected {r_proj:e}, linear {r_lin:e}, last {r_last:e}"
            );
        }
    }

    #[test]
    fn reprobe_at_a_recorded_pressure_converges_at_once() {
        let sim = four_rm_9x9();
        let asm = &sim.assembled;
        let sols = probe_all(asm, &[2000.0, 3000.0, 4000.0, 3000.0]);
        assert!(sols[2].stats().iterations > 1, "{:?}", sols[2].stats());
        assert!(sols[3].stats().iterations <= 1, "{:?}", sols[3].stats());
        // The re-probe replaced its entry instead of taking a second slot.
        let guard = asm.cache.0.lock().unwrap();
        let ps: Vec<f64> = guard
            .as_ref()
            .unwrap()
            .history
            .iter()
            .map(|e| e.p)
            .collect();
        assert_eq!(ps, [2000.0, 4000.0, 3000.0]);
    }

    #[test]
    fn reset_history_replays_a_fresh_cache_bit_for_bit() {
        let used = four_rm_9x9();
        probe_all(&used.assembled, &[2000.0, 3000.0, 4000.0, 5000.0, 6000.0]);
        used.assembled.reset_probe_history();
        let fresh = four_rm_9x9();
        let a = probe_all(&used.assembled, &[4500.0, 3500.0]);
        let b = probe_all(&fresh.assembled, &[4500.0, 3500.0]);
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(a.stats(), b.stats());
            let bits = |s: &ThermalSolution| -> Vec<u64> {
                s.all_temperatures().iter().map(|t| t.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn conduction_diffuses_between_nodes() {
        // Two nodes coupled by conduction, node 0 pinned by strong flow at
        // T_in, node 1 heated: T_1 = T_0 + P/g.
        let mut a = empty(2);
        a.add_port_advection(0, 1e-6, 1e-6, 4e6); // strong flushing flow
        a.add_conductance(0, 1, 0.5);
        a.rhs_source[1] = 1.0;
        let sol = a
            .steady(Pascal::new(1.0), &ThermalConfig::default(), None)
            .unwrap();
        let t = sol.all_temperatures();
        assert!((t[1] - t[0] - 2.0).abs() < 1e-3, "t = {t:?}");
    }
}
