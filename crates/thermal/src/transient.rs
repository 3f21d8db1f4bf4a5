//! Transient thermal analysis (backward Euler), the §2.3 extension.
//!
//! Both compact models expose the same algebraic structure
//! `A(P_sys)·T = b`, so the transient extension is shared: with nodal heat
//! capacities `C`, backward Euler solves
//! `(C/Δt + A)·T^{k+1} = (C/Δt)·T^k + b` each step — unconditionally
//! stable, so large steps are safe.
//!
//! One [`Transient`] serves a whole run. `A(P_sys)` has a pattern that
//! does not depend on the pressure, so the integrator computes the union
//! pattern and the ILU(0) symbolic structure once, and a pressure change
//! ([`Transient::set_pressure`]) only rewrites values and refactors.

use crate::assembly::{Assembled, SplitSystem};
use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::power::PowerMap;
use crate::solution::{Resolution, ThermalSolution};
use coolnet_sparse::precond::Ilu0;
use coolnet_sparse::resilience::{self, Krylov};
use coolnet_sparse::{SolveStats, SolverOptions};
use coolnet_units::{Kelvin, Pascal};

/// A transient integrator over one of the compact models.
///
/// # Examples
///
/// See `examples/transient_power_step.rs` for a die-power step response.
#[derive(Debug)]
pub struct Transient<'a> {
    assembled: &'a Assembled,
    config: ThermalConfig,
    /// `A(p)` on its fixed pattern; the matrix holds `C/dt + A(p_sys)`.
    system: SplitSystem,
    /// Stored slot of each row's diagonal, where `C/dt` is added.
    diag_slots: Vec<usize>,
    precond: Ilu0,
    /// Die-power part of the RHS (unscaled).
    rhs_power: Vec<f64>,
    /// Inlet-advection part of the RHS (fixed for a given pressure and
    /// inlet temperature).
    rhs_inlet: Vec<f64>,
    /// System pressure the operator is at (the advection part bakes it
    /// in).
    p_sys: f64,
    /// Current coolant inlet temperature in kelvin.
    t_inlet: f64,
    /// Run-time multiplier on the die power (DVFS modeling).
    power_scale: f64,
    cap_over_dt: Vec<f64>,
    /// The field at the current time level `Tᵏ`.
    temps: Vec<f64>,
    /// The two earlier time levels `Tᵏ⁻¹` and `Tᵏ⁻²`, valid as far as
    /// `levels` says; they only seed the initial iterate of a step.
    prev: [Vec<f64>; 2],
    /// Stored time levels, counting `temps` (1 to 3).
    levels: usize,
    dt: f64,
    time: f64,
    last_stats: SolveStats,
}

impl<'a> Transient<'a> {
    /// Builds the integrator over `assembled` (see
    /// [`Simulator::transient`](crate::Simulator::transient)).
    pub(crate) fn new(
        assembled: &'a Assembled,
        config: ThermalConfig,
        p_sys: Pascal,
        dt: f64,
        initial: Option<&ThermalSolution>,
    ) -> Result<Self, ThermalError> {
        if p_sys.value() <= 0.0 || dt <= 0.0 {
            return Err(ThermalError::ZeroFlow);
        }
        let system = SplitSystem::new(assembled);
        let diag_slots = (0..assembled.n)
            .map(|i| {
                system
                    .matrix
                    .slot(i, i)
                    .ok_or_else(|| ThermalError::BadStack {
                        reason: format!("thermal system row {i} has no diagonal entry"),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let precond = Ilu0::symbolic(&system.matrix);
        let n = assembled.n;
        let temps = match initial {
            Some(sol) => sol.all_temperatures().to_vec(),
            None => vec![config.t_inlet.value(); n],
        };
        let t_inlet = config.t_inlet.value();
        let mut tr = Self {
            assembled,
            config,
            system,
            diag_slots,
            precond,
            rhs_power: assembled.rhs_source.clone(),
            rhs_inlet: vec![0.0; n],
            p_sys: p_sys.value(),
            t_inlet,
            power_scale: 1.0,
            cap_over_dt: assembled.capacitance.iter().map(|c| c / dt).collect(),
            temps,
            prev: [Vec::new(), Vec::new()],
            levels: 1,
            dt,
            time: 0.0,
            last_stats: SolveStats::default(),
        };
        tr.set_pressure(p_sys)?;
        Ok(tr)
    }

    /// Moves the operator to system pressure `p_sys` from the next step
    /// on — the pump-control hook. The matrix values are rewritten as
    /// `C/dt + A(p_sys)` on the cached pattern, the ILU(0) factor is
    /// refactored on its cached structure and the inlet part of the RHS is
    /// rescaled. The field, its time-level history, the power map, the
    /// power scale and the inlet temperature are kept.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::ZeroFlow`] for a non-positive or non-finite
    /// pressure; the integrator is then unchanged.
    pub fn set_pressure(&mut self, p_sys: Pascal) -> Result<(), ThermalError> {
        let p = p_sys.value();
        if !(p.is_finite() && p > 0.0) {
            return Err(ThermalError::ZeroFlow);
        }
        self.system.write(p);
        let values = self.system.matrix.values_mut();
        for (&slot, &c) in self.diag_slots.iter().zip(&self.cap_over_dt) {
            values[slot] += c;
        }
        self.precond.refactor(&self.system.matrix);
        self.p_sys = p;
        self.set_inlet_temperature(Kelvin::new(self.t_inlet));
        Ok(())
    }

    /// The system pressure the operator is at.
    pub fn pressure(&self) -> Pascal {
        Pascal::new(self.p_sys)
    }

    /// Scales the die power by `scale` from the next step on — the DVFS
    /// hook of the paper's future-work section ("combining cooling networks
    /// with run-time thermal management ... to handle dynamic die power").
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or non-finite.
    pub fn set_power_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "power scale must be finite and non-negative"
        );
        self.power_scale = scale;
    }

    /// The current die-power multiplier.
    pub fn power_scale(&self) -> f64 {
        self.power_scale
    }

    /// Replaces the power map of source layer `source_layer` (0-based among
    /// the stack's source layers) from the next step on — the spatial
    /// companion of [`set_power_scale`](Self::set_power_scale), for hotspot
    /// migration and per-block sleep/boost scenarios. Only the RHS is
    /// refreshed; the system matrix is untouched, so this is O(cells).
    ///
    /// For a coarse (2RM) layer the map is aggregated per coarse thermal
    /// cell, exactly as at assembly time. The global
    /// [`power_scale`](Self::power_scale) still multiplies the new map.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadStack`] if `source_layer` is out of range
    /// or `map` has the wrong grid dimensions.
    pub fn set_power_map(
        &mut self,
        source_layer: usize,
        map: &PowerMap,
    ) -> Result<(), ThermalError> {
        let meta = self
            .assembled
            .source_meta
            .get(source_layer)
            .ok_or_else(|| ThermalError::BadStack {
                reason: format!(
                    "source layer {source_layer} out of range (stack has {})",
                    self.assembled.source_meta.len()
                ),
            })?;
        if map.dims() != meta.dims {
            return Err(ThermalError::BadStack {
                reason: format!(
                    "power map is {:?} but source layer {source_layer} is {:?}",
                    map.dims(),
                    meta.dims
                ),
            });
        }
        match meta.resolution {
            Resolution::Fine => {
                for (k, &w) in map.values().iter().enumerate() {
                    self.rhs_power[meta.nodes[k]] = w;
                }
            }
            Resolution::Coarse(c) => {
                let cw = c.coarse_width() as usize;
                for (cx, cy) in c.iter() {
                    let e = c.extent(cx, cy);
                    let cc = cy as usize * cw + cx as usize;
                    self.rhs_power[meta.nodes[cc]] = map.block_total(e.x0, e.y0, e.x1, e.y1);
                }
            }
        }
        Ok(())
    }

    /// Changes the coolant inlet temperature from the next step on —
    /// models supply-loop excursions (chiller setpoint drift, warm-water
    /// cooling episodes). Only the inlet part of the RHS depends on
    /// `T_in`, so this is a cheap refresh; the operator is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `t_inlet` is non-finite or non-positive.
    pub fn set_inlet_temperature(&mut self, t_inlet: Kelvin) {
        let t = t_inlet.value();
        assert!(
            t.is_finite() && t > 0.0,
            "inlet temperature must be finite and positive"
        );
        self.t_inlet = t;
        for (dst, &g) in self
            .rhs_inlet
            .iter_mut()
            .zip(&self.assembled.rhs_inlet_unit)
        {
            *dst = g * self.p_sys * t;
        }
    }

    /// The current coolant inlet temperature.
    pub fn inlet_temperature(&self) -> Kelvin {
        Kelvin::new(self.t_inlet)
    }

    /// Simulated time elapsed in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The fixed time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advances one backward-Euler step.
    ///
    /// BiCGSTAB starts from the field extrapolated in time through the
    /// last three time levels, `3Tᵏ − 3Tᵏ⁻¹ + Tᵏ⁻²` (linear, then `Tᵏ`,
    /// while fewer are stored), so a smooth trajectory costs fewer
    /// iterations than a start from `Tᵏ`; the converged field does not
    /// depend on the start beyond the solver tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Solver`] if both steps of the solve fail.
    pub fn step(&mut self) -> Result<(), ThermalError> {
        let rhs: Vec<f64> = self
            .rhs_power
            .iter()
            .zip(&self.rhs_inlet)
            .zip(self.cap_over_dt.iter().zip(&self.temps))
            .map(|((&q, &inlet), (&c, &t))| q * self.power_scale + inlet + c * t)
            .collect();
        let [prev1, prev2] = &self.prev;
        let history = [&self.temps[..], &prev1[..], &prev2[..]];
        let mut options = SolverOptions::with_tolerance(self.config.tolerance);
        options.initial_guess = Some(extrapolate(&history[..self.levels]));
        let sol = resilience::solve(
            Krylov::Bicgstab,
            &self.system.matrix,
            &rhs,
            &self.precond,
            &options,
        )?;
        // Shift the time levels: Tᵏ⁻¹ becomes Tᵏ⁻², Tᵏ becomes Tᵏ⁻¹.
        let [prev1, prev2] = &mut self.prev;
        std::mem::swap(prev1, prev2);
        std::mem::swap(prev1, &mut self.temps);
        self.temps = sol.solution;
        self.levels = (self.levels + 1).min(3);
        self.last_stats = sol.stats;
        self.time += self.dt;
        Ok(())
    }

    /// Advances `steps` steps.
    ///
    /// # Errors
    ///
    /// Returns the first step error.
    pub fn run(&mut self, steps: usize) -> Result<(), ThermalError> {
        for _ in 0..steps {
            self.step()?;
        }
        Ok(())
    }

    /// A snapshot of the current temperature field.
    pub fn snapshot(&self) -> ThermalSolution {
        self.assembled.extract(self.temps.clone(), self.last_stats)
    }
}

/// The field at the next time level extrapolated from the latest ones,
/// `history = [Tᵏ, Tᵏ⁻¹, Tᵏ⁻²]` (newest first, one to three levels):
/// quadratic `3Tᵏ − 3Tᵏ⁻¹ + Tᵏ⁻²` with three, linear `2Tᵏ − Tᵏ⁻¹` with
/// two, `Tᵏ` itself with one. Exact for fields polynomial in time up to
/// that degree. The differences are formed first, so the rounding error
/// scales with the change between levels, not with the temperatures.
fn extrapolate(history: &[&[f64]]) -> Vec<f64> {
    match *history {
        [t0, t1, t2] => t0
            .iter()
            .zip(t1)
            .zip(t2)
            .map(|((&a, &b), &c)| c + 3.0 * (a - b))
            .collect(),
        [t0, t1] => t0.iter().zip(t1).map(|(&a, &b)| a + (a - b)).collect(),
        [t0, ..] => t0.to_vec(),
        [] => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerMap;
    use crate::simulator::{ModelChoice, Simulator};
    use crate::stack::Stack;
    use coolnet_grid::{Cell, Dir, GridDims, Side};
    use coolnet_network::{CoolingNetwork, PortKind};

    fn channels(dims: GridDims) -> CoolingNetwork {
        let mut b = CoolingNetwork::builder(dims);
        let mut y = 0;
        while y < dims.height() {
            b.segment(Cell::new(0, y), Dir::East, dims.width());
            y += 2;
        }
        b.port(PortKind::Inlet, Side::West, 0, dims.height() - 1);
        b.port(PortKind::Outlet, Side::East, 0, dims.height() - 1);
        b.build().unwrap()
    }

    fn stack_with_map(dims: GridDims, map: PowerMap) -> Stack {
        Stack::interlayer(dims, 100e-6, vec![map], &[channels(dims)], 200e-6).unwrap()
    }

    fn stack(dims: GridDims, watts: f64) -> Stack {
        stack_with_map(dims, PowerMap::uniform(dims, watts))
    }

    #[test]
    fn converges_to_steady_state() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let steady = sim.simulate(p).unwrap();
        let mut tr = sim.transient(p, 5e-3, None).unwrap();
        tr.run(400).unwrap();
        let final_t = tr.snapshot().max_temperature().value();
        let steady_t = steady.max_temperature().value();
        assert!(
            (final_t - steady_t).abs() < 0.05 * (steady_t - 300.0),
            "transient {final_t} vs steady {steady_t}"
        );
    }

    #[test]
    fn temperature_rises_monotonically_from_cold_start() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let sim =
            Simulator::new(&s, ModelChoice::TwoRm { m: 3 }, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        let mut last = 300.0;
        for _ in 0..10 {
            tr.step().unwrap();
            let t = tr.snapshot().max_temperature().value();
            assert!(t >= last - 1e-9, "t = {t}, last = {last}");
            last = t;
        }
        assert!(last > 300.0);
        assert!((tr.time() - 10e-3).abs() < 1e-12);
    }

    #[test]
    fn starting_from_steady_state_stays_there() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let steady = sim.simulate(p).unwrap();
        let mut tr = sim.transient(p, 1e-2, Some(&steady)).unwrap();
        tr.run(3).unwrap();
        let t = tr.snapshot().max_temperature().value();
        assert!((t - steady.max_temperature().value()).abs() < 1e-6);
    }

    #[test]
    fn power_scale_changes_the_steady_target() {
        // Halving the power mid-run must steer toward a halved rise.
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 4.0);
        let sim =
            Simulator::new(&s, ModelChoice::TwoRm { m: 3 }, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let steady_full = sim.simulate(p).unwrap().max_temperature().value();
        let mut tr = sim.transient(p, 5e-3, None).unwrap();
        tr.run(200).unwrap();
        let at_full = tr.snapshot().max_temperature().value();
        assert!((at_full - steady_full).abs() < 0.1 * (steady_full - 300.0));
        tr.set_power_scale(0.5);
        assert_eq!(tr.power_scale(), 0.5);
        tr.run(400).unwrap();
        let at_half = tr.snapshot().max_temperature().value();
        let expected = 300.0 + 0.5 * (steady_full - 300.0);
        assert!(
            (at_half - expected).abs() < 0.15 * (steady_full - 300.0),
            "at_half = {at_half}, expected ~{expected}"
        );
    }

    #[test]
    #[should_panic(expected = "power scale")]
    fn negative_power_scale_panics() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 1.0);
        let sim =
            Simulator::new(&s, ModelChoice::TwoRm { m: 3 }, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        tr.set_power_scale(-1.0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        assert!(sim.transient(Pascal::new(0.0), 1e-3, None).is_err());
        assert!(sim
            .transient(Pascal::from_kilopascals(1.0), 0.0, None)
            .is_err());
    }

    #[test]
    fn refreshed_integrator_matches_a_fresh_build() {
        // On single- and two-die stacks, for both models: an integrator
        // built at p1 and refreshed to p2 holds the pattern and the value
        // bits of one built at p2, and those values are C/dt + A(p2) of
        // the reference assembly up to the rounding of the slot split.
        let dims = GridDims::new(9, 9);
        let two_die = Stack::interlayer(
            dims,
            100e-6,
            vec![PowerMap::uniform(dims, 2.0), PowerMap::uniform(dims, 1.0)],
            &[channels(dims), channels(dims)],
            200e-6,
        )
        .unwrap();
        let config = ThermalConfig::default();
        let (p1, p2, dt) = (
            Pascal::from_kilopascals(5.0),
            Pascal::from_kilopascals(2.0),
            1e-3,
        );
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for s in [stack(dims, 3.0), two_die] {
            let four = Simulator::new(&s, ModelChoice::FourRm, &config).unwrap();
            let two = Simulator::new(&s, ModelChoice::TwoRm { m: 3 }, &config).unwrap();
            for (assembled, mut refreshed, mut fresh) in [
                (
                    &four.assembled,
                    four.transient(p1, dt, None).unwrap(),
                    four.transient(p2, dt, None).unwrap(),
                ),
                (
                    &two.assembled,
                    two.transient(p1, dt, None).unwrap(),
                    two.transient(p2, dt, None).unwrap(),
                ),
            ] {
                refreshed.set_pressure(p2).unwrap();
                let (m, f) = (&refreshed.system.matrix, &fresh.system.matrix);
                assert_eq!(m.row_ptr(), f.row_ptr());
                assert_eq!(m.col_indices(), f.col_indices());
                assert_eq!(bits(m.values()), bits(f.values()));
                assert_eq!(bits(&refreshed.rhs_inlet), bits(&fresh.rhs_inlet));

                let (a, _) = assembled.system(p2, config.t_inlet.value());
                for (r, c, v) in m.iter() {
                    let mut want = a.slot(r, c).map_or(0.0, |k| a.values()[k]);
                    if r == c {
                        want += assembled.capacitance[r] / dt;
                    }
                    assert!(
                        (v - want).abs() <= 1e-14 * want.abs(),
                        "({r}, {c}): {v} vs {want}"
                    );
                }
                // Every reference entry is on the shared pattern.
                assert!(a.iter().all(|(r, c, _)| m.slot(r, c).is_some()));

                // The refactored ILU(0) and the rescaled RHS give the same
                // step as the fresh build, bit for bit.
                refreshed.step().unwrap();
                fresh.step().unwrap();
                assert_eq!(
                    bits(refreshed.snapshot().all_temperatures()),
                    bits(fresh.snapshot().all_temperatures())
                );
            }
        }
    }

    #[test]
    fn pressure_refresh_continues_like_a_fresh_integrator() {
        // k steps at p1, a refresh to p2 and m more steps end where a fresh
        // integrator at p2, started from the field after the k steps, ends
        // after the same m steps: the refresh keeps the field, and the
        // carried time-level history only moves the Krylov start.
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        // Two solves of one system that start from different iterates
        // differ by the solver tolerance: at the default 1e-8 that alone
        // is 4e-6 K here, at 1e-10 it is about 1e-8 K.
        let config = ThermalConfig {
            tolerance: 1e-10,
            ..ThermalConfig::default()
        };
        let sim = Simulator::new(&s, ModelChoice::FourRm, &config).unwrap();
        let (p1, p2, dt) = (
            Pascal::from_kilopascals(5.0),
            Pascal::from_kilopascals(2.0),
            1e-3,
        );
        let (k, m) = (15, 20);
        let mut tr = sim.transient(p1, dt, None).unwrap();
        tr.run(k).unwrap();
        let at_switch = tr.snapshot();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                tr.set_pressure(Pascal::new(bad)),
                Err(ThermalError::ZeroFlow)
            ));
        }
        assert_eq!(tr.pressure(), p1);
        tr.set_pressure(p2).unwrap();
        assert_eq!(tr.pressure(), p2);
        tr.run(m).unwrap();
        let mut fresh = sim.transient(p2, dt, Some(&at_switch)).unwrap();
        fresh.run(m).unwrap();
        let (a, b) = (tr.snapshot(), fresh.snapshot());
        let worst = a
            .all_temperatures()
            .iter()
            .zip(b.all_temperatures())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(worst < 1e-6, "max |ΔT| = {worst} K");
        // The run really moved: the lower pressure heats the die.
        assert!(a.max_temperature().value() > at_switch.max_temperature().value());
    }

    #[test]
    fn extrapolation_is_exact_for_polynomials_in_time() {
        // Per node T(t) = a + b·t + c·t² at t = 0, 1, 2 (oldest first); the
        // guess for t = 3 must match to rounding with three levels, a
        // linear field with two, and a constant one with one.
        let coeffs: Vec<(f64, f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64;
                (300.0 + 0.37 * x, 0.05 * (x - 20.0), 1e-3 * (7.0 - 0.3 * x))
            })
            .collect();
        let field = |t: f64, degree: usize| -> Vec<f64> {
            coeffs
                .iter()
                .map(|&(a, b, c)| match degree {
                    0 => a,
                    1 => a + b * t,
                    _ => a + b * t + c * t * t,
                })
                .collect()
        };
        for degree in 0..3 {
            let levels: Vec<Vec<f64>> = (0..=degree)
                .map(|back| field((2 - back) as f64, degree))
                .collect();
            let history: Vec<&[f64]> = levels.iter().map(|v| &v[..]).collect();
            let guess = extrapolate(&history);
            for (g, want) in guess.iter().zip(field(3.0, degree)) {
                assert!(
                    (g - want).abs() <= 4.0 * f64::EPSILON * want.abs(),
                    "degree {degree}: {g} vs {want}"
                );
            }
        }
        // One level short of the degree, the guess is no longer exact.
        let quadratic = [field(2.0, 2), field(1.0, 2)];
        let history: Vec<&[f64]> = quadratic.iter().map(|v| &v[..]).collect();
        let worst = extrapolate(&history)
            .iter()
            .zip(field(3.0, 2))
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        assert!(worst > 1e-3, "{worst}");
    }

    #[test]
    fn missing_diagonal_is_a_bad_stack() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let config = ThermalConfig::default();
        let sim = Simulator::new(&s, ModelChoice::FourRm, &config).unwrap();
        let mut assembled = sim.assembled.clone();
        assembled.cond.retain(|&(r, c, _)| (r, c) != (0, 0));
        assembled.adv_unit.retain(|&(r, c, _)| (r, c) != (0, 0));
        let err = Transient::new(
            &assembled,
            config,
            Pascal::from_kilopascals(5.0),
            1e-3,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ThermalError::BadStack { .. }), "{err:?}");
    }

    #[test]
    fn power_map_swap_steers_to_the_new_steady_target() {
        let dims = GridDims::new(9, 9);
        let s_uniform = stack(dims, 3.0);
        let mut hotspot = PowerMap::uniform(dims, 1.5);
        hotspot.add_block(0, 0, 3, 3, 1.5);
        let s_hot = stack_with_map(dims, hotspot.clone());
        let p = Pascal::from_kilopascals(5.0);
        let cfg = ThermalConfig::default();
        let steady_hot = Simulator::new(&s_hot, ModelChoice::TwoRm { m: 3 }, &cfg)
            .unwrap()
            .simulate(p)
            .unwrap()
            .max_temperature()
            .value();

        // Start on the uniform map, swap to the hotspot map mid-run: the
        // transient must converge to the hotspot steady state (same
        // operator, RHS-only change).
        let sim = Simulator::new(&s_uniform, ModelChoice::TwoRm { m: 3 }, &cfg).unwrap();
        let mut tr = sim.transient(p, 5e-3, None).unwrap();
        tr.run(100).unwrap();
        tr.set_power_map(0, &hotspot).unwrap();
        tr.run(600).unwrap();
        let at_hot = tr.snapshot().max_temperature().value();
        assert!(
            (at_hot - steady_hot).abs() < 0.05 * (steady_hot - 300.0),
            "after swap {at_hot} vs hotspot steady {steady_hot}"
        );
    }

    #[test]
    fn power_map_validation_rejects_bad_inputs() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let sim =
            Simulator::new(&s, ModelChoice::TwoRm { m: 3 }, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        let wrong_dims = PowerMap::uniform(GridDims::new(5, 5), 1.0);
        assert!(matches!(
            tr.set_power_map(0, &wrong_dims),
            Err(ThermalError::BadStack { .. })
        ));
        let ok_map = PowerMap::uniform(dims, 1.0);
        assert!(matches!(
            tr.set_power_map(7, &ok_map),
            Err(ThermalError::BadStack { .. })
        ));
        tr.set_power_map(0, &ok_map).unwrap();
    }

    #[test]
    fn inlet_excursion_shifts_the_steady_field_uniformly() {
        // With adiabatic boundaries the coolant is the only heat sink, so
        // raising T_in by δ shifts the steady field by exactly δ.
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let steady = sim.simulate(p).unwrap();
        let base = steady.max_temperature().value();
        let mut tr = sim.transient(p, 1e-2, Some(&steady)).unwrap();
        tr.set_inlet_temperature(Kelvin::new(310.0));
        assert_eq!(tr.inlet_temperature().value(), 310.0);
        tr.run(800).unwrap();
        let shifted = tr.snapshot().max_temperature().value();
        assert!(
            (shifted - (base + 10.0)).abs() < 0.5,
            "expected ~{} got {shifted}",
            base + 10.0
        );
    }

    #[test]
    #[should_panic(expected = "inlet temperature")]
    fn non_positive_inlet_temperature_panics() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 1.0);
        let sim =
            Simulator::new(&s, ModelChoice::TwoRm { m: 3 }, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        tr.set_inlet_temperature(Kelvin::new(0.0));
    }

    #[test]
    fn backward_euler_error_is_first_order_in_dt() {
        // Backward Euler's global error is O(dt): halving the step must
        // halve the error in T_max at a fixed horizon, measured against a
        // much finer-step reference of the same scheme.
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let horizon = 0.02;
        let t_max_at = |steps: usize| {
            let mut tr = sim.transient(p, horizon / steps as f64, None).unwrap();
            tr.run(steps).unwrap();
            tr.snapshot().max_temperature().value()
        };
        let reference = t_max_at(640);
        let errors: Vec<f64> = [10, 20, 40]
            .iter()
            .map(|&n| (t_max_at(n) - reference).abs())
            .collect();
        for pair in errors.windows(2) {
            let ratio = pair[0] / pair[1];
            assert!(
                (1.8..=2.3).contains(&ratio),
                "error ratio {ratio} for errors {errors:?}"
            );
        }
    }
}
