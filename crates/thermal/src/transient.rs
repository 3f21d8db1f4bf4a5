//! Transient thermal analysis (backward Euler), the §2.3 extension.
//!
//! Both compact models expose the same algebraic structure
//! `A(P_sys)·T = b`, so the transient extension is shared: with nodal heat
//! capacities `C`, backward Euler solves
//! `(C/Δt + A)·T^{k+1} = (C/Δt)·T^k + b` each step — unconditionally
//! stable, so large steps are safe.

use crate::assembly::Assembled;
use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::fourrm::FourRm;
use crate::power::PowerMap;
use crate::solution::{Resolution, ThermalSolution};
use crate::tworm::TwoRm;
use coolnet_sparse::precond::Ilu0;
use coolnet_sparse::{CsrMatrix, SolveStats, SolverOptions};
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
    matrix: CsrMatrix,
    precond: Ilu0,
    /// Die-power part of the RHS (unscaled).
    rhs_power: Vec<f64>,
    /// Inlet-advection part of the RHS (fixed for a given pressure and
    /// inlet temperature).
    rhs_inlet: Vec<f64>,
    /// System pressure this integrator was built at (the advection
    /// operator bakes it in).
    p_sys: f64,
    /// Current coolant inlet temperature in kelvin.
    t_inlet: f64,
    /// Run-time multiplier on the die power (DVFS modeling).
    power_scale: f64,
    cap_over_dt: Vec<f64>,
    temps: Vec<f64>,
    dt: f64,
    time: f64,
    last_stats: SolveStats,
}

impl FourRm {
    /// Starts a transient run at pressure `p_sys` with time step `dt`
    /// seconds, from a uniform `T_in` initial condition (or `initial`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::ZeroFlow`] for non-positive pressure or
    /// `dt <= 0`, and [`ThermalError::BadStack`] if a row of the assembled
    /// system stores no diagonal entry.
    pub fn transient(
        &self,
        p_sys: Pascal,
        dt: f64,
        initial: Option<&ThermalSolution>,
    ) -> Result<Transient<'_>, ThermalError> {
        Transient::new(self.assembled(), self.config().clone(), p_sys, dt, initial)
    }
}

impl TwoRm {
    /// Starts a transient run at pressure `p_sys` with time step `dt`
    /// seconds, from a uniform `T_in` initial condition (or `initial`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::ZeroFlow`] for non-positive pressure or
    /// `dt <= 0`, and [`ThermalError::BadStack`] if a row of the assembled
    /// system stores no diagonal entry.
    pub fn transient(
        &self,
        p_sys: Pascal,
        dt: f64,
        initial: Option<&ThermalSolution>,
    ) -> Result<Transient<'_>, ThermalError> {
        Transient::new(self.assembled(), self.config().clone(), p_sys, dt, initial)
    }
}

impl<'a> Transient<'a> {
    fn new(
        assembled: &'a Assembled,
        config: ThermalConfig,
        p_sys: Pascal,
        dt: f64,
        initial: Option<&ThermalSolution>,
    ) -> Result<Self, ThermalError> {
        if p_sys.value() <= 0.0 || dt <= 0.0 {
            return Err(ThermalError::ZeroFlow);
        }
        let (mut matrix, _) = assembled.system(p_sys, config.t_inlet.value());
        let rhs_power = assembled.rhs_source.clone();
        let rhs_inlet: Vec<f64> = assembled
            .rhs_inlet_unit
            .iter()
            .map(|&g| g * p_sys.value() * config.t_inlet.value())
            .collect();
        let n = assembled.n;
        let cap_over_dt: Vec<f64> = assembled.capacitance.iter().map(|c| c / dt).collect();
        // (C/dt + A), adding C/dt onto A's stored diagonal in place.
        for (i, &c) in cap_over_dt.iter().enumerate() {
            let slot = matrix.slot(i, i).ok_or_else(|| ThermalError::BadStack {
                reason: format!("thermal system row {i} has no diagonal entry"),
            })?;
            matrix.values_mut()[slot] += c;
        }
        let precond = Ilu0::new(&matrix);
        let temps = match initial {
            Some(sol) => sol.all_temperatures().to_vec(),
            None => vec![config.t_inlet.value(); n],
        };
        let t_inlet = config.t_inlet.value();
        Ok(Self {
            assembled,
            config,
            matrix,
            precond,
            rhs_power,
            rhs_inlet,
            p_sys: p_sys.value(),
            t_inlet,
            power_scale: 1.0,
            cap_over_dt,
            temps,
            dt,
            time: 0.0,
            last_stats: SolveStats::default(),
        })
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
    /// # Errors
    ///
    /// Returns [`ThermalError::Solver`] if every rung of the configured
    /// solver ladder fails.
    pub fn step(&mut self) -> Result<(), ThermalError> {
        let rhs: Vec<f64> = self
            .rhs_power
            .iter()
            .zip(&self.rhs_inlet)
            .zip(self.cap_over_dt.iter().zip(&self.temps))
            .map(|((&q, &inlet), (&c, &t))| q * self.power_scale + inlet + c * t)
            .collect();
        let mut options = SolverOptions::with_tolerance(self.config.tolerance);
        options.initial_guess = Some(self.temps.clone());
        let sol = self
            .config
            .ladder
            .solve(&self.matrix, &rhs, &self.precond, &options)?;
        self.temps = sol.solution;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerMap;
    use crate::stack::Stack;
    use coolnet_grid::{Cell, Dir, GridDims, Side};
    use coolnet_network::{CoolingNetwork, PortKind};
    use coolnet_sparse::TripletBuilder;

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
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
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
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
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
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
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
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
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
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
        let mut tr = sim
            .transient(Pascal::from_kilopascals(5.0), 1e-3, None)
            .unwrap();
        tr.set_power_scale(-1.0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
        assert!(sim.transient(Pascal::new(0.0), 1e-3, None).is_err());
        assert!(sim
            .transient(Pascal::from_kilopascals(1.0), 0.0, None)
            .is_err());
    }

    #[test]
    fn in_place_diagonal_matches_a_triplet_rebuild() {
        // Both models store a diagonal in every row on single- and two-die
        // stacks, and adding C/dt there gives the bits of re-merging A's
        // entries with C/dt through a fresh TripletBuilder.
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
        let (p, dt) = (Pascal::from_kilopascals(5.0), 1e-3);
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for s in [stack(dims, 3.0), two_die] {
            let four = FourRm::new(&s, &config).unwrap();
            let two = TwoRm::new(&s, 3, &config).unwrap();
            for (assembled, tr) in [
                (four.assembled(), four.transient(p, dt, None).unwrap()),
                (two.assembled(), two.transient(p, dt, None).unwrap()),
            ] {
                let (a, _) = assembled.system(p, config.t_inlet.value());
                assert!((0..a.rows()).all(|i| a.slot(i, i).is_some()));
                let mut b = TripletBuilder::new(a.rows(), a.cols());
                for (r, c, v) in a.iter() {
                    b.add(r, c, v);
                }
                for (i, &c) in assembled.capacitance.iter().enumerate() {
                    b.add(i, i, c / dt);
                }
                let rebuilt = b.to_csr();
                assert_eq!(tr.matrix.row_ptr(), rebuilt.row_ptr());
                assert_eq!(tr.matrix.col_indices(), rebuilt.col_indices());
                assert_eq!(bits(&tr.matrix), bits(&rebuilt));
            }
        }
    }

    #[test]
    fn missing_diagonal_is_a_bad_stack() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let config = ThermalConfig::default();
        let sim = FourRm::new(&s, &config).unwrap();
        let mut assembled = sim.assembled().clone();
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
        let steady_hot = TwoRm::new(&s_hot, 3, &cfg)
            .unwrap()
            .simulate(p)
            .unwrap()
            .max_temperature()
            .value();

        // Start on the uniform map, swap to the hotspot map mid-run: the
        // transient must converge to the hotspot steady state (same
        // operator, RHS-only change).
        let sim = TwoRm::new(&s_uniform, 3, &cfg).unwrap();
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
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
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
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
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
        let sim = TwoRm::new(&s, 3, &ThermalConfig::default()).unwrap();
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
        let sim = FourRm::new(&s, &ThermalConfig::default()).unwrap();
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
