//! Network evaluation: Algorithm 2 (Problem 1) and its Problem-2
//! counterpart (§5, Eq. (13)).

use crate::evaluate::{Evaluator, Profile};
use crate::psearch::{
    golden_min, min_pressure_for_peak, minimize_pressure_for_gradient, PressureSearchOptions,
};
use coolnet_thermal::ThermalError;
use coolnet_units::{Kelvin, Pascal, Watt};

/// The score of one cooling network under a problem formulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkScore {
    /// A feasible operating point was found.
    Feasible {
        /// The selected system pressure drop.
        p_sys: Pascal,
        /// The objective value: `W'_pump` in watts (Problem 1) or `ΔT` in
        /// kelvin (Problem 2).
        objective: f64,
        /// Thermal profile at `p_sys`.
        profile: Profile,
    },
    /// No pressure satisfies the constraints for this network
    /// (`W'_pump = +∞` in the paper's terms).
    Infeasible,
}

impl NetworkScore {
    /// The objective value, `+∞` when infeasible — directly usable as an
    /// SA cost.
    pub fn objective(&self) -> f64 {
        match self {
            NetworkScore::Feasible { objective, .. } => *objective,
            NetworkScore::Infeasible => f64::INFINITY,
        }
    }

    /// Returns `true` for feasible scores.
    pub fn is_feasible(&self) -> bool {
        matches!(self, NetworkScore::Feasible { .. })
    }
}

/// Algorithm 2: the lowest feasible pumping power of a network.
///
/// First solves Eq. (11) — minimum pressure meeting `ΔT*` — via
/// Algorithm 3, floored at the energy-balance bound
/// [`Evaluator::peak_pressure_floor`] below which `T*_max` cannot hold;
/// if `T*_max` is violated at that pressure, a monotone
/// binary search raises the pressure (h decreases with `P_sys`), and the
/// `ΔT` constraint is re-checked afterwards (raising pressure can cross to
/// the rising side of a uni-modal `f`).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluate_problem1(
    ev: &Evaluator,
    delta_t_limit: Kelvin,
    t_max_limit: Kelvin,
    opts: &PressureSearchOptions,
) -> Result<NetworkScore, ThermalError> {
    // Maximum principle: steady-state temperatures are bounded below by
    // the coolant supply, so a peak limit at or under `T_in` can never
    // be met. Deciding this up front matters beyond speed — at extreme
    // pressures the advection discretization can undershoot the inlet
    // temperature, and an unbounded pressure expansion chasing an
    // impossible limit would mistake that artifact for feasibility.
    if t_max_limit <= ev.inlet_temperature() {
        return Ok(NetworkScore::Infeasible);
    }
    // Line 1: solve (11) on the pressures that can meet T*_max at all.
    let mut f = |p: Pascal| ev.profile(p).map(|pr| pr.delta_t.value());
    let floor = ev.peak_pressure_floor(t_max_limit);
    let r = minimize_pressure_for_gradient(&mut f, delta_t_limit, floor, opts)?;
    // Line 2: ΔT cannot be met.
    if !r.feasible {
        return Ok(NetworkScore::Infeasible);
    }
    let mut p = r.p_sys;
    let mut profile = ev.profile(p)?;
    // Lines 3–5: repair a T_max violation by raising pressure.
    if profile.t_max > t_max_limit {
        let mut h = |p: Pascal| ev.profile(p).map(|pr| pr.t_max.value());
        match min_pressure_for_peak(&mut h, t_max_limit, p, opts)? {
            None => return Ok(NetworkScore::Infeasible),
            Some(r2) => {
                p = r2.p_sys;
                profile = ev.profile(p)?;
                if profile.delta_t > delta_t_limit || profile.t_max > t_max_limit {
                    return Ok(NetworkScore::Infeasible);
                }
            }
        }
    }
    Ok(NetworkScore::Feasible {
        p_sys: p,
        objective: ev.w_pump(p).value(),
        profile,
    })
}

/// Problem-2 network evaluation: minimum `ΔT` under the pumping budget
/// `W*_pump` and the `T*_max` constraint (Eq. (13)).
///
/// The budget converts to a pressure cap `P*_sys` via Eq. (10). If `f` is
/// still falling at `P*_sys`, the cap itself is optimal (§5); otherwise a
/// golden-section search locates the minimum of the uni-modal `f` inside
/// the feasible pressure window.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluate_problem2(
    ev: &Evaluator,
    w_pump_limit: Watt,
    t_max_limit: Kelvin,
    opts: &PressureSearchOptions,
) -> Result<NetworkScore, ThermalError> {
    // Same maximum-principle guard as Problem 1: no pressure can pull
    // the peak below the coolant supply temperature.
    if t_max_limit <= ev.inlet_temperature() {
        return Ok(NetworkScore::Infeasible);
    }
    let p_star = ev.pressure_for_power(w_pump_limit);
    let prof_star = ev.profile(p_star)?;
    // T_max decreases with pressure: if even the cap violates it, no
    // smaller pressure can help.
    if prof_star.t_max > t_max_limit {
        return Ok(NetworkScore::Infeasible);
    }
    // Falling-side test: probe slightly left of the cap.
    let p_probe = Pascal::new(p_star.value() * 0.95);
    let prof_probe = ev.profile(p_probe)?;
    if prof_probe.delta_t.value() >= prof_star.delta_t.value() {
        // f still falling at the cap: the cap is optimal.
        return Ok(NetworkScore::Feasible {
            p_sys: p_star,
            objective: prof_star.delta_t.value(),
            profile: prof_star,
        });
    }
    // Otherwise the minimum sits left of the cap. The feasible window is
    // bounded below by the T*_max constraint (h monotone).
    let mut h = |p: Pascal| ev.profile(p).map(|pr| pr.t_max.value());
    let p_floor = match min_pressure_for_peak(
        &mut h,
        t_max_limit,
        Pascal::new(p_star.value() / 256.0),
        opts,
    )? {
        Some(r) => r.p_sys.value().min(p_star.value()),
        None => p_star.value(), // only the cap itself is feasible
    };
    let mut f = |p: Pascal| ev.profile(p).map(|pr| pr.delta_t.value());
    let (p_best, dt_best) = if p_floor >= p_star.value() * 0.999 {
        (p_star, prof_star.delta_t.value())
    } else {
        golden_min(&mut f, Pascal::new(p_floor), p_star, opts)?
    };
    let profile = ev.profile(p_best)?;
    // Guard: golden section assumed uni-modality; re-verify constraints.
    if profile.t_max > t_max_limit {
        return Ok(NetworkScore::Feasible {
            p_sys: p_star,
            objective: prof_star.delta_t.value(),
            profile: prof_star,
        });
    }
    Ok(NetworkScore::Feasible {
        p_sys: p_best,
        objective: dt_best,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::ModelChoice;
    use coolnet_cases::Benchmark;
    use coolnet_grid::{tsv, Dir, GridDims};
    use coolnet_network::builders::straight::{self, StraightParams};
    use coolnet_network::CoolingNetwork;

    fn setup(case: usize) -> (Benchmark, CoolingNetwork) {
        let dims = GridDims::new(21, 21);
        let bench = Benchmark::iccad_scaled(case, dims);
        let net = straight::build(
            dims,
            &tsv::alternating(dims),
            Dir::East,
            &StraightParams::default(),
        )
        .unwrap();
        (bench, net)
    }

    fn opts() -> PressureSearchOptions {
        PressureSearchOptions {
            rel_tol: 0.02,
            max_probes: 60,
            ..PressureSearchOptions::default()
        }
    }

    #[test]
    fn problem1_score_is_feasible_on_easy_case() {
        let (bench, net) = setup(1);
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        let score =
            evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, &opts()).unwrap();
        let NetworkScore::Feasible {
            p_sys,
            objective,
            profile,
        } = score
        else {
            panic!("straight channels must be feasible on case 1: {score:?}");
        };
        assert!(p_sys.value() > 0.0);
        assert!(objective > 0.0);
        assert!(profile.delta_t.value() <= bench.delta_t_limit.value() * 1.01);
        assert!(profile.t_max.value() <= bench.t_max_limit.value() * 1.01);
    }

    #[test]
    fn problem1_infeasible_under_impossible_gradient() {
        let (bench, net) = setup(1);
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        // A 1 mK gradient limit is physically impossible at this power.
        let score = evaluate_problem1(&ev, Kelvin::new(1e-3), bench.t_max_limit, &opts()).unwrap();
        assert!(!score.is_feasible());
        assert!(score.objective().is_infinite());
    }

    #[test]
    fn peak_limit_below_inlet_is_infeasible_without_probing() {
        // Pre-fix, a sub-inlet `T*_max` sent `min_pressure_for_peak`
        // doubling into the GPa range, where the advection scheme
        // undershoots the 300 K supply and the search reported the
        // impossible limit as met (t_max ≈ 299 K at ~4.6 GPa).
        let (bench, net) = setup(1);
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        for limit in [299.0, 300.0] {
            let p1 =
                evaluate_problem1(&ev, bench.delta_t_limit, Kelvin::new(limit), &opts()).unwrap();
            let p2 =
                evaluate_problem2(&ev, bench.w_pump_limit(), Kelvin::new(limit), &opts()).unwrap();
            assert!(!p1.is_feasible(), "problem 1 at T*_max = {limit} K");
            assert!(!p2.is_feasible(), "problem 2 at T*_max = {limit} K");
        }
        assert_eq!(ev.probe_count(), 0, "the guard must decide without probing");
    }

    #[test]
    fn problem2_respects_pump_budget() {
        let (bench, net) = setup(1);
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        let budget = bench.w_pump_limit();
        let score = evaluate_problem2(&ev, budget, bench.t_max_limit, &opts()).unwrap();
        let NetworkScore::Feasible { p_sys, .. } = score else {
            panic!("expected feasible: {score:?}");
        };
        assert!(
            ev.w_pump(p_sys).value() <= budget.value() * 1.001,
            "budget violated"
        );
    }

    #[test]
    fn problem2_infeasible_when_tmax_unreachable() {
        let (bench, net) = setup(1);
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        // With a tiny pumping budget the chip cannot stay below 301 K.
        let score = evaluate_problem2(&ev, Watt::new(1e-9), Kelvin::new(301.0), &opts()).unwrap();
        assert!(!score.is_feasible());
    }

    #[test]
    fn energy_floor_cuts_the_sub_pascal_walk() {
        // Case 2's ΔT limit holds at every pressure, so unfloored
        // Algorithm 3 halved 50 times from 10 kPa to ~1e-11 Pa, and
        // `min_pressure_for_peak` climbed back from 1 Pa. Recorded before
        // the floor: 70 probes, landing on 20 Pa.
        let (bench, net) = setup(2);
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        let floor = ev.peak_pressure_floor(bench.t_max_limit).value();
        let score =
            evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, &opts()).unwrap();
        let NetworkScore::Feasible { p_sys, .. } = score else {
            panic!("case 2 must stay feasible: {score:?}");
        };
        let p = p_sys.value();
        assert!(p >= floor, "p = {p} below P_lb = {floor}");
        assert!(
            (p - 20.0).abs() / 20.0 <= opts().rel_tol,
            "p = {p} moved more than rel_tol from 20 Pa"
        );
        assert!(
            ev.probe_count() < 70,
            "{} probes, no fewer than the unfloored 70",
            ev.probe_count()
        );
    }

    #[test]
    fn problem1_objective_matches_w_pump_at_p() {
        let (bench, net) = setup(1);
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        if let NetworkScore::Feasible {
            p_sys, objective, ..
        } = evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, &opts()).unwrap()
        {
            assert!((ev.w_pump(p_sys).value() - objective).abs() < 1e-12);
        } else {
            panic!("expected feasible");
        }
    }
}
