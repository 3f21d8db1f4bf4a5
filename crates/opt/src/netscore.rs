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

/// The profiles one evaluation has solved, keyed by the pressure's bits.
///
/// Every search returns a pressure it probed, so the score reads its
/// profile here instead of solving that pressure a second time.
struct Probed<'a> {
    ev: &'a Evaluator,
    seen: Vec<(u64, Profile)>,
}

impl<'a> Probed<'a> {
    fn new(ev: &'a Evaluator) -> Self {
        Self {
            ev,
            seen: Vec::new(),
        }
    }

    fn profile(&mut self, p: Pascal) -> Result<Profile, ThermalError> {
        let key = p.value().to_bits();
        if let Some(&(_, profile)) = self.seen.iter().find(|(k, _)| *k == key) {
            return Ok(profile);
        }
        let profile = self.ev.profile(p)?;
        self.seen.push((key, profile));
        Ok(profile)
    }

    /// The least pressure `≥ p_min` meeting `T*_max`, bracketed from the
    /// energy floor.
    fn peak_search(
        &mut self,
        limit: Kelvin,
        p_min: Pascal,
        opts: &PressureSearchOptions,
    ) -> Result<Option<Pascal>, ThermalError> {
        let (inlet, floor) = (
            self.ev.inlet_temperature(),
            self.ev.peak_pressure_floor(limit),
        );
        let mut h = |p: Pascal| self.profile(p).map(|pr| pr.t_max.value());
        let r = min_pressure_for_peak(&mut h, limit, inlet, floor, p_min, opts)?;
        Ok(r.map(|r| r.p_sys))
    }
}

/// Algorithm 2: the lowest feasible pumping power of a network.
///
/// Problem (11) asks for the least pressure meeting both `ΔT*` and
/// `T*_max`. `T_max` does not increase with `P_sys` (§4.1), so the
/// `T*_max` side of the feasible set is `[p_T, ∞)`, and the energy-balance
/// bound `P_lb` of [`Evaluator::peak_pressure_floor`] sits just under
/// `p_T`. One probe at `P_lb/0.9` decides which constraint to search
/// first:
///
/// - `ΔT > ΔT*` there: `ΔT` binds. Line 1 solves Eq. (11) with Algorithm
///   3, floored at `P_lb`; line 2 returns infeasible when `ΔT*` cannot be
///   met.
/// - Otherwise [`min_pressure_for_peak`] finds `p_T` first. When `ΔT(p_T)
///   ≤ ΔT*` the same profile proves the answer; else Algorithm 3 runs
///   floored at `p_T` (lines 1–2).
///
/// Lines 3–5 then repair a `T*_max` violation at Algorithm 3's answer by
/// the same `T_max` search, and re-check `ΔT` there (raising pressure can
/// cross to the rising side of a uni-modal `f`). Every pressure is solved
/// at most once per evaluation.
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
    let mut probed = Probed::new(ev);
    let floor = ev.peak_pressure_floor(t_max_limit);
    // Which constraint binds, read just above the T*_max crossing. With
    // no power (P_lb = 0) there is no crossing, and ΔT is searched first.
    let gradient_binds = floor.value() == 0.0
        || probed.profile(Pascal::new(floor.value() / 0.9))?.delta_t > delta_t_limit;
    let gradient_floor = if gradient_binds {
        floor
    } else {
        let Some(p_t) = probed.peak_search(t_max_limit, Pascal::new(0.0), opts)? else {
            return Ok(NetworkScore::Infeasible);
        };
        let profile = probed.profile(p_t)?;
        if profile.delta_t <= delta_t_limit {
            return Ok(feasible_p1(ev, p_t, profile));
        }
        p_t
    };
    // Lines 1–2: the least pressure meeting ΔT* above the floor.
    let mut f = |p: Pascal| probed.profile(p).map(|pr| pr.delta_t.value());
    let r = minimize_pressure_for_gradient(&mut f, delta_t_limit, gradient_floor, opts)?;
    if !r.feasible {
        return Ok(NetworkScore::Infeasible);
    }
    let mut p = r.p_sys;
    let mut profile = probed.profile(p)?;
    // Lines 3–5: repair a T_max violation by raising pressure.
    if profile.t_max > t_max_limit {
        let Some(p_t) = probed.peak_search(t_max_limit, p, opts)? else {
            return Ok(NetworkScore::Infeasible);
        };
        p = p_t;
        profile = probed.profile(p)?;
        if profile.delta_t > delta_t_limit || profile.t_max > t_max_limit {
            return Ok(NetworkScore::Infeasible);
        }
    }
    Ok(feasible_p1(ev, p, profile))
}

/// A feasible Problem-1 score: the pumping power at `p_sys`.
fn feasible_p1(ev: &Evaluator, p_sys: Pascal, profile: Profile) -> NetworkScore {
    NetworkScore::Feasible {
        p_sys,
        objective: ev.w_pump(p_sys).value(),
        profile,
    }
}

/// Problem-2 network evaluation: minimum `ΔT` under the pumping budget
/// `W*_pump` and the `T*_max` constraint (Eq. (13)).
///
/// The budget converts to a pressure cap `P*_sys` via Eq. (10). If `f` is
/// still falling at `P*_sys`, the cap itself is optimal (§5); otherwise a
/// golden-section search locates the minimum of the uni-modal `f` inside
/// the feasible pressure window, whose floor is the least pressure above
/// `P*_sys/256` meeting `T*_max` ([`min_pressure_for_peak`]).
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
    let mut probed = Probed::new(ev);
    let p_star = ev.pressure_for_power(w_pump_limit);
    let prof_star = probed.profile(p_star)?;
    // T_max decreases with pressure: if even the cap violates it, no
    // smaller pressure can help.
    if prof_star.t_max > t_max_limit {
        return Ok(NetworkScore::Infeasible);
    }
    let at_cap = NetworkScore::Feasible {
        p_sys: p_star,
        objective: prof_star.delta_t.value(),
        profile: prof_star,
    };
    // Falling-side test: probe slightly left of the cap.
    let prof_probe = probed.profile(Pascal::new(p_star.value() * 0.95))?;
    if prof_probe.delta_t.value() >= prof_star.delta_t.value() {
        // f still falling at the cap: the cap is optimal.
        return Ok(at_cap);
    }
    // Otherwise the minimum sits left of the cap. The feasible window is
    // bounded below by the T*_max constraint (h monotone).
    let p_floor =
        match probed.peak_search(t_max_limit, Pascal::new(p_star.value() / 256.0), opts)? {
            Some(p) => p.value().min(p_star.value()),
            None => p_star.value(), // only the cap itself is feasible
        };
    if p_floor >= p_star.value() * 0.999 {
        return Ok(at_cap);
    }
    let mut f = |p: Pascal| probed.profile(p).map(|pr| pr.delta_t.value());
    let (p_best, dt_best) = golden_min(&mut f, Pascal::new(p_floor), p_star, opts)?;
    let profile = probed.profile(p_best)?;
    // Guard: golden section assumed uni-modality; re-verify constraints.
    if profile.t_max > t_max_limit {
        return Ok(at_cap);
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

    #[test]
    fn problem1_answer_is_minimal() {
        // Cases 1–3 at 21×21 in 4RM: one rel_tol below the returned
        // pressure, T*_max or ΔT* is violated.
        for case in 1..=3 {
            let (bench, net) = setup(case);
            let ev = Evaluator::new(&bench, &net, ModelChoice::FourRm).unwrap();
            let score =
                evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, &opts()).unwrap();
            let NetworkScore::Feasible { p_sys, .. } = score else {
                panic!("case {case} must be feasible: {score:?}");
            };
            let below = ev
                .profile(Pascal::new(p_sys.value() * (1.0 - opts().rel_tol)))
                .unwrap();
            assert!(
                below.t_max > bench.t_max_limit || below.delta_t > bench.delta_t_limit,
                "case {case}: {below:?} one rel_tol under {p_sys} meets both limits"
            );
        }
    }

    #[test]
    fn problem1_profile_counts() {
        // Profiles per P1 evaluation on the ICCAD cases at 21×21. Cases
        // 1–3 are T_max-bound: the T_max search from the energy floor
        // takes at most 6 (the ΔT-first order took 19–21). Cases 4 and 5
        // are ΔT-bound: Algorithm 3 runs as before, plus the ΔT probe at
        // P_lb/0.9 (the ΔT-first order took 16 and 12 in 2RM, 16 and 13
        // in 4RM).
        for (model, gradient_bound) in [
            (ModelChoice::fast(), [(4, 17), (5, 13)]),
            (ModelChoice::FourRm, [(4, 17), (5, 14)]),
        ] {
            for case in 1..=5 {
                let (bench, net) = setup(case);
                let ev = Evaluator::new(&bench, &net, model).unwrap();
                let score = evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, &opts())
                    .unwrap();
                let NetworkScore::Feasible { profile, .. } = score else {
                    panic!("{model:?} case {case} must be feasible: {score:?}");
                };
                let n = ev.probe_count();
                match gradient_bound.iter().find(|(c, _)| *c == case) {
                    Some(&(_, most)) => {
                        assert!(n <= most, "{model:?} case {case}: {n} profiles > {most}");
                    }
                    None => {
                        assert!(
                            profile.delta_t < bench.delta_t_limit,
                            "{model:?} case {case} is not T_max-bound: {profile:?}"
                        );
                        assert!(n <= 6, "{model:?} case {case}: {n} profiles > 6");
                    }
                }
            }
        }
    }

    #[test]
    fn each_pressure_is_solved_once() {
        let (bench, net) = setup(1);
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        let mut probed = Probed::new(&ev);
        let a = probed.profile(Pascal::new(50.0)).unwrap();
        assert_eq!(probed.profile(Pascal::new(50.0)).unwrap(), a);
        assert_eq!(ev.probe_count(), 1);
        probed.profile(Pascal::new(60.0)).unwrap();
        assert_eq!(ev.probe_count(), 2);
    }

    #[test]
    fn problem2_golden_answer_is_not_solved_again() {
        // Case 1 runs golden section in both models. Its window floor now
        // comes from the T_max search, and the profile at golden
        // section's answer is the one it probed: the evaluation takes
        // fewer profiles than the 25 (2RM) and 24 (4RM) it took with the
        // doubling search from p*/256 and a final re-solve.
        let (bench, net) = setup(1);
        for (model, parent) in [(ModelChoice::fast(), 25), (ModelChoice::FourRm, 24)] {
            let ev = Evaluator::new(&bench, &net, model).unwrap();
            let score =
                evaluate_problem2(&ev, bench.w_pump_limit(), bench.t_max_limit, &opts()).unwrap();
            assert!(score.is_feasible(), "{model:?}: {score:?}");
            let n = ev.probe_count();
            assert!(n < parent, "{model:?}: {n} profiles, not under {parent}");
        }
    }
}
