//! Property-based tests of the pressure searches against random analytic
//! functions with the §4.1 structure (uni-modal or monotonically
//! decreasing `f`, monotone `h`).

use coolnet_opt::psearch::{
    golden_min, min_pressure_for_peak, minimize_pressure_for_gradient, PressureSearchOptions,
    RESOLUTION,
};
use coolnet_units::{Kelvin, Pascal};
use proptest::prelude::*;

fn opts() -> PressureSearchOptions {
    PressureSearchOptions {
        rel_tol: 1e-3,
        max_probes: 400,
        ..PressureSearchOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// f(p) = a/p + b·p is uni-modal with minimum 2·√(a·b) at √(a/b).
    #[test]
    fn algorithm3_finds_feasible_crossing_when_it_exists(
        a in 1.0e3f64..1.0e6,
        b in 1.0e-6f64..1.0e-3,
        margin in 1.05f64..4.0,
    ) {
        let f_min = 2.0 * (a * b).sqrt();
        let limit = f_min * margin; // feasible by construction
        let mut f = |p: Pascal| Ok(a / p.value() + b * p.value());
        let r = minimize_pressure_for_gradient(&mut f, Kelvin::new(limit), Pascal::new(0.0), &opts()).unwrap();
        prop_assert!(r.feasible, "missed feasible crossing: {r:?}");
        // The returned pressure satisfies the limit...
        let at = a / r.p_sys.value() + b * r.p_sys.value();
        prop_assert!(at <= limit * 1.01, "constraint violated: {at} > {limit}");
        // ...and sits near the *smaller* root (lowest feasible pressure).
        let disc = (limit * limit - 4.0 * a * b).sqrt();
        let p_low = (limit - disc) / (2.0 * b);
        prop_assert!(
            r.p_sys.value() <= p_low * 1.15,
            "not the lowest feasible pressure: {} vs root {p_low}",
            r.p_sys.value()
        );
    }

    #[test]
    fn algorithm3_certifies_infeasibility_at_the_minimum(
        a in 1.0e3f64..1.0e6,
        b in 1.0e-6f64..1.0e-3,
        shortfall in 0.3f64..0.95,
    ) {
        let f_min = 2.0 * (a * b).sqrt();
        let limit = f_min * shortfall; // infeasible by construction
        let mut f = |p: Pascal| Ok(a / p.value() + b * p.value());
        let r = minimize_pressure_for_gradient(&mut f, Kelvin::new(limit), Pascal::new(0.0), &opts()).unwrap();
        prop_assert!(!r.feasible);
        // The certificate is (close to) the true minimum of f.
        prop_assert!(
            r.delta_t.value() <= f_min * 1.05,
            "certificate {} above the true minimum {f_min}",
            r.delta_t.value()
        );
    }

    #[test]
    fn algorithm3_handles_monotone_f(
        a in 1.0e3f64..1.0e7,
        limit in 1.0f64..100.0,
    ) {
        // f(p) = a/p crosses `limit` at exactly a/limit.
        let mut f = |p: Pascal| Ok(a / p.value());
        let r = minimize_pressure_for_gradient(&mut f, Kelvin::new(limit), Pascal::new(0.0), &opts()).unwrap();
        prop_assert!(r.feasible);
        let expected = a / limit;
        prop_assert!(
            (r.p_sys.value() - expected).abs() / expected < 0.05,
            "{} vs {expected}",
            r.p_sys.value()
        );
    }

    #[test]
    fn peak_search_matches_analytic_crossing(
        rise in 1.0e3f64..1.0e6,
        limit_excess in 1.0f64..50.0,
        floor_frac in 1.0e-6f64..1.0,
    ) {
        // h(p) = 300 + rise/p; limit = 300 + limit_excess crosses at
        // rise / limit_excess. Any floor at or under the crossing is a
        // valid energy floor; the tight ones make the outlet model exact.
        let expected = rise / limit_excess;
        let floor = expected * floor_frac;
        let mut below_floor = 0usize;
        let mut h = |p: Pascal| {
            if p.value() < floor {
                below_floor += 1;
            }
            Ok(300.0 + rise / p.value())
        };
        let r = min_pressure_for_peak(
            &mut h,
            Kelvin::new(300.0 + limit_excess),
            Kelvin::new(300.0),
            Pascal::new(floor),
            Pascal::new(0.0),
            &opts(),
        )
        .unwrap();
        prop_assert_eq!(below_floor, 0);
        match r {
            Some(r) => prop_assert!(
                (r.p_sys.value() - expected).abs() / expected < 0.05,
                "{} vs {expected}",
                r.p_sys.value()
            ),
            None => prop_assert!(false, "crossing exists but was not found"),
        }
    }

    #[test]
    fn golden_section_localizes_random_minima(
        p_min in 1.0e3f64..1.0e5,
        depth in 0.1f64..100.0,
        curvature in 1.0e-8f64..1.0e-4,
    ) {
        // Quadratic bowl centered at p_min. The search stops at the
        // resolution δ or at the pressure tolerance, whichever comes first:
        // the answer's value is within δ of the minimum, or the answer is
        // within rel_tol of p_min. Every probe lies in the bracket.
        let (lo, hi) = (p_min / 50.0, p_min * 50.0);
        let mut outside = 0usize;
        let mut f = |p: Pascal| {
            if !(lo..=hi).contains(&p.value()) {
                outside += 1;
            }
            let d = p.value() - p_min;
            Ok(depth + curvature * d * d)
        };
        let (p, v) = golden_min(&mut f, Pascal::new(lo), Pascal::new(hi), &opts()).unwrap();
        prop_assert_eq!(outside, 0);
        let d = p.value() - p_min;
        prop_assert_eq!(v, depth + curvature * d * d);
        prop_assert!(
            v - depth <= RESOLUTION.value() || d.abs() <= opts().rel_tol * p_min,
            "f({}) = {v}, minimum {depth} at {p_min}",
            p.value()
        );
    }
}
