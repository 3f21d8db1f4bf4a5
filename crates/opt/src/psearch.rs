//! Pressure searches: Algorithm 3, the `T_max` search and the
//! golden-section minimizer for Problem 2.
//!
//! §4.1 establishes the structure these searches rely on: `T_max =
//! h(P_sys)` decreases monotonically (then saturates), while `ΔT =
//! f(P_sys)` is either uni-modal or monotonically decreasing (Fig. 6).
//! Probing either function means one full thermal simulation, so all
//! searches are budgeted and converge on *relative* pressure intervals.
//!
//! Energy balance gives both searches a pressure floor without any solve:
//! the coolant is the only heat sink, so `T_max` cannot fall below the
//! mixed outlet temperature, and no pressure under `P_lb = Q / ((T*_max −
//! T_in) · Σ C_v/R_layer)` meets `T*_max`
//! ([`Evaluator::peak_pressure_floor`](crate::evaluate::Evaluator::peak_pressure_floor)).
//! Algorithm 3 takes it as a floor, so it never probes the near-singular
//! low-flow systems below it. [`min_pressure_for_peak`] starts its
//! bracket there: the outlet part of `T_max − T_in` is exactly
//! `(T*_max − T_in)·P_lb/P_sys`, so a secant in `1/P_sys` reaches the
//! `T*_max` crossing in a few probes.

use coolnet_obs::LazyCounter;
use coolnet_thermal::ThermalError;
use coolnet_units::{Kelvin, Pascal};

/// Simulator probes consumed across every pressure search in this module.
static M_PROBES: LazyCounter = LazyCounter::new("psearch.probes");

/// Options for [`minimize_pressure_for_gradient`] (Algorithm 3) and the
/// other searches.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PressureSearchOptions {
    /// Initial probe pressure `P_init` in Pa.
    pub p_init: f64,
    /// Initial step ratio `r_init` (line 3 of Algorithm 3).
    pub r_init: f64,
    /// Relative pressure tolerance for convergence.
    pub rel_tol: f64,
    /// Hard cap on simulator probes.
    pub max_probes: usize,
}

impl Default for PressureSearchOptions {
    /// `P_init = 10 kPa`, `r_init = 0.5`, 1% pressure tolerance, 80 probes.
    fn default() -> Self {
        Self {
            p_init: 1.0e4,
            r_init: 0.5,
            rel_tol: 0.01,
            max_probes: 80,
        }
    }
}

/// Result of a pressure search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureSearchResult {
    /// The selected pressure.
    pub p_sys: Pascal,
    /// `ΔT` (or the probed metric) at that pressure.
    pub delta_t: Kelvin,
    /// Whether the constraint was met. When `false`, `p_sys` sits at the
    /// minimum of `f`, which proves infeasibility (Fig. 6, `ΔT*_2` case).
    pub feasible: bool,
    /// Simulator probes consumed.
    pub probes: usize,
}

struct Probe<'a> {
    f: &'a mut dyn FnMut(Pascal) -> Result<f64, ThermalError>,
    count: usize,
    budget: usize,
}

impl Probe<'_> {
    fn eval(&mut self, p: f64) -> Result<f64, ThermalError> {
        self.count += 1;
        M_PROBES.inc();
        (self.f)(Pascal::new(p))
    }

    fn exhausted(&self) -> bool {
        self.count >= self.budget
    }
}

/// Algorithm 3: find the smallest `P_sys ≥ floor` with `f(P_sys) ≤
/// limit`, or — when no feasible pressure exists — the `P_sys` minimizing
/// `f` on `[floor, ∞)`, which certifies infeasibility.
///
/// `f` is `ΔT` as a function of pressure: uni-modal or monotonically
/// decreasing (§4.1). Probing is budgeted by `opts.max_probes`; on budget
/// exhaustion the best point seen so far is returned.
///
/// `floor` is a pressure below which the caller already knows the answer
/// is of no use — Algorithm 2 passes the energy-balance bound of
/// [`Evaluator::peak_pressure_floor`](crate::evaluate::Evaluator::peak_pressure_floor),
/// under which `T*_max` cannot hold. The search starts at `max(P_init,
/// floor)`, and its leftward steps (the halvings while `f < limit` and
/// the retreat from the rising side of `f`) go to `max(p/2, floor)`, so
/// the floor itself is the last point probed on the way down. At the
/// floor a feasible `f` is returned as feasible there, and a rising `f`
/// as infeasible: the minimum of `f` over `[floor, ∞)` is then above the
/// limit. A floor of 0 keeps the unfloored probe sequence bit for bit.
///
/// # Errors
///
/// Propagates the first simulator error from `f`.
pub fn minimize_pressure_for_gradient(
    f: &mut dyn FnMut(Pascal) -> Result<f64, ThermalError>,
    limit: Kelvin,
    floor: Pascal,
    opts: &PressureSearchOptions,
) -> Result<PressureSearchResult, ThermalError> {
    let limit = limit.value();
    let floor = floor.value();
    debug_assert!(
        floor.is_finite() && floor >= 0.0,
        "pressure floor must be finite and non-negative, got {floor}"
    );
    let mut probe = Probe {
        f,
        count: 0,
        budget: opts.max_probes,
    };
    let done = |p: f64, ft: f64, probe: &Probe<'_>| PressureSearchResult {
        p_sys: Pascal::new(p),
        delta_t: Kelvin::new(ft),
        feasible: ft <= limit * (1.0 + 1e-9),
        probes: probe.count,
    };

    // Initialization (lines 1–4): make sure f(p0) > limit and f is
    // decreasing at p0.
    let mut p0 = opts.p_init.max(floor);
    let mut f0 = probe.eval(p0)?;
    let mut halvings = 0;
    loop {
        while f0 < limit {
            if p0 <= floor {
                // Feasible at the floor: nothing lower can be of use.
                return Ok(done(p0, f0, &probe));
            }
            // Feasible already; push left to bracket the crossing.
            p0 = (p0 / 2.0).max(floor);
            f0 = probe.eval(p0)?;
            halvings += 1;
            if halvings > 50 || probe.exhausted() {
                // f stays under the limit for arbitrarily small pressure
                // (e.g. near-zero die power): any pressure is feasible.
                return Ok(done(p0, f0, &probe));
            }
        }
        let s = p0 * opts.r_init;
        let p1 = p0 + s;
        let f1 = probe.eval(p1)?;
        if f0 < f1 {
            if p0 <= floor {
                // Rising at the floor: f's minimum on [floor, ∞) is
                // f0, above the limit.
                return Ok(done(p0, f0, &probe));
            }
            // We are on the *rising* side of a uni-modal f; move left.
            p0 = (p0 / 2.0).max(floor);
            f0 = probe.eval(p0)?;
            halvings += 1;
            if halvings > 50 || probe.exhausted() {
                return Ok(done(p0, f0, &probe));
            }
            continue;
        }
        // Expansion (lines 5–11).
        let mut s = s;
        let mut p1 = p1;
        let mut f1 = f1;
        let mut plateau = 0usize;
        while f1 > limit {
            if probe.exhausted() {
                return Ok(done(p1, f1, &probe));
            }
            s *= 2.0;
            let mut p2 = p1 + s;
            let mut f2 = probe.eval(p2)?;
            // Passed the minimum (line 7): contract back.
            while f1 < f2 {
                if (1.0 - p0 / p1).abs() < opts.rel_tol && (1.0 - p2 / p1).abs() < opts.rel_tol {
                    // Converged on the minimum of f; infeasible if above
                    // the limit (line 8).
                    return Ok(done(p1, f1, &probe));
                }
                if probe.exhausted() {
                    return Ok(done(p1, f1, &probe));
                }
                p2 = p1;
                f2 = f1;
                p1 = (p0 + p2) / 2.0;
                f1 = probe.eval(p1)?;
                s = p2 - p1;
            }
            // Plateau detection (line 11): f barely changes while moving
            // right — saturated; no feasible pressure will appear. The
            // pure relative form `|1 - f0/f1|` is NaN at f1 = 0 (uniform
            // ΔT ≈ 0), which silently disables the exit; the absolute
            // floor keeps the test defined there.
            if (f0 - f1).abs() < 1e-4 * f1.abs().max(1e-9) {
                plateau += 1;
                if plateau >= 3 {
                    return Ok(done(p1, f1, &probe));
                }
            } else {
                plateau = 0;
            }
            p0 = p1;
            f0 = f1;
            p1 = p2;
            f1 = f2;
        }
        // Binary search for f(p) = limit in [p0, p1] (line 12).
        let mut lo = p0;
        let mut hi = p1;
        let mut f_hi = f1;
        while (1.0 - lo / hi).abs() > opts.rel_tol && !probe.exhausted() {
            let mid = (lo + hi) / 2.0;
            let fm = probe.eval(mid)?;
            if fm > limit {
                lo = mid;
            } else {
                hi = mid;
                f_hi = fm;
            }
        }
        return Ok(done(hi, f_hi, &probe));
    }
}

/// The peak-temperature search: the least `P_sys ≥ p_min` with `h(P_sys) ≤
/// limit`, to within `opts.rel_tol` (used for Algorithm 2's `T*_max`
/// constraint and Problem 2's window floor).
///
/// `h` is `T_max` as a function of pressure, which does not increase with
/// `P_sys` (§4.1). The search starts from the energy floor `floor = P_lb`
/// of [`Evaluator::peak_pressure_floor`](crate::evaluate::Evaluator::peak_pressure_floor),
/// under which `h > limit` is known without a probe, and never probes
/// below it. The first probe is at `max(P_lb/0.9, p_min)`; a feasible
/// first probe at `p_min` is returned as is.
///
/// Steps are taken in `u = 1/P_sys`, where `h − T_in` is close to linear:
/// its outlet-rise part is exactly `(limit − T_in)·P_lb·u`. With one end
/// of the bracket probed, the step uses that known slope. With both ends
/// probed, it is an Illinois secant. A step that leaves the bracket falls
/// back to bisection in `u`, which doubles the pressure while no feasible
/// end is known. Every step lands at least `rel_tol/2` inside the bracket,
/// so an accurate estimate closes it with the next probe. The search stops
/// at `1 − lo/hi ≤ rel_tol` and returns the feasible end `hi` with `h`
/// there.
///
/// `p_min` is treated as a lower bracket end: when `p_min` lies between
/// `P_lb` and `P_lb/0.9` and already meets the limit, the answer is within
/// `rel_tol` above it. A floor of 0 (no power: every temperature sits at
/// `T_in`) returns `p_min` without probing.
///
/// Returns `None` if `h` saturates above the limit (three sustained
/// non-improvements) or the probe budget runs out before a feasible
/// pressure is found, and without probing when `limit ≤ T_in` or the floor
/// is not finite.
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn min_pressure_for_peak(
    h: &mut dyn FnMut(Pascal) -> Result<f64, ThermalError>,
    limit: Kelvin,
    inlet: Kelvin,
    floor: Pascal,
    p_min: Pascal,
    opts: &PressureSearchOptions,
) -> Result<Option<PressureSearchResult>, ThermalError> {
    let (limit, inlet, floor, p_min) = (limit.value(), inlet.value(), floor.value(), p_min.value());
    let rise = limit - inlet;
    if !(rise > 0.0 && floor.is_finite()) {
        return Ok(None);
    }
    let found = |p: f64, t: f64, probes: usize| PressureSearchResult {
        p_sys: Pascal::new(p),
        delta_t: Kelvin::new(t),
        feasible: true,
        probes,
    };
    if floor <= 0.0 {
        return Ok(Some(found(p_min, inlet, 0)));
    }
    let mut probe = Probe {
        f: h,
        count: 0,
        budget: opts.max_probes,
    };
    // dh/du of the outlet-rise part.
    let slope = rise * floor;
    let tol = opts.rel_tol;
    // The bracket: `lo` is infeasible, `hi` feasible. `g = h − limit` is
    // kept for the probed ends (`None` for the unprobed floor).
    let mut lo = floor.max(p_min);
    let mut g_lo: Option<f64> = None;
    let mut hi = f64::INFINITY;
    let mut g_hi = 0.0;
    let mut t_hi = f64::NAN;
    // Which end the previous probe replaced (Illinois bookkeeping).
    let mut last_feasible: Option<bool> = None;
    let mut stall = 0usize;
    let mut p = (floor / 0.9).max(p_min);
    loop {
        let t = probe.eval(p)?;
        let g = t - limit;
        if g <= 0.0 {
            if p <= p_min {
                return Ok(Some(found(p, t, probe.count)));
            }
            if last_feasible == Some(true) {
                g_lo = g_lo.map(|v| v / 2.0);
            }
            (hi, g_hi, t_hi) = (p, g, t);
            last_feasible = Some(true);
        } else {
            if hi.is_infinite() {
                // Saturation: h stopped improving but is still above the
                // limit. A single flat-or-rising step is not proof — h
                // wobbles at the solver tolerance — so require sustained
                // non-improvement before declaring the floor unreachable.
                if let Some(prev) = g_lo {
                    if prev - g < 1e-6 * g.max(1e-9) {
                        stall += 1;
                        if stall >= 3 {
                            return Ok(None);
                        }
                    } else {
                        stall = 0;
                    }
                }
            } else if last_feasible == Some(false) {
                g_hi /= 2.0;
            }
            (lo, g_lo) = (p, Some(g));
            last_feasible = Some(false);
        }
        if 1.0 - lo / hi <= tol {
            return Ok(Some(found(hi, t_hi, probe.count)));
        }
        if probe.exhausted() {
            return Ok(hi.is_finite().then(|| found(hi, t_hi, probe.count)));
        }
        // The next probe, in u = 1/p (u_hi = 0 while no feasible end is
        // known).
        let (u_lo, u_hi) = (1.0 / lo, 1.0 / hi);
        let u = match g_lo {
            // Both ends probed: the Illinois secant.
            Some(ga) if hi.is_finite() => u_hi - g_hi * (u_lo - u_hi) / (ga - g_hi),
            // Only the infeasible end probed: the known slope while h
            // improves; once it stalls, double the pressure.
            Some(ga) if stall == 0 => u_lo - ga / slope,
            Some(_) => 0.5 * u_lo,
            // Only the feasible end probed (`lo` is the floor).
            None => u_hi - g_hi / slope,
        };
        // An estimate more than rel_tol/2 outside the bracket falls back
        // to bisection; any other is kept rel_tol/2 inside it.
        let margin = 1.0 - 0.5 * tol;
        let u = if u > u_hi * margin && u < u_lo / margin {
            u
        } else {
            0.5 * (u_lo + u_hi)
        };
        p = (1.0 / u).max(lo / margin).min(hi * margin);
    }
}

/// Golden-section minimization of a uni-modal `f` over `[lo, hi]` (§5:
/// "golden section search is adopted to find the minimum f").
///
/// Returns `(p, f(p))` at the located minimum.
///
/// # Errors
///
/// Returns [`ThermalError::Search`] if the interval is not
/// `0 < lo < hi`; otherwise propagates the first simulator error.
pub fn golden_min(
    f: &mut dyn FnMut(Pascal) -> Result<f64, ThermalError>,
    lo: Pascal,
    hi: Pascal,
    opts: &PressureSearchOptions,
) -> Result<(Pascal, f64), ThermalError> {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut probe = Probe {
        f,
        count: 0,
        budget: opts.max_probes,
    };
    let (mut a, mut b) = (lo.value(), hi.value());
    if !(a > 0.0 && b > a) {
        return Err(ThermalError::Search {
            reason: format!("golden_min needs 0 < lo < hi, got [{a}, {b}]"),
        });
    }
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = probe.eval(c)?;
    let mut fd = probe.eval(d)?;
    while (b - a) / b > opts.rel_tol && !probe.exhausted() {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = probe.eval(c)?;
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = probe.eval(d)?;
        }
    }
    Ok(if fc < fd {
        (Pascal::new(c), fc)
    } else {
        (Pascal::new(d), fd)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_FLOOR: Pascal = Pascal::new(0.0);

    fn opts() -> PressureSearchOptions {
        PressureSearchOptions {
            rel_tol: 1e-3,
            max_probes: 200,
            ..PressureSearchOptions::default()
        }
    }

    /// Analytic stand-in for a monotonically decreasing ΔT(P).
    fn decreasing(p: Pascal) -> Result<f64, ThermalError> {
        Ok(1.0e5 / p.value())
    }

    /// Analytic uni-modal ΔT(P): minimum 2·√(a·b) at √(a/b).
    fn unimodal(p: Pascal) -> Result<f64, ThermalError> {
        let x = p.value();
        Ok(1.0e5 / x + 1.0e-4 * x)
    }

    #[test]
    fn monotone_f_finds_the_crossing() {
        // f(p) = 1e5/p = 10 at p = 1e4.
        let mut f = decreasing;
        let r =
            minimize_pressure_for_gradient(&mut f, Kelvin::new(10.0), NO_FLOOR, &opts()).unwrap();
        assert!(r.feasible);
        assert!((r.p_sys.value() - 1.0e4).abs() / 1.0e4 < 0.01, "{r:?}");
    }

    #[test]
    fn unimodal_feasible_crossing_on_falling_side() {
        // Minimum of f is 2·√(10) ≈ 6.32 at ~3.16e4; limit 10 crosses the
        // falling side at p = 1e5/(10-1e-4 p) → p ≈ 11270.
        let mut f = unimodal;
        let r =
            minimize_pressure_for_gradient(&mut f, Kelvin::new(10.0), NO_FLOOR, &opts()).unwrap();
        assert!(r.feasible);
        let expected = {
            // Solve 1e5/p + 1e-4 p = 10 (smaller root).
            let (a, b, c) = (1.0e-4f64, -10.0f64, 1.0e5f64);
            (-b - (b * b - 4.0 * a * c).sqrt()) / (2.0 * a)
        };
        assert!(
            (r.p_sys.value() - expected).abs() / expected < 0.02,
            "p = {}, expected {expected}",
            r.p_sys.value()
        );
    }

    #[test]
    fn unimodal_infeasible_returns_the_minimum() {
        // Minimum ≈ 6.32; limit 5 is infeasible.
        let mut f = unimodal;
        let r =
            minimize_pressure_for_gradient(&mut f, Kelvin::new(5.0), NO_FLOOR, &opts()).unwrap();
        assert!(!r.feasible);
        let p_min = (1.0e5f64 / 1.0e-4).sqrt();
        assert!(
            (r.p_sys.value() - p_min).abs() / p_min < 0.05,
            "p = {} vs minimum {p_min}",
            r.p_sys.value()
        );
        assert!((r.delta_t.value() - 2.0 * (10.0f64).sqrt()).abs() < 0.05);
    }

    #[test]
    fn already_feasible_initial_point_moves_left() {
        // Start feasible at p_init = 1e4 (f = 1); the search must still
        // return (approximately) the *lowest* feasible pressure.
        let mut f = |p: Pascal| Ok(1.0e4 / p.value());
        let r =
            minimize_pressure_for_gradient(&mut f, Kelvin::new(10.0), NO_FLOOR, &opts()).unwrap();
        assert!(r.feasible);
        assert!(
            (r.p_sys.value() - 1.0e3).abs() / 1.0e3 < 0.05,
            "p = {}",
            r.p_sys.value()
        );
    }

    #[test]
    fn probe_budget_is_respected() {
        let mut count = 0usize;
        let mut f = |p: Pascal| {
            count += 1;
            Ok(1.0e5 / p.value())
        };
        let tight = PressureSearchOptions {
            max_probes: 5,
            ..opts()
        };
        let _ =
            minimize_pressure_for_gradient(&mut f, Kelvin::new(1e-9), NO_FLOOR, &tight).unwrap();
        assert!(count <= 7, "count = {count}"); // budget + bracketing slack
    }

    const T_IN: Kelvin = Kelvin::new(300.0);

    /// Runs the `T_max` search on `h` and returns the probed pressures.
    fn peak_sequence(
        h: &dyn Fn(f64) -> f64,
        limit: f64,
        floor: f64,
        p_min: f64,
        opts: &PressureSearchOptions,
    ) -> (Vec<f64>, Option<PressureSearchResult>) {
        let mut seq = Vec::new();
        let mut g = |p: Pascal| {
            seq.push(p.value());
            Ok(h(p.value()))
        };
        let r = min_pressure_for_peak(
            &mut g,
            Kelvin::new(limit),
            T_IN,
            Pascal::new(floor),
            Pascal::new(p_min),
            opts,
        )
        .unwrap();
        (seq, r)
    }

    #[test]
    fn peak_search_finds_monotone_crossing() {
        // h(p) = 300 + 1e6/p; limit 340 → p = 25000. The 1 kPa floor is
        // valid but loose (the outlet model's slope is 25× too small).
        let (_, r) = peak_sequence(&|p| 300.0 + 1.0e6 / p, 340.0, 1000.0, 0.0, &opts());
        let r = r.unwrap();
        assert!((r.p_sys.value() - 25000.0).abs() / 25000.0 < 0.01);
        assert!(r.feasible && r.delta_t.value() <= 340.0, "{r:?}");
    }

    #[test]
    fn peak_search_detects_saturation() {
        // h saturates at 350 > 340: no feasible pressure, and the search
        // says so well inside its probe budget.
        let (seq, r) = peak_sequence(&|p| 350.0 + 1.0e3 / p, 340.0, 1000.0, 0.0, &opts());
        assert!(r.is_none());
        assert!(seq.len() < opts().max_probes, "{} probes", seq.len());
    }

    #[test]
    fn peak_search_accepts_start_if_feasible() {
        // A feasible first probe at p_min is returned after one probe.
        let (seq, r) = peak_sequence(&|p| 300.0 + 1.0e6 / p, 340.0, 1000.0, 50000.0, &opts());
        let r = r.unwrap();
        assert_eq!(seq, [50000.0]);
        assert_eq!(r.p_sys.value(), 50000.0);
        assert_eq!(r.probes, 1);
    }

    #[test]
    fn peak_search_bracket_starts_at_last_infeasible_point() {
        // Same crossing as `peak_search_finds_monotone_crossing`. Every
        // probe lies inside the bracket the earlier probes left: above
        // the last infeasible pressure (the floor before any) and below
        // the last feasible one. Doubling from P_lb/0.9 brackets 25 kPa
        // in [17.8, 35.6] kPa; h is linear in 1/p, so the secant lands on
        // the crossing and one probe rel_tol/2 below it closes the
        // bracket: 8 probes (the doubling-and-bisection search took 16).
        let (seq, r) = peak_sequence(&|p| 300.0 + 1.0e6 / p, 340.0, 1000.0, 0.0, &opts());
        let (mut lo, mut hi) = (1000.0, f64::INFINITY);
        for &p in &seq {
            assert!(p > lo && p < hi, "probe {p} outside ({lo}, {hi})");
            if 300.0 + 1.0e6 / p > 340.0 {
                lo = p;
            } else {
                hi = p;
            }
        }
        let r = r.unwrap();
        assert_eq!(r.p_sys.value(), hi);
        assert!(1.0 - lo / hi <= opts().rel_tol);
        assert!(seq.len() <= 8, "bracketing regressed: {} probes", seq.len());
    }

    #[test]
    fn peak_search_survives_a_single_wobble() {
        // h falls toward the limit but rises by 0.1 K at one sample — the
        // kind of wobble an iterative solver's tolerance produces. A
        // one-shot saturation test would return `None` here (misreporting
        // a feasible network as infeasible); the sustained-stall test must
        // push past it and find the crossing.
        let h = |x: f64| match () {
            _ if x < 1500.0 => 350.0,
            _ if x < 3000.0 => 345.0,
            _ if x < 6000.0 => 345.1, // the wobble: rises, still infeasible
            _ => 330.0,
        };
        let (_, r) = peak_sequence(&h, 340.0, 1000.0, 0.0, &opts());
        let r = r.expect("a single wobble must not be read as saturation");
        // Crossing is the 345.1 → 330.0 step at 6000 Pa.
        assert!(
            (r.p_sys.value() - 6000.0).abs() / 6000.0 < 0.01,
            "p = {}",
            r.p_sys.value()
        );
    }

    #[test]
    fn peak_search_converges_on_the_outlet_model() {
        // h = T_in + a/p + c with a = (limit − T_in)·P_lb: the outlet
        // rise plus a constant. The known-slope step from P_lb/0.9 lands
        // on the crossing P_lb/(1 − c/40); one more probe closes the
        // bracket from the far side.
        let floor = 1000.0;
        for c in [0.0, 0.5, 1.0, 2.0, 3.9] {
            for rel_tol in [1e-3, 1e-2, 2e-2] {
                let opts = PressureSearchOptions { rel_tol, ..opts() };
                let h = |p: f64| 300.0 + 40.0 * floor / p + c;
                let (seq, r) = peak_sequence(&h, 340.0, floor, 0.0, &opts);
                let r = r.unwrap();
                let p_t = floor / (1.0 - c / 40.0);
                assert!(seq.len() <= 3, "c = {c}: {} probes {seq:?}", seq.len());
                assert!(h(r.p_sys.value()) <= 340.0, "c = {c}: {r:?}");
                assert!(
                    r.p_sys.value() >= p_t * (1.0 - 1e-12)
                        && r.p_sys.value() <= p_t * (1.0 + rel_tol),
                    "c = {c}: p = {} vs p_T = {p_t}",
                    r.p_sys.value()
                );
            }
        }
    }

    #[test]
    fn peak_search_never_probes_below_the_floor() {
        // A floor above the true crossing (here h meets 340 K at 500 Pa):
        // the known-slope step from the feasible side aims under P_lb, so
        // it bisects instead, and the answer is the floor to rel_tol.
        let h = |p: f64| 300.0 + 20.0 * 1000.0 / p;
        let (seq, r) = peak_sequence(&h, 340.0, 1000.0, 0.0, &opts());
        assert!(seq.iter().all(|&p| p >= 1000.0), "{seq:?}");
        let p = r.unwrap().p_sys.value();
        assert!(
            p > 1000.0 && p <= 1000.0 / (1.0 - opts().rel_tol),
            "p = {p}"
        );
    }

    #[test]
    fn peak_search_without_power_returns_p_min() {
        // P_lb = 0: nothing heats the stack, so T_max = T_in meets any
        // limit above it, and no probe is spent.
        let (seq, r) = peak_sequence(&|_| f64::NAN, 340.0, 0.0, 123.0, &opts());
        assert!(seq.is_empty());
        let r = r.unwrap();
        assert_eq!(r.p_sys.value(), 123.0);
        assert_eq!(r.delta_t, T_IN);
        assert_eq!(r.probes, 0);
        // A limit at or under T_in, or an infinite floor, is unreachable
        // without probing either.
        let (seq, r) = peak_sequence(&|_| f64::NAN, 300.0, 1000.0, 0.0, &opts());
        assert!(seq.is_empty() && r.is_none());
        let (seq, r) = peak_sequence(&|_| f64::NAN, 340.0, f64::INFINITY, 0.0, &opts());
        assert!(seq.is_empty() && r.is_none());
    }

    #[test]
    fn zero_gradient_probe_hits_plateau_exit() {
        // Uniform ΔT ≡ 0 against an unattainable negative limit: the old
        // relative plateau test was NaN here (0/0) and the search burned
        // its whole probe budget. The absolute fallback must exit early
        // and report infeasibility.
        let mut count = 0usize;
        let mut f = |_p: Pascal| {
            count += 1;
            Ok(0.0)
        };
        let r =
            minimize_pressure_for_gradient(&mut f, Kelvin::new(-1.0), NO_FLOOR, &opts()).unwrap();
        assert!(!r.feasible, "{r:?}");
        assert!(count <= 12, "plateau exit took {count} probes");
    }

    /// Runs Algorithm 3 on `f` and returns the probed pressures.
    fn probe_sequence(
        f: fn(f64) -> f64,
        limit: f64,
        floor: f64,
        opts: &PressureSearchOptions,
    ) -> (Vec<f64>, PressureSearchResult) {
        let mut seq = Vec::new();
        let mut g = |p: Pascal| {
            seq.push(p.value());
            Ok(f(p.value()))
        };
        let r =
            minimize_pressure_for_gradient(&mut g, Kelvin::new(limit), Pascal::new(floor), opts)
                .unwrap();
        (seq, r)
    }

    #[test]
    fn feasible_walk_stops_at_the_floor() {
        // f = 1e4/p meets 10 K from 1 kPa up; a 3 kPa floor cuts the
        // halvings 10 k → 5 k → 3 k, and the floor is the last probe.
        let (seq, r) = probe_sequence(|p| 1.0e4 / p, 10.0, 3000.0, &opts());
        assert_eq!(seq, [10000.0, 5000.0, 3000.0]);
        assert!(r.feasible, "{r:?}");
        assert_eq!(r.p_sys.value(), 3000.0);
        assert_eq!(r.probes, 3);
    }

    #[test]
    fn rising_f_at_the_floor_is_infeasible() {
        // Uni-modal f with its minimum (6.32 at 31.6 kPa) below the floor:
        // the retreat from the rising side stops at 40 kPa, where f is
        // still rising, so min f over [40 kPa, ∞) = f(40 kPa) = 6.5 > 5.
        let start_high = PressureSearchOptions {
            p_init: 2.0e5,
            ..opts()
        };
        let (seq, r) = probe_sequence(|p| 1.0e5 / p + 1.0e-4 * p, 5.0, 4.0e4, &start_high);
        assert_eq!(
            seq,
            [2.0e5, 3.0e5, 1.0e5, 1.5e5, 5.0e4, 7.5e4, 4.0e4, 6.0e4]
        );
        assert!(!r.feasible, "{r:?}");
        assert_eq!(r.p_sys.value(), 4.0e4);
        assert!((r.delta_t.value() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn zero_floor_keeps_the_unfloored_probe_sequence() {
        // Probe sequences recorded from Algorithm 3 before it took a
        // floor: halvings then an expansion (A), and retreats from the
        // rising side of a uni-modal f (B).
        let (a, ra) = probe_sequence(|p| 1.0e4 / p, 10.0, 0.0, &opts());
        assert_eq!(
            a,
            [
                10000.0,
                5000.0,
                2500.0,
                1250.0,
                625.0,
                937.5,
                1562.5,
                1250.0,
                1093.75,
                1015.625,
                976.5625,
                996.09375,
                1005.859375,
                1000.9765625,
                998.53515625,
                999.755859375,
                1000.3662109375,
            ]
        );
        assert_eq!(ra.p_sys.value(), 1000.3662109375);
        let start_high = PressureSearchOptions {
            p_init: 2.0e5,
            ..opts()
        };
        let (b, rb) = probe_sequence(|p| 1.0e5 / p + 1.0e-4 * p, 10.0, 0.0, &start_high);
        assert_eq!(
            b,
            [
                200000.0,
                300000.0,
                100000.0,
                150000.0,
                50000.0,
                25000.0,
                12500.0,
                6250.0,
                9375.0,
                15625.0,
                12500.0,
                10937.5,
                11718.75,
                11328.125,
                11132.8125,
                11230.46875,
                11279.296875,
                11254.8828125,
                11267.08984375,
                11273.193359375,
            ]
        );
        assert_eq!(rb.p_sys.value(), 11273.193359375);
        // A limit f never exceeds: 51 halvings down from P_init.
        let (c, rc) = probe_sequence(|_| 0.0, 1.0, 0.0, &opts());
        assert_eq!(c.len(), 52);
        for (k, p) in c.iter().enumerate() {
            assert_eq!(*p, 1.0e4 / 2f64.powi(k as i32));
        }
        assert!(rc.feasible);
    }

    #[test]
    fn golden_rejects_bad_interval() {
        let mut probes = 0usize;
        let mut f = |_p: Pascal| {
            probes += 1;
            Ok(1.0)
        };
        for (lo, hi) in [(0.0, 1.0), (-1.0, 1.0), (2.0, 2.0), (3.0, 1.0)] {
            let r = golden_min(&mut f, Pascal::new(lo), Pascal::new(hi), &opts());
            assert!(
                matches!(r, Err(ThermalError::Search { .. })),
                "[{lo}, {hi}] should be rejected"
            );
        }
        assert_eq!(probes, 0, "invalid intervals must not burn probes");
    }

    #[test]
    fn golden_finds_unimodal_minimum() {
        let mut f = unimodal;
        let (p, v) = golden_min(&mut f, Pascal::new(1.0e3), Pascal::new(1.0e6), &opts()).unwrap();
        let p_min = (1.0e5f64 / 1.0e-4).sqrt();
        assert!(
            (p.value() - p_min).abs() / p_min < 0.01,
            "p = {}",
            p.value()
        );
        assert!((v - 2.0 * 10.0f64.sqrt()).abs() < 1e-2);
    }

    #[test]
    fn golden_respects_monotone_edge() {
        // Decreasing f on the interval: minimum at the right edge.
        let mut f = decreasing;
        let (p, _) = golden_min(&mut f, Pascal::new(1.0e3), Pascal::new(1.0e5), &opts()).unwrap();
        assert!(p.value() > 0.95e5, "p = {}", p.value());
    }
}
