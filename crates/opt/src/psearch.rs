//! Pressure searches: Algorithm 3, the monotone `T_max` search and the
//! golden-section minimizer for Problem 2.
//!
//! §4.1 establishes the structure these searches rely on: `T_max =
//! h(P_sys)` decreases monotonically (then saturates), while `ΔT =
//! f(P_sys)` is either uni-modal or monotonically decreasing (Fig. 6).
//! Probing either function means one full thermal simulation, so all
//! searches are budgeted and converge on *relative* pressure intervals.
//!
//! Algorithm 3 also takes a pressure floor. Energy balance gives Problem 1
//! one without any solve: the coolant is the only heat sink, so `T_max`
//! cannot fall below the mixed outlet temperature, and no pressure under
//! `P_lb = Q / ((T*_max − T_in) · Σ C_v/R_layer)` meets `T*_max`
//! ([`Evaluator::peak_pressure_floor`](crate::evaluate::Evaluator::peak_pressure_floor)),
//! so Algorithm 3 never needs to probe the near-singular low-flow
//! systems below it.

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

/// Monotone search: the smallest `P_sys ≥ start` with `h(P_sys) ≤ limit`
/// (used when the `T*_max` constraint is violated, Algorithm 2 line 4).
///
/// Returns `None` if `h` never reaches the limit within the probe budget
/// (the saturated `h` floor sits above `T*_max`).
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn min_pressure_for_peak(
    h: &mut dyn FnMut(Pascal) -> Result<f64, ThermalError>,
    limit: Kelvin,
    start: Pascal,
    opts: &PressureSearchOptions,
) -> Result<Option<PressureSearchResult>, ThermalError> {
    let limit = limit.value();
    let mut probe = Probe {
        f: h,
        count: 0,
        budget: opts.max_probes,
    };
    let mut lo = start.value().max(1.0);
    let t_lo = probe.eval(lo)?;
    if t_lo <= limit {
        return Ok(Some(PressureSearchResult {
            p_sys: Pascal::new(lo),
            delta_t: Kelvin::new(t_lo),
            feasible: true,
            probes: probe.count,
        }));
    }
    // Exponential expansion. Every probed point that stays above the
    // limit becomes the bracket's new lower edge, so the binary search
    // below starts on the tight `[hi/2, hi]` instead of the original
    // `[start, hi]` (the pre-fix bracket wasted probes re-bisecting
    // territory the expansion had already ruled out).
    let mut hi = lo;
    let mut t_hi = t_lo;
    let mut last = t_lo;
    let mut stall = 0usize;
    for _ in 0..40 {
        lo = hi;
        hi *= 2.0;
        t_hi = probe.eval(hi)?;
        if t_hi <= limit {
            break;
        }
        if probe.exhausted() {
            return Ok(None);
        }
        // Saturation: h stopped improving but is still above the limit.
        // A single flat-or-rising step is not proof — h wobbles at the
        // solver tolerance — so require sustained non-improvement before
        // declaring the floor unreachable (the pre-fix one-shot test
        // returned `None` on any wobble, misreporting feasible networks
        // as infeasible).
        if (last - t_hi) < 1e-6 * (t_hi - limit).max(1e-9) {
            stall += 1;
            if stall >= 3 {
                return Ok(None);
            }
        } else {
            stall = 0;
        }
        last = t_hi;
    }
    if t_hi > limit {
        return Ok(None);
    }
    // Binary search.
    while (1.0 - lo / hi).abs() > opts.rel_tol && !probe.exhausted() {
        let mid = (lo + hi) / 2.0;
        let tm = probe.eval(mid)?;
        if tm > limit {
            lo = mid;
        } else {
            hi = mid;
            t_hi = tm;
        }
    }
    Ok(Some(PressureSearchResult {
        p_sys: Pascal::new(hi),
        delta_t: Kelvin::new(t_hi),
        feasible: true,
        probes: probe.count,
    }))
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

    #[test]
    fn peak_search_finds_monotone_crossing() {
        // h(p) = 300 + 1e6/p; limit 340 → p = 25000.
        let mut h = |p: Pascal| Ok(300.0 + 1.0e6 / p.value());
        let r = min_pressure_for_peak(&mut h, Kelvin::new(340.0), Pascal::new(1000.0), &opts())
            .unwrap()
            .unwrap();
        assert!((r.p_sys.value() - 25000.0).abs() / 25000.0 < 0.01);
    }

    #[test]
    fn peak_search_detects_saturation() {
        // h saturates at 350 > 340: no feasible pressure.
        let mut h = |p: Pascal| Ok(350.0 + 1.0e3 / p.value());
        let r = min_pressure_for_peak(&mut h, Kelvin::new(340.0), Pascal::new(1000.0), &opts())
            .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn peak_search_accepts_start_if_feasible() {
        let mut h = |p: Pascal| Ok(300.0 + 1.0e6 / p.value());
        let r = min_pressure_for_peak(&mut h, Kelvin::new(340.0), Pascal::new(50000.0), &opts())
            .unwrap()
            .unwrap();
        assert_eq!(r.p_sys.value(), 50000.0);
        assert_eq!(r.probes, 1);
    }

    #[test]
    fn peak_search_bracket_starts_at_last_infeasible_point() {
        // Same crossing as `peak_search_finds_monotone_crossing`:
        // expansion probes 2000, 4000, 8000, 16000, 32000 and the binary
        // search must then bisect [16000, 32000], not the pre-fix
        // [1000, 32000]. The tighter bracket shaves one bisection probe
        // (binary search is logarithmic in interval width, so the win is
        // ~1 probe per search, not per doubling).
        let mut count = 0usize;
        let mut h = |p: Pascal| {
            count += 1;
            Ok(300.0 + 1.0e6 / p.value())
        };
        let r = min_pressure_for_peak(&mut h, Kelvin::new(340.0), Pascal::new(1000.0), &opts())
            .unwrap()
            .unwrap();
        assert!((r.p_sys.value() - 25000.0).abs() / 25000.0 < 0.01);
        // The result must lie inside the tightened bracket.
        assert!(r.p_sys.value() >= 16000.0 && r.p_sys.value() <= 32000.0);
        // Measured: 1 start + 5 expansion + 10 bisections with the tight
        // bracket (the pre-fix wide bracket took one more, 17 total).
        assert!(count <= 16, "bracketing regressed: {count} probes");
    }

    #[test]
    fn peak_search_survives_a_single_wobble() {
        // h falls toward the limit but rises by 0.1 K at one expansion
        // sample — the kind of wobble an iterative solver's tolerance
        // produces. The pre-fix one-shot saturation test returned `None`
        // here (misreporting a feasible network as infeasible); the
        // sustained-stall test must push past it and find the crossing.
        let mut h = |p: Pascal| {
            let x = p.value();
            Ok(match () {
                _ if x < 1500.0 => 350.0,
                _ if x < 3000.0 => 345.0,
                _ if x < 6000.0 => 345.1, // the wobble: rises, still infeasible
                _ => 330.0,
            })
        };
        let r = min_pressure_for_peak(&mut h, Kelvin::new(340.0), Pascal::new(1000.0), &opts())
            .unwrap();
        let r = r.expect("a single wobble must not be read as saturation");
        // Crossing is the 345.1 → 330.0 step at 6000 Pa.
        assert!(
            (r.p_sys.value() - 6000.0).abs() / 6000.0 < 0.01,
            "p = {}",
            r.p_sys.value()
        );
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
