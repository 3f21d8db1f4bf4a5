//! Model-accuracy comparison (Fig. 9(a)).
//!
//! The paper evaluates each 2RM simulation by "its average relative error
//! of thermal nodes in the source layers (compared with 4RM simulation)".
//! [`mean_relative_error`] reproduces that metric: for every basic cell of
//! every source layer, the coarse solution is resolved to the containing
//! thermal cell and compared with the fine solution.
//!
//! **Denominator pitfall.** The paper's metric divides by the *absolute*
//! temperature in kelvin. Solutions sit near the 300 K inlet, so the
//! denominator is ~300 and a "relative error" gate of 0.05 actually
//! tolerates ~15–18 K of disagreement — larger than every `ΔT*` limit in
//! Table 2. What the gradient constraint cares about is the temperature
//! *rise* above the inlet, which is the ~5–40 K signal the models must
//! agree on. Use [`mean_relative_rise_error`] for any correctness gate;
//! `mean_relative_error` is kept only for Fig. 9(a) comparability.

use crate::solution::ThermalSolution;
use coolnet_units::Kelvin;

/// Mean relative error of `test` against `reference` over all source-layer
/// basic cells: `mean(|T_test − T_ref| / T_ref)`.
///
/// **Caution:** `T_ref` is absolute kelvin (~300), so this metric
/// understates disagreement by two orders of magnitude relative to the
/// temperature rise the constraints act on — see the module docs and
/// prefer [`mean_relative_rise_error`] for gating.
///
/// # Panics
///
/// Panics if the two solutions have different numbers of source layers or
/// differing grid dimensions.
pub fn mean_relative_error(reference: &ThermalSolution, test: &ThermalSolution) -> f64 {
    assert_eq!(
        reference.source_layers().len(),
        test.source_layers().len(),
        "source-layer count mismatch"
    );
    let mut sum = 0.0;
    let mut count = 0usize;
    for (r, t) in reference.source_layers().iter().zip(test.source_layers()) {
        assert_eq!(r.dims(), t.dims(), "grid dimension mismatch");
        for cell in r.dims().iter() {
            let tr = r.temperature(cell).value();
            let tt = t.temperature(cell).value();
            sum += (tt - tr).abs() / tr;
            count += 1;
        }
    }
    sum / count as f64
}

/// Rise-relative error of `test` against `reference` over all source-layer
/// basic cells: `Σ|T_test − T_ref| / Σ(T_ref − T_inlet)`.
///
/// This normalizes by the temperature *rise* above the coolant inlet —
/// the signal the `ΔT*`/`T*_max` constraints act on — instead of absolute
/// kelvin, so a 0.05 gate means "the models disagree by at most 5% of the
/// heating they are modelling". The numerator and denominator are summed
/// over all cells *before* dividing (an aggregate ratio, not a mean of
/// per-cell ratios) so cells sitting at the inlet temperature cannot
/// blow up the metric with near-zero denominators.
///
/// # Panics
///
/// Panics if the two solutions have different numbers of source layers or
/// differing grid dimensions, or if the reference solution carries no
/// rise above `t_inlet` at all (the metric is undefined for an unheated
/// stack).
pub fn mean_relative_rise_error(
    reference: &ThermalSolution,
    test: &ThermalSolution,
    t_inlet: Kelvin,
) -> f64 {
    assert_eq!(
        reference.source_layers().len(),
        test.source_layers().len(),
        "source-layer count mismatch"
    );
    let mut diff = 0.0;
    let mut rise = 0.0;
    for (r, t) in reference.source_layers().iter().zip(test.source_layers()) {
        assert_eq!(r.dims(), t.dims(), "grid dimension mismatch");
        for cell in r.dims().iter() {
            let tr = r.temperature(cell).value();
            let tt = t.temperature(cell).value();
            diff += (tt - tr).abs();
            rise += tr - t_inlet.value();
        }
    }
    assert!(
        rise > 0.0,
        "reference solution has no rise above the inlet; the metric is undefined"
    );
    diff / rise
}

/// Maximum absolute temperature difference (kelvin) over source-layer
/// basic cells — a stricter companion metric to [`mean_relative_error`].
///
/// # Panics
///
/// Same conditions as [`mean_relative_error`].
pub fn max_absolute_error(reference: &ThermalSolution, test: &ThermalSolution) -> f64 {
    let mut max = 0.0f64;
    for (r, t) in reference.source_layers().iter().zip(test.source_layers()) {
        assert_eq!(r.dims(), t.dims(), "grid dimension mismatch");
        for cell in r.dims().iter() {
            let d = (t.temperature(cell).value() - r.temperature(cell).value()).abs();
            max = max.max(d);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThermalConfig;
    use crate::power::PowerMap;
    use crate::simulator::{ModelChoice, Simulator};
    use crate::solution::{Resolution, SourceLayerTemps};
    use crate::stack::Stack;
    use coolnet_grid::{Cell, Dir, GridDims, Side};
    use coolnet_network::{CoolingNetwork, PortKind};
    use coolnet_sparse::SolveStats;
    use coolnet_units::Pascal;

    fn stack(dims: GridDims) -> Stack {
        let mut b = CoolingNetwork::builder(dims);
        let mut y = 0;
        while y < dims.height() {
            b.segment(Cell::new(0, y), Dir::East, dims.width());
            y += 2;
        }
        b.port(PortKind::Inlet, Side::West, 0, dims.height() - 1);
        b.port(PortKind::Outlet, Side::East, 0, dims.height() - 1);
        Stack::interlayer(
            dims,
            100e-6,
            vec![PowerMap::uniform(dims, 3.0)],
            &[b.build().unwrap()],
            200e-6,
        )
        .unwrap()
    }

    #[test]
    fn identical_solutions_have_zero_error() {
        let dims = GridDims::new(11, 11);
        let s = stack(dims);
        let sol = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default())
            .unwrap()
            .simulate(Pascal::from_kilopascals(5.0))
            .unwrap();
        assert_eq!(mean_relative_error(&sol, &sol), 0.0);
        assert_eq!(max_absolute_error(&sol, &sol), 0.0);
    }

    #[test]
    fn error_grows_with_coarsening() {
        // The Fig. 9(a) trend: accuracy decreases as thermal cells grow.
        // Gated on the rise-relative metric — the absolute-kelvin form
        // hides multi-kelvin disagreement behind ~300 K denominators (see
        // `old_metric_admits_multi_kelvin_disagreement`).
        let dims = GridDims::new(21, 21);
        let s = stack(dims);
        let p = Pascal::from_kilopascals(5.0);
        let config = ThermalConfig::default();
        let reference = Simulator::new(&s, ModelChoice::FourRm, &config)
            .unwrap()
            .simulate(p)
            .unwrap();
        let mut errors = Vec::new();
        for m in [1u16, 3, 7] {
            let sol = Simulator::new(&s, ModelChoice::TwoRm { m }, &config)
                .unwrap()
                .simulate(p)
                .unwrap();
            errors.push(mean_relative_rise_error(&reference, &sol, config.t_inlet));
        }
        // Not necessarily strictly monotone at every step, but the coarsest
        // must be worse than the finest.
        assert!(errors[2] > errors[0], "errors = {errors:?}");
        // And all errors stay small relative to the modelled heating.
        for e in &errors {
            assert!(*e < 0.25, "errors = {errors:?}");
        }
    }

    #[test]
    fn old_metric_admits_multi_kelvin_disagreement() {
        // Regression for the denominator bug: a test solution that runs
        // 16 K hot over 10% of the die — far beyond any Table 2 ΔT* —
        // still clears the historical 0.05 `mean_relative_error` gate,
        // because the denominator is absolute kelvin (~312), not the
        // 12 K rise the constraints act on. The rise-relative metric
        // flags the same pair. Verified failing pre-fix: with only the
        // old metric this disagreement was invisible to every gate.
        let dims = GridDims::new(20, 20);
        let n = dims.num_cells();
        let reference = ThermalSolution::new(
            vec![SourceLayerTemps::new(
                1,
                dims,
                Resolution::Fine,
                vec![312.0; n],
            )],
            vec![],
            SolveStats::default(),
        );
        let hot = (0..n)
            .map(|i| if i % 10 == 0 { 328.0 } else { 312.0 })
            .collect();
        let test = ThermalSolution::new(
            vec![SourceLayerTemps::new(1, dims, Resolution::Fine, hot)],
            vec![],
            SolveStats::default(),
        );

        let old = mean_relative_error(&reference, &test);
        let rise = mean_relative_rise_error(&reference, &test, Kelvin::new(300.0));
        let abs = max_absolute_error(&reference, &test);

        assert!(abs >= 15.0, "worst-cell disagreement is {abs} K");
        assert!(old < 0.05, "old metric passes the historical gate: {old}");
        assert!(rise > 0.10, "rise metric must flag the pair: {rise}");
    }

    #[test]
    #[should_panic(expected = "no rise above the inlet")]
    fn rise_metric_rejects_unheated_reference() {
        let dims = GridDims::new(11, 11);
        let n = dims.num_cells();
        let flat = ThermalSolution::new(
            vec![SourceLayerTemps::new(
                0,
                dims,
                Resolution::Fine,
                vec![300.0; n],
            )],
            vec![],
            SolveStats::default(),
        );
        mean_relative_rise_error(&flat, &flat, Kelvin::new(300.0));
    }
}
