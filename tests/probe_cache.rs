//! Equivalence tests for the probe-path cache: `simulate` with cached
//! numeric reassembly and ILU(0) refactoring must reproduce the
//! cold-rebuild reference (`simulate_reference`) across pressures and
//! both reduced models.

use coolnet::prelude::*;

fn test_stack() -> Stack {
    let bench = Benchmark::iccad_scaled(2, GridDims::new(21, 21));
    let net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    bench.stack_with(&[net.clone(), net]).unwrap()
}

fn max_abs_diff(a: &ThermalSolution, b: &ThermalSolution) -> f64 {
    a.all_temperatures()
        .iter()
        .zip(b.all_temperatures())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

const PRESSURES_KPA: [f64; 4] = [2.0, 6.0, 10.0, 20.0];

// The two paths assemble the same operator with different summation
// orders and different iterate trajectories, so temperatures agree to
// roundoff amplified by the solver tolerance (1e-8 relative residual) —
// a few millikelvin at worst, three orders below the kelvin-scale
// gradients the optimizer compares.
const TOL_KELVIN: f64 = 5e-3;

#[test]
fn two_rm_cached_probes_match_cold_rebuild() {
    let stack = test_stack();
    let sim = Simulator::new(
        &stack,
        ModelChoice::TwoRm { m: 2 },
        &ThermalConfig::default(),
    )
    .unwrap();
    for kpa in PRESSURES_KPA {
        let p = Pascal::from_kilopascals(kpa);
        // The cached path reuses its ProbeCache across this loop — the
        // exact access pattern of a pressure search; the reference path
        // neither reads nor writes it.
        let a = sim.simulate(p).unwrap();
        let b = sim.simulate_reference(p, None).unwrap();
        let d = max_abs_diff(&a, &b);
        assert!(d < TOL_KELVIN, "2RM mismatch {d} K at {kpa} kPa");
    }
}

#[test]
fn four_rm_cached_probes_match_cold_rebuild() {
    let stack = test_stack();
    let sim = Simulator::new(&stack, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
    for kpa in [4.0, 12.0] {
        let p = Pascal::from_kilopascals(kpa);
        let a = sim.simulate(p).unwrap();
        let b = sim.simulate_reference(p, None).unwrap();
        let d = max_abs_diff(&a, &b);
        assert!(d < TOL_KELVIN, "4RM mismatch {d} K at {kpa} kPa");
    }
}

#[test]
fn warm_start_probes_match_too() {
    // simulate_with_guess drives the same cached path; feeding the
    // previous solution as a guess must not change the converged answer.
    let stack = test_stack();
    let sim = Simulator::new(
        &stack,
        ModelChoice::TwoRm { m: 2 },
        &ThermalConfig::default(),
    )
    .unwrap();
    let mut prev: Option<ThermalSolution> = None;
    for kpa in PRESSURES_KPA {
        let p = Pascal::from_kilopascals(kpa);
        let a = match &prev {
            Some(g) => sim.simulate_with_guess(p, g).unwrap(),
            None => sim.simulate(p).unwrap(),
        };
        let b = sim.simulate_reference(p, None).unwrap();
        let d = max_abs_diff(&a, &b);
        assert!(d < TOL_KELVIN, "warm-start mismatch {d} K at {kpa} kPa");
        prev = Some(a);
    }
}
