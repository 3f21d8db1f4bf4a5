//! Scenario replay contract: `(spec, substrate) → bit-identical trace`.
//!
//! The dynamic-scenario engine promises that a [`ScenarioSpec`] replays
//! bit-for-bit — across repeated runs in one process with fresh
//! integrators, and across a serde round trip of the spec. The fixture
//! runs the 4RM model on a 41×41 stack, above the direct rung's size cap,
//! so every solve goes through the warm-started Krylov rungs.

use coolnet::prelude::*;

/// A scenario with four event kinds (power map, DVFS scale, forced
/// pressure + release, inlet excursion) on a 41×41 4RM stack.
fn fixture() -> (Benchmark, CoolingNetwork, ScenarioSpec) {
    let dims = GridDims::new(41, 41);
    let bench = Benchmark::iccad_scaled(1, dims);
    let net = straight::build(dims, &bench.tsv, Dir::East, &StraightParams::default()).unwrap();
    let watts = bench.power_maps[0].total().value();
    let spec = ScenarioSpec {
        name: "determinism-fixture".to_owned(),
        duration: 0.08,
        dt: 1e-3,
        control_interval: 10,
        model: ModelChoice::FourRm,
        controller: ScenarioSpec::preset_controller(),
        p_initial: Pascal::from_kilopascals(10.0),
        events: vec![
            ScenarioEvent {
                at: 0.0,
                action: EventAction::PowerMap {
                    die: 0,
                    map: coolnet::cases::floorplan::hotspot_quadrant(dims, watts, 1),
                },
            },
            ScenarioEvent {
                at: 0.02,
                action: EventAction::PowerScale { scale: 1.2 },
            },
            ScenarioEvent {
                at: 0.03,
                action: EventAction::ForcePressure {
                    p_sys: Pascal::from_kilopascals(2.0),
                },
            },
            ScenarioEvent {
                at: 0.05,
                action: EventAction::ReleasePressure,
            },
            ScenarioEvent {
                at: 0.06,
                action: EventAction::InletTemperature {
                    t_inlet: Kelvin::new(305.0),
                },
            },
        ],
    };
    spec.validate().unwrap();
    (bench, net, spec)
}

fn run(bench: &Benchmark, net: &CoolingNetwork, spec: &ScenarioSpec) -> ScenarioTrace {
    run_scenario(bench, net, spec, &ThermalConfig::default()).unwrap()
}

/// Same-config replays in one process: fresh integrators, identical
/// bits. (The name predates the removal of the solver-thread knob; every
/// solve is now serial.)
#[test]
fn trace_is_bit_identical_across_solver_threads_and_runs() {
    let (bench, net, spec) = fixture();
    let reference = run(&bench, &net, &spec);
    assert_eq!(reference.intervals.len(), 8);

    for replay in 1..=2 {
        let again = run(&bench, &net, &spec);
        assert_eq!(
            reference.fingerprint(),
            again.fingerprint(),
            "trace diverged on replay {replay}"
        );
        assert_eq!(reference, again);
    }
}

#[test]
fn trace_survives_a_serde_round_trip_of_the_spec() {
    let (bench, net, spec) = fixture();
    let json = serde_json::to_string(&spec).unwrap();
    let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
    let a = run(&bench, &net, &spec);
    let b = run(&bench, &net, &back);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a, b);
}

#[test]
fn scored_metrics_are_finite_and_consistent() {
    let (bench, net, spec) = fixture();
    let trace = run(&bench, &net, &spec);
    assert!(trace.peak_t_max().value().is_finite());
    assert!(trace.peak_gradient().value() > 0.0);
    assert!(trace.peak_stress().value() > 0.0);
    assert!(trace.pumping_energy() > 0.0);
    // Forced episode visible: intervals 3 and 4 pinned at 2 kPa.
    assert!(trace.intervals[3].forced && trace.intervals[4].forced);
    assert_eq!(trace.intervals[3].p_sys.to_kilopascals(), 2.0);
    // Inlet excursion visible from interval 6 on.
    assert_eq!(trace.intervals[6].t_inlet.value(), 305.0);
    // The stress proxy is a local gradient, bounded by the global ΔT.
    for s in &trace.intervals {
        assert_eq!(s.stress.len(), bench.num_dies);
        for k in &s.stress {
            assert!(k.value() >= 0.0 && k.value() <= s.delta_t.value() + 1e-12);
        }
    }
}
