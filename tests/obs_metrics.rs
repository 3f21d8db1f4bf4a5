//! Cross-crate consistency checks for the `coolnet-obs` metrics layer.
//!
//! The counters are process-global, so every test takes a shared mutex and
//! works on snapshot *deltas* — absolute values would couple the tests to
//! execution order.

use coolnet::obs;
use coolnet::prelude::*;
use coolnet::sparse::resilience::fault::{self, FaultKind, FaultPlan};
use coolnet::sparse::SolveError;
use coolnet_opt::psearch::golden_min;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary: each one delta-measures the
/// process-global metric registry.
static METRICS: Mutex<()> = Mutex::new(());

fn metrics_lock() -> MutexGuard<'static, ()> {
    METRICS.lock().unwrap_or_else(|p| p.into_inner())
}

fn setup() -> (Benchmark, CoolingNetwork) {
    let dims = GridDims::new(21, 21);
    let bench = Benchmark::iccad_scaled(1, dims);
    let net = straight::build(
        dims,
        &tsv::alternating(dims),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    (bench, net)
}

/// Inside a pure golden-section window every probe is one `Evaluator`
/// profile, which is one cached steady solve, which is one resilient
/// ladder solve — the four counters must march in lockstep. The window is
/// Problem 2's, `[P*/256, P*]`, so no pressure is probed twice.
#[test]
fn golden_min_window_counts_march_in_lockstep() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    // Warm the evaluator outside the window so the first-solve cache
    // construction doesn't show up in the deltas.
    ev.profile(Pascal::from_kilopascals(10.0)).unwrap();
    let p_star = ev.pressure_for_power(bench.w_pump_limit());

    let before = obs::snapshot();
    let mut f = |p: Pascal| ev.profile(p).map(|pr| pr.delta_t.value());
    let opts = PressureSearchOptions::default();
    let (p_best, _) =
        golden_min(&mut f, Pascal::new(p_star.value() / 256.0), p_star, &opts).unwrap();
    let after = obs::snapshot();

    assert!(p_best.value() > 0.0);
    let probes = after.counter_delta(&before, "psearch.probes");
    assert!(probes > 0, "golden_min must record its probes");
    assert_eq!(probes, after.counter_delta(&before, "eval.profiles"));
    assert_eq!(probes, after.counter_delta(&before, "probe.steady_solves"));
    assert_eq!(probes, after.counter_delta(&before, "ladder.solves"));
    // Warm-started probes on a healthy matrix never escalate.
    assert_eq!(after.counter_delta(&before, "ladder.escalations"), 0);
    assert_eq!(after.counter_delta(&before, "ladder.exhausted"), 0);
    // Every windowed solve was warm-started (the evaluator was pre-warmed).
    assert_eq!(probes, after.counter_delta(&before, "probe.warm_starts"));
    // Each solve runs at least one Krylov iteration.
    assert!(after.histogram_sum_delta(&before, "ladder.iterations") >= probes);
}

/// The full Problem-2 pipeline: psearch probes are a subset of evaluator
/// profiles (the pipeline also probes the cap and 0.95 × cap directly), every
/// profile is a steady solve, and the no-fault path never escalates.
#[test]
fn problem2_pipeline_metrics_are_consistent() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    let opts = PressureSearchOptions::default();

    let before = obs::snapshot();
    let score = evaluate_problem2(&ev, Watt::new(0.5), Kelvin::new(400.0), &opts).unwrap();
    let after = obs::snapshot();

    assert!(score.is_feasible(), "{score:?}");
    let profiles = after.counter_delta(&before, "eval.profiles");
    let psearch = after.counter_delta(&before, "psearch.probes");
    assert!(profiles > 0);
    assert!(
        psearch <= profiles,
        "psearch probes {psearch} exceed evaluator profiles {profiles}"
    );
    assert_eq!(
        profiles,
        after.counter_delta(&before, "probe.steady_solves")
    );
    assert_eq!(profiles, after.counter_delta(&before, "ladder.solves"));
    assert_eq!(after.counter_delta(&before, "ladder.escalations"), 0);
    assert_eq!(after.counter_delta(&before, "ladder.injected_faults"), 0);
    // Nothing on this path rebuilds the hydraulic model: flow assembly
    // happened once inside `Evaluator::new`, outside the window.
    assert_eq!(after.counter_delta(&before, "flow.assemblies"), 0);
}

/// Disabling the layer freezes every counter; re-enabling resumes them.
#[test]
fn disabled_layer_freezes_pipeline_counters() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    ev.profile(Pascal::from_kilopascals(10.0)).unwrap();

    let before = obs::snapshot();
    obs::set_enabled(false);
    let r = ev.profile(Pascal::from_kilopascals(12.0));
    obs::set_enabled(true);
    r.unwrap();
    let after = obs::snapshot();

    assert_eq!(after.counter_delta(&before, "eval.profiles"), 0);
    assert_eq!(after.counter_delta(&before, "probe.steady_solves"), 0);
    assert_eq!(after.counter_delta(&before, "ladder.solves"), 0);

    // The evaluator still works and counts once re-enabled.
    let before = obs::snapshot();
    ev.profile(Pascal::from_kilopascals(14.0)).unwrap();
    let after = obs::snapshot();
    assert_eq!(after.counter_delta(&before, "eval.profiles"), 1);
}

/// Every registered ladder counter shows up in the snapshot as an
/// explicit zero even when it never fired — a dashboard diffing two
/// snapshots must see `ladder.rung1_converged: 0`, not a missing key —
/// and a direct-step rescue counts as one escalation over two attempts.
/// (The name predates the removal of the diagnostics gate.)
#[test]
fn ladder_counters_export_explicit_zeros_and_gate_routes_count() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    ev.profile(Pascal::from_kilopascals(10.0)).unwrap();

    // One solve anywhere registers the whole ladder catalog.
    let snap = obs::snapshot();
    for name in [
        "ladder.solves",
        "ladder.attempts",
        "ladder.escalations",
        "ladder.exhausted",
        "ladder.injected_faults",
        "ladder.rung0_converged",
        "ladder.rung1_converged",
    ] {
        assert!(
            snap.counters.contains_key(name),
            "registered counter {name} missing from snapshot"
        );
    }

    // A vanishing-pressure probe makes the steady operator near-singular:
    // from a cold start BiCGSTAB fails on it and the direct step solves
    // it... (From the warm 10 kPa history the projected start is close
    // enough for BiCGSTAB, so the history is dropped first.)
    ev.reset_state();
    let before = obs::snapshot();
    ev.profile(Pascal::new(1e-6)).unwrap();
    let mid = obs::snapshot();
    assert_eq!(mid.counter_delta(&before, "ladder.rung1_converged"), 1);
    assert_eq!(mid.counter_delta(&before, "ladder.rung0_converged"), 0);
    assert_eq!(mid.counter_delta(&before, "ladder.escalations"), 1);
    assert_eq!(mid.counter_delta(&before, "ladder.attempts"), 2);

    // ...and the healthy probe after it converges at the Krylov step.
    ev.profile(Pascal::from_kilopascals(12.0)).unwrap();
    let after = obs::snapshot();
    assert_eq!(after.counter_delta(&mid, "ladder.rung0_converged"), 1);
    assert_eq!(after.counter_delta(&mid, "ladder.rung1_converged"), 0);
    assert_eq!(after.counter_delta(&mid, "ladder.escalations"), 0);
    assert_eq!(after.counter_delta(&mid, "ladder.attempts"), 1);
}

/// An exhausted solve ticks `ladder.exhausted` once and counts both of
/// its attempts and both injected faults, but no solve: perfbench's
/// `ok_frac` and wasted-attempt figures are read from these counters.
#[test]
fn exhausted_solve_counts_its_attempts_but_no_solve() {
    let _guard = metrics_lock();
    let (bench, net) = setup();
    // The flow solves of model construction run before the plan is armed.
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();

    let plan = FaultPlan::fail_first(2, FaultKind::NotConverged);
    let scope = fault::inject(&plan);
    let before = obs::snapshot();
    let result = ev.profile(Pascal::from_kilopascals(10.0));
    let after = obs::snapshot();
    drop(scope);

    assert!(
        matches!(
            result,
            Err(ThermalError::Solver(SolveError::NotConverged { .. }))
        ),
        "both steps faulted must surface the direct step's error"
    );
    assert_eq!(plan.fired(), 2);
    assert_eq!(after.counter_delta(&before, "ladder.exhausted"), 1);
    assert_eq!(after.counter_delta(&before, "ladder.attempts"), 2);
    assert_eq!(after.counter_delta(&before, "ladder.injected_faults"), 2);
    assert_eq!(after.counter_delta(&before, "ladder.solves"), 0);
}
