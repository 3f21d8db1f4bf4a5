//! Chaos tests for the solver resilience layer: deterministic faults are
//! injected into the escalation ladder at chosen attempt indices, and the
//! pipeline must recover (next rung), degrade (partial results with
//! context), or fail loudly (exhausted ladder) — never silently corrupt.
//!
//! Every solve in this binary runs while holding a [`fault::inject`]
//! scope (an empty plan for no-fault phases): the scope's process-wide
//! gate serializes tests so concurrent threads cannot consume each
//! other's fault indices.

use coolnet::opt::evalcache::EvalCache;
use coolnet::opt::sa::{anneal_with_stats, SaOptions};
use coolnet::opt::treeopt::{EvalKind, EvalRequest, RequestScorer};
use coolnet::opt::ScenarioError;
use coolnet::prelude::*;
use coolnet::sparse::resilience::fault::{self, FaultKind, FaultPlan};

fn dims() -> GridDims {
    GridDims::new(11, 11)
}

fn valid_net() -> CoolingNetwork {
    straight::build(
        dims(),
        &tsv::alternating(dims()),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// The SPD flow ladder (CG → ILU0-BiCGSTAB → GMRES → dense LU) must
/// recover at every rung: failing the first `k` attempts lands the solve
/// on rung `k` with pressures matching the unfaulted reference.
#[test]
fn flow_ladder_recovers_at_every_rung() {
    let net = valid_net();
    let cfg = FlowConfig::default();
    let reference = {
        let _scope = fault::inject(&FaultPlan::none());
        FlowModel::new(&net, &cfg).unwrap()
    };
    assert_eq!(reference.solve_report().succeeded_rung(), Some(0));
    assert!(!reference.solve_report().escalated());

    for k in 0..4 {
        let plan = FaultPlan::fail_first(k, FaultKind::Breakdown);
        let scope = fault::inject(&plan);
        let model = FlowModel::new(&net, &cfg).unwrap();
        drop(scope);
        let report = model.solve_report();
        assert_eq!(report.succeeded_rung(), Some(k), "rung for k = {k}");
        assert_eq!(report.tried(), k + 1);
        assert_eq!(report.injected_faults(), k);
        assert_eq!(plan.fired(), k);
        assert_eq!(model.solve_stats().rung, k);
        assert_eq!(model.solve_stats().attempts, k + 1);
        let d = max_abs_diff(model.unit_pressures(), reference.unit_pressures());
        assert!(d < 1e-6, "pressure mismatch {d} at rung {k}");
    }
}

/// Failing every rung exhausts the ladder: the model constructor must
/// return an error (not garbage pressures), and the plan must have fired
/// once per rung.
#[test]
fn flow_ladder_exhaustion_is_an_error() {
    let net = valid_net();
    let cfg = FlowConfig::default();
    let plan = FaultPlan::fail_first(4, FaultKind::NotConverged);
    let scope = fault::inject(&plan);
    let result = FlowModel::new(&net, &cfg);
    drop(scope);
    assert!(result.is_err(), "exhausted ladder must surface an error");
    assert_eq!(plan.fired(), 4);
}

/// The nonsymmetric thermal ladder (BiCGSTAB → GMRES(60) → ILU0-GMRES(150)
/// → dense LU) must recover at every rung, including the terminal dense-LU
/// fallback, with temperatures matching the unfaulted solve.
#[test]
fn thermal_ladder_recovers_at_every_rung() {
    let bench = Benchmark::iccad_scaled(1, dims());
    let net = valid_net();
    // Model construction performs flow solves of its own — build it (and
    // the reference solution) before arming the fault plan.
    let (sim, reference, p) = {
        let _scope = fault::inject(&FaultPlan::none());
        let stack = bench.stack_with(std::slice::from_ref(&net)).unwrap();
        let sim = TwoRm::new(&stack, 2, &ThermalConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let reference = sim.simulate(p).unwrap();
        (sim, reference, p)
    };
    assert_eq!(reference.stats().rung, 0);

    for k in 0..4 {
        let plan = FaultPlan::fail_first(k, FaultKind::NotConverged);
        let scope = fault::inject(&plan);
        let sol = sim.simulate(p).unwrap();
        drop(scope);
        assert_eq!(sol.stats().rung, k, "rung for k = {k}");
        assert_eq!(sol.stats().attempts, k + 1);
        let d = max_abs_diff(sol.all_temperatures(), reference.all_temperatures());
        assert!(d < 5e-3, "temperature mismatch {d} K at rung {k}");
    }

    // Exhaustion: every rung faulted → the probe errors instead of lying.
    let plan = FaultPlan::fail_first(4, FaultKind::Breakdown);
    let scope = fault::inject(&plan);
    let result = sim.simulate(p);
    drop(scope);
    assert!(matches!(result, Err(ThermalError::Solver(_))));
}

/// NaN poisoning exercises the ladder's finiteness guard: the poisoned
/// rung's solution is rejected and the next rung produces finite
/// temperatures.
#[test]
fn nan_poisoning_escalates_to_the_next_rung() {
    let bench = Benchmark::iccad_scaled(1, dims());
    let net = valid_net();
    let sim = {
        let _scope = fault::inject(&FaultPlan::none());
        let stack = bench.stack_with(std::slice::from_ref(&net)).unwrap();
        TwoRm::new(&stack, 2, &ThermalConfig::default()).unwrap()
    };
    let plan = FaultPlan::at([(0, FaultKind::PoisonNan)]);
    let scope = fault::inject(&plan);
    let sol = sim.simulate(Pascal::from_kilopascals(5.0)).unwrap();
    drop(scope);
    assert_eq!(sol.stats().rung, 1);
    assert_eq!(plan.fired(), 1);
    assert!(sol.all_temperatures().iter().all(|t| t.is_finite()));
}

/// The probe cache must survive faulted probes: a probe that escalates
/// (or exhausts the ladder) must not corrupt the cached operator, so
/// subsequent no-fault probes still match the cold-rebuild reference.
#[test]
fn probe_cache_survives_faulted_probes() {
    let bench = Benchmark::iccad_scaled(1, dims());
    let net = valid_net();
    let kpa = [2.0, 5.0, 8.0, 12.0, 16.0];
    let (cached, cold_refs) = {
        let _scope = fault::inject(&FaultPlan::none());
        let stack = bench.stack_with(std::slice::from_ref(&net)).unwrap();
        let cached = TwoRm::new(&stack, 2, &ThermalConfig::default()).unwrap();
        let refs: Vec<ThermalSolution> = kpa
            .iter()
            .map(|&k| {
                cached
                    .simulate_reference(Pascal::from_kilopascals(k), None)
                    .unwrap()
            })
            .collect();
        (cached, refs)
    };
    let check = |sol: &ThermalSolution, i: usize| {
        let d = max_abs_diff(sol.all_temperatures(), cold_refs[i].all_temperatures());
        assert!(d < 5e-3, "cache mismatch {d} K at {} kPa", kpa[i]);
    };

    // Prime the cache with a clean probe.
    let scope = fault::inject(&FaultPlan::none());
    let sol = cached.simulate(Pascal::from_kilopascals(kpa[0])).unwrap();
    drop(scope);
    check(&sol, 0);

    // A probe that escalates two rungs still matches the cold reference.
    let scope = fault::inject(&FaultPlan::fail_first(2, FaultKind::Breakdown));
    let sol = cached.simulate(Pascal::from_kilopascals(kpa[1])).unwrap();
    drop(scope);
    assert_eq!(sol.stats().rung, 2);
    check(&sol, 1);

    // The next clean probe drops back to rung 0 — the cache refresh under
    // fault did not poison the cached operator or factorization.
    let scope = fault::inject(&FaultPlan::none());
    let sol = cached.simulate(Pascal::from_kilopascals(kpa[2])).unwrap();
    drop(scope);
    assert_eq!(sol.stats().rung, 0);
    check(&sol, 2);

    // Exhaust the ladder entirely...
    let scope = fault::inject(&FaultPlan::fail_first(4, FaultKind::NotConverged));
    assert!(cached.simulate(Pascal::from_kilopascals(kpa[3])).is_err());
    drop(scope);

    // ...and the cache must still serve correct clean probes afterwards.
    let scope = fault::inject(&FaultPlan::none());
    let sol = cached.simulate(Pascal::from_kilopascals(kpa[4])).unwrap();
    drop(scope);
    assert_eq!(sol.stats().rung, 0);
    check(&sol, 4);
}

/// A chaos-mode SA run: roughly a fifth of cost evaluations panic or
/// return NaN. The run must complete, keep a finite incumbent, count the
/// failures, and stay deterministic for a fixed seed.
#[test]
fn sa_run_survives_chaotic_cost_evaluations() {
    fn toy_cost(x: &i64) -> f64 {
        let d = (*x - 17) as f64;
        d * d
    }
    let chaotic = |x: &i64| match x.rem_euclid(10) {
        3 => panic!("injected cost panic"),
        7 => f64::NAN,
        _ => toy_cost(x),
    };
    let opts = SaOptions {
        iterations: 120,
        parallelism: 8,
        initial_temperature: 50.0,
        cooling: 0.96,
        seed: 23,
    };
    let run = || {
        anneal_with_stats(
            0i64,
            toy_cost(&0),
            |x, rng| x + rand::Rng::gen_range(rng, -2i64..=2),
            chaotic,
            &opts,
        )
    };
    let a = run();
    assert!(a.best_cost.is_finite());
    assert!(a.best_cost <= toy_cost(&0), "incumbent must never regress");
    assert!(
        a.failures.panics > 0,
        "chaos must actually fire: {:?}",
        a.failures
    );
    assert!(
        a.failures.nans > 0,
        "chaos must actually fire: {:?}",
        a.failures
    );
    let b = run();
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_cost, b.best_cost);
    assert_eq!(a.failures, b.failures);
}

/// A candidate whose solve exhausts the ladder scores `+∞` just like a
/// physically infeasible one, but only the solver error is counted in
/// `eval.solver_errors` — on every path that can raise one: building the
/// evaluator, a frozen-pressure profile, and the full evaluation.
#[test]
fn solver_errors_are_counted_apart_from_infeasible_candidates() {
    let dims = GridDims::new(21, 21);
    let bench = Benchmark::iccad_scaled(1, dims);
    let opts = TreeSearchOptions::quick(1);
    let flow = GlobalFlow::WestToEast;
    let trees = TreeConfig::max_trees(dims, flow, opts.style);
    let config = TreeConfig::uniform(flow, opts.style, trees, 8, 14);
    let request = |kind| EvalRequest {
        config: config.clone(),
        model: ModelChoice::fast(),
        kind,
    };
    let solver_errors = |before: &coolnet::obs::MetricsSnapshot| {
        coolnet::obs::snapshot().counter_delta(before, "eval.solver_errors")
    };
    let infinite = |(cost, p): (f64, Option<Pascal>)| cost == f64::INFINITY && p.is_none();
    let exhausted = || FaultPlan::fail_first(100_000, FaultKind::NotConverged);
    let p = Pascal::from_kilopascals(5.0);

    // A cached scorer builds its evaluator on a clean first request, so
    // the faulted requests after it reach the profile and full-score
    // paths.
    let cached = RequestScorer::new(&bench, opts.psearch, Problem::PumpingPower)
        .with_cache(std::sync::Arc::new(EvalCache::new(8)), 0);
    let clean = fault::inject(&FaultPlan::none());
    let before = coolnet::obs::snapshot();
    assert!(
        before.counters.contains_key("eval.solver_errors"),
        "registered eagerly, so snapshots export an explicit zero"
    );
    let (gradient, _) = cached.score(&request(EvalKind::GradientAt(p)));
    assert!(gradient.is_finite());
    assert_eq!(solver_errors(&before), 0);
    drop(clean);

    let scope = fault::inject(&exhausted());
    let before = coolnet::obs::snapshot();
    assert!(infinite(cached.score(&request(EvalKind::ObjectiveAt(p)))));
    assert_eq!(solver_errors(&before), 1, "profile error");
    assert!(infinite(cached.score(&request(EvalKind::Full))));
    assert_eq!(solver_errors(&before), 2, "full-evaluation error");
    let uncached = RequestScorer::new(&bench, opts.psearch, Problem::PumpingPower);
    assert!(infinite(uncached.score(&request(EvalKind::Full))));
    assert_eq!(solver_errors(&before), 3, "evaluator construction error");
    drop(scope);

    // Physics, not the solver: a T*_max below the inlet temperature is
    // infeasible for every network, and must not count as an error.
    let mut impossible = bench.clone();
    impossible.t_max_limit = Kelvin::new(290.0);
    let scorer = RequestScorer::new(&impossible, opts.psearch, Problem::PumpingPower);
    let clean = fault::inject(&FaultPlan::none());
    let before = coolnet::obs::snapshot();
    assert!(infinite(scorer.score(&request(EvalKind::Full))));
    assert_eq!(solver_errors(&before), 0);
    drop(clean);
}

/// A mid-trace solver fault in a closed-loop scenario surfaces a
/// `ScenarioError::Run` carrying the failing control step, simulated time,
/// active pressure, and every interval completed before the fault.
#[test]
fn runtime_simulation_fault_reports_context_and_partial_trace() {
    let bench = Benchmark::iccad_scaled(1, dims());
    let net = valid_net();
    let spec = ScenarioSpec {
        name: "faulted".to_owned(),
        duration: 1.0,
        dt: 1e-3,
        control_interval: 10,
        model: ModelChoice::fast(),
        controller: FlowController {
            target: Kelvin::new(310.0),
            gain: 800.0,
            p_min: Pascal::from_kilopascals(0.5),
            p_max: Pascal::from_kilopascals(10.0),
        },
        p_initial: Pascal::from_kilopascals(5.0),
        events: Vec::new(),
    };
    // Fault a contiguous window of attempt indices well past model setup:
    // whichever transient step lands in it has every ladder rung refused,
    // failing the simulation a few control intervals into the trace.
    let plan = FaultPlan::at((30..80).map(|i| (i, FaultKind::NotConverged)));
    let scope = fault::inject(&plan);
    let err = run_scenario(&bench, &net, &spec, &ThermalConfig::default())
        .expect_err("faulted window must abort the simulation");
    drop(scope);
    assert!(
        plan.fired() >= 4,
        "ladder exhaustion needs one fault per rung"
    );
    let msg = err.to_string();
    let ScenarioError::Run {
        step,
        time,
        p_sys,
        intervals,
        source,
    } = err
    else {
        panic!("want a mid-trace Run error, got {err:?}");
    };
    assert!(step >= 1, "setup and early steps should precede the fault");
    assert_eq!(intervals.len(), step, "one interval per completed step");
    assert!(time > 0.0);
    assert!(p_sys.value() > 0.0);
    assert!(matches!(source, ThermalError::Solver(_)));
    assert!(
        msg.contains("step"),
        "display should locate the fault: {msg}"
    );
    // The partial trace is usable: monotone time, finite temperatures.
    for pair in intervals.windows(2) {
        assert!(pair[1].time > pair[0].time);
    }
    assert!(intervals.iter().all(|s| s.t_max.value().is_finite()));
}
