//! Persistence integration tests: every data-model type the harness saves
//! to disk must survive a JSON round trip with full fidelity.

use coolnet::prelude::*;

#[test]
fn network_round_trips() {
    let dims = GridDims::new(21, 21);
    let net = straight::build(
        dims,
        &tsv::alternating(dims),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let json = serde_json::to_string(&net).unwrap();
    let back: CoolingNetwork = serde_json::from_str(&json).unwrap();
    assert_eq!(net, back);
    assert!(back.validate().is_ok());
}

#[test]
fn tree_config_round_trips() {
    let config = TreeConfig::uniform(GlobalFlow::SouthToNorth, BranchStyle::Trident, 4, 10, 24);
    let json = serde_json::to_string(&config).unwrap();
    let back: TreeConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, back);
}

#[test]
fn benchmark_round_trips_with_identical_power() {
    let bench = Benchmark::iccad_scaled(3, GridDims::new(21, 21));
    let json = serde_json::to_string(&bench).unwrap();
    let back: Benchmark = serde_json::from_str(&json).unwrap();
    assert_eq!(bench.power_maps, back.power_maps);
    assert_eq!(bench.restricted, back.restricted);
    assert_eq!(bench.delta_t_limit, back.delta_t_limit);
}

#[test]
fn design_result_round_trips() {
    let dims = GridDims::new(21, 21);
    let bench = Benchmark::iccad_scaled(1, dims);
    let net = straight::build(
        dims,
        &tsv::alternating(dims),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let result = DesignResult::measure_with_model(
        &bench,
        &net,
        Problem::PumpingPower,
        "round-trip",
        &PressureSearchOptions::default(),
        ModelChoice::fast(),
    )
    .unwrap()
    .expect("feasible");
    let json = serde_json::to_string(&result).unwrap();
    let back: DesignResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back.label, "round-trip");
    assert_eq!(back.network, result.network);
    assert!((back.w_pump.value() - result.w_pump.value()).abs() < 1e-15);
    // A deserialized design can be re-simulated to the same metrics (up to
    // iterative-solver tolerance: a cold-start solve differs from the
    // warm-started one by ~1e-4 K at the default residual target).
    let ev = Evaluator::new(&bench, &back.network, ModelChoice::fast()).unwrap();
    let profile = ev.profile(back.p_sys).unwrap();
    assert!((profile.t_max.value() - back.t_max.value()).abs() < 1e-3);
}

#[test]
fn stack_round_trips() {
    let dims = GridDims::new(15, 15);
    let bench = Benchmark::iccad_scaled(1, dims);
    let net = straight::build(
        dims,
        &tsv::alternating(dims),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let stack = bench.stack_with(std::slice::from_ref(&net)).unwrap();
    let json = serde_json::to_string(&stack).unwrap();
    let back: Stack = serde_json::from_str(&json).unwrap();
    assert_eq!(stack, back);
    // And it still simulates.
    let sol = TwoRm::new(&back, 3, &ThermalConfig::default())
        .unwrap()
        .simulate(Pascal::from_kilopascals(5.0))
        .unwrap();
    assert!(sol.max_temperature().value() > 300.0);
}

#[test]
fn solve_ladder_round_trips_inside_configs() {
    use coolnet::sparse::SolveLadder;

    // The ladder itself, both presets.
    for ladder in [SolveLadder::spd(), SolveLadder::nonsymmetric()] {
        let json = serde_json::to_string(&ladder).unwrap();
        let back: SolveLadder = serde_json::from_str(&json).unwrap();
        assert_eq!(ladder, back);
    }

    // Embedded in the solver configs.
    let tc = ThermalConfig::default();
    let back: ThermalConfig = serde_json::from_str(&serde_json::to_string(&tc).unwrap()).unwrap();
    assert_eq!(tc, back);
    let fc = FlowConfig::default();
    let back: FlowConfig = serde_json::from_str(&serde_json::to_string(&fc).unwrap()).unwrap();
    assert_eq!(fc, back);

    // Configs saved before the resilience layer existed (no `ladder` key)
    // still deserialize, picking up the safe default ladder.
    let mut json: serde_json::Value = serde_json::to_value(&tc).unwrap();
    json.as_object_mut().unwrap().remove("ladder");
    let old: ThermalConfig = serde_json::from_value(json).unwrap();
    assert_eq!(old.ladder, SolveLadder::default());

    // Configs saved while `ThermalConfig` still carried the removed
    // solver-thread and cold-rebuild knobs still load: unknown keys are
    // ignored.
    let mut json: serde_json::Value = serde_json::to_value(&tc).unwrap();
    let obj = json.as_object_mut().unwrap();
    obj.insert("solver_threads".to_owned(), serde_json::json!(4));
    obj.insert("cold_rebuild".to_owned(), serde_json::json!(true));
    let legacy: ThermalConfig = serde_json::from_value(json).unwrap();
    assert_eq!(legacy, ThermalConfig::default());
}
