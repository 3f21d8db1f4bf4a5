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
    let sol = Simulator::new(
        &back,
        ModelChoice::TwoRm { m: 3 },
        &ThermalConfig::default(),
    )
    .unwrap()
    .simulate(Pascal::from_kilopascals(5.0))
    .unwrap();
    assert!(sol.max_temperature().value() > 300.0);
}

/// `ModelChoice` travels inside job specs, scenario specs and committed
/// artifacts, so its JSON spelling is pinned exactly.
#[test]
fn model_choice_json_is_pinned() {
    assert_eq!(
        serde_json::to_string(&ModelChoice::FourRm).unwrap(),
        r#""FourRm""#
    );
    assert_eq!(
        serde_json::to_string(&ModelChoice::fast()).unwrap(),
        r#"{"TwoRm":{"m":4}}"#
    );
    for model in [ModelChoice::FourRm, ModelChoice::fast()] {
        let json = serde_json::to_string(&model).unwrap();
        assert_eq!(serde_json::from_str::<ModelChoice>(&json).unwrap(), model);
    }

    let spec: ScenarioSpec = serde_json::from_str(
        r#"{
            "name": "pinned",
            "duration": 0.01,
            "dt": 0.001,
            "control_interval": 5,
            "model": {"TwoRm": {"m": 4}},
            "controller": {"target": 330.0, "gain": 50.0, "p_min": 100.0, "p_max": 50000.0},
            "p_initial": 5000.0,
            "events": [{"at": 0.005, "action": {"PowerScale": {"scale": 0.5}}}]
        }"#,
    )
    .unwrap();
    assert_eq!(spec.model, ModelChoice::fast());
    assert!(spec.validate().is_ok());

    let stage: Stage = serde_json::from_str(
        r#"{
            "iterations": 20,
            "rounds": 2,
            "step": 2,
            "model": "FourRm",
            "metric": "Full",
            "group": 1
        }"#,
    )
    .unwrap();
    assert_eq!(stage.model, ModelChoice::FourRm);
    assert_eq!(stage.metric, StageMetric::Full);
}

/// A `ladder` object like those configs carried before the solve became
/// one fixed function (trimmed: rung knobs and the retry policy left out).
fn legacy_ladder() -> serde_json::Value {
    serde_json::json!({
        "rungs": [
            {"solver": "Bicgstab", "precond": "Caller"},
            {"solver": {"Gmres": {"restart": 60}}, "precond": "Caller"},
            {"solver": {"DenseLu": {"max_dim": 4096}}, "precond": "Caller"}
        ],
        "gate": {"enabled": true, "singular_net_dominance": 3e-9}
    })
}

/// Inserts (`Some`) or removes (`None`) a `ladder` key in every
/// `FlowConfig` object (those carrying `port_loss_factor`) under `v`.
fn set_flow_ladder(v: &mut serde_json::Value, ladder: Option<&serde_json::Value>) {
    match v {
        serde_json::Value::Object(map) => {
            if map.contains_key("port_loss_factor") {
                match ladder {
                    Some(l) => map.insert("ladder".to_owned(), l.clone()),
                    None => map.remove("ladder"),
                };
            }
            let keys: Vec<String> = map.iter().map(|(k, _)| k.clone()).collect();
            for key in keys {
                if let Some(child) = map.get_mut(&key) {
                    set_flow_ladder(child, ladder);
                }
            }
        }
        serde_json::Value::Array(items) => {
            items.iter_mut().for_each(|c| set_flow_ladder(c, ladder));
        }
        _ => {}
    }
}

/// Solver configs round-trip, and configs saved with or without the
/// removed `ladder` key load to the same solve. A `FlowConfig` without
/// the key once fell back to the nonsymmetric ladder, so its pressure
/// solve ran BiCGSTAB instead of CG and moved `R_sys` in the last digits.
#[test]
fn solver_configs_ignore_legacy_ladders() {
    let tc = ThermalConfig::default();
    let back: ThermalConfig = serde_json::from_str(&serde_json::to_string(&tc).unwrap()).unwrap();
    assert_eq!(tc, back);
    let fc = FlowConfig::iccad2015(200e-6);
    let back: FlowConfig = serde_json::from_str(&serde_json::to_string(&fc).unwrap()).unwrap();
    assert_eq!(fc, back);

    // Stripped and legacy flow configs give the unit pressures of
    // `FlowConfig::iccad2015` bit for bit, standalone and inside a
    // serialized stack's channel layer.
    let dims = GridDims::new(21, 21);
    let net = straight::build(
        dims,
        &tsv::alternating(dims),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let bits = |cfg: &FlowConfig| -> Vec<u64> {
        let model = FlowModel::new(&net, cfg).unwrap();
        assert_eq!(model.solve_stats().rung, 0);
        model.unit_pressures().iter().map(|p| p.to_bits()).collect()
    };
    let reference = bits(&fc);
    let stack = Benchmark::iccad_scaled(1, dims)
        .stack_with(std::slice::from_ref(&net))
        .unwrap();
    for ladder in [None, Some(legacy_ladder())] {
        let mut json = serde_json::to_value(&fc).unwrap();
        set_flow_ladder(&mut json, ladder.as_ref());
        let loaded: FlowConfig = serde_json::from_value(json).unwrap();
        assert_eq!(bits(&loaded), reference);

        let mut json = serde_json::to_value(&stack).unwrap();
        set_flow_ladder(&mut json, ladder.as_ref());
        let loaded: Stack = serde_json::from_value(json).unwrap();
        let mut channels = 0;
        for layer in loaded.layers() {
            if let coolnet::thermal::LayerKind::Channel { network, flow, .. } = &layer.kind {
                assert_eq!(network, &net);
                assert_eq!(bits(flow), reference);
                channels += 1;
            }
        }
        assert_eq!(channels, stack.channel_layer_indices().len());
    }

    // Thermal configs saved with a `ladder`, or while `ThermalConfig`
    // still carried the removed solver-thread and cold-rebuild knobs,
    // still load: unknown keys are ignored.
    let mut json: serde_json::Value = serde_json::to_value(&tc).unwrap();
    let obj = json.as_object_mut().unwrap();
    obj.insert("ladder".to_owned(), legacy_ladder());
    obj.insert("solver_threads".to_owned(), serde_json::json!(4));
    obj.insert("cold_rebuild".to_owned(), serde_json::json!(true));
    let legacy: ThermalConfig = serde_json::from_value(json).unwrap();
    assert_eq!(legacy, ThermalConfig::default());
}
