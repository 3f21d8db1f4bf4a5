//! End-to-end pipeline integration test: benchmark → network → hydraulic
//! model → thermal model → network evaluation, across every crate.

use coolnet::prelude::*;

fn case(dims: GridDims, id: usize) -> Benchmark {
    Benchmark::iccad_scaled(id, dims)
}

#[test]
fn full_pipeline_case1() {
    let bench = case(GridDims::new(21, 21), 1);
    let net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )
    .expect("straight network builds");

    // Hydraulics.
    let flow_config = Evaluator::flow_config_for(&bench);
    let model = FlowModel::new(&net, &flow_config).expect("flow model");
    let p = Pascal::from_kilopascals(10.0);
    let field = model.solve(p);
    assert!(field.system_flow().value() > 0.0);
    assert!(field.max_reynolds() < 2300.0, "flow must stay laminar");

    // Thermal.
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).expect("evaluator");
    let profile = ev.profile(p).expect("profile");
    assert!(profile.t_max.value() > 300.0);
    assert!(profile.delta_t.value() > 0.0);

    // Network evaluation (Algorithm 2).
    let score = evaluate_problem1(
        &ev,
        bench.delta_t_limit,
        bench.t_max_limit,
        &PressureSearchOptions::default(),
    )
    .expect("evaluation runs");
    let NetworkScore::Feasible {
        p_sys,
        objective,
        profile,
    } = score
    else {
        panic!("case 1 straight channels must be feasible");
    };
    assert!(objective > 0.0);
    assert!(profile.delta_t.value() <= bench.delta_t_limit.value() * 1.02);
    assert!(profile.t_max.value() <= bench.t_max_limit.value());
    // W_pump consistency with Eq. (10): the objective sums the pumping
    // power of every channel layer (case 1 is a 2-die stack whose layers
    // share P_sys), so the single-layer hydraulic model scales by the
    // layer count.
    let layers = ev.layer_flows().len();
    assert_eq!(layers, 2, "case 1 is a 2-die stack");
    let w_direct = model.pumping_power(p_sys).value() * layers as f64;
    assert!((w_direct - objective).abs() / objective < 1e-9);
}

#[test]
fn all_five_cases_build_and_simulate() {
    for id in 1..=5 {
        let bench = case(GridDims::new(21, 21), id);
        let net = straight::build_flow(
            bench.dims,
            &bench.tsv,
            &bench.restricted,
            GlobalFlow::WestToEast,
            &StraightParams::default(),
        )
        .unwrap_or_else(|e| panic!("case {id}: network build failed: {e}"));
        let ev = Evaluator::new(&bench, &net, ModelChoice::TwoRm { m: 3 })
            .unwrap_or_else(|e| panic!("case {id}: evaluator failed: {e}"));
        let profile = ev.profile(Pascal::from_kilopascals(20.0)).unwrap();
        assert!(
            profile.t_max.value() > 300.0 && profile.t_max.value() < 450.0,
            "case {id}: T_max = {}",
            profile.t_max.value()
        );
    }
}

#[test]
fn case3_restricted_region_is_respected_end_to_end() {
    let bench = case(GridDims::new(31, 31), 3);
    assert!(!bench.restricted.is_empty());
    let net = straight::build_flow(
        bench.dims,
        &bench.tsv,
        &bench.restricted,
        GlobalFlow::WestToEast,
        &StraightParams::default(),
    )
    .expect("case 3 network with carved region");
    for cell in bench.restricted.iter() {
        assert!(
            !net.is_liquid(cell),
            "liquid in restricted region at {cell}"
        );
    }
    // The system still cools: simulate and check sanity.
    let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
    let profile = ev.profile(Pascal::from_kilopascals(15.0)).unwrap();
    assert!(profile.t_max.value() < 420.0);
}

#[test]
fn case4_three_die_stack_has_three_channel_layers() {
    let bench = case(GridDims::new(21, 21), 4);
    let net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let stack = bench.stack_with(std::slice::from_ref(&net)).unwrap();
    assert_eq!(stack.source_layer_indices().len(), 3);
    assert_eq!(stack.channel_layer_indices().len(), 3);
    // Middle die is sandwiched between channel layers; the stack still
    // solves and every die sees cooling.
    let sol = Simulator::new(&stack, ModelChoice::FourRm, &ThermalConfig::default())
        .unwrap()
        .simulate(Pascal::from_kilopascals(15.0))
        .unwrap();
    for layer in sol.source_layers() {
        assert!(layer.max().value() < 400.0);
        assert!(layer.min().value() >= 299.9);
    }
}

#[test]
fn tree_network_evaluates_on_every_case() {
    for id in 1..=5 {
        let bench = case(GridDims::new(21, 21), id);
        let config = TreeConfig::uniform(GlobalFlow::WestToEast, BranchStyle::Binary, 2, 6, 14);
        let net = coolnet::network::builders::tree::build(
            bench.dims,
            &bench.tsv,
            &bench.restricted,
            &config,
        )
        .unwrap_or_else(|e| panic!("case {id}: tree build failed: {e}"));
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        let profile = ev.profile(Pascal::from_kilopascals(30.0)).unwrap();
        assert!(profile.t_max.value() > 300.0, "case {id}");
    }
}
