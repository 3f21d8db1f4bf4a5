//! Cross-model integration tests: the 2RM must track the 4RM within the
//! error bands the paper reports (Fig. 9(a)), across network families.

use coolnet::prelude::*;

fn reference_and_coarse(
    bench: &Benchmark,
    net: &CoolingNetwork,
    m: u16,
    p: Pascal,
) -> (ThermalSolution, ThermalSolution) {
    let stack = bench.stack_with(std::slice::from_ref(net)).unwrap();
    let config = ThermalConfig::default();
    let four = Simulator::new(&stack, ModelChoice::FourRm, &config)
        .unwrap()
        .simulate(p)
        .unwrap();
    let two = Simulator::new(&stack, ModelChoice::TwoRm { m }, &config)
        .unwrap()
        .simulate(p)
        .unwrap();
    (four, two)
}

#[test]
fn straight_channels_agree_within_two_percent_at_m2() {
    let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
    let net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let (four, two) = reference_and_coarse(&bench, &net, 2, Pascal::from_kilopascals(8.0));
    let err = compare::mean_relative_error(&four, &two);
    assert!(err < 0.02, "mean relative error {err}");
}

#[test]
fn tree_network_agrees_within_three_percent_at_m2() {
    let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
    let config = TreeConfig::uniform(GlobalFlow::SouthToNorth, BranchStyle::Binary, 2, 6, 14);
    let net =
        coolnet::network::builders::tree::build(bench.dims, &bench.tsv, &bench.restricted, &config)
            .unwrap();
    let (four, two) = reference_and_coarse(&bench, &net, 2, Pascal::from_kilopascals(8.0));
    let err = compare::mean_relative_error(&four, &two);
    assert!(err < 0.03, "mean relative error {err}");
}

#[test]
fn error_is_ordered_by_family_like_fig9a() {
    // Fig. 9(a): straight-channel networks have the smallest 2RM error,
    // tree-like networks somewhat larger. Check the ordering at m = 4.
    let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
    let p = Pascal::from_kilopascals(8.0);

    let straight_net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let (f1, t1) = reference_and_coarse(&bench, &straight_net, 4, p);
    let err_straight = compare::mean_relative_error(&f1, &t1);

    let tree_cfg = TreeConfig::uniform(GlobalFlow::WestToEast, BranchStyle::Binary, 2, 6, 14);
    let tree_net = coolnet::network::builders::tree::build(
        bench.dims,
        &bench.tsv,
        &bench.restricted,
        &tree_cfg,
    )
    .unwrap();
    let (f2, t2) = reference_and_coarse(&bench, &tree_net, 4, p);
    let err_tree = compare::mean_relative_error(&f2, &t2);

    assert!(
        err_straight <= err_tree * 1.5,
        "straight {err_straight} vs tree {err_tree}: straight should not be much worse"
    );
    assert!(err_straight < 0.05 && err_tree < 0.08);
}

#[test]
fn metrics_agree_between_models() {
    // T_max and dT from the two models must agree within a modest band —
    // this is what makes the 2RM usable inside the design loop.
    let bench = Benchmark::iccad_scaled(2, GridDims::new(21, 21));
    let net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::North,
        &StraightParams::default(),
    )
    .unwrap();
    let (four, two) = reference_and_coarse(&bench, &net, 4, Pascal::from_kilopascals(6.0));
    let rise4 = four.max_temperature().value() - 300.0;
    let rise2 = two.max_temperature().value() - 300.0;
    assert!(
        (rise4 - rise2).abs() / rise4 < 0.25,
        "T_max rise: 4RM {rise4} vs 2RM {rise2}"
    );
    let (g4, g2) = (four.gradient().value(), two.gradient().value());
    assert!((g4 - g2).abs() / g4 < 0.5, "gradient: 4RM {g4} vs 2RM {g2}");
}

#[test]
fn transient_models_agree_on_time_scales() {
    // Both models should approach steady state on a similar time scale.
    let bench = Benchmark::iccad_scaled(1, GridDims::new(15, 15));
    let net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let stack = bench.stack_with(std::slice::from_ref(&net)).unwrap();
    let config = ThermalConfig::default();
    let p = Pascal::from_kilopascals(8.0);

    let four = Simulator::new(&stack, ModelChoice::FourRm, &config).unwrap();
    let two = Simulator::new(&stack, ModelChoice::TwoRm { m: 3 }, &config).unwrap();
    let steady4 = four.simulate(p).unwrap().max_temperature().value();
    let steady2 = two.simulate(p).unwrap().max_temperature().value();

    let progress = |steady: f64, mut tr: coolnet::thermal::transient::Transient<'_>| {
        tr.run(20).unwrap();
        (tr.snapshot().max_temperature().value() - 300.0) / (steady - 300.0)
    };
    let p4 = progress(steady4, four.transient(p, 1e-3, None).unwrap());
    let p2 = progress(steady2, two.transient(p, 1e-3, None).unwrap());
    assert!(p4 > 0.2 && p4 <= 1.01, "4RM progress {p4}");
    assert!(p2 > 0.2 && p2 <= 1.01, "2RM progress {p2}");
    assert!((p4 - p2).abs() < 0.4, "progress mismatch: {p4} vs {p2}");
}
