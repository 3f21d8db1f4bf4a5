//! Property-based tests of the thermal models: energy conservation and
//! the §4.1 monotonicity structure on random cooling systems.

use coolnet_flow::FlowModel;
use coolnet_grid::{Cell, Dir, GridDims, Side};
use coolnet_network::{CoolingNetwork, PortKind};
use coolnet_thermal::{LayerKind, ModelChoice, PowerMap, Simulator, Stack, ThermalConfig};
use coolnet_units::Pascal;
use proptest::prelude::*;

/// A random small cooling system: straight channels with random spacing
/// plus a random block floorplan.
fn system() -> impl Strategy<Value = (Stack, CoolingNetwork)> {
    let dim = (5u16..10).prop_map(|v| v * 2 + 1); // 11..=19, odd
    (
        dim,
        prop::sample::select(vec![2u16, 4]),
        0.5f64..5.0,
        prop::collection::vec((0u16..8, 0u16..8, 0.1f64..2.0), 1..4),
    )
        .prop_map(|(side, spacing, base_power, blocks)| {
            let dims = GridDims::new(side, side);
            let mut b = CoolingNetwork::builder(dims);
            let mut y = 0;
            while y < side {
                b.segment(Cell::new(0, y), Dir::East, side);
                y += spacing;
            }
            b.port(PortKind::Inlet, Side::West, 0, side - 1);
            b.port(PortKind::Outlet, Side::East, 0, side - 1);
            let net = b.build().expect("straight network");
            let mut power = PowerMap::uniform(dims, base_power);
            for (x, y, w) in blocks {
                let x = x.min(side - 3);
                let y = y.min(side - 3);
                power.add_block(x, y, x + 2, y + 2, w);
            }
            let stack = Stack::interlayer(
                dims,
                100e-6,
                vec![power],
                std::slice::from_ref(&net),
                200e-6,
            )
            .expect("stack");
            (stack, net)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_die_power_leaves_as_coolant_enthalpy((stack, net) in system(), kpa in 2.0f64..30.0) {
        let config = ThermalConfig::default();
        let sim = Simulator::new(&stack, ModelChoice::FourRm, &config).unwrap();
        let p_sys = Pascal::from_kilopascals(kpa);
        let sol = sim.simulate(p_sys).unwrap();

        let LayerKind::Channel { flow, .. } = &stack.layers()[2].kind else {
            panic!("layer 2 is the channel layer");
        };
        let model = FlowModel::new(&net, flow).unwrap();
        let cv = flow.coolant.volumetric_heat_capacity();
        let dims = stack.dims();
        let mut enthalpy_out = 0.0;
        for (i, &cell) in model.cells().iter().enumerate() {
            let (_, g_out) = model.port_conductance_of(i);
            let q_out = g_out * model.unit_pressures()[i] * p_sys.value();
            let t = sol.all_temperatures()[2 * dims.num_cells() + dims.index(cell)];
            enthalpy_out += cv * q_out * (t - 300.0);
        }
        let power = stack.total_power().value();
        prop_assert!(
            (enthalpy_out - power).abs() / power < 1e-2,
            "enthalpy out {enthalpy_out} vs die power {power}"
        );
    }

    #[test]
    fn peak_temperature_is_monotone_in_pressure((stack, _net) in system()) {
        // §4.1: h(P_sys) decreases monotonically.
        let sim = Simulator::new(&stack, ModelChoice::TwoRm { m: 2 }, &ThermalConfig::default()).unwrap();
        let mut last = f64::INFINITY;
        for kpa in [1.0, 3.0, 9.0, 27.0] {
            let t = sim
                .simulate(Pascal::from_kilopascals(kpa))
                .unwrap()
                .max_temperature()
                .value();
            prop_assert!(t <= last * (1.0 + 1e-9), "h not monotone: {t} after {last}");
            last = t;
        }
    }

    #[test]
    fn temperatures_bounded_below_by_inlet((stack, _net) in system(), kpa in 1.0f64..40.0) {
        let sol = Simulator::new(&stack, ModelChoice::TwoRm { m: 2 }, &ThermalConfig::default())
            .unwrap()
            .simulate(Pascal::from_kilopascals(kpa))
            .unwrap();
        for &t in sol.all_temperatures() {
            prop_assert!(t > 299.0, "node at {t} K");
        }
    }

    #[test]
    fn rise_is_linear_in_power((stack, net) in system(), kpa in 2.0f64..20.0) {
        // Doubling every source doubles every temperature rise (the model
        // is linear in the power vector).
        let dims = stack.dims();
        let LayerKind::Source { power, .. } = &stack.layers()[1].kind else {
            panic!("layer 1 is the source layer");
        };
        let doubled: Vec<f64> = power.values().iter().map(|v| v * 2.0).collect();
        let stack2 = Stack::interlayer(
            dims,
            100e-6,
            vec![PowerMap::from_values(dims, doubled)],
            std::slice::from_ref(&net),
            200e-6,
        )
        .unwrap();
        let p = Pascal::from_kilopascals(kpa);
        let config = ThermalConfig::default();
        let t1 = Simulator::new(&stack, ModelChoice::TwoRm { m: 3 }, &config).unwrap().simulate(p).unwrap();
        let t2 = Simulator::new(&stack2, ModelChoice::TwoRm { m: 3 }, &config).unwrap().simulate(p).unwrap();
        let r1 = t1.max_temperature().value() - 300.0;
        let r2 = t2.max_temperature().value() - 300.0;
        prop_assert!((r2 / r1 - 2.0).abs() < 1e-3, "rise {r1} -> {r2}");
    }

    #[test]
    fn gradient_never_exceeds_total_span((stack, _net) in system(), kpa in 2.0f64..20.0) {
        // dT (max per-layer range) is bounded by the global span
        // T_max - T_in.
        let sol = Simulator::new(&stack, ModelChoice::TwoRm { m: 2 }, &ThermalConfig::default())
            .unwrap()
            .simulate(Pascal::from_kilopascals(kpa))
            .unwrap();
        let span = sol.max_temperature().value() - 300.0;
        prop_assert!(sol.gradient().value() <= span + 1e-9);
    }
}
