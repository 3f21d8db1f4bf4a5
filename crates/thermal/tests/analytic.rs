//! Validation of the 4RM against analytic solutions on degenerate
//! geometries where the exact answer is known.

use coolnet_flow::{FlowConfig, FlowModel};
use coolnet_grid::{Cell, Dir, GridDims, Side};
use coolnet_network::{CoolingNetwork, PortKind};
use coolnet_thermal::{ModelChoice, PowerMap, Simulator, Stack, ThermalConfig};
use coolnet_units::nusselt::WallCondition;
use coolnet_units::Pascal;

/// A single channel under uniform heating: the coolant temperature must
/// follow the analytic enthalpy balance
/// `T_f(x) = T_in + P·(x + 1/2)/(N·Cv·Q)`.
#[test]
fn single_channel_coolant_follows_enthalpy_balance() {
    let n = 31u16;
    let dims = GridDims::new(n, 1);
    let mut b = CoolingNetwork::builder(dims);
    b.segment(Cell::new(0, 0), Dir::East, n);
    b.port(PortKind::Inlet, Side::West, 0, 0);
    b.port(PortKind::Outlet, Side::East, 0, 0);
    let net = b.build().unwrap();

    let total_power = 0.5; // W
    let power = PowerMap::uniform(dims, total_power);
    let stack = Stack::interlayer(
        dims,
        100e-6,
        vec![power],
        std::slice::from_ref(&net),
        200e-6,
    )
    .unwrap();
    let config = ThermalConfig::default();
    let sim = Simulator::new(&stack, ModelChoice::FourRm, &config).unwrap();
    let p_sys = Pascal::from_kilopascals(20.0);
    let sol = sim.simulate(p_sys).unwrap();

    // Analytic reference.
    let flow_cfg = FlowConfig::default();
    let model = FlowModel::new(&net, &flow_cfg).unwrap();
    let q = model.solve(p_sys).system_flow().value();
    let cv = flow_cfg.coolant.volumetric_heat_capacity();
    let per_cell = total_power / n as f64;

    // Channel layer is layer index 2; compare the *liquid* node
    // temperatures against the enthalpy line.
    let nc = dims.num_cells();
    for x in [2u16, 10, 20, 28] {
        let t_sim = sol.all_temperatures()[2 * nc + dims.index(Cell::new(x, 0))];
        let t_ref = 300.0 + per_cell * (x as f64 + 0.5) / (cv * q);
        let err = (t_sim - t_ref).abs();
        // All die power flows into this one channel, so the rise is exactly
        // the enthalpy line (within discretization of the half-cell).
        let rise = t_ref - 300.0;
        assert!(
            err < 0.05 * rise + 0.05,
            "x = {x}: simulated {t_sim}, analytic {t_ref}"
        );
    }
}

/// The source layer above the channel must sit one film + conduction drop
/// above the local coolant temperature.
#[test]
fn source_sits_one_thermal_resistance_above_coolant() {
    let n = 21u16;
    let dims = GridDims::new(n, 1);
    let mut b = CoolingNetwork::builder(dims);
    b.segment(Cell::new(0, 0), Dir::East, n);
    b.port(PortKind::Inlet, Side::West, 0, 0);
    b.port(PortKind::Outlet, Side::East, 0, 0);
    let net = b.build().unwrap();

    let total_power = 0.3;
    let power = PowerMap::uniform(dims, total_power);
    let stack = Stack::interlayer(dims, 100e-6, vec![power], &[net], 200e-6).unwrap();
    let config = ThermalConfig::default();
    let sim = Simulator::new(&stack, ModelChoice::FourRm, &config).unwrap();
    let sol = sim.simulate(Pascal::from_kilopascals(20.0)).unwrap();

    let nc = dims.num_cells();
    let mid = dims.index(Cell::new(10, 0));
    let t_source = sol.all_temperatures()[nc + mid]; // layer 1 = source
    let t_liquid = sol.all_temperatures()[2 * nc + mid]; // layer 2 = channel

    // Reference resistance: film (vertical, bottom wall of the channel in
    // the 4RM uses only the top/bottom register toward this layer) in
    // series with half the source layer.
    let flow_cfg = FlowConfig::default();
    let h = flow_cfg
        .geometry
        .convection_coefficient(&flow_cfg.coolant, WallCondition::ConstantHeatFlux);
    let pitch = 100e-6;
    let a = pitch * pitch;
    let g_film = h * a;
    let g_half_source = 130.0 * a / (100e-6 / 2.0);
    let g = g_film * g_half_source / (g_film + g_half_source);
    // In steady state, heat from the cell below (and nothing else) plus
    // the local source must leave through this face; in the uniform-power
    // mid-channel region lateral conduction nearly cancels, so the drop is
    // close to q_local_total / g where q_local_total includes the substrate
    // path routed through the source layer.
    let per_cell = total_power / n as f64;
    let drop = t_source - t_liquid;
    let drop_min = per_cell / g; // at least the local source's own heat
    assert!(
        drop > 0.9 * drop_min,
        "drop {drop} below the single-resistance floor {drop_min}"
    );
    assert!(
        drop < 4.0 * drop_min,
        "drop {drop} unreasonably large vs floor {drop_min}"
    );
}

/// Two identical channels fed identically must produce a symmetric
/// temperature field (mirror symmetry about the mid row).
#[test]
fn symmetric_system_produces_symmetric_temperatures() {
    let dims = GridDims::new(15, 5);
    let mut b = CoolingNetwork::builder(dims);
    b.segment(Cell::new(0, 0), Dir::East, 15);
    b.segment(Cell::new(0, 4), Dir::East, 15);
    b.port(PortKind::Inlet, Side::West, 0, 4);
    b.port(PortKind::Outlet, Side::East, 0, 4);
    let net = b.build().unwrap();
    let power = PowerMap::uniform(dims, 1.0);
    let stack = Stack::interlayer(dims, 100e-6, vec![power], &[net], 200e-6).unwrap();
    let sol = Simulator::new(&stack, ModelChoice::FourRm, &ThermalConfig::default())
        .unwrap()
        .simulate(Pascal::from_kilopascals(10.0))
        .unwrap();
    let layer = &sol.source_layers()[0];
    for x in 0..15u16 {
        for y in 0..2u16 {
            let a = layer.temperature(Cell::new(x, y)).value();
            let bv = layer.temperature(Cell::new(x, 4 - y)).value();
            // Tolerance reflects the iterative solver's residual target,
            // not the model (the assembly is exactly symmetric).
            assert!(
                (a - bv).abs() < 1e-4,
                "asymmetry at x={x}, y={y}: {a} vs {bv}"
            );
        }
    }
}
