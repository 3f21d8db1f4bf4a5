//! Assembly of the 4-register model (4RM, §2.2) behind
//! [`ModelChoice::FourRm`](crate::ModelChoice::FourRm).
//!
//! Thermal cells conform to the microchannel geometry: one node per basic
//! cell per layer. Heat transfer follows Eqs. (4)–(6): solid–solid
//! conduction, Nusselt-based solid–liquid wall convection on all four wall
//! registers (top, bottom and the two side walls), and liquid–liquid
//! advection.

use crate::assembly::{series, Assembled, ProbeCacheCell, SourceLayerMeta};
use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::solution::Resolution;
use crate::stack::{LayerFlows, LayerKind, Stack};
use coolnet_grid::{Cell, Dir};
use coolnet_units::nusselt::WallCondition;

/// Assembles the 4RM system for `stack`, with the hydraulic model of
/// each channel layer the advection is built from.
///
/// # Errors
///
/// Returns [`ThermalError::Flow`] if a channel layer's hydraulic model
/// cannot be built.
pub(crate) fn assemble(
    stack: &Stack,
    config: &ThermalConfig,
) -> Result<(Assembled, LayerFlows), ThermalError> {
    let dims = stack.dims();
    let pitch = stack.pitch();
    let nc = dims.num_cells();
    let layers = stack.layers();
    let nl = layers.len();
    let n = nl * nc;
    let node = |l: usize, idx: usize| l * nc + idx;

    let mut asm = Assembled {
        n,
        cond: Vec::with_capacity(7 * n),
        adv_unit: Vec::new(),
        rhs_source: vec![0.0; n],
        rhs_inlet_unit: vec![0.0; n],
        capacitance: vec![0.0; n],
        source_meta: Vec::new(),
        cache: ProbeCacheCell::default(),
    };

    // Liquid flags per layer (channel layers only).
    let liquid_at = |l: usize, cell: Cell| -> bool {
        match &layers[l].kind {
            LayerKind::Channel { network, .. } => network.is_liquid(cell),
            _ => false,
        }
    };
    // Per-cell channel width and convection coefficient (both honor
    // width-modulation maps; uniform layers fall back to the layer
    // geometry).
    let width_at = |l: usize, cell: Cell| -> f64 {
        match &layers[l].kind {
            LayerKind::Channel { flow, widths, .. } => widths
                .as_ref()
                .map_or(flow.geometry.width(), |w| w.get(cell)),
            _ => 0.0,
        }
    };
    // Vertical conductivity of a channel-layer solid cell: TSV cells
    // with a fill material conduct with the fill (e.g. copper vias).
    let k_vertical_at = |l: usize, cell: Cell| -> f64 {
        match &layers[l].kind {
            LayerKind::Channel {
                network, tsv_fill, ..
            } => match tsv_fill {
                Some(fill) if network.tsv().contains(cell) => fill.thermal_conductivity,
                _ => layers[l].solid_conductivity(),
            },
            _ => layers[l].solid_conductivity(),
        }
    };
    let h_conv_at = |l: usize, cell: Cell| -> f64 {
        match &layers[l].kind {
            LayerKind::Channel { flow, .. } => {
                let geom = coolnet_units::ChannelGeometry::new(
                    width_at(l, cell),
                    flow.geometry.height(),
                    flow.geometry.pitch(),
                );
                geom.convection_coefficient(&flow.coolant, WallCondition::ConstantHeatFlux)
            }
            _ => 0.0,
        }
    };

    // Sources and capacitances.
    for (l, layer) in layers.iter().enumerate() {
        let t = layer.thickness;
        match &layer.kind {
            LayerKind::Solid { material } => {
                let cap = material.volumetric_heat_capacity() * pitch * pitch * t;
                for idx in 0..nc {
                    asm.capacitance[node(l, idx)] = cap;
                }
            }
            LayerKind::Source { material, power } => {
                let cap = material.volumetric_heat_capacity() * pitch * pitch * t;
                for cell in dims.iter() {
                    let i = node(l, dims.index(cell));
                    asm.capacitance[i] = cap;
                    asm.rhs_source[i] += power.get(cell);
                }
                asm.source_meta.push(SourceLayerMeta {
                    layer_index: l,
                    dims,
                    resolution: Resolution::Fine,
                    nodes: (0..nc).map(|idx| node(l, idx)).collect(),
                });
            }
            LayerKind::Channel {
                network,
                flow,
                material,
                ..
            } => {
                let cap_solid = material.volumetric_heat_capacity() * pitch * pitch * t;
                for cell in dims.iter() {
                    let i = node(l, dims.index(cell));
                    asm.capacitance[i] = if network.is_liquid(cell) {
                        let w = width_at(l, cell);
                        flow.coolant.volumetric_heat_capacity() * w * pitch * t
                            + material.volumetric_heat_capacity() * (pitch - w) * pitch * t
                    } else {
                        cap_solid
                    };
                }
            }
        }
    }

    // In-plane conduction and side-wall convection.
    for (l, layer) in layers.iter().enumerate() {
        let t = layer.thickness;
        let k = layer.solid_conductivity();
        let a_face = t * pitch;
        let g_ss = k * a_face / pitch;
        let g_ss_half = k * a_face / (pitch / 2.0);
        for cell in dims.iter() {
            for dir in [Dir::East, Dir::North] {
                let Some(nb) = dims.neighbor(cell, dir) else {
                    continue;
                };
                let (li, lj) = (liquid_at(l, cell), liquid_at(l, nb));
                let g = match (li, lj) {
                    (false, false) => g_ss,
                    (true, true) => 0.0, // axial conduction in coolant ignored
                    // Side wall: half-cell solid path in series with the
                    // convective film (the 4RM side registers). The film
                    // coefficient belongs to the liquid cell.
                    _ => {
                        let h = if li {
                            h_conv_at(l, cell)
                        } else {
                            h_conv_at(l, nb)
                        };
                        series(g_ss_half, h * a_face)
                    }
                };
                asm.add_conductance(node(l, dims.index(cell)), node(l, dims.index(nb)), g);
            }
        }
    }

    // Vertical conduction / top-bottom wall convection.
    for l in 0..nl.saturating_sub(1) {
        let u = l + 1;
        let (t_l, t_u) = (layers[l].thickness, layers[u].thickness);
        let (k_l, k_u) = (
            layers[l].solid_conductivity(),
            layers[u].solid_conductivity(),
        );
        let a_full = pitch * pitch;
        for cell in dims.iter() {
            let idx = dims.index(cell);
            let (low_liq, up_liq) = (liquid_at(l, cell), liquid_at(u, cell));
            let g = match (low_liq, up_liq) {
                (false, false) => series(
                    k_vertical_at(l, cell) * a_full / (t_l / 2.0),
                    k_vertical_at(u, cell) * a_full / (t_u / 2.0),
                ),
                (true, false) => {
                    // Liquid top wall: film in series with the upper
                    // half-layer. Convective area is the channel width.
                    let a_conv = width_at(l, cell) * pitch;
                    series(h_conv_at(l, cell) * a_conv, k_u * a_full / (t_u / 2.0))
                }
                (false, true) => {
                    let a_conv = width_at(u, cell) * pitch;
                    series(h_conv_at(u, cell) * a_conv, k_l * a_full / (t_l / 2.0))
                }
                // Stacked channel layers do not exchange heat directly.
                (true, true) => 0.0,
            };
            asm.add_conductance(node(l, idx), node(u, idx), g);
        }
    }

    // Advection from the hydraulic solution of each channel layer.
    let flows = LayerFlows::new(stack)?;
    for (l, model) in flows.iter() {
        let cv = model.config().coolant.volumetric_heat_capacity();
        let p = model.unit_pressures();
        for (i, &cell) in model.cells().iter().enumerate() {
            let ni = node(l, dims.index(cell));
            for dir in [Dir::East, Dir::North] {
                let Some(nb) = dims.neighbor(cell, dir) else {
                    continue;
                };
                let Some(j) = model.index_of(nb) else {
                    continue;
                };
                let q_unit = model.link_conductance(i, j) * (p[i] - p[j]);
                let nj = node(l, dims.index(nb));
                asm.add_advection_face(ni, nj, q_unit, cv, config.advection);
            }
            let (g_in, g_out) = model.port_conductance_of(i);
            let q_in_unit = g_in * (1.0 - p[i]);
            let q_out_unit = g_out * p[i];
            asm.add_port_advection(ni, q_in_unit, q_out_unit, cv);
        }
    }

    Ok((asm, flows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerMap;
    use crate::simulator::{ModelChoice, Simulator};
    use coolnet_flow::FlowModel;
    use coolnet_grid::{GridDims, Side};
    use coolnet_network::{CoolingNetwork, PortKind};
    use coolnet_units::Pascal;

    fn straight_net(dims: GridDims) -> CoolingNetwork {
        let mut b = CoolingNetwork::builder(dims);
        let mut y = 0;
        while y < dims.height() {
            b.segment(Cell::new(0, y), Dir::East, dims.width());
            y += 2;
        }
        b.port(PortKind::Inlet, Side::West, 0, dims.height() - 1);
        b.port(PortKind::Outlet, Side::East, 0, dims.height() - 1);
        b.build().unwrap()
    }

    fn stack(dims: GridDims, watts: f64) -> Stack {
        Stack::interlayer(
            dims,
            100e-6,
            vec![PowerMap::uniform(dims, watts)],
            &[straight_net(dims)],
            200e-6,
        )
        .unwrap()
    }

    /// (The name predates the removal of the diagnostics gate: the probe
    /// now reaches the direct step by failing the Krylov step.)
    #[test]
    fn gate_routed_probe_is_solved_bit_identically_to_dense_lu() {
        use coolnet_sparse::precond::Identity;
        use coolnet_sparse::resilience::{self, Krylov};
        use coolnet_sparse::SolverOptions;

        // A vanishing-pressure probe of Algorithm 3's downward walk: the
        // conduction-dominated system BiCGSTAB cannot solve, rescued by
        // the direct step.
        let dims = GridDims::new(9, 9);
        let sim = Simulator::new(
            &stack(dims, 3.0),
            ModelChoice::FourRm,
            &ThermalConfig::default(),
        )
        .unwrap();
        let (a, b) = sim
            .assembled
            .system(Pascal::new(1e-6), sim.config.t_inlet.value());
        let rescued = resilience::solve(
            Krylov::Bicgstab,
            &a,
            &b,
            &Identity::new(a.rows()),
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(rescued.stats.rung, 1);
        let reference = a.to_dense().solve(&b).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rescued.solution), bits(&reference));
    }

    #[test]
    fn energy_conservation_via_coolant_enthalpy() {
        // All die power must leave as coolant enthalpy rise:
        // P = Cv · Q_sys · (T_out_mixed − T_in).
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let p_sys = Pascal::from_kilopascals(5.0);
        let sol = sim.simulate(p_sys).unwrap();

        // Recompute outlet enthalpy from the solution.
        let LayerKind::Channel { network, flow, .. } = &s.layers()[2].kind else {
            panic!("layer 2 must be the channel layer");
        };
        let model = FlowModel::new(network, flow).unwrap();
        let cv = flow.coolant.volumetric_heat_capacity();
        let p = model.unit_pressures();
        let mut enthalpy_out = 0.0;
        let mut q_total = 0.0;
        for (i, &cell) in model.cells().iter().enumerate() {
            let (_, g_out) = model.port_conductance_of(i);
            let q_out = g_out * p[i] * p_sys.value();
            let t = sol.all_temperatures()[2 * dims.num_cells() + dims.index(cell)];
            enthalpy_out += cv * q_out * (t - 300.0);
            q_total += q_out;
        }
        assert!(q_total > 0.0);
        assert!(
            (enthalpy_out - 3.0).abs() / 3.0 < 1e-3,
            "enthalpy out = {enthalpy_out} W, expected 3 W"
        );
    }

    #[test]
    fn higher_pressure_cools_better() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 5.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let t1 = sim
            .simulate(Pascal::from_kilopascals(1.0))
            .unwrap()
            .max_temperature();
        let t2 = sim
            .simulate(Pascal::from_kilopascals(10.0))
            .unwrap()
            .max_temperature();
        assert!(t2 < t1, "T(10 kPa) = {t2} !< T(1 kPa) = {t1}");
        assert!(t2.value() > 300.0);
    }

    #[test]
    fn downstream_is_hotter_than_upstream() {
        // Factor 1 of §3: coolant heats up along the channel.
        let dims = GridDims::new(11, 11);
        let s = stack(dims, 5.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let sol = sim.simulate(Pascal::from_kilopascals(3.0)).unwrap();
        let layer = &sol.source_layers()[0];
        let up = layer.temperature(Cell::new(1, 5)).value();
        let down = layer.temperature(Cell::new(9, 5)).value();
        assert!(down > up, "downstream {down} !> upstream {up}");
    }

    #[test]
    fn temperatures_never_undershoot_inlet() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 2.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let sol = sim.simulate(Pascal::from_kilopascals(8.0)).unwrap();
        // Central differencing may produce tiny undershoots at high Péclet;
        // allow a small tolerance but nothing gross.
        for &t in sol.all_temperatures() {
            assert!(t > 299.0, "node at {t} K undershoots T_in");
        }
    }

    #[test]
    fn zero_power_stays_at_inlet_temperature() {
        let dims = GridDims::new(7, 7);
        let s = stack(dims, 0.0);
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let sol = sim.simulate(Pascal::from_kilopascals(5.0)).unwrap();
        for &t in sol.all_temperatures() {
            assert!((t - 300.0).abs() < 1e-6);
        }
        assert!(sol.gradient().value() < 1e-6);
    }

    #[test]
    fn more_power_means_hotter() {
        let dims = GridDims::new(7, 7);
        let sim_lo = Simulator::new(
            &stack(dims, 1.0),
            ModelChoice::FourRm,
            &ThermalConfig::default(),
        )
        .unwrap();
        let sim_hi = Simulator::new(
            &stack(dims, 4.0),
            ModelChoice::FourRm,
            &ThermalConfig::default(),
        )
        .unwrap();
        let p = Pascal::from_kilopascals(5.0);
        let t_lo = sim_lo.simulate(p).unwrap().max_temperature();
        let t_hi = sim_hi.simulate(p).unwrap().max_temperature();
        assert!(t_hi.value() > t_lo.value());
        // Linearity: 4x power => 4x temperature rise.
        let rise_lo = t_lo.value() - 300.0;
        let rise_hi = t_hi.value() - 300.0;
        assert!(
            (rise_hi / rise_lo - 4.0).abs() < 1e-3,
            "{rise_hi} vs {rise_lo}"
        );
    }

    #[test]
    fn zero_pressure_is_rejected() {
        let dims = GridDims::new(7, 7);
        let sim = Simulator::new(
            &stack(dims, 1.0),
            ModelChoice::FourRm,
            &ThermalConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            sim.simulate(Pascal::new(0.0)),
            Err(ThermalError::ZeroFlow)
        ));
    }

    #[test]
    fn warm_start_converges_faster() {
        let dims = GridDims::new(9, 9);
        let sim = Simulator::new(
            &stack(dims, 5.0),
            ModelChoice::FourRm,
            &ThermalConfig::default(),
        )
        .unwrap();
        let sol = sim.simulate(Pascal::from_kilopascals(5.0)).unwrap();
        let warm = sim
            .simulate_with_guess(Pascal::from_kilopascals(5.2), &sol)
            .unwrap();
        // The cold reference needs a fresh simulator: `sim`'s probe cache
        // now holds a solution history that warm-starts any further probe.
        let cold = Simulator::new(
            &stack(dims, 5.0),
            ModelChoice::FourRm,
            &ThermalConfig::default(),
        )
        .unwrap()
        .simulate(Pascal::from_kilopascals(5.2))
        .unwrap();
        // BiCGSTAB iteration counts are not strictly monotone in the guess
        // quality, but a near-solution start must not be dramatically worse.
        assert!(warm.stats().iterations <= cold.stats().iterations + 5);
        assert!((warm.max_temperature().value() - cold.max_temperature().value()).abs() < 1e-3);
    }

    #[test]
    fn hotspot_shows_up_in_the_map() {
        let dims = GridDims::new(11, 11);
        let mut power = PowerMap::zeros(dims);
        power.add_block(7, 7, 9, 9, 5.0); // concentrated hotspot, downstream
        let s =
            Stack::interlayer(dims, 100e-6, vec![power], &[straight_net(dims)], 200e-6).unwrap();
        let sim = Simulator::new(&s, ModelChoice::FourRm, &ThermalConfig::default()).unwrap();
        let sol = sim.simulate(Pascal::from_kilopascals(5.0)).unwrap();
        let layer = &sol.source_layers()[0];
        let at_hotspot = layer.temperature(Cell::new(8, 8)).value();
        let far_away = layer.temperature(Cell::new(1, 1)).value();
        assert!(at_hotspot > far_away + 0.5);
    }

    #[test]
    fn copper_tsv_fill_improves_vertical_coupling() {
        // With copper-filled TSVs the channel layer conducts heat to the
        // cap better, slightly lowering the peak temperature.
        use crate::stack::Layer;
        use coolnet_units::Material;
        let dims = GridDims::new(11, 11);
        // The network must carry the TSV mask for the fill to apply.
        let net = {
            let mut b = CoolingNetwork::builder(dims);
            b.tsv(coolnet_grid::tsv::alternating(dims));
            let mut y = 0;
            while y < dims.height() {
                b.segment(Cell::new(0, y), Dir::East, dims.width());
                y += 2;
            }
            b.port(PortKind::Inlet, Side::West, 0, 10);
            b.port(PortKind::Outlet, Side::East, 0, 10);
            b.build().unwrap()
        };
        let power = PowerMap::uniform(dims, 4.0);
        let flow = coolnet_flow::FlowConfig::default();
        let build = |fill: Option<Material>| {
            let channel = match fill {
                Some(f) => {
                    Layer::channel_with_tsv_fill(net.clone(), flow.clone(), Material::silicon(), f)
                }
                None => Layer::channel(net.clone(), flow.clone(), Material::silicon()),
            };
            Stack::new(
                dims,
                100e-6,
                vec![
                    Layer::solid(Material::silicon(), 200e-6),
                    Layer::source(Material::silicon(), power.clone(), 100e-6),
                    channel,
                    Layer::solid(Material::silicon(), 200e-6),
                ],
            )
            .unwrap()
        };
        let p = Pascal::from_kilopascals(5.0);
        let plain = Simulator::new(&build(None), ModelChoice::FourRm, &ThermalConfig::default())
            .unwrap()
            .simulate(p)
            .unwrap()
            .max_temperature()
            .value();
        let filled = Simulator::new(
            &build(Some(Material::copper())),
            ModelChoice::FourRm,
            &ThermalConfig::default(),
        )
        .unwrap()
        .simulate(p)
        .unwrap()
        .max_temperature()
        .value();
        assert!(filled < plain, "copper fill must help: {filled} !< {plain}");
        // The effect is a perturbation, not a regime change.
        assert!(plain - filled < 0.2 * (plain - 300.0));
    }

    #[test]
    fn upwind_scheme_also_conserves_energy() {
        let dims = GridDims::new(9, 9);
        let s = stack(dims, 3.0);
        let config = ThermalConfig {
            advection: crate::config::AdvectionScheme::Upwind,
            ..ThermalConfig::default()
        };
        let sim = Simulator::new(&s, ModelChoice::FourRm, &config).unwrap();
        let sol = sim.simulate(Pascal::from_kilopascals(5.0)).unwrap();
        // Upwind must never undershoot the inlet temperature at all.
        for &t in sol.all_temperatures() {
            assert!(t >= 300.0 - 1e-9);
        }
        assert!(sol.max_temperature().value() > 300.0);
    }
}
