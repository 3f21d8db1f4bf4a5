//! Channel width modulation with a 1-D thermal model — the GreenCool
//! baseline (Sabry et al., reference \[10\] of the paper).
//!
//! GreenCool keeps straight channels but modulates each channel's *width*
//! to save cooling energy, optimizing against a **one-dimensional** model:
//! each channel only cools its own strip of the die and strips exchange no
//! heat. §1 of the paper criticizes exactly this: the 1-D model "ignores
//! heat transfer between regions cooled by different channels and is thus
//! inaccurate on the full-chip scale".
//!
//! This module implements (a) that 1-D per-channel model, (b) a greedy
//! width-modulation designer on top of it, and (c) the bridge to the full
//! 2-D/3-D models (via [`WidthMap`]-aware stacks) so the paper's
//! criticism can be measured: compare [`OneDimModel::predict`] against a
//! 4RM [`Simulator`](coolnet_thermal::Simulator) solve of the same design
//! (`cargo run -p coolnet-bench --bin widthmod`).

use coolnet_cases::Benchmark;
use coolnet_flow::WidthMap;
use coolnet_grid::{Dir, GridDims};
use coolnet_network::builders::straight::{self, StraightParams};
use coolnet_network::CoolingNetwork;
use coolnet_thermal::{Layer, Stack, ThermalError};
use coolnet_units::nusselt::WallCondition;
use coolnet_units::{ChannelGeometry, Kelvin, Material, Pascal, Watt};
use serde::{Deserialize, Serialize};

/// The 1-D per-channel thermal model for straight west→east channels.
///
/// Channels sit on every even row; each cools the strip of die rows closest
/// to it. Within a strip, the coolant temperature follows the cumulative
/// strip power (enthalpy balance) and the junction temperature adds a
/// per-cell film + conduction drop. No heat crosses strip boundaries —
/// deliberately, because that is the approximation under test.
#[derive(Debug, Clone)]
pub struct OneDimModel {
    dims: GridDims,
    pitch: f64,
    channel_height: f64,
    die_thickness: f64,
    k_die: f64,
    coolant: coolnet_units::Coolant,
    port_loss_factor: f64,
    /// Channel rows (even rows).
    rows: Vec<u16>,
    /// Power of strip `i` at column `x`: `strip_power[i][x]` (all dies
    /// summed — the 1-D model cannot distinguish layers).
    strip_power: Vec<Vec<f64>>,
}

/// Prediction of the 1-D model at one operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OneDimPrediction {
    /// Peak junction temperature.
    pub t_max: Kelvin,
    /// Junction-temperature range (the model's `ΔT`).
    pub delta_t: Kelvin,
    /// Pumping power.
    pub w_pump: Watt,
    /// Per-channel flow rates (m³/s).
    pub channel_flows: Vec<f64>,
}

impl OneDimModel {
    /// Builds the 1-D model for a benchmark (straight west→east channels
    /// on every even row).
    pub fn new(bench: &Benchmark) -> Self {
        let dims = bench.dims;
        let rows: Vec<u16> = (0..dims.height()).step_by(2).collect();
        // Assign every die row to its nearest channel row and accumulate
        // power per strip and column, over all dies.
        let mut strip_power = vec![vec![0.0; dims.width() as usize]; rows.len()];
        for power in &bench.power_maps {
            for cell in dims.iter() {
                let strip = nearest_row_index(&rows, cell.y);
                strip_power[strip][cell.x as usize] += power.get(cell);
            }
        }
        Self {
            dims,
            pitch: bench.pitch,
            channel_height: bench.channel_height,
            die_thickness: 100e-6,
            k_die: Material::silicon().thermal_conductivity,
            coolant: coolnet_units::Coolant::water(),
            port_loss_factor: 4.0,
            rows,
            strip_power,
        }
    }

    /// Number of channels (strips).
    pub fn num_channels(&self) -> usize {
        self.rows.len()
    }

    /// The channel rows.
    pub fn rows(&self) -> &[u16] {
        &self.rows
    }

    /// Hydraulic resistance of one channel of width `w` (inlet to outlet).
    fn channel_resistance(&self, w: f64) -> f64 {
        let geom = ChannelGeometry::new(w, self.channel_height, self.pitch);
        let g_half = geom.fluid_conductance(&self.coolant, self.pitch / 2.0);
        let g_link = g_half / 2.0;
        let g_port = g_half / self.port_loss_factor;
        let n = self.dims.width() as f64;
        (n - 1.0) / g_link + 2.0 / g_port
    }

    /// Predicts the thermal profile for per-channel `widths` at `p_sys`.
    ///
    /// # Panics
    ///
    /// Panics if `widths.len() != num_channels()` or any width is
    /// out of `(0, pitch]`.
    pub fn predict(&self, widths: &[f64], p_sys: Pascal) -> OneDimPrediction {
        assert_eq!(widths.len(), self.rows.len(), "one width per channel");
        let cv = self.coolant.volumetric_heat_capacity();
        let mut t_max = f64::NEG_INFINITY;
        let mut t_min = f64::INFINITY;
        let mut w_pump = 0.0;
        let mut flows = Vec::with_capacity(widths.len());
        for (i, &w) in widths.iter().enumerate() {
            assert!(
                w > 0.0 && w <= self.pitch + 1e-15,
                "width {w} out of (0, pitch]"
            );
            let r = self.channel_resistance(w);
            let q = p_sys.value() / r;
            flows.push(q);
            w_pump += p_sys.value() * q;
            let geom = ChannelGeometry::new(w, self.channel_height, self.pitch);
            let h = geom.convection_coefficient(&self.coolant, WallCondition::ConstantHeatFlux);
            // Wetted perimeter area per cell: top + bottom + both side
            // walls, times the cell pitch.
            let a_cell = (2.0 * w + 2.0 * self.channel_height) * self.pitch;
            // Junction-to-wall conduction through half the die thickness.
            let r_cond = (self.die_thickness / 2.0) / (self.k_die * self.pitch * self.pitch);
            let mut enthalpy = 0.0;
            for (x, &qx) in self.strip_power[i].iter().enumerate() {
                // Coolant temperature after absorbing power up to column x
                // (half of the local cell's power counted at its center).
                let t_fluid = 300.0 + (enthalpy + qx / 2.0) / (cv * q);
                enthalpy += qx;
                let t_junction = t_fluid + qx * (1.0 / (h * a_cell) + r_cond);
                t_max = t_max.max(t_junction);
                t_min = t_min.min(t_junction);
                let _ = x;
            }
        }
        OneDimPrediction {
            t_max: Kelvin::new(t_max),
            delta_t: Kelvin::new(t_max - t_min),
            w_pump: Watt::new(w_pump),
            channel_flows: flows,
        }
    }

    /// Pumping power for `widths` at `p_sys`.
    pub fn w_pump(&self, widths: &[f64], p_sys: Pascal) -> Watt {
        let q: f64 = widths
            .iter()
            .map(|&w| p_sys.value() / self.channel_resistance(w))
            .sum();
        Watt::new(p_sys.value() * q)
    }
}

fn nearest_row_index(rows: &[u16], y: u16) -> usize {
    // `rows` is empty only for a zero-height grid, in which case no heat
    // source maps to any row and the returned index is never used.
    rows.iter()
        .enumerate()
        .min_by_key(|(_, &r)| (r as i32 - y as i32).abs())
        .map_or(0, |(i, _)| i)
}

/// A width-modulated design produced by [`design`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WidthModDesign {
    /// Channel rows.
    pub rows: Vec<u16>,
    /// Chosen width per channel.
    pub widths: Vec<f64>,
    /// Operating pressure chosen by the 1-D model.
    pub p_sys: Pascal,
    /// The 1-D model's prediction at that operating point.
    pub predicted: OneDimPrediction,
}

impl WidthModDesign {
    /// The per-cell width map of this design.
    pub fn width_map(&self, dims: GridDims) -> WidthMap {
        let mut map = WidthMap::uniform(dims, self.widths.iter().cloned().fold(0.0, f64::max));
        for (row, &w) in self.rows.iter().zip(&self.widths) {
            map.set_row(*row, w);
        }
        map
    }

    /// The underlying straight-channel network.
    ///
    /// # Errors
    ///
    /// Propagates network legality errors.
    pub fn network(
        &self,
        bench: &Benchmark,
    ) -> Result<CoolingNetwork, coolnet_network::LegalityError> {
        straight::build(
            bench.dims,
            &bench.tsv,
            Dir::East,
            &StraightParams::default(),
        )
    }

    /// Builds the full-model stack for this design (width-modulated channel
    /// layers), ready for 4RM validation.
    ///
    /// # Errors
    ///
    /// Propagates stack-building errors.
    pub fn to_stack(&self, bench: &Benchmark) -> Result<Stack, ThermalError> {
        let net = self.network(bench).map_err(|e| ThermalError::BadStack {
            reason: format!("width-modulated network illegal: {e}"),
        })?;
        let flow = crate::evaluate::Evaluator::flow_config_for(bench);
        let widths = self.width_map(bench.dims);
        let si = Material::silicon;
        let mut layers = Vec::new();
        layers.push(Layer::solid(si(), 200e-6));
        for power in &bench.power_maps {
            layers.push(Layer::source(si(), power.clone(), 100e-6));
            layers.push(Layer::channel_with_widths(
                net.clone(),
                flow.clone(),
                si(),
                widths.clone(),
            ));
        }
        layers.push(Layer::solid(si(), 200e-6));
        Stack::new(bench.dims, bench.pitch, layers)
    }
}

/// Constraints for the 1-D designer.
///
/// The 1-D model has no lateral heat spreading, so it *over*-predicts
/// hotspot-driven gradients; design limits must be calibrated to the 1-D
/// model's own scale (this over-prediction is precisely the inaccuracy
/// §1 of the paper criticizes, quantified by the `widthmod` harness).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WidthModLimits {
    /// Gradient limit under the 1-D model.
    pub delta_t: Kelvin,
    /// Peak-temperature limit under the 1-D model.
    pub t_max: Kelvin,
}

/// Greedy GreenCool-style width modulation: starting from full-width
/// channels, repeatedly narrow the channel whose narrowing saves the most
/// pumping power while the 1-D model still satisfies the limits
/// (re-tuning the pressure after each change).
///
/// `width_choices` is the discrete menu of manufacturable widths (ascending).
///
/// Returns `None` if `width_choices` is empty or even full-width channels
/// cannot satisfy the constraints under the 1-D model.
pub fn design(
    bench: &Benchmark,
    width_choices: &[f64],
    limits: WidthModLimits,
    max_rounds: usize,
) -> Option<WidthModDesign> {
    // An empty width menu leaves nothing to design with — that is an
    // infeasible input, not a programming error.
    let w_max = *width_choices.last()?;
    let model = OneDimModel::new(bench);
    let mut widths = vec![w_max; model.num_channels()];

    let tune = |widths: &[f64]| -> Option<(Pascal, OneDimPrediction)> {
        // Find the lowest pressure meeting both constraints; the 1-D model
        // is monotone in pressure for T_max and its ΔT is dominated by the
        // enthalpy term (decreasing), so a simple bisection works.
        let feasible = |p: Pascal| {
            let pred = model.predict(widths, p);
            pred.t_max <= limits.t_max && pred.delta_t <= limits.delta_t
        };
        let mut hi = 1.0e3;
        let mut tries = 0;
        while !feasible(Pascal::new(hi)) {
            hi *= 2.0;
            tries += 1;
            if tries > 30 {
                return None;
            }
        }
        let mut lo = hi / 2.0;
        while !feasible(Pascal::new(lo)) && lo < hi {
            lo *= 1.1;
        }
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            if feasible(Pascal::new(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let p = Pascal::new(hi);
        Some((p, model.predict(widths, p)))
    };

    let (mut p_best, mut pred_best) = tune(&widths)?;
    let mut w_best = model.w_pump(&widths, p_best).value();

    for _ in 0..max_rounds {
        let mut improved = false;
        for i in 0..widths.len() {
            // Try the next narrower manufacturable width for channel i.
            let pos = width_choices
                .iter()
                .position(|&w| (w - widths[i]).abs() < 1e-15)
                .unwrap_or(0);
            if pos == 0 {
                continue;
            }
            let mut candidate = widths.clone();
            candidate[i] = width_choices[pos - 1];
            if let Some((p, pred)) = tune(&candidate) {
                let w = model.w_pump(&candidate, p).value();
                if w < w_best {
                    widths = candidate;
                    p_best = p;
                    pred_best = pred;
                    w_best = w;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    Some(WidthModDesign {
        rows: model.rows().to_vec(),
        widths,
        p_sys: p_best,
        predicted: pred_best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::Cell;

    fn bench() -> Benchmark {
        Benchmark::iccad_scaled(1, GridDims::new(21, 21))
    }

    #[test]
    fn one_dim_model_heats_downstream() {
        let b = bench();
        let model = OneDimModel::new(&b);
        assert_eq!(model.num_channels(), 11);
        let widths = vec![100e-6; 11];
        let pred = model.predict(&widths, Pascal::from_kilopascals(5.0));
        assert!(pred.t_max.value() > 300.0);
        assert!(pred.delta_t.value() > 0.0);
        assert!(pred.channel_flows.iter().all(|&q| q > 0.0));
    }

    #[test]
    fn more_pressure_cools_in_one_dim_model() {
        let b = bench();
        let model = OneDimModel::new(&b);
        let widths = vec![100e-6; model.num_channels()];
        let lo = model.predict(&widths, Pascal::from_kilopascals(2.0));
        let hi = model.predict(&widths, Pascal::from_kilopascals(20.0));
        assert!(hi.t_max < lo.t_max);
    }

    #[test]
    fn narrow_channels_carry_less_flow() {
        let b = bench();
        let model = OneDimModel::new(&b);
        let mut widths = vec![100e-6; model.num_channels()];
        widths[0] = 50e-6;
        let pred = model.predict(&widths, Pascal::from_kilopascals(5.0));
        assert!(pred.channel_flows[0] < pred.channel_flows[1] / 2.0);
    }

    fn limits() -> WidthModLimits {
        // Calibrated to the 1-D model's over-predicted gradient scale:
        // on case 1 at 21×21 the full-width prediction floors at
        // ΔT ≈ 55.6 K / t_max ≈ 357.5 K as pressure grows, so these
        // leave a modest feasibility band above that floor.
        WidthModLimits {
            delta_t: Kelvin::new(58.0),
            t_max: Kelvin::new(359.15),
        }
    }

    #[test]
    fn designer_meets_constraints_and_modulates() {
        let b = bench();
        let design = design(&b, &[40e-6, 60e-6, 80e-6, 100e-6], limits(), 6)
            .expect("case 1 must be designable");
        assert!(design.predicted.t_max <= limits().t_max);
        assert!(design.predicted.delta_t <= limits().delta_t);
        // The designer should narrow at least one channel relative to full
        // width (the whole point of width modulation).
        assert!(
            design.widths.iter().any(|&w| w < 100e-6),
            "no channel was modulated: {:?}",
            design.widths
        );
        // And the modulated design saves pumping power vs all-full-width.
        let model = OneDimModel::new(&b);
        let full = vec![100e-6; model.num_channels()];
        let w_full = {
            let d = design.clone();
            let _ = d;
            // full-width design tuned to the same constraints:
            let full_design = design_full_reference(&b).expect("full-width feasible");
            model.w_pump(&full, full_design).value()
        };
        let w_mod = model.w_pump(&design.widths, design.p_sys).value();
        assert!(
            w_mod <= w_full * 1.001,
            "modulated {w_mod} vs full {w_full}"
        );
    }

    /// Pressure for the all-full-width reference under the same tuner.
    fn design_full_reference(b: &Benchmark) -> Option<Pascal> {
        design(b, &[100e-6], limits(), 1).map(|d| d.p_sys)
    }

    #[test]
    fn design_converts_to_a_valid_stack() {
        let b = bench();
        let design = design(&b, &[60e-6, 100e-6], limits(), 4).expect("designable");
        let stack = design.to_stack(&b).expect("stack builds");
        assert_eq!(stack.channel_layer_indices().len(), b.num_dies);
        // And the stack simulates under the full 4RM model.
        let sim = coolnet_thermal::Simulator::new(
            &stack,
            coolnet_thermal::ModelChoice::FourRm,
            &coolnet_thermal::ThermalConfig::default(),
        )
        .expect("4RM assembles width-modulated stacks");
        let sol = sim.simulate(design.p_sys).expect("solves");
        assert!(sol.max_temperature().value() > 300.0);
    }

    #[test]
    fn width_map_reflects_design() {
        let b = bench();
        let model = OneDimModel::new(&b);
        let design = WidthModDesign {
            rows: model.rows().to_vec(),
            widths: (0..model.num_channels())
                .map(|i| if i % 2 == 0 { 60e-6 } else { 100e-6 })
                .collect(),
            p_sys: Pascal::from_kilopascals(5.0),
            predicted: model.predict(&vec![100e-6; model.num_channels()], Pascal::new(1e3)),
        };
        let map = design.width_map(b.dims);
        assert_eq!(map.get(Cell::new(3, 0)), 60e-6);
        assert_eq!(map.get(Cell::new(3, 2)), 100e-6);
    }
}
