//! 3D stack description: layers over a common basic-cell grid.

use crate::error::ThermalError;
use crate::power::PowerMap;
use coolnet_flow::{FlowConfig, FlowModel, WidthMap};
use coolnet_grid::GridDims;
use coolnet_network::CoolingNetwork;
use coolnet_units::Material;
use serde::{Deserialize, Serialize};

/// What a layer is made of.
///
/// The `Channel` variant is much larger than the others (it owns a network
/// and optional width map); stacks hold a handful of layers, so boxing it
/// would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerKind {
    /// A plain solid layer (substrate, bonding, cap).
    Solid {
        /// Layer material.
        material: Material,
    },
    /// A solid layer that dissipates heat — one per die.
    Source {
        /// Layer material.
        material: Material,
        /// Per-cell dissipation.
        power: PowerMap,
    },
    /// A microchannel layer carrying a cooling network; its thickness is
    /// the channel height of `flow.geometry`.
    Channel {
        /// The cooling network etched into this layer.
        network: CoolingNetwork,
        /// Channel geometry and coolant for this layer.
        flow: FlowConfig,
        /// Wall material between channels.
        material: Material,
        /// Optional per-cell channel widths (channel width modulation);
        /// `None` means the uniform `flow.geometry` width everywhere.
        #[serde(default)]
        widths: Option<WidthMap>,
        /// Optional TSV fill material: TSV cells in this layer conduct
        /// *vertically* with this material instead of the wall material
        /// (copper-filled vias). Groundwork for the paper's future-work
        /// TSV/microchannel co-optimization (§7).
        #[serde(default)]
        tsv_fill: Option<Material>,
    },
}

/// One layer of the stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Layer composition.
    pub kind: LayerKind,
    /// Layer thickness in meters.
    pub thickness: f64,
}

impl Layer {
    /// A plain solid layer.
    pub fn solid(material: Material, thickness: f64) -> Self {
        Self {
            kind: LayerKind::Solid { material },
            thickness,
        }
    }

    /// A heat-dissipating die layer.
    pub fn source(material: Material, power: PowerMap, thickness: f64) -> Self {
        Self {
            kind: LayerKind::Source { material, power },
            thickness,
        }
    }

    /// A channel layer; thickness is taken from the channel height.
    pub fn channel(network: CoolingNetwork, flow: FlowConfig, material: Material) -> Self {
        let thickness = flow.geometry.height();
        Self {
            kind: LayerKind::Channel {
                network,
                flow,
                material,
                widths: None,
                tsv_fill: None,
            },
            thickness,
        }
    }

    /// A channel layer whose TSV cells are filled with `fill` (typically
    /// copper), enhancing vertical conduction through the channel layer.
    pub fn channel_with_tsv_fill(
        network: CoolingNetwork,
        flow: FlowConfig,
        material: Material,
        fill: Material,
    ) -> Self {
        let thickness = flow.geometry.height();
        Self {
            kind: LayerKind::Channel {
                network,
                flow,
                material,
                widths: None,
                tsv_fill: Some(fill),
            },
            thickness,
        }
    }

    /// A channel layer with per-cell channel widths (width modulation,
    /// GreenCool-style).
    pub fn channel_with_widths(
        network: CoolingNetwork,
        flow: FlowConfig,
        material: Material,
        widths: WidthMap,
    ) -> Self {
        let thickness = flow.geometry.height();
        Self {
            kind: LayerKind::Channel {
                network,
                flow,
                material,
                widths: Some(widths),
                tsv_fill: None,
            },
            thickness,
        }
    }

    /// The thermal conductivity of the layer's solid material.
    pub fn solid_conductivity(&self) -> f64 {
        match &self.kind {
            LayerKind::Solid { material }
            | LayerKind::Source { material, .. }
            | LayerKind::Channel { material, .. } => material.thermal_conductivity,
        }
    }

    /// The layer's solid material.
    pub fn material(&self) -> &Material {
        match &self.kind {
            LayerKind::Solid { material }
            | LayerKind::Source { material, .. }
            | LayerKind::Channel { material, .. } => material,
        }
    }
}

/// A vertical stack of layers over a common grid — the full thermal
/// problem description (geometry + heat sources + cooling networks).
///
/// Layers are ordered bottom to top. See [`Stack::interlayer`] for the
/// standard interlayer-cooled arrangement used by the benchmarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stack {
    dims: GridDims,
    pitch: f64,
    layers: Vec<Layer>,
}

impl Stack {
    /// Builds a stack from explicit layers.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadStack`] if there is no source layer, no
    /// channel layer, a dimension mismatch, or a non-positive thickness.
    pub fn new(dims: GridDims, pitch: f64, layers: Vec<Layer>) -> Result<Self, ThermalError> {
        if pitch <= 0.0 {
            return Err(ThermalError::BadStack {
                reason: "pitch must be positive".into(),
            });
        }
        let mut has_source = false;
        let mut has_channel = false;
        for (i, layer) in layers.iter().enumerate() {
            if layer.thickness <= 0.0 {
                return Err(ThermalError::BadStack {
                    reason: format!("layer {i} has non-positive thickness"),
                });
            }
            match &layer.kind {
                LayerKind::Source { power, .. } => {
                    has_source = true;
                    if power.dims() != dims {
                        return Err(ThermalError::BadStack {
                            reason: format!("layer {i}: power map dimensions mismatch"),
                        });
                    }
                }
                LayerKind::Channel {
                    network,
                    flow,
                    widths,
                    ..
                } => {
                    has_channel = true;
                    if network.dims() != dims {
                        return Err(ThermalError::BadStack {
                            reason: format!("layer {i}: network dimensions mismatch"),
                        });
                    }
                    if (flow.geometry.pitch() - pitch).abs() > 1e-12 {
                        return Err(ThermalError::BadStack {
                            reason: format!("layer {i}: channel pitch differs from stack pitch"),
                        });
                    }
                    if let Some(w) = widths {
                        if w.dims() != dims {
                            return Err(ThermalError::BadStack {
                                reason: format!("layer {i}: width map dimensions mismatch"),
                            });
                        }
                        w.validate_against_pitch(pitch);
                    }
                }
                LayerKind::Solid { .. } => {}
            }
        }
        if !has_source {
            return Err(ThermalError::BadStack {
                reason: "stack has no source layer".into(),
            });
        }
        if !has_channel {
            return Err(ThermalError::BadStack {
                reason: "stack has no channel layer (nothing removes heat)".into(),
            });
        }
        Ok(Self {
            dims,
            pitch,
            layers,
        })
    }

    /// The standard interlayer-cooled arrangement used by the benchmark
    /// suite: `substrate | [source_i | channel_i] × D | cap`, all silicon,
    /// with one power map per die and either one shared network (matched
    /// inlets/outlets, case 4) or one per die.
    ///
    /// `networks` must hold either exactly one network (shared by every
    /// channel layer) or one per die.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadStack`] on dimension or count mismatches.
    pub fn interlayer(
        dims: GridDims,
        pitch: f64,
        power_maps: Vec<PowerMap>,
        networks: &[CoolingNetwork],
        channel_height: f64,
    ) -> Result<Self, ThermalError> {
        let num_dies = power_maps.len();
        if num_dies == 0 {
            return Err(ThermalError::BadStack {
                reason: "at least one die required".into(),
            });
        }
        if networks.len() != 1 && networks.len() != num_dies {
            return Err(ThermalError::BadStack {
                reason: format!("need 1 or {num_dies} networks, got {}", networks.len()),
            });
        }
        let si = Material::silicon;
        let flow = FlowConfig {
            geometry: coolnet_units::ChannelGeometry::new(pitch, channel_height, pitch),
            ..FlowConfig::default()
        };
        let mut layers = Vec::with_capacity(2 * num_dies + 2);
        layers.push(Layer::solid(si(), 200e-6)); // substrate
        for die in 0..num_dies {
            layers.push(Layer::source(si(), power_maps[die].clone(), 100e-6));
            let net = if networks.len() == 1 {
                networks[0].clone()
            } else {
                networks[die].clone()
            };
            layers.push(Layer::channel(net, flow.clone(), si()));
        }
        layers.push(Layer::solid(si(), 200e-6)); // cap
        Self::new(dims, pitch, layers)
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Basic-cell pitch in meters.
    pub fn pitch(&self) -> f64 {
        self.pitch
    }

    /// The layers, bottom to top.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Indices of the source layers, bottom to top (die order).
    pub fn source_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.kind, LayerKind::Source { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the channel layers, bottom to top.
    pub fn channel_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.kind, LayerKind::Channel { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total dissipated power over all dies.
    pub fn total_power(&self) -> coolnet_units::Watt {
        let total = self
            .layers
            .iter()
            .filter_map(|l| match &l.kind {
                LayerKind::Source { power, .. } => Some(power.total().value()),
                _ => None,
            })
            .sum();
        coolnet_units::Watt::new(total)
    }
}

/// The hydraulic model of every channel layer of a [`Stack`].
///
/// The solve is a pure function of a layer's network, flow configuration
/// and width map, so layers that agree on all three share one model: a
/// matched multi-die stack repeats one network in every channel layer and
/// pays for one solve.
#[derive(Debug, Clone)]
pub struct LayerFlows {
    /// One model per distinct `(network, flow, widths)`.
    models: Vec<FlowModel>,
    /// `(layer index, model index)` per channel layer, bottom to top.
    layers: Vec<(usize, usize)>,
}

impl LayerFlows {
    /// Solves the hydraulics of every channel layer of `stack`, once per
    /// distinct `(network, flow, widths)`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Flow`] for the first layer whose hydraulic
    /// model cannot be built.
    pub fn new(stack: &Stack) -> Result<Self, ThermalError> {
        let channel = |li: usize| match &stack.layers[li].kind {
            LayerKind::Channel {
                network,
                flow,
                widths,
                ..
            } => Some((network, flow, widths)),
            _ => None,
        };
        let mut models = Vec::new();
        // The layer each model was solved for, parallel to `models`.
        let mut solved_for: Vec<usize> = Vec::new();
        let mut layers = Vec::new();
        for li in stack.channel_layer_indices() {
            let Some(key) = channel(li) else { continue };
            let mi = match solved_for.iter().position(|&s| channel(s) == Some(key)) {
                Some(mi) => mi,
                None => {
                    let (network, flow, widths) = key;
                    models.push(FlowModel::with_widths(network, flow, widths.as_ref())?);
                    solved_for.push(li);
                    models.len() - 1
                }
            };
            layers.push((li, mi));
        }
        Ok(Self { models, layers })
    }

    /// Each channel layer's index in the stack with its model, bottom to
    /// top.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (usize, &FlowModel)> + '_ {
        self.layers.iter().map(|&(li, mi)| (li, &self.models[mi]))
    }

    /// Number of channel layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack has no channel layer.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::{Cell, Dir, Side};
    use coolnet_network::PortKind;

    fn small_network(dims: GridDims) -> CoolingNetwork {
        let mut b = CoolingNetwork::builder(dims);
        for y in (0..dims.height()).step_by(2) {
            b.segment(Cell::new(0, y), Dir::East, dims.width());
        }
        b.port(PortKind::Inlet, Side::West, 0, dims.height() - 1);
        b.port(PortKind::Outlet, Side::East, 0, dims.height() - 1);
        b.build().unwrap()
    }

    #[test]
    fn interlayer_two_dies_has_six_layers() {
        let dims = GridDims::new(5, 5);
        let p = PowerMap::uniform(dims, 10.0);
        let stack = Stack::interlayer(
            dims,
            100e-6,
            vec![p.clone(), p],
            &[small_network(dims)],
            200e-6,
        )
        .unwrap();
        assert_eq!(stack.layers().len(), 6);
        assert_eq!(stack.source_layer_indices(), vec![1, 3]);
        assert_eq!(stack.channel_layer_indices(), vec![2, 4]);
        assert!((stack.total_power().value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn per_die_networks_are_accepted() {
        let dims = GridDims::new(5, 5);
        let p = PowerMap::uniform(dims, 10.0);
        let nets = [small_network(dims), small_network(dims)];
        let stack = Stack::interlayer(dims, 100e-6, vec![p.clone(), p], &nets, 200e-6).unwrap();
        assert_eq!(stack.channel_layer_indices().len(), 2);
    }

    #[test]
    fn layer_flows_solve_each_distinct_layer_once() {
        let dims = GridDims::new(5, 5);
        let p = PowerMap::uniform(dims, 10.0);
        let net = small_network(dims);
        let shared =
            Stack::interlayer(dims, 100e-6, vec![p.clone(), p.clone()], &[net], 200e-6).unwrap();
        let flows = LayerFlows::new(&shared).unwrap();
        let layers: Vec<_> = flows.iter().collect();
        assert_eq!(layers.len(), 2);
        assert_eq!((layers[0].0, layers[1].0), (2, 4));
        assert!(std::ptr::eq(layers[0].1, layers[1].1), "one shared solve");

        // A different network in the second channel layer gets its own.
        let mut other = CoolingNetwork::builder(dims);
        for y in (1..dims.height()).step_by(2) {
            other.segment(Cell::new(0, y), Dir::East, dims.width());
        }
        other.port(PortKind::Inlet, Side::West, 0, dims.height() - 1);
        other.port(PortKind::Outlet, Side::East, 0, dims.height() - 1);
        let nets = [small_network(dims), other.build().unwrap()];
        let split = Stack::interlayer(dims, 100e-6, vec![p.clone(), p], &nets, 200e-6).unwrap();
        let flows = LayerFlows::new(&split).unwrap();
        let layers: Vec<_> = flows.iter().collect();
        assert!(!std::ptr::eq(layers[0].1, layers[1].1));
        assert_ne!(
            layers[0].1.system_resistance(),
            layers[1].1.system_resistance()
        );
    }

    #[test]
    fn missing_source_is_rejected() {
        let dims = GridDims::new(5, 5);
        let layers = vec![
            Layer::solid(Material::silicon(), 100e-6),
            Layer::channel(
                small_network(dims),
                FlowConfig::default(),
                Material::silicon(),
            ),
        ];
        assert!(matches!(
            Stack::new(dims, 100e-6, layers),
            Err(ThermalError::BadStack { .. })
        ));
    }

    #[test]
    fn missing_channel_is_rejected() {
        let dims = GridDims::new(5, 5);
        let layers = vec![Layer::source(
            Material::silicon(),
            PowerMap::uniform(dims, 1.0),
            100e-6,
        )];
        assert!(matches!(
            Stack::new(dims, 100e-6, layers),
            Err(ThermalError::BadStack { .. })
        ));
    }

    #[test]
    fn network_dimension_mismatch_is_rejected() {
        let dims = GridDims::new(5, 5);
        let p = PowerMap::uniform(dims, 1.0);
        let wrong = small_network(GridDims::new(7, 7));
        assert!(matches!(
            Stack::interlayer(dims, 100e-6, vec![p], &[wrong], 200e-6),
            Err(ThermalError::BadStack { .. })
        ));
    }

    #[test]
    fn wrong_network_count_is_rejected() {
        let dims = GridDims::new(5, 5);
        let p = PowerMap::uniform(dims, 1.0);
        let nets = [small_network(dims), small_network(dims)];
        // 1 die but 2 networks.
        assert!(matches!(
            Stack::interlayer(dims, 100e-6, vec![p], &nets, 200e-6),
            Err(ThermalError::BadStack { .. })
        ));
    }

    #[test]
    fn channel_layer_thickness_is_channel_height() {
        let dims = GridDims::new(5, 5);
        let p = PowerMap::uniform(dims, 1.0);
        let stack =
            Stack::interlayer(dims, 100e-6, vec![p], &[small_network(dims)], 400e-6).unwrap();
        let ch = &stack.layers()[stack.channel_layer_indices()[0]];
        assert!((ch.thickness - 400e-6).abs() < 1e-12);
    }
}
