//! Hydraulic model configuration.

use coolnet_units::{ChannelGeometry, Coolant};
use serde::{Deserialize, Serialize};

/// Physical configuration of the hydraulic model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Channel cross-section and basic-cell pitch.
    pub geometry: ChannelGeometry,
    /// Working fluid.
    pub coolant: Coolant,
    /// Entrance/exit loss factor for inlet/outlet faces.
    ///
    /// The paper states the port conductance `g_fluid,i,edge` is *smaller*
    /// than the cell-to-cell conductance but does not give its value. We
    /// model the port as a half-cell path (`l/2`, which alone would *double*
    /// the conductance) divided by this loss factor; the default of 4 makes
    /// the port conductance half the cell-to-cell one. See DESIGN.md §3.
    pub port_loss_factor: f64,
}

impl FlowConfig {
    /// Configuration for the ICCAD 2015 benchmarks with channel height
    /// `h_c` in meters (Table 2: 200 µm or 400 µm).
    pub fn iccad2015(channel_height: f64) -> Self {
        Self {
            geometry: ChannelGeometry::iccad2015(channel_height),
            coolant: Coolant::water(),
            port_loss_factor: 4.0,
        }
    }

    /// Conductance between two neighboring liquid cells (Eq. (1), with
    /// `l` = one pitch).
    pub fn cell_conductance(&self) -> f64 {
        self.geometry
            .fluid_conductance(&self.coolant, self.geometry.pitch())
    }

    /// Conductance between a boundary liquid cell and its inlet/outlet face.
    pub fn port_conductance(&self) -> f64 {
        self.geometry
            .fluid_conductance(&self.coolant, self.geometry.pitch() / 2.0)
            / self.port_loss_factor
    }
}

impl Default for FlowConfig {
    /// The ICCAD geometry with a 200 µm channel height.
    fn default() -> Self {
        Self::iccad2015(200e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_conductance_is_smaller_than_cell() {
        let c = FlowConfig::default();
        assert!(
            c.port_conductance() < c.cell_conductance(),
            "paper requires a smaller edge conductance"
        );
    }

    #[test]
    fn default_matches_iccad() {
        let c = FlowConfig::default();
        assert_eq!(c.geometry.height(), 200e-6);
        assert_eq!(c.geometry.pitch(), 100e-6);
    }

    #[test]
    fn taller_channel_conducts_more() {
        let short = FlowConfig::iccad2015(200e-6);
        let tall = FlowConfig::iccad2015(400e-6);
        assert!(tall.cell_conductance() > short.cell_conductance());
    }
}
