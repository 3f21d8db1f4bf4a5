//! Solved pressure/flow fields.

use crate::model::FlowModel;
use coolnet_grid::{Cell, Dir};
use coolnet_units::{CubicMetersPerSecond, Pascal, Watt};

/// A solved pressure and flow-rate distribution at a specific `P_sys`
/// (Fig. 2(c) of the paper).
///
/// Obtained from [`FlowModel::solve`]; all quantities are exact scalings of
/// the model's unit solution.
#[derive(Debug, Clone)]
pub struct FlowField<'a> {
    model: &'a FlowModel,
    p_sys: f64,
}

impl<'a> FlowField<'a> {
    pub(crate) fn from_unit(model: &'a FlowModel, p_sys: Pascal) -> Self {
        Self {
            model,
            p_sys: p_sys.value(),
        }
    }

    /// The system pressure drop this field was solved at.
    pub fn p_sys(&self) -> Pascal {
        Pascal::new(self.p_sys)
    }

    /// The pressure at a liquid cell, or `None` for solid cells.
    pub fn pressure(&self, cell: Cell) -> Option<Pascal> {
        self.model
            .index_of(cell)
            .map(|i| Pascal::new(self.model.unit_pressures()[i] * self.p_sys))
    }

    /// Signed flow rate from liquid cell `from` to neighboring liquid cell
    /// `to` (positive when coolant moves `from → to`), Eq. (1).
    ///
    /// Returns `None` if either cell is solid or they are not 4-neighbors.
    pub fn flow(&self, from: Cell, to: Cell) -> Option<CubicMetersPerSecond> {
        let i = self.model.index_of(from)?;
        let j = self.model.index_of(to)?;
        let adjacent = Dir::ALL
            .iter()
            .any(|&d| d.delta() == (to.x as i32 - from.x as i32, to.y as i32 - from.y as i32));
        if !adjacent {
            return None;
        }
        let g = self.model.link_conductance(i, j);
        let dp = (self.model.unit_pressures()[i] - self.model.unit_pressures()[j]) * self.p_sys;
        Some(CubicMetersPerSecond::new(g * dp))
    }

    /// Flow entering liquid cell `cell` from the inlet manifold (zero for
    /// cells not under an inlet).
    pub fn inlet_flow(&self, cell: Cell) -> CubicMetersPerSecond {
        match self.model.index_of(cell) {
            Some(i) => {
                let (g_in, _) = self.model.port_conductance_of(i);
                let p = self.model.unit_pressures()[i];
                CubicMetersPerSecond::new(g_in * (1.0 - p) * self.p_sys)
            }
            None => CubicMetersPerSecond::new(0.0),
        }
    }

    /// Flow leaving liquid cell `cell` through the outlet manifold.
    pub fn outlet_flow(&self, cell: Cell) -> CubicMetersPerSecond {
        match self.model.index_of(cell) {
            Some(i) => {
                let (_, g_out) = self.model.port_conductance_of(i);
                let p = self.model.unit_pressures()[i];
                CubicMetersPerSecond::new(g_out * p * self.p_sys)
            }
            None => CubicMetersPerSecond::new(0.0),
        }
    }

    /// Total system flow rate `Q_sys` (all inlet flows).
    pub fn system_flow(&self) -> CubicMetersPerSecond {
        CubicMetersPerSecond::new(self.p_sys / self.model.system_resistance())
    }

    /// Pumping power `W_pump = P_sys · Q_sys`.
    pub fn pumping_power(&self) -> Watt {
        self.p_sys() * self.system_flow()
    }

    /// Net volumetric imbalance at a liquid cell — exactly zero in theory
    /// (Eq. (2)); in practice bounded by solver tolerance. Exposed for
    /// verification and tests.
    pub fn divergence(&self, cell: Cell) -> f64 {
        let Some(i) = self.model.index_of(cell) else {
            return 0.0;
        };
        let mut net = self.inlet_flow(cell).value() - self.outlet_flow(cell).value();
        for d in Dir::ALL {
            let nx = cell.x as i32 + d.delta().0;
            let ny = cell.y as i32 + d.delta().1;
            if nx < 0 || ny < 0 {
                continue;
            }
            let nb = Cell::new(nx as u16, ny as u16);
            if let Some(j) = self.model.index_of(nb) {
                net += self.model.link_conductance(i, j)
                    * (self.model.unit_pressures()[j] - self.model.unit_pressures()[i])
                    * self.p_sys;
            }
        }
        net
    }

    /// Maximum channel Reynolds number over all cell-to-cell links — a
    /// diagnostic for the laminar-flow assumption (`Re ≲ 2300`).
    pub fn max_reynolds(&self) -> f64 {
        let cfg = self.model.config();
        let pitch = cfg.geometry.pitch();
        let height = cfg.geometry.height();
        let rho = cfg.coolant.density;
        let mu = cfg.coolant.dynamic_viscosity;
        let mut max_re: f64 = 0.0;
        for (i, &cell) in self.model.cells().iter().enumerate() {
            for d in [Dir::East, Dir::North] {
                let nx = cell.x as i32 + d.delta().0;
                let ny = cell.y as i32 + d.delta().1;
                if nx < 0 || ny < 0 {
                    continue;
                }
                if let Some(j) = self.model.index_of(Cell::new(nx as u16, ny as u16)) {
                    let q = (self.model.link_conductance(i, j)
                        * (self.model.unit_pressures()[i] - self.model.unit_pressures()[j])
                        * self.p_sys)
                        .abs();
                    // Evaluate Re in the narrower of the two cells (the
                    // worst case for the laminar assumption).
                    let w = self.model.width_of(i).min(self.model.width_of(j));
                    let geom = coolnet_units::ChannelGeometry::new(w, height, pitch);
                    let re = rho * (q / geom.cross_section_area()) * geom.hydraulic_diameter() / mu;
                    max_re = max_re.max(re);
                }
            }
        }
        max_re
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use coolnet_grid::{GridDims, Side};
    use coolnet_network::{CoolingNetwork, PortKind};

    fn channel(len: u16) -> CoolingNetwork {
        let mut b = CoolingNetwork::builder(GridDims::new(len, 1));
        b.segment(Cell::new(0, 0), Dir::East, len);
        b.port(PortKind::Inlet, Side::West, 0, 0);
        b.port(PortKind::Outlet, Side::East, 0, 0);
        b.build().unwrap()
    }

    #[test]
    fn flow_is_uniform_along_a_single_channel() {
        let net = channel(6);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let f = model.solve(Pascal::from_kilopascals(5.0));
        let q01 = f.flow(Cell::new(0, 0), Cell::new(1, 0)).unwrap().value();
        let q45 = f.flow(Cell::new(4, 0), Cell::new(5, 0)).unwrap().value();
        assert!((q01 - q45).abs() / q01 < 1e-8);
        // And equal to the system flow.
        assert!((q01 - f.system_flow().value()).abs() / q01 < 1e-8);
    }

    #[test]
    fn flow_is_antisymmetric() {
        let net = channel(4);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let f = model.solve(Pascal::new(1000.0));
        let a = f.flow(Cell::new(1, 0), Cell::new(2, 0)).unwrap().value();
        let b = f.flow(Cell::new(2, 0), Cell::new(1, 0)).unwrap().value();
        assert!((a + b).abs() < 1e-20);
    }

    #[test]
    fn conservation_holds_everywhere() {
        let net = channel(7);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let f = model.solve(Pascal::from_kilopascals(10.0));
        let scale = f.system_flow().value();
        for i in 0..model.num_unknowns() {
            let div = f.divergence(model.cell_of(i));
            assert!(div.abs() / scale < 1e-8, "cell {i}: div = {div}");
        }
    }

    #[test]
    fn inlet_equals_outlet_flow() {
        let net = channel(5);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let f = model.solve(Pascal::from_kilopascals(8.0));
        let q_in = f.inlet_flow(Cell::new(0, 0)).value();
        let q_out = f.outlet_flow(Cell::new(4, 0)).value();
        assert!((q_in - q_out).abs() / q_in < 1e-8);
        assert!((q_in - f.system_flow().value()).abs() / q_in < 1e-8);
    }

    #[test]
    fn non_adjacent_flow_is_none() {
        let net = channel(5);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let f = model.solve(Pascal::new(100.0));
        assert!(f.flow(Cell::new(0, 0), Cell::new(2, 0)).is_none());
        assert!(f.flow(Cell::new(0, 0), Cell::new(0, 0)).is_none());
    }

    #[test]
    fn reynolds_is_laminar_at_benchmark_pressures() {
        let net = channel(101);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let f = model.solve(Pascal::from_kilopascals(13.0));
        let re = f.max_reynolds();
        assert!(re > 0.0 && re < 2300.0, "Re = {re}");
    }

    #[test]
    fn fields_scale_linearly() {
        let net = channel(5);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let f1 = model.solve(Pascal::new(1000.0));
        let f3 = model.solve(Pascal::new(3000.0));
        let p1 = f1.pressure(Cell::new(2, 0)).unwrap().value();
        let p3 = f3.pressure(Cell::new(2, 0)).unwrap().value();
        assert!((p3 / p1 - 3.0).abs() < 1e-12);
    }
}
