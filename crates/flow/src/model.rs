//! Assembly and solution of the pressure system `G·P = Q_in` (Eq. (3)).

use crate::config::FlowConfig;
use crate::error::FlowError;
use crate::field::FlowField;
use crate::widths::WidthMap;
use coolnet_grid::{Cell, Dir};
use coolnet_network::{CoolingNetwork, PortKind};
use coolnet_obs::LazyCounter;
use coolnet_sparse::precond::Jacobi;
use coolnet_sparse::resilience::{self, Krylov};
use coolnet_sparse::{SolveStats, SolverOptions, TripletBuilder};
use coolnet_units::{Pascal, Watt};

/// Hydraulic assemblies: one unit-pressure system built and solved per
/// [`FlowModel`] construction.
static M_ASSEMBLIES: LazyCounter = LazyCounter::new("flow.assemblies");
/// Pumping-power evaluations (Eq. (10) scalings of the unit solve).
static M_PUMPING_POWER_EVALS: LazyCounter = LazyCounter::new("flow.pumping_power_evals");

/// The assembled hydraulic model of one cooling network.
///
/// Pressures are solved once at `P_sys = 1 Pa`; every [`solve`](Self::solve)
/// call scales that unit solution (the system is linear), so probing many
/// pressures for Algorithm 3 costs one linear solve total.
#[derive(Debug, Clone)]
pub struct FlowModel {
    config: FlowConfig,
    /// Liquid-cell index map: `cell_of[i]` is the cell of unknown `i`.
    cell_of: Vec<Cell>,
    /// Reverse map over the full grid (`usize::MAX` for solid cells).
    index_of: Vec<usize>,
    grid_width: usize,
    grid_height: usize,
    /// Pressures at `P_sys = 1`.
    unit_pressures: Vec<f64>,
    /// Per-unknown port conductances: `(g_inlet_total, g_outlet_total)`.
    port_conductance: Vec<(f64, f64)>,
    /// Per-unknown half-cell fluid conductance (center to face).
    half_conductance: Vec<f64>,
    /// Per-unknown channel width.
    width_of_cell: Vec<f64>,
    /// System flow rate at `P_sys = 1` (i.e. `1 / R_sys`).
    unit_flow: f64,
    /// Statistics of the unit pressure solve (diagnostics).
    stats: SolveStats,
}

impl FlowModel {
    /// Assembles and solves the pressure system for `net`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Solver`] if both solve steps, Jacobi-CG and
    /// then the direct LU, fail. A legal network always yields an SPD
    /// system, so this indicates tolerance starvation, not an illegal
    /// input.
    pub fn new(net: &CoolingNetwork, config: &FlowConfig) -> Result<Self, FlowError> {
        Self::with_widths(net, config, None)
    }

    /// Like [`new`](Self::new) but with per-cell channel widths (channel
    /// width modulation, GreenCool-style). Cells absent from the map use
    /// the configured uniform width.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if a width exceeds the cell pitch or the map dimensions
    /// mismatch the network's.
    pub fn with_widths(
        net: &CoolingNetwork,
        config: &FlowConfig,
        widths: Option<&WidthMap>,
    ) -> Result<Self, FlowError> {
        if let Some(w) = widths {
            assert_eq!(w.dims(), net.dims(), "width map dimension mismatch");
            w.validate_against_pitch(config.geometry.pitch());
        }
        let dims = net.dims();
        let n_cells = dims.num_cells();
        let mut index_of = vec![usize::MAX; n_cells];
        let mut cell_of = Vec::with_capacity(net.num_liquid_cells());
        for cell in net.liquid().iter() {
            index_of[dims.index(cell)] = cell_of.len();
            cell_of.push(cell);
        }
        let n = cell_of.len();
        if n == 0 {
            return Err(FlowError::NoFlowPath);
        }

        let pitch = config.geometry.pitch();
        let height = config.geometry.height();
        // Per-cell width, half-cell conductance (center to face) and port
        // conductance; uniform maps reduce exactly to the classic formulas
        // (series of two half cells == one full-pitch conductance).
        let width_of_cell: Vec<f64> = cell_of
            .iter()
            .map(|&c| widths.map_or(config.geometry.width(), |w| w.get(c)))
            .collect();
        let half_conductance: Vec<f64> = width_of_cell
            .iter()
            .map(|&w| {
                coolnet_units::ChannelGeometry::new(w, height, pitch)
                    .fluid_conductance(&config.coolant, pitch / 2.0)
            })
            .collect();
        let series = |a: f64, b: f64| a * b / (a + b);

        let mut builder = TripletBuilder::with_capacity(n, n, 5 * n);
        let mut rhs = vec![0.0; n];
        let mut port_conductance = vec![(0.0, 0.0); n];

        // Cell-to-cell couplings (each pair once via East/North sweep).
        for (i, &cell) in cell_of.iter().enumerate() {
            for dir in [Dir::East, Dir::North] {
                if let Some(nb) = dims.neighbor(cell, dir) {
                    if net.is_liquid(nb) {
                        let j = index_of[dims.index(nb)];
                        builder.add_conductance(
                            i,
                            j,
                            series(half_conductance[i], half_conductance[j]),
                        );
                    }
                }
            }
        }
        // Port faces: Dirichlet conditions folded into diagonal + RHS.
        for port in net.ports() {
            for cell in port.cells(dims) {
                if !net.is_liquid(cell) {
                    continue;
                }
                let i = index_of[dims.index(cell)];
                let g_port = half_conductance[i] / config.port_loss_factor;
                builder.add(i, i, g_port);
                match port.kind() {
                    PortKind::Inlet => {
                        // P_in = P_sys = 1 in the unit problem.
                        rhs[i] += g_port;
                        port_conductance[i].0 += g_port;
                    }
                    PortKind::Outlet => {
                        // P_out = 0: contributes only to the diagonal.
                        port_conductance[i].1 += g_port;
                    }
                }
            }
        }

        let matrix = builder.to_csr();
        M_ASSEMBLIES.inc();
        let options = SolverOptions::with_tolerance(1e-12);
        let solution =
            resilience::solve(Krylov::Cg, &matrix, &rhs, &Jacobi::new(&matrix), &options)?;
        let unit_pressures = solution.solution;

        // System flow at unit pressure: total flow through all inlets.
        let unit_flow: f64 = port_conductance
            .iter()
            .zip(&unit_pressures)
            .map(|(&(g_in, _), &p)| g_in * (1.0 - p))
            .sum();

        Ok(Self {
            config: config.clone(),
            cell_of,
            index_of,
            grid_width: dims.width() as usize,
            grid_height: dims.height() as usize,
            unit_pressures,
            port_conductance,
            half_conductance,
            width_of_cell,
            unit_flow,
            stats: solution.stats,
        })
    }

    /// The model's configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Number of liquid-cell unknowns `n`.
    pub fn num_unknowns(&self) -> usize {
        self.cell_of.len()
    }

    /// The unknown index of a liquid cell, if `cell` is liquid (and inside
    /// the grid).
    pub fn index_of(&self, cell: Cell) -> Option<usize> {
        if cell.x as usize >= self.grid_width || cell.y as usize >= self.grid_height {
            return None;
        }
        let i = cell.y as usize * self.grid_width + cell.x as usize;
        self.index_of.get(i).copied().filter(|&v| v != usize::MAX)
    }

    /// The liquid cell of unknown `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_unknowns()`.
    pub fn cell_of(&self, idx: usize) -> Cell {
        self.cell_of[idx]
    }

    /// All liquid cells in unknown order.
    pub fn cells(&self) -> &[Cell] {
        &self.cell_of
    }

    /// Total inlet and outlet port conductance attached to unknown `idx`
    /// (zero for cells not under a manifold).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_unknowns()`.
    pub fn port_conductance_of(&self, idx: usize) -> (f64, f64) {
        self.port_conductance[idx]
    }

    /// Fluid conductance of the link between two *adjacent liquid* unknowns
    /// (series combination of the two half-cell conductances; honors
    /// per-cell channel widths).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn link_conductance(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (self.half_conductance[i], self.half_conductance[j]);
        a * b / (a + b)
    }

    /// The channel width at unknown `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn width_of(&self, idx: usize) -> f64 {
        self.width_of_cell[idx]
    }

    /// Pressures of the unit (`P_sys = 1 Pa`) solution, in unknown order.
    /// Scale by the actual `P_sys` to obtain physical pressures; the
    /// thermal models use these to derive unit flow rates.
    pub fn unit_pressures(&self) -> &[f64] {
        &self.unit_pressures
    }

    /// System fluid resistance `R_sys` in Pa·s/m³ (Eq. (10)).
    pub fn system_resistance(&self) -> f64 {
        1.0 / self.unit_flow
    }

    /// Pumping power `W_pump = P_sys² / R_sys` (Eq. (10), with the external
    /// efficiency η dropped as in the paper).
    pub fn pumping_power(&self, p_sys: Pascal) -> Watt {
        M_PUMPING_POWER_EVALS.inc();
        Watt::new(p_sys.value() * p_sys.value() * self.unit_flow)
    }

    /// The `P_sys` that produces a given pumping power (inverse of
    /// [`pumping_power`](Self::pumping_power)), used to turn the Problem-2
    /// constraint `W*_pump` into a pressure bound `P*_sys`.
    pub fn pressure_for_power(&self, w_pump: Watt) -> Pascal {
        Pascal::new((w_pump.value() / self.unit_flow).sqrt())
    }

    /// Scales the unit solution to the given system pressure drop.
    pub fn solve(&self, p_sys: Pascal) -> FlowField<'_> {
        debug_assert!(
            p_sys.value().is_finite(),
            "system pressure drop must be finite, got {p_sys}"
        );
        FlowField::from_unit(self, p_sys)
    }

    /// Statistics of the unit pressure solve, including which step
    /// produced it.
    // Not a solver entry point, just a stats getter sharing the prefix.
    // analyze:allow(finite-guard)
    pub fn solve_stats(&self) -> SolveStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::{GridDims, Side};
    use coolnet_network::CoolingNetwork;

    /// Single straight channel of `len` cells.
    fn channel(len: u16) -> CoolingNetwork {
        let mut b = CoolingNetwork::builder(GridDims::new(len, 1));
        b.segment(Cell::new(0, 0), Dir::East, len);
        b.port(PortKind::Inlet, Side::West, 0, 0);
        b.port(PortKind::Outlet, Side::East, 0, 0);
        b.build().unwrap()
    }

    #[test]
    fn straight_channel_matches_series_resistance() {
        // n cells: (n-1) internal links at g_cell plus two port links at
        // g_port. R_sys = (n-1)/g_cell + 2/g_port.
        let net = channel(5);
        let config = FlowConfig::default();
        let model = FlowModel::new(&net, &config).unwrap();
        let expected = 4.0 / config.cell_conductance() + 2.0 / config.port_conductance();
        let r = model.system_resistance();
        assert!(
            (r - expected).abs() / expected < 1e-9,
            "R = {r}, expected {expected}"
        );
    }

    #[test]
    fn pressures_decrease_monotonically_downstream() {
        let net = channel(8);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let p = model.unit_pressures();
        for w in p.windows(2) {
            assert!(w[0] > w[1]);
        }
        // Maximum principle: all pressures within (0, 1).
        assert!(p.iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn pumping_power_is_quadratic_in_pressure() {
        let net = channel(5);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let w1 = model.pumping_power(Pascal::new(1000.0)).value();
        let w2 = model.pumping_power(Pascal::new(2000.0)).value();
        assert!((w2 / w1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pressure_for_power_inverts_pumping_power() {
        let net = channel(5);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        let p = Pascal::from_kilopascals(12.5);
        let w = model.pumping_power(p);
        let back = model.pressure_for_power(w);
        assert!((back.value() - p.value()).abs() / p.value() < 1e-9);
    }

    #[test]
    fn parallel_channels_halve_resistance() {
        // Two identical channels in parallel have half the resistance of one.
        let mut b = CoolingNetwork::builder(GridDims::new(5, 3));
        b.segment(Cell::new(0, 0), Dir::East, 5);
        b.segment(Cell::new(0, 2), Dir::East, 5);
        b.port(PortKind::Inlet, Side::West, 0, 2);
        b.port(PortKind::Outlet, Side::East, 0, 2);
        let two = b.build().unwrap();
        let config = FlowConfig::default();
        let r1 = FlowModel::new(&channel(5), &config)
            .unwrap()
            .system_resistance();
        let r2 = FlowModel::new(&two, &config).unwrap().system_resistance();
        assert!((r1 / r2 - 2.0).abs() < 1e-6, "r1={r1}, r2={r2}");
    }

    #[test]
    fn index_maps_are_consistent() {
        let net = channel(5);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        assert_eq!(model.num_unknowns(), 5);
        for i in 0..model.num_unknowns() {
            assert_eq!(model.index_of(model.cell_of(i)), Some(i));
        }
        assert_eq!(model.index_of(Cell::new(0, 0)), Some(0));
    }

    #[test]
    fn index_of_rejects_out_of_grid_cells() {
        // Regression: a cell at x == width must not alias row y+1.
        let net = channel(5);
        let model = FlowModel::new(&net, &FlowConfig::default()).unwrap();
        assert_eq!(model.index_of(Cell::new(5, 0)), None);
        assert_eq!(model.index_of(Cell::new(0, 1)), None);
    }

    #[test]
    fn wider_channel_height_lowers_resistance() {
        let net = channel(6);
        let r200 = FlowModel::new(&net, &FlowConfig::iccad2015(200e-6))
            .unwrap()
            .system_resistance();
        let r400 = FlowModel::new(&net, &FlowConfig::iccad2015(400e-6))
            .unwrap()
            .system_resistance();
        assert!(r400 < r200);
    }
}
