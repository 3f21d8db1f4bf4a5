//! The validated cooling-network data model.

use crate::error::LegalityError;
use crate::port::{Port, PortKind};
use coolnet_grid::{Cell, CellMask, Dir, GridDims};
use serde::{Deserialize, Serialize};

/// A legal cooling network: solid/liquid assignment of every basic cell in
/// a channel layer plus the inlet/outlet manifolds (§2.1 of the paper).
///
/// Values of this type always satisfy the §3 design rules; construct them
/// through [`NetworkBuilder`] (or the generators in [`crate::builders`]),
/// which validate on `build`.
///
/// # Examples
///
/// ```
/// use coolnet_grid::{Cell, GridDims, Side};
/// use coolnet_network::{CoolingNetwork, PortKind};
///
/// # fn main() -> Result<(), coolnet_network::LegalityError> {
/// let dims = GridDims::new(5, 3);
/// let mut b = CoolingNetwork::builder(dims);
/// for x in 0..5 {
///     b.liquid(Cell::new(x, 1));
/// }
/// b.port(PortKind::Inlet, Side::West, 0, 2);
/// b.port(PortKind::Outlet, Side::East, 0, 2);
/// let net = b.build()?;
/// assert_eq!(net.num_liquid_cells(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoolingNetwork {
    dims: GridDims,
    liquid: CellMask,
    tsv: CellMask,
    restricted: CellMask,
    ports: Vec<Port>,
}

impl CoolingNetwork {
    /// Starts building a network over `dims` (empty TSV and restricted
    /// masks; see [`NetworkBuilder::tsv`] / [`NetworkBuilder::restricted`]).
    pub fn builder(dims: GridDims) -> NetworkBuilder {
        NetworkBuilder {
            dims,
            liquid: CellMask::new(dims),
            tsv: CellMask::new(dims),
            restricted: CellMask::new(dims),
            ports: Vec::new(),
        }
    }

    /// Grid dimensions of the channel layer.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The liquid-cell mask.
    pub fn liquid(&self) -> &CellMask {
        &self.liquid
    }

    /// The TSV reservation mask the network was validated against.
    pub fn tsv(&self) -> &CellMask {
        &self.tsv
    }

    /// The restricted (no-channel) region mask.
    pub fn restricted(&self) -> &CellMask {
        &self.restricted
    }

    /// Returns `true` if `cell` is liquid.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn is_liquid(&self, cell: Cell) -> bool {
        self.liquid.contains(cell)
    }

    /// Number of liquid cells `n` (the flow-problem size of Eq. (3)).
    pub fn num_liquid_cells(&self) -> usize {
        self.liquid.len()
    }

    /// All ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// The inlet manifolds.
    pub fn inlets(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.kind() == PortKind::Inlet)
    }

    /// The outlet manifolds.
    pub fn outlets(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.kind() == PortKind::Outlet)
    }

    /// The liquid boundary cells through which coolant actually enters
    /// (inlet) or leaves (outlet).
    pub fn wet_port_cells(&self, kind: PortKind) -> Vec<Cell> {
        let mut out = Vec::new();
        for p in self.ports.iter().filter(|p| p.kind() == kind) {
            for c in p.cells(self.dims) {
                if self.liquid.contains(c) {
                    out.push(c);
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Returns the port (if any) whose manifold covers the liquid cell
    /// `cell`. A cell at a chip corner may be covered by two ports; the
    /// first in declaration order wins (builders never create that case).
    pub fn port_at(&self, cell: Cell) -> Option<&Port> {
        self.ports.iter().find(|p| p.covers(cell, self.dims))
    }

    /// Re-runs the legality validation (always `Ok` for values built through
    /// [`NetworkBuilder`]; useful after deserializing from untrusted data).
    ///
    /// # Errors
    ///
    /// Returns the first [`LegalityError`] found.
    pub fn validate(&self) -> Result<(), LegalityError> {
        validate(
            self.dims,
            &self.liquid,
            &self.tsv,
            &self.restricted,
            &self.ports,
        )
    }
}

/// Builder for [`CoolingNetwork`]; validation happens in [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    dims: GridDims,
    liquid: CellMask,
    tsv: CellMask,
    restricted: CellMask,
    ports: Vec<Port>,
}

impl NetworkBuilder {
    /// Sets the TSV reservation mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask's dimensions differ from the builder's.
    pub fn tsv(&mut self, mask: CellMask) -> &mut Self {
        assert_eq!(mask.dims(), self.dims, "TSV mask dimension mismatch");
        self.tsv = mask;
        self
    }

    /// Sets the restricted-region mask (case 3 of Table 2).
    ///
    /// # Panics
    ///
    /// Panics if the mask's dimensions differ from the builder's.
    pub fn restricted(&mut self, mask: CellMask) -> &mut Self {
        assert_eq!(mask.dims(), self.dims, "restricted mask dimension mismatch");
        self.restricted = mask;
        self
    }

    /// Marks `cell` as liquid.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn liquid(&mut self, cell: Cell) -> &mut Self {
        self.liquid.insert(cell);
        self
    }

    /// Marks a straight run of `len` cells starting at `from` towards `dir`
    /// as liquid — the basic stroke for drawing channels.
    ///
    /// # Panics
    ///
    /// Panics if the run leaves the grid.
    pub fn segment(&mut self, from: Cell, dir: Dir, len: u16) -> &mut Self {
        let mut c = from;
        self.liquid.insert(c);
        for _ in 1..len {
            c = self
                .dims
                .neighbor(c, dir)
                .unwrap_or_else(|| panic!("segment from {from} towards {dir} leaves the grid"));
            self.liquid.insert(c);
        }
        self
    }

    /// Adds a port manifold.
    pub fn port(
        &mut self,
        kind: PortKind,
        side: coolnet_grid::Side,
        start: u16,
        end: u16,
    ) -> &mut Self {
        self.ports.push(Port::new(kind, side, start, end));
        self
    }

    /// Removes `cell` from the liquid mask (used when carving channels out
    /// of restricted regions).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn clear_liquid(&mut self, cell: Cell) -> &mut Self {
        self.liquid.remove(cell);
        self
    }

    /// The grid the builder draws on.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The restricted mask currently configured.
    pub fn restricted_mask(&self) -> &CellMask {
        &self.restricted
    }

    /// The TSV mask currently configured.
    pub fn tsv_mask(&self) -> &CellMask {
        &self.tsv
    }

    /// Validates and freezes the network.
    ///
    /// # Errors
    ///
    /// Returns the first [`LegalityError`] violated by the drawing.
    pub fn build(&self) -> Result<CoolingNetwork, LegalityError> {
        validate(
            self.dims,
            &self.liquid,
            &self.tsv,
            &self.restricted,
            &self.ports,
        )?;
        Ok(CoolingNetwork {
            dims: self.dims,
            liquid: self.liquid.clone(),
            tsv: self.tsv.clone(),
            restricted: self.restricted.clone(),
            ports: self.ports.clone(),
        })
    }
}

fn validate(
    dims: GridDims,
    liquid: &CellMask,
    tsv: &CellMask,
    restricted: &CellMask,
    ports: &[Port],
) -> Result<(), LegalityError> {
    if liquid.is_empty() {
        return Err(LegalityError::NoLiquidCells);
    }
    // Rule 1: no liquid on TSVs; and no liquid in restricted regions.
    if liquid.intersects(tsv) || liquid.intersects(restricted) {
        for cell in liquid.iter() {
            if tsv.contains(cell) {
                return Err(LegalityError::LiquidOnTsv { cell });
            }
            if restricted.contains(cell) {
                return Err(LegalityError::LiquidInRestrictedRegion { cell });
            }
        }
    }
    // Rule 2: ports on edges and within range.
    for p in ports {
        if p.end() >= dims.side_len(p.side()) {
            return Err(LegalityError::PortOutOfRange {
                port: *p,
                side_len: dims.side_len(p.side()),
            });
        }
    }
    // Rule 3: at most one continuous inlet and one outlet per side.
    for side in coolnet_grid::Side::ALL {
        for kind in [PortKind::Inlet, PortKind::Outlet] {
            let count = ports
                .iter()
                .filter(|p| p.side() == side && p.kind() == kind)
                .count();
            if count > 1 {
                return Err(LegalityError::DuplicatePortOnSide { side });
            }
        }
    }
    for (i, a) in ports.iter().enumerate() {
        for b in &ports[i + 1..] {
            if a.overlaps(b) {
                return Err(LegalityError::OverlappingPorts {
                    first: *a,
                    second: *b,
                });
            }
        }
    }
    if !ports.iter().any(|p| p.kind() == PortKind::Inlet) {
        return Err(LegalityError::NoInlet);
    }
    if !ports.iter().any(|p| p.kind() == PortKind::Outlet) {
        return Err(LegalityError::NoOutlet);
    }
    // Every port must touch at least one liquid boundary cell.
    for p in ports {
        if !p.cells(dims).any(|c| liquid.contains(c)) {
            return Err(LegalityError::DryPort { port: *p });
        }
    }
    // Flow-connectivity: every liquid component must see an inlet and an
    // outlet. Flood the liquid from all inlet cells and from all outlet
    // cells; both reached sets are subsets of the liquid.
    let reach = |kind: PortKind| -> CellMask {
        let mut seeds = CellMask::new(dims);
        for p in ports.iter().filter(|p| p.kind() == kind) {
            for c in p.cells(dims) {
                seeds.insert(c);
            }
        }
        liquid.reachable_from(&seeds)
    };
    let from_inlet = reach(PortKind::Inlet);
    let from_outlet = reach(PortKind::Outlet);
    if from_inlet.len() < liquid.len() || from_outlet.len() < liquid.len() {
        for cell in liquid.iter() {
            let has_inlet = from_inlet.contains(cell);
            let has_outlet = from_outlet.contains(cell);
            if !has_inlet || !has_outlet {
                return Err(LegalityError::DisconnectedComponent {
                    cell,
                    has_inlet,
                    has_outlet,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::{tsv, Side};

    fn channel_builder() -> NetworkBuilder {
        // 5x3 grid, single horizontal channel on row 1.
        let dims = GridDims::new(5, 3);
        let mut b = CoolingNetwork::builder(dims);
        b.segment(Cell::new(0, 1), Dir::East, 5);
        b.port(PortKind::Inlet, Side::West, 1, 1);
        b.port(PortKind::Outlet, Side::East, 1, 1);
        b
    }

    #[test]
    fn straight_channel_is_legal() {
        let net = channel_builder().build().unwrap();
        assert_eq!(net.num_liquid_cells(), 5);
        assert_eq!(net.wet_port_cells(PortKind::Inlet), vec![Cell::new(0, 1)]);
        assert_eq!(net.wet_port_cells(PortKind::Outlet), vec![Cell::new(4, 1)]);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn tsv_collision_is_rejected() {
        let dims = GridDims::new(5, 5);
        let mut b = CoolingNetwork::builder(dims);
        b.tsv(tsv::alternating(dims));
        b.segment(Cell::new(0, 1), Dir::East, 5); // row 1 hits TSVs at x=1,3
        b.port(PortKind::Inlet, Side::West, 1, 1);
        b.port(PortKind::Outlet, Side::East, 1, 1);
        assert!(matches!(b.build(), Err(LegalityError::LiquidOnTsv { .. })));
    }

    #[test]
    fn restricted_region_is_rejected() {
        let dims = GridDims::new(5, 3);
        let mut restricted = CellMask::new(dims);
        restricted.insert(Cell::new(2, 1));
        let mut b = channel_builder();
        b.restricted(restricted);
        assert!(matches!(
            b.build(),
            Err(LegalityError::LiquidInRestrictedRegion { .. })
        ));
    }

    #[test]
    fn missing_ports_are_rejected() {
        let dims = GridDims::new(3, 3);
        let mut b = CoolingNetwork::builder(dims);
        b.segment(Cell::new(0, 0), Dir::East, 3);
        assert_eq!(b.build(), Err(LegalityError::NoInlet));
        b.port(PortKind::Inlet, Side::West, 0, 0);
        assert_eq!(b.build(), Err(LegalityError::NoOutlet));
    }

    #[test]
    fn empty_network_is_rejected() {
        let b = CoolingNetwork::builder(GridDims::new(3, 3));
        assert_eq!(b.build(), Err(LegalityError::NoLiquidCells));
    }

    #[test]
    fn two_inlets_on_one_side_are_rejected() {
        let mut b = channel_builder();
        b.port(PortKind::Inlet, Side::West, 2, 2); // second inlet, same side
        assert!(matches!(
            b.build(),
            Err(LegalityError::DuplicatePortOnSide { side: Side::West })
        ));
    }

    #[test]
    fn overlapping_ports_are_rejected() {
        let mut b = channel_builder();
        b.port(PortKind::Outlet, Side::West, 0, 2); // overlaps the inlet range
        assert!(matches!(
            b.build(),
            Err(LegalityError::OverlappingPorts { .. })
        ));
    }

    #[test]
    fn dry_port_is_rejected() {
        let mut b = channel_builder();
        b.port(PortKind::Outlet, Side::North, 0, 4); // row 2 has no liquid
        assert!(matches!(b.build(), Err(LegalityError::DryPort { .. })));
    }

    #[test]
    fn out_of_range_port_is_rejected() {
        let dims = GridDims::new(5, 3);
        let mut b = CoolingNetwork::builder(dims);
        b.segment(Cell::new(0, 1), Dir::East, 5);
        b.port(PortKind::Inlet, Side::West, 1, 10);
        b.port(PortKind::Outlet, Side::East, 1, 1);
        assert!(matches!(
            b.build(),
            Err(LegalityError::PortOutOfRange { .. })
        ));
    }

    #[test]
    fn stranded_component_is_rejected() {
        // 5x5 grid, channel on row 1, isolated puddle at (2, 4).
        let dims = GridDims::new(5, 5);
        let mut b = CoolingNetwork::builder(dims);
        b.segment(Cell::new(0, 1), Dir::East, 5);
        b.port(PortKind::Inlet, Side::West, 1, 1);
        b.port(PortKind::Outlet, Side::East, 1, 1);
        b.liquid(Cell::new(2, 4));
        let err = b.build().unwrap_err();
        match err {
            LegalityError::DisconnectedComponent {
                has_inlet,
                has_outlet,
                ..
            } => {
                assert!(!has_inlet && !has_outlet);
            }
            other => panic!("expected DisconnectedComponent, got {other}"),
        }
    }

    #[test]
    fn dead_end_without_outlet_is_rejected() {
        // Channel reaching the east side but outlet placed where a second,
        // inlet-only component sits.
        let dims = GridDims::new(5, 3);
        let mut b = CoolingNetwork::builder(dims);
        b.segment(Cell::new(0, 1), Dir::East, 3); // stops at x=2: no outlet contact
        b.port(PortKind::Inlet, Side::West, 1, 1);
        b.segment(Cell::new(4, 0), Dir::North, 1);
        b.port(PortKind::Outlet, Side::East, 0, 0);
        let err = b.build().unwrap_err();
        assert!(matches!(err, LegalityError::DisconnectedComponent { .. }));
    }

    #[test]
    fn serde_round_trip_preserves_network() {
        let net = channel_builder().build().unwrap();
        let json = serde_json::to_string(&net).unwrap();
        let back: CoolingNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn port_at_finds_covering_port() {
        let net = channel_builder().build().unwrap();
        let p = net.port_at(Cell::new(0, 1)).unwrap();
        assert_eq!(p.kind(), PortKind::Inlet);
        assert!(net.port_at(Cell::new(2, 1)).is_none());
    }
}
