//! Inlet/outlet manifolds on the chip edges.

use coolnet_grid::{Cell, GridDims, Side};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a port injects or drains coolant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortKind {
    /// Coolant flows into the chip through this port at `T_in`.
    Inlet,
    /// Coolant leaves the chip through this port (reference pressure 0).
    Outlet,
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortKind::Inlet => "inlet",
            PortKind::Outlet => "outlet",
        })
    }
}

/// One *continuous* inlet or outlet manifold along a chip edge.
///
/// §3 design rule 3: to keep packaging practical there can be at most one
/// continuous inlet and one continuous outlet per side. A port covers the
/// contiguous positions `start..=end` along its [`Side`] (positions as in
/// [`GridDims::side_cell`]); coolant actually enters/leaves only through
/// the *liquid* boundary cells under the manifold — solid cells in the
/// range are simply walls.
///
/// # Examples
///
/// ```
/// use coolnet_grid::{GridDims, Side};
/// use coolnet_network::{Port, PortKind};
///
/// let p = Port::new(PortKind::Inlet, Side::West, 0, 10);
/// assert_eq!(p.len(), 11);
/// assert!(p.cells(GridDims::new(20, 20)).count() == 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Port {
    kind: PortKind,
    side: Side,
    start: u16,
    end: u16,
}

impl Port {
    /// Creates a port of `kind` on `side` covering positions `start..=end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(kind: PortKind, side: Side, start: u16, end: u16) -> Self {
        assert!(start <= end, "inverted port range {start}..={end}");
        Self {
            kind,
            side,
            start,
            end,
        }
    }

    /// The port kind.
    pub fn kind(&self) -> PortKind {
        self.kind
    }

    /// The chip edge the port sits on.
    pub fn side(&self) -> Side {
        self.side
    }

    /// First covered position along the side.
    pub fn start(&self) -> u16 {
        self.start
    }

    /// Last covered position along the side (inclusive).
    pub fn end(&self) -> u16 {
        self.end
    }

    /// Number of covered positions.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize + 1
    }

    /// Ports always cover at least one position.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if `self` and `other` overlap on the same side.
    pub fn overlaps(&self, other: &Port) -> bool {
        self.side == other.side && self.start <= other.end && other.start <= self.end
    }

    /// Iterates over the boundary cells covered by the manifold.
    ///
    /// # Panics
    ///
    /// The iterator panics (on first `next`) if the range extends beyond the
    /// side length of `dims`; [`CoolingNetwork`](crate::CoolingNetwork)
    /// validation reports this as a legality error instead.
    pub fn cells(&self, dims: GridDims) -> impl Iterator<Item = Cell> + '_ {
        (self.start..=self.end).map(move |k| dims.side_cell(self.side, k))
    }

    /// Returns `true` if `cell` lies under the manifold.
    pub fn covers(&self, cell: Cell, dims: GridDims) -> bool {
        if !dims.on_side(cell, self.side) {
            return false;
        }
        let k = match self.side {
            Side::North | Side::South => cell.x,
            Side::East | Side::West => cell.y,
        };
        k >= self.start && k <= self.end
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} [{}..={}]",
            self.kind, self.side, self.start, self.end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_side_covers_side() {
        let dims = GridDims::new(7, 5);
        let p = Port::new(
            PortKind::Outlet,
            Side::East,
            0,
            dims.side_len(Side::East) - 1,
        );
        assert_eq!(p.len(), 5);
        let cells: Vec<_> = p.cells(dims).collect();
        assert_eq!(cells[0], Cell::new(6, 0));
        assert_eq!(cells[4], Cell::new(6, 4));
    }

    #[test]
    fn overlap_detection() {
        let a = Port::new(PortKind::Inlet, Side::West, 0, 4);
        let b = Port::new(PortKind::Outlet, Side::West, 4, 8);
        let c = Port::new(PortKind::Outlet, Side::West, 5, 8);
        let d = Port::new(PortKind::Outlet, Side::East, 0, 8);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn covers_matches_cells() {
        let dims = GridDims::new(10, 10);
        let p = Port::new(PortKind::Inlet, Side::North, 2, 5);
        for c in p.cells(dims) {
            assert!(p.covers(c, dims));
        }
        assert!(!p.covers(Cell::new(6, 9), dims));
        assert!(!p.covers(Cell::new(3, 0), dims)); // wrong side
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_inverted_range() {
        Port::new(PortKind::Inlet, Side::North, 5, 2);
    }

    #[test]
    fn display_is_informative() {
        let p = Port::new(PortKind::Inlet, Side::South, 1, 3);
        assert_eq!(p.to_string(), "inlet on south [1..=3]");
    }
}
