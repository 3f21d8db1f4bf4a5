//! Coarsening of basic cells into 2RM thermal cells.

use crate::cell::Cell;
use crate::dims::GridDims;
use serde::{Deserialize, Serialize};

/// An `m × m` grouping of basic cells into coarse (2RM) thermal cells.
///
/// §2.3 of the paper: *"In 2RM, the horizontal 2D discretization is
/// therefore coarser than basic cells"* with a grid size of `m × m` basic
/// cells per thermal cell. The ICCAD grid is `101 × 101` and 101 is prime,
/// so the last coarse row/column is smaller ("ragged") for every `m > 1`.
///
/// # Examples
///
/// ```
/// use coolnet_grid::{Cell, Coarsening, GridDims};
/// let c = Coarsening::new(GridDims::new(101, 101), 4);
/// assert_eq!(c.coarse_width(), 26); // 25 full + 1 ragged
/// let (cx, cy) = c.coarse_of(Cell::new(100, 0));
/// assert_eq!((cx, cy), (25, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coarsening {
    fine: GridDims,
    m: u16,
}

/// The inclusive basic-cell extent of one coarse cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarseExtent {
    /// First column (inclusive).
    pub x0: u16,
    /// Last column (inclusive).
    pub x1: u16,
    /// First row (inclusive).
    pub y0: u16,
    /// Last row (inclusive).
    pub y1: u16,
}

impl CoarseExtent {
    /// Width in basic cells.
    pub fn width(&self) -> u16 {
        self.x1 - self.x0 + 1
    }

    /// Height in basic cells.
    pub fn height(&self) -> u16 {
        self.y1 - self.y0 + 1
    }

    /// Number of basic cells covered.
    pub fn num_cells(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// Iterates over the covered basic cells in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Cell> + '_ {
        let (x0, x1, y0, y1) = (self.x0, self.x1, self.y0, self.y1);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| Cell::new(x, y)))
    }
}

impl Coarsening {
    /// Creates an `m × m` coarsening of `fine`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(fine: GridDims, m: u16) -> Self {
        assert!(m > 0, "coarsening factor must be nonzero");
        Self { fine, m }
    }

    /// The underlying fine grid.
    pub fn fine_dims(&self) -> GridDims {
        self.fine
    }

    /// The coarsening factor `m`.
    pub fn factor(&self) -> u16 {
        self.m
    }

    /// Number of coarse columns.
    pub fn coarse_width(&self) -> u16 {
        self.fine.width().div_ceil(self.m)
    }

    /// Number of coarse rows.
    pub fn coarse_height(&self) -> u16 {
        self.fine.height().div_ceil(self.m)
    }

    /// Total number of coarse cells.
    pub fn num_coarse_cells(&self) -> usize {
        self.coarse_width() as usize * self.coarse_height() as usize
    }

    /// The coarse coordinates `(cx, cy)` covering basic cell `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the fine grid.
    pub fn coarse_of(&self, cell: Cell) -> (u16, u16) {
        assert!(self.fine.contains(cell), "cell outside fine grid");
        (cell.x / self.m, cell.y / self.m)
    }

    /// Row-major linear index of the coarse cell covering `cell`.
    pub fn coarse_index_of(&self, cell: Cell) -> usize {
        let (cx, cy) = self.coarse_of(cell);
        cy as usize * self.coarse_width() as usize + cx as usize
    }

    /// The basic-cell extent of coarse cell `(cx, cy)` (ragged at the far
    /// edges).
    ///
    /// # Panics
    ///
    /// Panics if `(cx, cy)` is outside the coarse grid.
    pub fn extent(&self, cx: u16, cy: u16) -> CoarseExtent {
        assert!(
            cx < self.coarse_width() && cy < self.coarse_height(),
            "coarse cell ({cx}, {cy}) out of range"
        );
        let x0 = cx * self.m;
        let y0 = cy * self.m;
        CoarseExtent {
            x0,
            x1: (x0 + self.m - 1).min(self.fine.width() - 1),
            y0,
            y1: (y0 + self.m - 1).min(self.fine.height() - 1),
        }
    }

    /// Iterates over coarse coordinates `(cx, cy)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        let w = self.coarse_width();
        let h = self.coarse_height();
        (0..h).flat_map(move |cy| (0..w).map(move |cx| (cx, cy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_partition_the_fine_grid() {
        let c = Coarsening::new(GridDims::new(101, 101), 4);
        let mut covered = vec![false; 101 * 101];
        for (cx, cy) in c.iter() {
            for cell in c.extent(cx, cy).iter() {
                let i = c.fine_dims().index(cell);
                assert!(!covered[i], "cell {cell} covered twice");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn ragged_edge_sizes() {
        let c = Coarsening::new(GridDims::new(101, 101), 4);
        assert_eq!(c.coarse_width(), 26);
        let last = c.extent(25, 0);
        assert_eq!(last.width(), 1); // 101 = 25*4 + 1
        assert_eq!(c.extent(0, 0).num_cells(), 16);
    }

    #[test]
    fn factor_one_is_identity() {
        let dims = GridDims::new(7, 3);
        let c = Coarsening::new(dims, 1);
        for cell in dims.iter() {
            assert_eq!(c.coarse_of(cell), (cell.x, cell.y));
        }
    }

    #[test]
    fn coarse_of_matches_extent_membership() {
        let c = Coarsening::new(GridDims::new(10, 10), 3);
        for cell in c.fine_dims().iter() {
            let (cx, cy) = c.coarse_of(cell);
            let e = c.extent(cx, cy);
            assert!(e.iter().any(|f| f == cell));
        }
    }

    #[test]
    fn coarse_index_is_row_major() {
        let c = Coarsening::new(GridDims::new(8, 8), 4);
        assert_eq!(c.coarse_index_of(Cell::new(0, 0)), 0);
        assert_eq!(c.coarse_index_of(Cell::new(7, 0)), 1);
        assert_eq!(c.coarse_index_of(Cell::new(0, 4)), 2);
        assert_eq!(c.coarse_index_of(Cell::new(7, 7)), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn extent_rejects_out_of_range() {
        Coarsening::new(GridDims::new(8, 8), 4).extent(2, 0);
    }
}
