//! Bit masks over the basic-cell grid.

use crate::cell::Cell;
use crate::dims::GridDims;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of basic cells, stored as a bit per cell.
///
/// Used for the liquid cells of a cooling network, the TSV reservation
/// pattern, and restricted (no-channel) regions.
///
/// # Examples
///
/// ```
/// use coolnet_grid::{Cell, CellMask, GridDims};
/// let dims = GridDims::new(3, 3);
/// let mut m = CellMask::new(dims);
/// m.insert(Cell::new(1, 1));
/// assert!(m.contains(Cell::new(1, 1)));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellMask {
    dims: GridDims,
    bits: Vec<u64>,
    len: usize,
}

impl CellMask {
    /// Creates an empty mask over `dims`.
    pub fn new(dims: GridDims) -> Self {
        let words = dims.num_cells().div_ceil(64);
        Self {
            dims,
            bits: vec![0; words],
            len: 0,
        }
    }

    /// Creates a mask containing every cell of `dims`.
    pub fn full(dims: GridDims) -> Self {
        let mut m = Self::new(dims);
        for cell in dims.iter() {
            m.insert(cell);
        }
        m
    }

    /// The grid dimensions this mask is defined over.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Number of cells in the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `cell` is in the mask.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn contains(&self, cell: Cell) -> bool {
        let i = self.dims.index(cell);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Inserts `cell`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn insert(&mut self, cell: Cell) -> bool {
        let i = self.dims.index(cell);
        let word = &mut self.bits[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `cell`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn remove(&mut self, cell: Cell) -> bool {
        let i = self.dims.index(cell);
        let word = &mut self.bits[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit != 0 {
            *word &= !bit;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates over the cells in the mask in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Cell> + '_ {
        self.dims.iter().filter(|&c| self.contains(c))
    }

    /// Returns `true` if `self` and `other` share any cell.
    ///
    /// # Panics
    ///
    /// Panics if the two masks have different dimensions.
    pub fn intersects(&self, other: &CellMask) -> bool {
        assert_eq!(self.dims, other.dims, "mask dimension mismatch");
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }

    /// The cells of `self` 4-connected through `self` to a cell of `seeds`
    /// (seed cells outside `self` start nothing).
    ///
    /// # Panics
    ///
    /// Panics if the two masks have different dimensions.
    pub fn reachable_from(&self, seeds: &CellMask) -> CellMask {
        assert_eq!(self.dims, seeds.dims, "mask dimension mismatch");
        let w = usize::from(self.dims.width());
        let n = self.dims.num_cells();
        let mut reached = CellMask::new(self.dims);
        let mut stack: Vec<usize> = Vec::new();
        for (wi, (&own, &seed)) in self.bits.iter().zip(&seeds.bits).enumerate() {
            let mut word = own & seed;
            reached.bits[wi] = word;
            reached.len += word.count_ones() as usize;
            while word != 0 {
                stack.push(wi * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        while let Some(i) = stack.pop() {
            let x = i % w;
            let neighbors = [
                (x > 0).then(|| i - 1),
                (x + 1 < w).then_some(i + 1),
                i.checked_sub(w),
                Some(i + w).filter(|&j| j < n),
            ];
            for j in neighbors.into_iter().flatten() {
                let bit = 1u64 << (j % 64);
                if self.bits[j / 64] & bit != 0 && reached.bits[j / 64] & bit == 0 {
                    reached.bits[j / 64] |= bit;
                    reached.len += 1;
                    stack.push(j);
                }
            }
        }
        reached
    }

    /// Inserts every cell of a rectangle spanning `(x0..=x1, y0..=y1)`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle extends outside the grid or is inverted.
    pub fn insert_rect(&mut self, x0: u16, y0: u16, x1: u16, y1: u16) {
        assert!(x0 <= x1 && y0 <= y1, "inverted rectangle");
        assert!(
            self.dims.contains(Cell::new(x1, y1)),
            "rectangle outside grid"
        );
        for y in y0..=y1 {
            for x in x0..=x1 {
                self.insert(Cell::new(x, y));
            }
        }
    }
}

impl fmt::Display for CellMask {
    /// Renders the mask as ASCII art: `#` for set cells, `.` for clear,
    /// north row first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for y in (0..self.dims.height()).rev() {
            for x in 0..self.dims.width() {
                let ch = if self.contains(Cell::new(x, y)) {
                    '#'
                } else {
                    '.'
                };
                write!(f, "{ch}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl FromIterator<Cell> for CellMask {
    /// Collects cells into a mask; the grid is sized to the maximal
    /// coordinates seen (use [`CellMask::new`] + [`insert`](CellMask::insert)
    /// when exact dimensions matter).
    fn from_iter<I: IntoIterator<Item = Cell>>(iter: I) -> Self {
        let cells: Vec<Cell> = iter.into_iter().collect();
        let w = cells.iter().map(|c| c.x + 1).max().unwrap_or(1);
        let h = cells.iter().map(|c| c.y + 1).max().unwrap_or(1);
        let mut m = CellMask::new(GridDims::new(w, h));
        for c in cells {
            m.insert(c);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_len() {
        let mut m = CellMask::new(GridDims::new(10, 10));
        assert!(m.insert(Cell::new(3, 4)));
        assert!(!m.insert(Cell::new(3, 4)));
        assert_eq!(m.len(), 1);
        assert!(m.remove(Cell::new(3, 4)));
        assert!(!m.remove(Cell::new(3, 4)));
        assert!(m.is_empty());
    }

    #[test]
    fn full_contains_everything() {
        let dims = GridDims::new(9, 7);
        let m = CellMask::full(dims);
        assert_eq!(m.len(), 63);
        assert!(dims.iter().all(|c| m.contains(c)));
    }

    #[test]
    fn iter_is_row_major() {
        let mut m = CellMask::new(GridDims::new(3, 3));
        m.insert(Cell::new(2, 0));
        m.insert(Cell::new(0, 1));
        let cells: Vec<_> = m.iter().collect();
        assert_eq!(cells, vec![Cell::new(2, 0), Cell::new(0, 1)]);
    }

    #[test]
    fn intersection_detection() {
        let dims = GridDims::new(4, 4);
        let mut a = CellMask::new(dims);
        let mut b = CellMask::new(dims);
        a.insert(Cell::new(1, 1));
        b.insert(Cell::new(2, 2));
        assert!(!a.intersects(&b));
        b.insert(Cell::new(1, 1));
        assert!(a.intersects(&b));
    }

    #[test]
    fn reachable_from_stays_in_the_seeded_component() {
        // Two components: row 0 and row 2 of a 4x3 grid.
        let dims = GridDims::new(4, 3);
        let mut m = CellMask::new(dims);
        m.insert_rect(0, 0, 3, 0);
        m.insert_rect(0, 2, 3, 2);
        let mut seeds = CellMask::new(dims);
        seeds.insert(Cell::new(3, 0));
        seeds.insert(Cell::new(1, 1)); // outside `m`: starts nothing
        let reached = m.reachable_from(&seeds);
        let mut row0 = CellMask::new(dims);
        row0.insert_rect(0, 0, 3, 0);
        assert_eq!(reached, row0);
        assert_eq!(reached.len(), 4);
        assert!(m.reachable_from(&CellMask::new(dims)).is_empty());
    }

    #[test]
    fn reachable_from_does_not_wrap_across_rows() {
        // (2, 0) and (0, 1) are adjacent in row-major index order only.
        let dims = GridDims::new(3, 2);
        let mut m = CellMask::new(dims);
        m.insert(Cell::new(2, 0));
        m.insert(Cell::new(0, 1));
        let mut seeds = CellMask::new(dims);
        seeds.insert(Cell::new(2, 0));
        let reached = m.reachable_from(&seeds);
        assert_eq!(reached.iter().collect::<Vec<_>>(), vec![Cell::new(2, 0)]);
        seeds = CellMask::new(dims);
        seeds.insert(Cell::new(0, 1));
        let reached = m.reachable_from(&seeds);
        assert_eq!(reached.iter().collect::<Vec<_>>(), vec![Cell::new(0, 1)]);
    }

    #[test]
    fn rect_insertion() {
        let mut m = CellMask::new(GridDims::new(5, 5));
        m.insert_rect(1, 2, 3, 4);
        assert_eq!(m.len(), 9);
        assert!(m.contains(Cell::new(3, 4)));
        assert!(!m.contains(Cell::new(0, 0)));
    }

    #[test]
    fn ascii_rendering_puts_north_first() {
        let mut m = CellMask::new(GridDims::new(2, 2));
        m.insert(Cell::new(0, 1)); // north-west corner
        let s = m.to_string();
        assert_eq!(s, "#.\n..\n");
    }

    #[test]
    fn from_iterator_sizes_to_content() {
        let m: CellMask = [Cell::new(0, 0), Cell::new(4, 2)].into_iter().collect();
        assert_eq!(m.dims(), GridDims::new(5, 3));
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn intersects_rejects_mismatched_dims() {
        let a = CellMask::new(GridDims::new(2, 2));
        let b = CellMask::new(GridDims::new(3, 3));
        a.intersects(&b);
    }
}
