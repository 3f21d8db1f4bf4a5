//! Per-cell channel-width maps (channel width modulation).
//!
//! The paper's closest prior work, GreenCool (Sabry et al., reference \[10\]),
//! modulates the *width* of each straight channel instead of changing the
//! topology. Supporting a per-cell width lets this workspace implement
//! that baseline faithfully: narrower cells conduct less coolant and
//! expose less wall area.

use coolnet_grid::{Cell, GridDims};
use serde::{Deserialize, Serialize};

/// Per-cell channel widths in meters (only meaningful on liquid cells).
///
/// # Examples
///
/// ```
/// use coolnet_flow::widths::WidthMap;
/// use coolnet_grid::{Cell, GridDims};
///
/// let mut w = WidthMap::uniform(GridDims::new(5, 5), 100e-6);
/// w.set(Cell::new(2, 2), 50e-6);
/// assert_eq!(w.get(Cell::new(2, 2)), 50e-6);
/// assert_eq!(w.get(Cell::new(0, 0)), 100e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WidthMap {
    dims: GridDims,
    widths: Vec<f64>,
}

impl WidthMap {
    /// A map with the same width everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    pub fn uniform(dims: GridDims, width: f64) -> Self {
        assert!(width > 0.0, "channel width must be positive");
        Self {
            dims,
            widths: vec![width; dims.num_cells()],
        }
    }

    /// The grid this map covers.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Width at `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn get(&self, cell: Cell) -> f64 {
        self.widths[self.dims.index(cell)]
    }

    /// Sets the width at `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid or `width` is not positive.
    pub fn set(&mut self, cell: Cell, width: f64) {
        assert!(width > 0.0, "channel width must be positive");
        self.widths[self.dims.index(cell)] = width;
    }

    /// Sets the width of every cell in a full row (`y` fixed) — the natural
    /// stroke for modulating one straight channel.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of range or `width` is not positive.
    pub fn set_row(&mut self, y: u16, width: f64) {
        for x in 0..self.dims.width() {
            self.set(Cell::new(x, y), width);
        }
    }

    /// Checks every width against the pitch (channels cannot be wider than
    /// their cell).
    ///
    /// # Panics
    ///
    /// Panics if any width exceeds `pitch`.
    pub fn validate_against_pitch(&self, pitch: f64) {
        for (i, w) in self.widths.iter().enumerate() {
            assert!(
                *w <= pitch + 1e-15,
                "cell {i}: width {w} exceeds pitch {pitch}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_overrides() {
        let mut w = WidthMap::uniform(GridDims::new(4, 3), 100e-6);
        w.set_row(1, 60e-6);
        assert_eq!(w.get(Cell::new(2, 1)), 60e-6);
        assert_eq!(w.get(Cell::new(3, 2)), 100e-6);
    }

    #[test]
    fn pitch_validation_passes_for_legal_widths() {
        let w = WidthMap::uniform(GridDims::new(3, 3), 100e-6);
        w.validate_against_pitch(100e-6);
    }

    #[test]
    #[should_panic(expected = "exceeds pitch")]
    fn pitch_validation_catches_oversize() {
        let w = WidthMap::uniform(GridDims::new(3, 3), 120e-6);
        w.validate_against_pitch(100e-6);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_width_rejected() {
        WidthMap::uniform(GridDims::new(2, 2), 0.0);
    }
}
