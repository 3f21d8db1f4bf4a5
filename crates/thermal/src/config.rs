//! Thermal simulation configuration.

use coolnet_units::Kelvin;
use serde::{Deserialize, Serialize};

/// Discretization of the liquid–liquid advection term (Eq. (6)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdvectionScheme {
    /// Central differencing — the paper's scheme: the interface temperature
    /// between two liquid cells is `(T_i + T_j)/2`.
    #[default]
    Central,
    /// First-order upwinding — unconditionally stable at high Péclet
    /// numbers; provided for the discretization ablation study.
    Upwind,
}

/// Configuration of a [`Simulator`](crate::Simulator) under either
/// model. Channel walls are always H1 (constant heat flux) in the Nusselt
/// correlation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Coolant temperature at every inlet (`T_in`, 300 K in all benchmarks).
    pub t_inlet: Kelvin,
    /// Advection discretization.
    pub advection: AdvectionScheme,
    /// Relative residual tolerance of the linear solve.
    pub tolerance: f64,
}

impl Default for ThermalConfig {
    /// `T_in = 300 K`, H1 walls, central differencing, `1e-8` tolerance
    /// (temperature errors well below a millikelvin at benchmark scales).
    fn default() -> Self {
        Self {
            t_inlet: Kelvin::new(300.0),
            advection: AdvectionScheme::Central,
            tolerance: 1e-8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_benchmarks() {
        let c = ThermalConfig::default();
        assert_eq!(c.t_inlet.value(), 300.0);
        assert_eq!(c.advection, AdvectionScheme::Central);
        assert!(c.tolerance > 0.0);
    }
}
