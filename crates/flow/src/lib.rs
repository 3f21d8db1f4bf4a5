//! Hydraulic solver for microchannel cooling networks (§2.1, Eqs. (1)–(3)).
//!
//! For fully developed laminar flow, the volumetric flow rate between two
//! neighboring liquid cells is `Q_ij = g_fluid · (P_i − P_j)` with
//! `g_fluid = D_h²·A_c / (32·l·µ)` (Eq. (1)). Volume conservation at every
//! liquid cell (Eq. (2)) yields the sparse SPD system `G·P = Q_in`
//! (Eq. (3)); this crate assembles and solves it and derives local flow
//! rates, the system flow rate `Q_sys`, the system fluid resistance
//! `R_sys` and the pumping power `W_pump = P_sys² / R_sys` (Eq. (10)).
//!
//! Because the system is linear, pressures and flows scale linearly with
//! the applied `P_sys`: [`FlowModel`] solves once at unit pressure and
//! [`FlowModel::solve`] returns scaled [`FlowField`]s for free. This is
//! what makes the repeated pressure probing of the paper's Algorithm 3
//! cheap.
//!
//! # Examples
//!
//! ```
//! use coolnet_flow::{FlowConfig, FlowModel};
//! use coolnet_grid::{Cell, Dir, GridDims, Side};
//! use coolnet_network::{CoolingNetwork, PortKind};
//! use coolnet_units::Pascal;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CoolingNetwork::builder(GridDims::new(5, 1));
//! b.segment(Cell::new(0, 0), Dir::East, 5);
//! b.port(PortKind::Inlet, Side::West, 0, 0);
//! b.port(PortKind::Outlet, Side::East, 0, 0);
//! let net = b.build()?;
//!
//! let model = FlowModel::new(&net, &FlowConfig::default())?;
//! let field = model.solve(Pascal::from_kilopascals(10.0));
//! assert!(field.system_flow().value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod field;
pub mod model;
pub mod widths;

pub use config::FlowConfig;
pub use error::FlowError;
pub use field::FlowField;
pub use model::FlowModel;
pub use widths::WidthMap;
