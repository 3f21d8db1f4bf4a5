//! Compact thermal models for liquid-cooled 3D ICs: the 4-register model
//! (4RM, §2.2) and the faster porous-medium 2-register model (2RM, §2.3).
//!
//! # Model overview
//!
//! The chip is a [`Stack`] of layers over a 2D grid of basic cells:
//! solid layers, *source* layers (solid silicon with a per-cell
//! [`PowerMap`]) and *channel* layers holding a
//! [`CoolingNetwork`](coolnet_network::CoolingNetwork). Heat moves by
//!
//! * solid–solid conduction (Eq. (4)),
//! * solid–liquid wall convection (Eq. (5), Nusselt-number based),
//! * liquid–liquid advection with central differencing (Eq. (6)),
//!
//! and leaves the stack only through the coolant (adiabatic outer
//! boundaries). Local flow rates come from
//! [`coolnet_flow::FlowModel`].
//!
//! Two discretizations of this physics lead to one algebraic problem,
//! `A(P_sys)·T = b`, and one [`Simulator`] assembles either, as
//! [`ModelChoice`] says:
//!
//! * [`ModelChoice::FourRm`] — one thermal cell per basic cell per layer,
//!   conforming to the microchannel geometry; accurate but large;
//! * [`ModelChoice::TwoRm`] — `m × m` basic cells per thermal cell; the
//!   channel layer keeps one solid and one liquid node per coarse cell,
//!   in-plane solid conduction uses only *complete conducting paths*
//!   (Eq. (7)) and side walls are folded into the vertical convection
//!   area (Eq. (8)).
//!
//! Both produce a [`ThermalSolution`] exposing the paper's three metrics:
//! peak temperature `T_max`, thermal gradient `ΔT` (the maximum per-source-
//! layer temperature range) and per-cell temperature maps. A
//! backward-Euler [`transient`] extension runs on either model.
//!
//! Because flow rates — and hence the advection operator — scale linearly
//! in `P_sys`, the simulator assembles its conduction part once and
//! re-scales the advection part per pressure probe, which is what makes
//! the repeated simulation inside the design loop affordable.
//!
//! # Examples
//!
//! ```
//! use coolnet_grid::{Cell, Dir, GridDims, Side};
//! use coolnet_network::{CoolingNetwork, PortKind};
//! use coolnet_thermal::{ModelChoice, PowerMap, Simulator, Stack, ThermalConfig};
//! use coolnet_units::Pascal;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dims = GridDims::new(9, 9);
//! let mut b = CoolingNetwork::builder(dims);
//! for y in [0u16, 2, 4, 6, 8] {
//!     b.segment(Cell::new(0, y), Dir::East, 9);
//! }
//! b.port(PortKind::Inlet, Side::West, 0, 8);
//! b.port(PortKind::Outlet, Side::East, 0, 8);
//! let net = b.build()?;
//!
//! let power = PowerMap::uniform(dims, 5.0); // 5 W die
//! let stack = Stack::interlayer(dims, 100e-6, vec![power], &[net], 200e-6)?;
//! let sim = Simulator::new(&stack, ModelChoice::FourRm, &ThermalConfig::default())?;
//! let sol = sim.simulate(Pascal::from_kilopascals(10.0))?;
//! assert!(sol.max_temperature().value() > 300.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod assembly;

pub mod compare;
pub mod config;
pub mod error;
mod fourrm;
pub mod power;
pub mod simulator;
pub mod solution;
pub mod stack;
pub mod transient;
mod tworm;

pub use config::{AdvectionScheme, ThermalConfig};
pub use error::ThermalError;
pub use power::PowerMap;
pub use simulator::{ModelChoice, Simulator};
pub use solution::ThermalSolution;
pub use stack::{Layer, LayerFlows, LayerKind, Stack};
