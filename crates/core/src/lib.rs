//! # coolnet
//!
//! Liquid cooling network design for 3D ICs: thermal modeling and design
//! optimization, a from-scratch Rust reproduction of
//! *"Minimizing Thermal Gradient and Pumping Power in 3D IC Liquid Cooling
//! Network Design"* (Chen, Kuang, Zeng, Zhang, Young, Yu — DAC 2017).
//!
//! Microchannel liquid cooling is the most aggressive cooling option for
//! TSV-based 3D ICs, but it brings two new problems: a large **thermal
//! gradient** (coolant heats up from inlet to outlet) and a high **pumping
//! power** requirement. This workspace implements the paper's answer —
//! cooling networks with *flexible topology* instead of straight channels —
//! end to end:
//!
//! * [`flow`] — a hydraulic solver for arbitrary channel topologies
//!   (laminar flow, Eq. (1)–(3));
//! * [`thermal`] — the 4-register (4RM) and fast porous-medium 2-register
//!   (2RM) compact thermal models, plus a transient extension;
//! * [`network`] — the network data model with the §3 design rules, and
//!   generators for straight channels, hierarchical tree-like networks
//!   (Fig. 7) and manual designs;
//! * [`cases`] — ICCAD-2015-contest-style benchmarks (Table 2);
//! * [`opt`] — Algorithm 1–3: pressure searches, network evaluation and
//!   the staged parallel simulated-annealing design flows for
//!   **Problem 1** (minimize pumping power) and **Problem 2** (minimize
//!   thermal gradient);
//! * [`sparse`] — the supporting sparse linear algebra (CG, BiCGSTAB,
//!   GMRES, ILU(0));
//! * [`obs`] — a dependency-free metrics layer (counters, histograms,
//!   span timers) instrumenting the solver and optimizer hot paths.
//!
//! ## Quickstart
//!
//! Simulate a straight-channel cooling system on benchmark case 1 and
//! print its thermal metrics:
//!
//! ```
//! use coolnet::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A scaled-down case-1 benchmark (use `Benchmark::iccad(1)` for the
//! // full 101x101 die).
//! let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
//!
//! // The classic baseline: straight channels, west-to-east.
//! let network = straight::build(
//!     bench.dims,
//!     &bench.tsv,
//!     Dir::East,
//!     &StraightParams::default(),
//! )?;
//!
//! // Evaluate at a 10 kPa system pressure drop with the fast 2RM model.
//! let evaluator = Evaluator::new(&bench, &network, ModelChoice::fast())?;
//! let profile = evaluator.profile(Pascal::from_kilopascals(10.0))?;
//! println!(
//!     "T_max = {:.1} K, dT = {:.2} K, W_pump = {:.2} mW",
//!     profile.t_max.value(),
//!     profile.delta_t.value(),
//!     evaluator.w_pump(Pascal::from_kilopascals(10.0)).to_milliwatts(),
//! );
//! # Ok(())
//! # }
//! ```
//!
//! Design a tree-like network that minimizes pumping power (Problem 1):
//!
//! ```no_run
//! use coolnet::prelude::*;
//!
//! let bench = Benchmark::iccad(1);
//! let search = TreeSearch::new(&bench, TreeSearchOptions::paper_problem1(42));
//! if let Some(design) = search.run(Problem::PumpingPower) {
//!     println!("{}", design.table_row());
//! }
//! ```

#![forbid(unsafe_code)]

pub use coolnet_cases as cases;
pub use coolnet_flow as flow;
pub use coolnet_grid as grid;
pub use coolnet_network as network;
pub use coolnet_obs as obs;
pub use coolnet_opt as opt;
pub use coolnet_sparse as sparse;
pub use coolnet_thermal as thermal;
pub use coolnet_units as units;

/// The most common imports, for `use coolnet::prelude::*`.
pub mod prelude {
    pub use coolnet_cases::Benchmark;
    pub use coolnet_flow::{FlowConfig, FlowModel};
    pub use coolnet_grid::{tsv, Cell, CellMask, Coarsening, Dir, GridDims, Side};
    pub use coolnet_network::builders::manual;
    pub use coolnet_network::builders::straight::{self, StraightParams};
    pub use coolnet_network::builders::tree::{BranchStyle, TreeConfig, TreeParams};
    pub use coolnet_network::builders::GlobalFlow;
    pub use coolnet_network::{render, CoolingNetwork, LegalityError, Port, PortKind};
    pub use coolnet_opt::baseline;
    pub use coolnet_opt::psearch::PressureSearchOptions;
    pub use coolnet_opt::scenario::{
        run_scenario, EventAction, FlowController, ScenarioEvent, ScenarioSpec, ScenarioTrace,
    };
    pub use coolnet_opt::treeopt::{
        ReuseOptions, Stage, StageMetric, TreeSearch, TreeSearchOptions,
    };
    pub use coolnet_opt::{
        evaluate_problem1, evaluate_problem2, CancelToken, CutPoint, DesignResult, Evaluator,
        ModelChoice, NetworkScore, Problem, Profile, SearchControl, SearchOutcome, StopReason,
    };
    pub use coolnet_thermal::{
        compare, AdvectionScheme, FourRm, PowerMap, Stack, ThermalConfig, ThermalError,
        ThermalSolution, TwoRm,
    };
    pub use coolnet_units::{
        Coolant, CubicMetersPerSecond, Kelvin, Material, Meters, Pascal, Watt,
    };
}
