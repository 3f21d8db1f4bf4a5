//! Design optimization for liquid cooling networks: the paper's §4–§5.
//!
//! The crate implements the full two-level optimization framework of
//! Algorithm 1:
//!
//! * **Inner level** — for a fixed network `N`, find the best system
//!   pressure drop: [`psearch`] implements Algorithm 3 (the three-point
//!   probe search over the uni-modal-or-decreasing `ΔT = f(P_sys)`), the
//!   monotone binary search on `T_max = h(P_sys)`, and the golden-section
//!   search used by Problem 2;
//! * **Network evaluation** — [`netscore`] implements Algorithm 2
//!   (pumping-power score `W'_pump`) and its Problem-2 counterpart
//!   (minimum-`ΔT` score under a `W*_pump` budget);
//! * **Outer level** — [`sa`] provides the parallel simulated-annealing
//!   engine and [`treeopt`] the staged search over hierarchical tree-like
//!   network parameters (§4.4, Table 1), including the Problem-2
//!   adaptations of §5 (grouped iterations under a frozen pressure);
//! * **Baselines** — [`baseline`] evaluates the straight-channel networks
//!   of Tables 3–4 and the manual gallery standing in for the contest's
//!   first place;
//! * **Run-time management** — [`scenario`] closes a proportional flow
//!   controller around the transient plant under declarative timed-event
//!   scenarios (DVFS power steps, hotspot migration, pump
//!   failure/recovery, inlet excursions) with a scored, replayable trace;
//! * **Evaluation reuse** — [`evalcache`] memoizes built networks, warm
//!   evaluators and computed scores behind a bounded LRU cache; it is
//!   behaviorally transparent: a fixed seed produces the same design with
//!   it on or off;
//! * **Parallel scoring** — [`pool::Pool`] is the one thread pool behind
//!   every candidate batch: [`sa`] and [`treeopt`] build one per run and
//!   `coolnet-serve` shares one across jobs. Batches come back in item
//!   order, so results do not depend on the thread count.
//!
//! # Examples
//!
//! End-to-end Problem 1 on a reduced benchmark:
//!
//! ```
//! use coolnet_cases::Benchmark;
//! use coolnet_grid::GridDims;
//! use coolnet_opt::treeopt::{TreeSearch, TreeSearchOptions};
//! use coolnet_opt::Problem;
//!
//! let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
//! let mut opts = TreeSearchOptions::quick(1);
//! opts.parallelism = 1;
//! let result = TreeSearch::new(&bench, opts).run(Problem::PumpingPower);
//! assert!(result.is_some());
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod control;
pub mod differential;
pub mod evalcache;
pub mod evaluate;
pub mod netscore;
pub mod pool;
pub mod psearch;
pub mod result;
pub mod sa;
pub mod scenario;
pub mod treeopt;
pub mod widthmod;

pub use control::{CancelToken, CutPoint, SearchControl, StopReason};
pub use differential::{run_case, CaseReport, DiffConfig};
pub use evaluate::{Evaluator, ModelChoice, Profile};
pub use netscore::{evaluate_problem1, evaluate_problem2, NetworkScore};
pub use result::DesignResult;
pub use scenario::{
    run_scenario, EventAction, ScenarioError, ScenarioEvent, ScenarioSpec, ScenarioTrace,
};
pub use treeopt::{EvalExec, EvalRequest, RequestScorer, SearchOutcome};

use serde::{Deserialize, Serialize};

/// Which of the two §3 problem formulations is being solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Problem {
    /// Problem 1: minimize `W_pump` subject to `ΔT*` and `T*_max`.
    PumpingPower,
    /// Problem 2: minimize `ΔT` subject to `W*_pump` and `T*_max`.
    ThermalGradient,
}
