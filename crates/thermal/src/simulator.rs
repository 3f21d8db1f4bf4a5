//! The thermal simulator: one [`Stack`] assembled under a chosen compact
//! model, solved at any system pressure drop.

use crate::assembly::Assembled;
use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::solution::ThermalSolution;
use crate::stack::{LayerFlows, Stack};
use crate::transient::Transient;
use crate::{fourrm, tworm};
use coolnet_units::Pascal;
use serde::{Deserialize, Serialize};

/// Which compact model a [`Simulator`] assembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelChoice {
    /// The fast 2RM with `m × m`-cell coarsening (inner-loop searches).
    TwoRm {
        /// Coarsening factor.
        m: u16,
    },
    /// The accurate 4RM (final stages and reported results).
    FourRm,
}

impl ModelChoice {
    /// The paper's inner-loop choice: 400 µm thermal cells, i.e. `m = 4`
    /// on the 100 µm pitch.
    pub fn fast() -> Self {
        ModelChoice::TwoRm { m: 4 }
    }
}

/// The assembled thermal system `A(P_sys)·T = b` of one [`Stack`].
///
/// Assembly (including the hydraulic solve) happens once in
/// [`Simulator::new`]; each [`simulate`](Simulator::simulate) call then
/// solves the thermal system at one operating pressure.
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) assembled: Assembled,
    pub(crate) config: ThermalConfig,
    flows: LayerFlows,
    model: ModelChoice,
}

impl Simulator {
    /// Assembles `stack` under `model`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Flow`] if a channel layer's hydraulic model
    /// cannot be built, or [`ThermalError::BadStack`] for a 2RM with
    /// `m == 0`.
    pub fn new(
        stack: &Stack,
        model: ModelChoice,
        config: &ThermalConfig,
    ) -> Result<Self, ThermalError> {
        let (assembled, flows) = match model {
            ModelChoice::TwoRm { m } => tworm::assemble(stack, m, config)?,
            ModelChoice::FourRm => fourrm::assemble(stack, config)?,
        };
        Ok(Self {
            assembled,
            config: config.clone(),
            flows,
            model,
        })
    }

    /// The compact model this simulator was assembled with.
    pub fn model(&self) -> ModelChoice {
        self.model
    }

    /// Number of thermal nodes: `layers × cells` for the 4RM, about
    /// `layers × cells / m²` for the 2RM.
    pub fn num_nodes(&self) -> usize {
        self.assembled.n
    }

    /// The hydraulic model of each channel layer the advection was
    /// assembled from.
    pub fn layer_flows(&self) -> &LayerFlows {
        &self.flows
    }

    /// Forgets the probe cache's warm-start solution history, so the next
    /// probe behaves exactly like the first probe of a freshly built
    /// simulator. Evaluator-reuse layers call this between logically
    /// independent evaluation sequences to keep results bitwise-identical
    /// to rebuilding the simulator.
    pub fn reset_probe_history(&self) {
        self.assembled.reset_probe_history();
    }

    /// Steady-state simulation at system pressure drop `p_sys`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::ZeroFlow`] for non-positive pressure and
    /// [`ThermalError::Solver`] if the linear solve fails.
    pub fn simulate(&self, p_sys: Pascal) -> Result<ThermalSolution, ThermalError> {
        self.assembled.steady(p_sys, &self.config, None)
    }

    /// Steady-state simulation at `p_sys` rebuilt from scratch: full
    /// matrix assembly and a fresh ILU(0) factorization, started from
    /// `guess` (or a uniform `T_in` field), with the probe cache neither
    /// read nor written. This is the reference the probe cache behind
    /// [`simulate`](Self::simulate) is checked against.
    ///
    /// # Errors
    ///
    /// Same as [`simulate`](Self::simulate).
    pub fn simulate_reference(
        &self,
        p_sys: Pascal,
        guess: Option<&ThermalSolution>,
    ) -> Result<ThermalSolution, ThermalError> {
        self.assembled.steady_reference(
            p_sys,
            &self.config,
            guess.map(ThermalSolution::all_temperatures),
        )
    }

    /// Like [`simulate`](Self::simulate) but warm-started from a previous
    /// solution's node temperatures — useful inside pressure sweeps.
    ///
    /// # Errors
    ///
    /// Same as [`simulate`](Self::simulate).
    pub fn simulate_with_guess(
        &self,
        p_sys: Pascal,
        guess: &ThermalSolution,
    ) -> Result<ThermalSolution, ThermalError> {
        self.assembled
            .steady(p_sys, &self.config, Some(guess.all_temperatures()))
    }

    /// Starts a transient run at pressure `p_sys` with time step `dt`
    /// seconds, from a uniform `T_in` initial condition (or `initial`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::ZeroFlow`] for non-positive pressure or
    /// `dt <= 0`, and [`ThermalError::BadStack`] if a row of the assembled
    /// system stores no diagonal entry.
    pub fn transient(
        &self,
        p_sys: Pascal,
        dt: f64,
        initial: Option<&ThermalSolution>,
    ) -> Result<Transient<'_>, ThermalError> {
        Transient::new(&self.assembled, self.config.clone(), p_sys, dt, initial)
    }
}
