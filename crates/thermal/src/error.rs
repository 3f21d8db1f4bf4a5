//! Errors of the thermal simulators.

use coolnet_flow::FlowError;
use coolnet_sparse::SolveError;
use std::error::Error;
use std::fmt;

/// Error building a stack or running a thermal simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The stack description is malformed.
    BadStack {
        /// What is wrong with it.
        reason: String,
    },
    /// The hydraulic sub-model failed.
    Flow(FlowError),
    /// The thermal linear system could not be solved.
    Solver(SolveError),
    /// Steady-state analysis with zero coolant flow is ill-posed: with
    /// adiabatic boundaries the only heat sink is the coolant, so the
    /// system is singular at `P_sys = 0`.
    ZeroFlow,
    /// A search routine was invoked over an invalid domain (e.g. an empty
    /// or non-positive pressure interval).
    Search {
        /// What is wrong with the requested search.
        reason: String,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::BadStack { reason } => write!(f, "bad stack description: {reason}"),
            ThermalError::Flow(e) => write!(f, "hydraulic model failed: {e}"),
            ThermalError::Solver(e) => write!(f, "thermal solve failed: {e}"),
            ThermalError::ZeroFlow => {
                f.write_str("steady thermal analysis requires a positive system pressure drop")
            }
            ThermalError::Search { reason } => write!(f, "invalid search domain: {reason}"),
        }
    }
}

impl Error for ThermalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ThermalError::Flow(e) => Some(e),
            ThermalError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlowError> for ThermalError {
    fn from(e: FlowError) -> Self {
        ThermalError::Flow(e)
    }
}

impl From<SolveError> for ThermalError {
    fn from(e: SolveError) -> Self {
        ThermalError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(ThermalError::ZeroFlow.to_string().contains("pressure"));
        let e = ThermalError::BadStack {
            reason: "no source layer".into(),
        };
        assert!(e.to_string().contains("no source layer"));
        let e: ThermalError = FlowError::NoFlowPath.into();
        assert!(Error::source(&e).is_some());
        let e = ThermalError::Search {
            reason: "empty interval".into(),
        };
        assert!(e.to_string().contains("empty interval"));
    }
}
