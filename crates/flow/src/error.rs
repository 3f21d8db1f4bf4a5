//! Errors of the hydraulic solver.

use coolnet_sparse::SolveError;
use std::error::Error;
use std::fmt;

/// Error building or solving a flow model.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The pressure system could not be solved. With a legal (validated)
    /// network this indicates a solver-tolerance problem, not a modeling
    /// one.
    Solver(SolveError),
    /// The network has no liquid cells wetted by ports (cannot happen for
    /// validated networks; kept for deserialized or hand-built inputs).
    NoFlowPath,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Solver(e) => write!(f, "pressure solve failed: {e}"),
            FlowError::NoFlowPath => f.write_str("network has no inlet-to-outlet flow path"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Solver(e) => Some(e),
            FlowError::NoFlowPath => None,
        }
    }
}

impl From<SolveError> for FlowError {
    fn from(e: SolveError) -> Self {
        FlowError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FlowError::Solver(SolveError::NotConverged {
            iterations: 3,
            residual: 1.0,
        });
        assert!(e.to_string().contains("pressure solve failed"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&FlowError::NoFlowPath).is_none());
    }
}
