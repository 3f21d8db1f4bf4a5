//! The Metropolis acceptance rule of the simulated annealing in
//! Algorithm 1.
//!
//! The paper evaluates 64 neighboring solutions simultaneously per
//! iteration on an 80-core server (§6);
//! [`TreeSearch`](crate::treeopt::TreeSearch) reproduces that shape: each
//! iteration draws a batch of neighbors, scores them on the run's
//! evaluation substrate, takes the best, and asks an [`Acceptor`] whether
//! it displaces the incumbent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Metropolis acceptance state.
#[derive(Debug, Clone)]
pub struct Acceptor {
    temperature: f64,
    cooling: f64,
    rng: StdRng,
}

impl Acceptor {
    /// Creates an acceptor starting at `temperature`.
    pub fn new(temperature: f64, cooling: f64, seed: u64) -> Self {
        Self {
            temperature: temperature.max(1e-12),
            cooling,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether to accept a candidate of cost `candidate` over `current`,
    /// then cools the temperature.
    pub fn accept(&mut self, current: f64, candidate: f64) -> bool {
        let accept = if candidate.is_infinite() && candidate > 0.0 {
            // An infeasible candidate is never an improvement — in
            // particular `+∞ ≤ +∞` must not read as acceptance, or the
            // chain random-walks among infeasible states instead of
            // holding position until a feasible neighbor appears.
            false
        } else if candidate <= current {
            true
        } else {
            let delta = candidate - current;
            self.rng.gen::<f64>() < (-delta / self.temperature).exp()
        };
        self.temperature = (self.temperature * self.cooling).max(1e-12);
        accept
    }

    /// Current temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_infeasible_is_rejected() {
        // +∞ candidate against +∞ incumbent: the chain must hold position
        // (reject), not random-walk among infeasible states via +∞ ≤ +∞.
        let mut acc = Acceptor::new(10.0, 0.95, 3);
        for _ in 0..20 {
            assert!(!acc.accept(f64::INFINITY, f64::INFINITY));
        }
        // An infeasible candidate never displaces a feasible incumbent...
        assert!(!acc.accept(1.0, f64::INFINITY));
        // ...but a feasible candidate still displaces an infeasible one.
        assert!(acc.accept(f64::INFINITY, 1.0));
    }

    #[test]
    fn acceptor_always_takes_improvements() {
        let mut a = Acceptor::new(1.0, 0.9, 1);
        assert!(a.accept(10.0, 5.0));
        assert!(a.accept(10.0, 10.0));
    }

    #[test]
    fn acceptor_cools() {
        let mut a = Acceptor::new(8.0, 0.5, 1);
        a.accept(1.0, 0.5);
        a.accept(1.0, 0.5);
        assert!((a.temperature() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn acceptor_rarely_takes_big_regressions_when_cold() {
        let mut a = Acceptor::new(1e-6, 1.0 - 1e-9, 2);
        let accepted = (0..1000).filter(|_| a.accept(1.0, 2.0)).count();
        assert_eq!(accepted, 0);
    }
}
