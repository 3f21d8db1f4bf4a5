//! Property-based tests of the SA building blocks: the evaluation pool and
//! the Metropolis acceptor.

use coolnet_opt::pool::Pool;
use coolnet_opt::sa::Acceptor;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pool must match the sequential map for any thread count (the
    /// test keeps its name from the batch-map helper the pool replaced).
    #[test]
    fn parallel_map_matches_sequential(
        items in proptest::collection::vec(-1000i64..1000, 0..50),
        threads in 1usize..8,
    ) {
        let f = |x: &i64| (*x as f64) * 1.5 - 2.0;
        let seq: Vec<f64> = items.iter().map(f).collect();
        let (par, panics) = Pool::new(threads).execute(items, &Arc::new(f), f64::NAN);
        prop_assert_eq!(panics, 0);
        prop_assert_eq!(par, seq);
    }

    /// Acceptance of improvements is unconditional at any temperature.
    #[test]
    fn acceptor_takes_improvements(t0 in 1e-9f64..1e6, seed in 0u64..100) {
        let mut a = Acceptor::new(t0, 0.9, seed);
        for k in 0..20 {
            prop_assert!(a.accept(10.0 + k as f64, 5.0));
        }
    }
}
