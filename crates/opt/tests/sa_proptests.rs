//! Property-based tests of the SA engine on random toy landscapes.

use coolnet_opt::pool::Pool;
use coolnet_opt::sa::{anneal, Acceptor, SaOptions};
use proptest::prelude::*;
use rand::Rng as _;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a convex 1-D landscape SA must get close to the optimum.
    #[test]
    fn anneal_converges_on_convex_landscapes(
        target in -100i64..100,
        seed in 0u64..1000,
    ) {
        let cost = move |x: &i64| ((x - target) as f64).powi(2);
        let opts = SaOptions {
            iterations: 300,
            parallelism: 4,
            initial_temperature: 100.0,
            cooling: 0.97,
            seed,
        };
        let (best, best_cost) = anneal(
            0i64,
            cost(&0),
            |x, rng| x + rng.gen_range(-5i64..=5),
            cost,
            &opts,
        );
        prop_assert!(
            (best - target).abs() <= 2,
            "best {best} vs target {target} (cost {best_cost})"
        );
    }

    /// The returned best never exceeds the initial cost.
    #[test]
    fn anneal_is_monotone_in_the_best(
        init in -50i64..50,
        seed in 0u64..1000,
        iterations in 1usize..60,
    ) {
        let cost = |x: &i64| (*x as f64).abs();
        let opts = SaOptions {
            iterations,
            parallelism: 2,
            initial_temperature: 10.0,
            cooling: 0.9,
            seed,
        };
        let (_, best_cost) = anneal(
            init,
            cost(&init),
            |x, rng| x + rng.gen_range(-3i64..=3),
            cost,
            &opts,
        );
        prop_assert!(best_cost <= cost(&init));
    }

    /// Determinism: the same seed reproduces the same trajectory.
    #[test]
    fn anneal_is_deterministic(seed in 0u64..10_000) {
        let cost = |x: &i64| ((x - 13) as f64).powi(2);
        let opts = SaOptions {
            iterations: 50,
            parallelism: 3,
            initial_temperature: 25.0,
            cooling: 0.95,
            seed,
        };
        let run = || {
            anneal(
                0i64,
                cost(&0),
                |x, rng| x + rng.gen_range(-4i64..=4),
                cost,
                &opts,
            )
        };
        let (a, ca) = run();
        let (b, cb) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(ca, cb);
    }

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
