//! End-to-end transparency checks for the evaluation-reuse layer.
//!
//! The staged SA's evaluator cache is a pure speed-up: a fixed seed must
//! yield bit-for-bit the same [`DesignResult`] with the cache on or off,
//! for both problem formulations. These tests pin that contract at the
//! workspace level (the full facade-crate path an application would
//! take), and check that the cache actually serves hits while doing so.

use coolnet::obs;
use coolnet::prelude::*;

/// A quick single-flow search, small enough for CI but exercising every
/// reuse code path: staged schedule, grouped iterations, candidate batches.
fn search(case: usize, problem: Problem, seed: u64, reuse: ReuseOptions) -> DesignResult {
    let bench = Benchmark::iccad_scaled(case, GridDims::new(21, 21));
    let mut opts = TreeSearchOptions::quick(seed);
    opts.parallelism = 2;
    opts.flows = vec![GlobalFlow::WestToEast];
    opts.reuse = reuse;
    TreeSearch::new(&bench, opts)
        .run(problem)
        .expect("quick search must find a feasible tree network")
}

/// Bitwise equality of everything a caller can observe about a result.
fn assert_identical(a: &DesignResult, b: &DesignResult) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.p_sys.value().to_bits(), b.p_sys.value().to_bits());
    assert_eq!(a.w_pump.value().to_bits(), b.w_pump.value().to_bits());
    assert_eq!(a.t_max.value().to_bits(), b.t_max.value().to_bits());
    assert_eq!(a.delta_t.value().to_bits(), b.delta_t.value().to_bits());
}

#[test]
fn reuse_is_transparent_for_problem1() {
    let plain = search(1, Problem::PumpingPower, 11, ReuseOptions::off());
    let reused = search(1, Problem::PumpingPower, 11, ReuseOptions::default());
    assert_identical(&plain, &reused);
}

#[test]
fn reuse_is_transparent_for_problem2() {
    let plain = search(2, Problem::ThermalGradient, 13, ReuseOptions::off());
    let reused = search(2, Problem::ThermalGradient, 13, ReuseOptions::default());
    assert_identical(&plain, &reused);
}

#[test]
fn cache_serves_hits_during_a_search() {
    // SA revisits configurations (rejected moves keep the incumbent, the
    // incumbent is re-evaluated at group boundaries), so a quick search
    // must produce cache hits — that is the whole point of the cache.
    // Counters are process-global and the other tests in this binary also
    // run cached searches concurrently, so only `> 0` is safe to assert.
    let before = obs::snapshot();
    let _ = search(1, Problem::PumpingPower, 17, ReuseOptions::default());
    let after = obs::snapshot();
    assert!(
        after.counter_delta(&before, "eval.cache_hits") > 0,
        "a quick search must hit the evaluation cache at least once"
    );
    assert!(
        after.counter_delta(&before, "eval.cache_misses") > 0,
        "first-seen configurations must register as misses"
    );
    assert!(
        after.counter_delta(&before, "sa.pool_tasks") > 0,
        "candidate batches must flow through the evaluation pool"
    );
}
