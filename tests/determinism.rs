//! Thread-sweep replay checks: the worker-thread count must be invisible
//! in the results.
//!
//! The replayability contract (job spec + seed → bit-identical
//! [`DesignResult`]) was pinned for reuse-on vs reuse-off in
//! `tests/eval_cache.rs`; this suite extends it across worker-thread
//! counts. The argument the static `determinism` lint cannot make on its
//! own: RNG draws happen on the coordinating thread (so the candidate
//! sequence is thread-count independent), `Pool::execute` writes results
//! back by candidate index (so ordering is restored), and each cache entry
//! computes deterministically after `Evaluator::reset_state` (so *which*
//! thread computes an entry cannot matter). These tests prove the
//! composition dynamically at 1, 2 and 4 worker threads — oversubscribed
//! on small hosts, which is itself part of the point.

use coolnet::prelude::*;

/// A quick single-flow search with a fixed candidate count and the reuse
/// layer on, scored by `threads` worker threads (0 = follow parallelism).
fn search(case: usize, problem: Problem, seed: u64, threads: usize) -> DesignResult {
    let bench = Benchmark::iccad_scaled(case, GridDims::new(21, 21));
    let mut opts = TreeSearchOptions::quick(seed);
    opts.parallelism = 4;
    opts.flows = vec![GlobalFlow::WestToEast];
    opts.reuse = ReuseOptions::with_worker_threads(threads);
    TreeSearch::new(&bench, opts)
        .run(problem)
        .expect("quick search must find a feasible tree network")
}

/// Bitwise equality of everything a caller can observe about a result.
fn assert_identical(a: &DesignResult, b: &DesignResult, threads: usize) {
    assert_eq!(a.label, b.label, "at {threads} worker threads");
    let pairs = [
        (a.p_sys.value(), b.p_sys.value(), "p_sys"),
        (a.w_pump.value(), b.w_pump.value(), "w_pump"),
        (a.t_max.value(), b.t_max.value(), "t_max"),
        (a.delta_t.value(), b.delta_t.value(), "delta_t"),
    ];
    for (x, y, what) in pairs {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what} differs at {threads} worker threads"
        );
    }
}

/// Sweeps worker threads for one problem, comparing every count against
/// the 1-thread reference.
fn sweep(case: usize, problem: Problem, seed: u64) {
    let reference = search(case, problem, seed, 1);
    for threads in [2, 4] {
        let swept = search(case, problem, seed, threads);
        assert_identical(&reference, &swept, threads);
    }
    // `0` (follow parallelism = 4) must also match: the default
    // configuration is one point of the sweep, not a special case.
    let default_threads = search(case, problem, seed, 0);
    assert_identical(&reference, &default_threads, 0);
}

#[test]
fn problem1_is_thread_count_invariant() {
    sweep(1, Problem::PumpingPower, 29);
}

#[test]
fn problem2_is_thread_count_invariant() {
    sweep(2, Problem::ThermalGradient, 31);
}

/// A direct-step rescue must be invisible to replay: the same probe
/// sequence on a fresh simulator with the same config yields
/// bitwise-identical temperatures and an identical step/attempt trace.
/// (The name predates the removal of the solver-thread knob and of the
/// diagnostics gate; every solve is now serial and starts at step 0.)
///
/// The probe at 1e-9 kPa has vanishing advection, so the steady operator
/// is a near-singular conduction Laplacian: BiCGSTAB fails on it from the
/// cold start and the direct step solves it, in two attempts. The solve
/// keeps no memory of that: the healthy probes after it converge at step 0
/// in one attempt, and the 1e-9 kPa re-probe reaches the direct step again.
#[test]
fn adaptive_ladder_replays_bit_identically_across_solver_threads() {
    let dims = GridDims::new(11, 11);
    let bench = Benchmark::iccad_scaled(1, dims);
    let net = straight::build(
        dims,
        &tsv::alternating(dims),
        Dir::East,
        &StraightParams::default(),
    )
    .unwrap();
    let stack = bench.stack_with(std::slice::from_ref(&net)).unwrap();
    let kpa = [1e-9f64, 5.0, 8.0, 1e-9, 5.0];

    // Replays one probe sequence on a fresh simulator, returning every
    // temperature bit plus the step that solved each probe.
    let run = || -> (Vec<u64>, Vec<usize>) {
        let sim = Simulator::new(
            &stack,
            ModelChoice::TwoRm { m: 2 },
            &ThermalConfig::default(),
        )
        .unwrap();
        let mut bits = Vec::new();
        let mut trace = Vec::new();
        for &k in &kpa {
            let sol = sim.simulate(Pascal::from_kilopascals(k)).unwrap();
            bits.extend(sol.all_temperatures().iter().map(|t| t.to_bits()));
            trace.push(sol.stats().rung);
        }
        (bits, trace)
    };

    let first = run();
    assert_eq!(first.1, [1, 0, 0, 1, 0]);
    assert_eq!(run(), first, "replay");
}
