//! A parallel simulated-annealing engine (the outer level of Algorithm 1).
//!
//! The paper evaluates 64 neighboring solutions simultaneously per
//! iteration on an 80-core server (§6); [`anneal`] reproduces that shape:
//! each iteration draws `parallelism` neighbors, scores them on the run's
//! [`Pool`], takes the best, and applies Metropolis acceptance against the
//! incumbent.

use crate::control::{CutPoint, SearchControl};
use crate::pool::Pool;
use coolnet_obs::LazyCounter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Completed [`anneal_with_stats`] runs.
static M_RUNS: LazyCounter = LazyCounter::new("sa.runs");
/// SA iterations (one batch of parallel neighbors each).
static M_ITERATIONS: LazyCounter = LazyCounter::new("sa.iterations");
/// Candidate states evaluated.
static M_CANDIDATES: LazyCounter = LazyCounter::new("sa.candidates");
/// Metropolis acceptances (the incumbent moved).
static M_ACCEPTANCES: LazyCounter = LazyCounter::new("sa.acceptances");
/// Cost closures that panicked (absorbed as `+∞`).
static M_EVAL_PANICS: LazyCounter = LazyCounter::new("sa.eval_panics");
/// Cost closures that returned NaN (absorbed as `+∞`).
static M_EVAL_NANS: LazyCounter = LazyCounter::new("sa.eval_nans");

/// Options of one SA run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaOptions {
    /// Number of iterations.
    pub iterations: usize,
    /// Neighbors evaluated in parallel per iteration.
    pub parallelism: usize,
    /// Initial Metropolis temperature, in objective units. `0.0` selects
    /// an automatic value (a fraction of the initial cost).
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per iteration, in `(0, 1)`.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaOptions {
    /// 40 iterations, 8 parallel neighbors, auto temperature, 0.92 cooling.
    fn default() -> Self {
        Self {
            iterations: 40,
            parallelism: 8,
            initial_temperature: 0.0,
            cooling: 0.92,
            seed: 1,
        }
    }
}

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

/// Evaluation failures absorbed during a cost sweep. Each failed candidate
/// scores `+∞` (infeasible) instead of aborting the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalFailures {
    /// Cost closures that panicked (caught per item).
    pub panics: usize,
    /// Cost closures that returned NaN (mapped to `+∞` before selection).
    pub nans: usize,
}

impl EvalFailures {
    /// Total failed evaluations.
    pub fn total(&self) -> usize {
        self.panics + self.nans
    }

    fn absorb(&mut self, other: EvalFailures) {
        self.panics += other.panics;
        self.nans += other.nans;
    }
}

/// Scores one batch of states on `pool`, preserving order. A cost that
/// panics or returns NaN scores its state `+∞` and is counted.
fn score_costs<S, FC>(pool: &Pool, states: Vec<S>, cost: &Arc<FC>) -> (Vec<f64>, EvalFailures)
where
    S: Send + 'static,
    FC: Fn(&S) -> f64 + Send + Sync + 'static,
{
    let (mut costs, panics) = pool.execute(states, cost, f64::INFINITY);
    let mut nans = 0;
    for c in costs.iter_mut().filter(|c| c.is_nan()) {
        *c = f64::INFINITY;
        nans += 1;
    }
    (costs, EvalFailures { panics, nans })
}

/// Result of [`anneal_with_stats`]: the incumbent plus failure counters.
#[derive(Debug, Clone)]
pub struct SaOutcome<S> {
    /// Best state seen over the whole run.
    pub best: S,
    /// Cost of [`SaOutcome::best`] (`+∞` if no feasible state was found).
    pub best_cost: f64,
    /// Evaluation failures absorbed across all iterations.
    pub failures: EvalFailures,
    /// Where the run was interrupted, if it was ([`anneal_controlled`]).
    /// `None` means the full schedule ran.
    pub cut: Option<CutPoint>,
}

/// Runs simulated annealing from `init` (whose cost is `init_cost`).
///
/// `neighbor` draws a random neighbor of a state; `cost` scores a state
/// (`+∞` marks infeasible states). Returns the best state seen and its
/// cost. Cost evaluations that panic or return NaN score their candidate
/// `+∞` rather than aborting the run; use [`anneal_with_stats`] to observe
/// how many did.
pub fn anneal<S, FN, FC>(
    init: S,
    init_cost: f64,
    neighbor: FN,
    cost: FC,
    opts: &SaOptions,
) -> (S, f64)
where
    S: Clone + Send + Sync + 'static,
    FN: Fn(&S, &mut StdRng) -> S,
    FC: Fn(&S) -> f64 + Send + Sync + 'static,
{
    let out = anneal_with_stats(init, init_cost, neighbor, cost, opts);
    (out.best, out.best_cost)
}

/// Like [`anneal`], also reporting how many cost evaluations failed.
pub fn anneal_with_stats<S, FN, FC>(
    init: S,
    init_cost: f64,
    neighbor: FN,
    cost: FC,
    opts: &SaOptions,
) -> SaOutcome<S>
where
    S: Clone + Send + Sync + 'static,
    FN: Fn(&S, &mut StdRng) -> S,
    FC: Fn(&S) -> f64 + Send + Sync + 'static,
{
    anneal_controlled(
        init,
        init_cost,
        neighbor,
        cost,
        opts,
        &SearchControl::unlimited(),
    )
}

/// Like [`anneal_with_stats`], but interruptible: `control` is polled at
/// every iteration head, and a fired stop signal ends the run at that
/// deterministic boundary with the best-so-far incumbent and the
/// [`CutPoint`] recorded in the outcome. The iterations completed before
/// the cut are bit-identical to an uninterrupted run with the same seed,
/// which is what makes recorded cuts replayable.
pub fn anneal_controlled<S, FN, FC>(
    init: S,
    init_cost: f64,
    neighbor: FN,
    cost: FC,
    opts: &SaOptions,
    control: &SearchControl,
) -> SaOutcome<S>
where
    S: Clone + Send + Sync + 'static,
    FN: Fn(&S, &mut StdRng) -> S,
    FC: Fn(&S) -> f64 + Send + Sync + 'static,
{
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // A NaN initial cost is as infeasible as an infinite one.
    let init_cost = if init_cost.is_nan() {
        f64::INFINITY
    } else {
        init_cost
    };
    let t0 = if opts.initial_temperature > 0.0 {
        opts.initial_temperature
    } else if init_cost.is_finite() && init_cost != 0.0 {
        0.1 * init_cost.abs()
    } else {
        1.0
    };
    let mut acceptor = Acceptor::new(t0, opts.cooling, rng.gen());

    let mut current = init.clone();
    let mut current_cost = init_cost;
    let mut best = init;
    let mut best_cost = init_cost;
    let mut failures = EvalFailures::default();

    M_RUNS.inc();
    // One pool serves every iteration, so threads are spawned once per
    // run. Batches come back in candidate order, so the chain does not
    // depend on the worker count.
    let pool = Pool::for_run(opts.parallelism);
    let cost = Arc::new(cost);
    let mut cut = None;
    for _ in 0..opts.iterations {
        if let Err(c) = control.checkpoint() {
            cut = Some(c);
            break;
        }
        M_ITERATIONS.inc();
        let candidates: Vec<S> = (0..opts.parallelism.max(1))
            .map(|_| neighbor(&current, &mut rng))
            .collect();
        M_CANDIDATES.add(candidates.len() as u64);
        let (costs, iter_failures) = score_costs(&pool, candidates.clone(), &cost);
        M_EVAL_PANICS.add(iter_failures.panics as u64);
        M_EVAL_NANS.add(iter_failures.nans as u64);
        failures.absorb(iter_failures);
        let Some(first) = costs.first() else {
            continue;
        };
        let mut k = 0;
        let mut c = *first;
        for (i, &ci) in costs.iter().enumerate().skip(1) {
            if ci.total_cmp(&c).is_lt() {
                k = i;
                c = ci;
            }
        }
        if acceptor.accept(current_cost, c) {
            M_ACCEPTANCES.inc();
            current = candidates[k].clone();
            current_cost = c;
            if c < best_cost {
                best = current.clone();
                best_cost = c;
            }
        }
    }
    SaOutcome {
        best,
        best_cost,
        failures,
        cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy problem: minimize (x-17)² over integers via ±1 moves.
    fn toy_cost(x: &i64) -> f64 {
        let d = (*x - 17) as f64;
        d * d
    }

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
    fn anneal_finds_toy_minimum() {
        let opts = SaOptions {
            iterations: 200,
            parallelism: 4,
            initial_temperature: 50.0,
            cooling: 0.97,
            seed: 42,
        };
        let (best, cost) = anneal(
            0i64,
            toy_cost(&0),
            |x, rng| x + if rng.gen::<bool>() { 1 } else { -1 },
            toy_cost,
            &opts,
        );
        assert_eq!(best, 17, "cost = {cost}");
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn controlled_anneal_cuts_deterministically_and_keeps_prefix() {
        let opts = SaOptions {
            iterations: 200,
            parallelism: 2,
            initial_temperature: 50.0,
            cooling: 0.97,
            seed: 42,
        };
        let run = |control: &SearchControl| {
            anneal_controlled(
                0i64,
                toy_cost(&0),
                |x, rng| x + if rng.gen::<bool>() { 1 } else { -1 },
                toy_cost,
                &opts,
                control,
            )
        };
        let cut_run = run(&SearchControl::unlimited().with_budget(25));
        let cut = cut_run.cut.expect("budget must interrupt the run");
        assert_eq!(cut.checkpoint, 25);
        // The interrupted run still surfaces its best-so-far incumbent...
        assert!(cut_run.best_cost <= toy_cost(&0));
        // ...and replaying the recorded cut reproduces it bit for bit.
        let replayed = run(&SearchControl::replay(cut));
        assert_eq!(replayed.cut, Some(cut));
        assert_eq!(replayed.best, cut_run.best);
        assert_eq!(replayed.best_cost.to_bits(), cut_run.best_cost.to_bits());
        // An uninterrupted run reports no cut.
        assert_eq!(run(&SearchControl::unlimited()).cut, None);
    }

    #[test]
    fn anneal_never_returns_worse_than_init_best() {
        let opts = SaOptions {
            iterations: 30,
            seed: 7,
            ..SaOptions::default()
        };
        let (_, cost) = anneal(
            16i64,
            toy_cost(&16),
            |x, rng| x + rng.gen_range(-3i64..=3),
            toy_cost,
            &opts,
        );
        assert!(cost <= toy_cost(&16));
    }

    #[test]
    fn infinite_costs_are_never_accepted() {
        let opts = SaOptions {
            iterations: 50,
            parallelism: 2,
            initial_temperature: 1e9,
            cooling: 1.0 - 1e-12,
            seed: 3,
        };
        // All neighbors are infeasible; the incumbent must survive.
        let (best, cost) = anneal(
            5i64,
            toy_cost(&5),
            |_, _| 999,
            |x| {
                if *x == 999 {
                    f64::INFINITY
                } else {
                    toy_cost(x)
                }
            },
            &opts,
        );
        assert_eq!(best, 5);
        assert!(cost.is_finite());
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

    // The next tests keep the names of the batch-map helpers that the pool
    // replaced; they check the same contracts on `Pool` and `score_costs`.

    #[test]
    fn parallel_map_preserves_order() {
        let pool = Pool::new(4);
        let (costs, failures) = score_costs(
            &pool,
            (0..37).collect(),
            &Arc::new(|x: &i64| (*x * 2) as f64),
        );
        assert_eq!(failures, EvalFailures::default());
        for (i, c) in costs.iter().enumerate() {
            assert_eq!(*c, (i * 2) as f64);
        }
    }

    #[test]
    fn parallel_map_single_thread_fallback() {
        let pool = Pool::new(1);
        let (costs, _) = score_costs(&pool, vec![1i64, 2, 3], &Arc::new(|x: &i64| *x as f64));
        assert_eq!(costs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn parallel_map_counts_failures_in_serial_path() {
        let pool = Pool::new(1);
        let cost = Arc::new(|x: &i64| match *x {
            3 => panic!("injected"),
            7 => f64::NAN,
            v => v as f64,
        });
        let (costs, failures) = score_costs(&pool, vec![1, 3, 7, 9], &cost);
        assert_eq!(costs, vec![1.0, f64::INFINITY, f64::INFINITY, 9.0]);
        assert_eq!(failures, EvalFailures { panics: 1, nans: 1 });
        assert_eq!(failures.total(), 2);
    }

    #[test]
    fn parallel_map_counts_failures_across_threads() {
        let pool = Pool::new(4);
        let cost = Arc::new(|x: &i64| {
            if x % 10 == 3 {
                panic!("injected")
            } else if x % 10 == 7 {
                f64::NAN
            } else {
                *x as f64
            }
        });
        let (costs, failures) = score_costs(&pool, (0..41).collect(), &cost);
        for (i, c) in costs.iter().enumerate() {
            if i % 10 == 3 || i % 10 == 7 {
                assert!(c.is_infinite(), "item {i} should score +inf");
            } else {
                assert_eq!(*c, i as f64);
            }
        }
        assert_eq!(failures, EvalFailures { panics: 4, nans: 4 });
    }

    #[test]
    fn anneal_survives_nan_costs() {
        // A cost surface with NaN potholes must not panic, and NaN must
        // never be selected over a finite candidate.
        let opts = SaOptions {
            iterations: 80,
            parallelism: 4,
            initial_temperature: 50.0,
            cooling: 0.95,
            seed: 9,
        };
        let out = anneal_with_stats(
            0i64,
            toy_cost(&0),
            |x, rng| x + rng.gen_range(-2i64..=2),
            |x| {
                if x.rem_euclid(5) == 2 {
                    f64::NAN
                } else {
                    toy_cost(x)
                }
            },
            &opts,
        );
        assert!(out.best_cost.is_finite());
        assert!(out.best_cost <= toy_cost(&0));
        assert!(out.failures.nans > 0);
        assert_eq!(out.failures.panics, 0);
    }

    #[test]
    fn anneal_survives_panicking_cost() {
        let opts = SaOptions {
            iterations: 60,
            parallelism: 4,
            initial_temperature: 50.0,
            cooling: 0.95,
            seed: 5,
        };
        let out = anneal_with_stats(
            0i64,
            toy_cost(&0),
            |x, rng| x + rng.gen_range(-2i64..=2),
            |x| {
                if x.rem_euclid(7) == 3 {
                    panic!("injected cost failure")
                }
                toy_cost(x)
            },
            &opts,
        );
        assert!(out.best_cost.is_finite());
        assert!(out.failures.panics > 0);
    }

    #[test]
    fn nan_init_cost_is_treated_as_infeasible() {
        let opts = SaOptions {
            iterations: 40,
            parallelism: 2,
            initial_temperature: 10.0,
            cooling: 0.95,
            seed: 2,
        };
        let (best, cost) = anneal(
            30i64,
            f64::NAN,
            |x, rng| x + rng.gen_range(-2i64..=2),
            toy_cost,
            &opts,
        );
        assert!(cost.is_finite(), "best = {best}, cost = {cost}");
    }

    #[test]
    fn worker_pool_maps_batches_in_order() {
        // Several batches through one pool, including empty and
        // single-item ones, come back in candidate order. A run's pool
        // is clamped to the hardware, on any host.
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(Pool::for_run(hw + 1).threads(), hw);
        let pool = Pool::for_run(4);
        assert_eq!(pool.threads(), 4.min(hw));
        let cost = Arc::new(|x: &i64| (*x * 3) as f64);
        for batch in [0i64, 1, 17, 33] {
            let (out, failures) = score_costs(&pool, (0..batch).collect(), &cost);
            assert_eq!(failures, EvalFailures::default());
            let expected: Vec<f64> = (0..batch).map(|x| (x * 3) as f64).collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn worker_pool_absorbs_panics_and_nans() {
        let cost = Arc::new(|x: &i64| match x % 10 {
            3 => panic!("injected"),
            7 => f64::NAN,
            _ => *x as f64,
        });
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let (costs, failures) = score_costs(&pool, (0..41).collect(), &cost);
            for (i, c) in costs.iter().enumerate() {
                if i % 10 == 3 || i % 10 == 7 {
                    assert!(c.is_infinite(), "item {i} should score +inf");
                } else {
                    assert_eq!(*c, i as f64);
                }
            }
            assert_eq!(failures, EvalFailures { panics: 4, nans: 4 });
            assert_eq!(failures.total(), 8);
            // The panicking tasks must not kill a worker: a follow-up
            // batch still completes.
            let (again, failures) = score_costs(&pool, vec![1, 2, 4, 5], &cost);
            assert_eq!(again, vec![1.0, 2.0, 4.0, 5.0]);
            assert_eq!(failures, EvalFailures::default());
        }
    }

    #[test]
    fn worker_pool_matches_parallel_map() {
        // A pooled batch scores exactly what the sequential map scores.
        let items: Vec<i64> = (-20..25).collect();
        let reference: Vec<f64> = items.iter().map(toy_cost).collect();
        let (pooled, failures) = score_costs(&Pool::new(4), items, &Arc::new(toy_cost));
        assert_eq!(failures, EvalFailures::default());
        assert_eq!(pooled, reference);
    }

    #[test]
    fn scoped_map_preserves_order_and_absorbs_panics() {
        // Non-cost results: a panicking slot gets the caller's fallback.
        let eval = Arc::new(|x: &i64| {
            if x % 9 == 4 {
                panic!("injected")
            }
            (*x, *x * 2)
        });
        let (out, panics) = Pool::new(4).execute((0..23).collect(), &eval, (-1, -1));
        assert_eq!(panics, 3);
        for (i, v) in out.iter().enumerate() {
            if i % 9 == 4 {
                assert_eq!(*v, (-1, -1));
            } else {
                assert_eq!(*v, (i as i64, 2 * i as i64));
            }
        }
        // A one-thread pool behaves identically.
        let (serial, _) = Pool::new(1).execute(vec![0i64, 1, 2], &Arc::new(|x: &i64| *x), -1);
        assert_eq!(serial, vec![0, 1, 2]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let opts = SaOptions {
            iterations: 60,
            seed: 11,
            ..SaOptions::default()
        };
        let run = || {
            anneal(
                0i64,
                toy_cost(&0),
                |x, rng| x + rng.gen_range(-2i64..=2),
                toy_cost,
                &opts,
            )
        };
        assert_eq!(run().0, run().0);
    }
}
