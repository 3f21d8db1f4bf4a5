//! Staged-SA reuse benchmark: wall-clock and transparency of the
//! evaluation cache, against the same search with the cache off. Both
//! arms score on the same kind of evaluation pool.
//!
//! ```sh
//! cargo run --release -p coolnet-bench --bin sa_bench
//! cargo run --release -p coolnet-bench --bin sa_bench -- --quick
//! cargo run --release -p coolnet-bench --bin sa_bench -- --threads-sweep
//! ```
//!
//! Writes `BENCH_sa.json` into `--out` (default `target/experiments`).
//! `--quick` runs the quick schedule for the CI smoke step; the default
//! run uses the reduced schedule. Both default to a 21×21 grid and two
//! global flows so the benchmark stays tractable on small CI hosts
//! (pass `--grid` to override); the committed artifact at the repo root
//! comes from a default-scale run.
//!
//! Each run is a paired comparison at a fixed seed: the `plain` arm uses
//! [`ReuseOptions::off`] (cache off), the `reused` arm the default reuse
//! layer. The
//! artifact records, per run, the wall time of both arms, the speedup,
//! and — the transparency contract — whether the two designs are
//! bit-for-bit identical. Cache and pool counters come from `coolnet-obs`
//! snapshot deltas scoped to the reused arm.
//!
//! `--threads-sweep` additionally replays each problem at 1, 2 and 4
//! worker threads (reuse on, candidate count fixed by the schedule), five
//! times interleaved, and records whether every run produced a
//! bit-identical design — the dynamic evidence behind the multicore
//! determinism claim — plus the minimum wall time per count.

#![forbid(unsafe_code)]

use coolnet::prelude::*;
use coolnet_bench::{write_json, HarnessOpts, LadderSummary};
use coolnet_obs::MetricsSnapshot;
use serde::Serialize;
use std::time::Instant;

/// One paired plain-vs-reused comparison.
#[derive(Debug, Serialize)]
struct RunResult {
    /// `problem1` (min `W_pump`) or `problem2` (min `ΔT`).
    problem: String,
    /// ICCAD case id.
    case: usize,
    /// SA seed shared by both arms.
    seed: u64,
    /// Wall time with the cache off, seconds.
    plain_s: f64,
    /// Wall time with the reuse layer, seconds.
    reused_s: f64,
    /// `plain_s / reused_s`.
    speedup: f64,
    /// The transparency contract: both arms produced bit-for-bit the same
    /// design (label, `p_sys`, `w_pump`, `t_max`, `ΔT`).
    identical: bool,
    /// The problem objective of each arm (`W_pump` in watts for
    /// problem 1, `ΔT` in kelvin for problem 2).
    objective_plain: f64,
    objective_reused: f64,
    /// `eval.cache_*` and `sa.pool_tasks` deltas over the reused arm.
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    pool_tasks: u64,
    /// Solve-ladder escalation-tax diagnostics over the reused arm.
    ladder: LadderSummary,
}

/// One worker-thread determinism sweep (`--threads-sweep`): the same job
/// scored by 1, 2 and 4 worker threads with the reuse layer on.
#[derive(Debug, Serialize)]
struct ThreadsSweep {
    /// `problem1` or `problem2`.
    problem: String,
    /// ICCAD case id.
    case: usize,
    /// SA seed shared by every thread count.
    seed: u64,
    /// Worker-thread counts swept, in order.
    threads: Vec<usize>,
    /// Minimum wall time per thread count over the interleaved repeats,
    /// seconds (same order as `threads`).
    wall_s: Vec<f64>,
    /// The replay contract: every run at every thread count produced
    /// bit-for-bit the same design as the first 1-thread run.
    identical: bool,
}

/// The artifact: enough context to compare runs across commits.
#[derive(Debug, Serialize)]
struct SaBench {
    /// `quick` or `reduced`.
    schedule: String,
    /// Grid side length.
    grid: u16,
    /// Candidates per SA iteration (threads in both arms).
    parallelism: usize,
    /// Hardware threads on the measurement host.
    host_threads: usize,
    /// Global flows attempted per search.
    flows: usize,
    /// Paired comparisons (problem 1 and problem 2).
    runs: Vec<RunResult>,
    /// Worker-thread determinism sweeps (empty unless `--threads-sweep`).
    threads_sweep: Vec<ThreadsSweep>,
    /// Overall wall-clock speedup: total plain time over total reused
    /// time (the acceptance number).
    speedup: f64,
    /// Whole-process escalation-tax accounting (both arms plus sweeps):
    /// the CI gate reads `wasted_attempts / attempts` from here.
    ladder: LadderSummary,
    /// End-of-run snapshot of every `coolnet-obs` counter and histogram
    /// touched by the benchmark process.
    metrics: MetricsSnapshot,
}

fn schedule(quick: bool, seed: u64) -> TreeSearchOptions {
    let mut opts = if quick {
        TreeSearchOptions::quick(seed)
    } else {
        TreeSearchOptions::reduced(seed)
    };
    // Two flows bound the runtime on small CI hosts while still crossing
    // a flow boundary (each flow is an independent staged search).
    opts.flows = vec![GlobalFlow::WestToEast, GlobalFlow::SouthToNorth];
    opts
}

fn objective(problem: Problem, r: &DesignResult) -> f64 {
    match problem {
        Problem::PumpingPower => r.w_pump.value(),
        Problem::ThermalGradient => r.delta_t.value(),
    }
}

fn identical(a: &DesignResult, b: &DesignResult) -> bool {
    a.label == b.label
        && a.p_sys.value().to_bits() == b.p_sys.value().to_bits()
        && a.w_pump.value().to_bits() == b.w_pump.value().to_bits()
        && a.t_max.value().to_bits() == b.t_max.value().to_bits()
        && a.delta_t.value().to_bits() == b.delta_t.value().to_bits()
}

fn run_pair(bench: &Benchmark, problem: Problem, case: usize, quick: bool, seed: u64) -> RunResult {
    let search = |reuse: ReuseOptions| {
        let mut opts = schedule(quick, seed);
        opts.reuse = reuse;
        let start = Instant::now();
        let result = TreeSearch::new(bench, opts).run(problem);
        (start.elapsed().as_secs_f64(), result)
    };

    let (plain_s, plain) = search(ReuseOptions::off());
    let before = coolnet_obs::snapshot();
    let (reused_s, reused) = search(ReuseOptions::default());
    let after = coolnet_obs::snapshot();

    let (identical, obj_plain, obj_reused) = match (&plain, &reused) {
        (Some(a), Some(b)) => (
            identical(a, b),
            objective(problem, a),
            objective(problem, b),
        ),
        (None, None) => (true, f64::NAN, f64::NAN),
        _ => (false, f64::NAN, f64::NAN),
    };
    let result = RunResult {
        problem: match problem {
            Problem::PumpingPower => "problem1".to_owned(),
            Problem::ThermalGradient => "problem2".to_owned(),
        },
        case,
        seed,
        plain_s,
        reused_s,
        speedup: plain_s / reused_s,
        identical,
        objective_plain: obj_plain,
        objective_reused: obj_reused,
        cache_hits: after.counter_delta(&before, "eval.cache_hits"),
        cache_misses: after.counter_delta(&before, "eval.cache_misses"),
        cache_evictions: after.counter_delta(&before, "eval.cache_evictions"),
        pool_tasks: after.counter_delta(&before, "sa.pool_tasks"),
        ladder: LadderSummary::delta(&after, &before),
    };
    println!(
        "  {:9} case {}: plain {:6.2} s, reused {:6.2} s, {:.2}x, identical: {}, \
         {} hits / {} misses",
        result.problem,
        case,
        plain_s,
        reused_s,
        result.speedup,
        identical,
        result.cache_hits,
        result.cache_misses,
    );
    println!(
        "            ladder: {} solves, {} attempts ({} wasted), esc rate {:.4}",
        result.ladder.solves,
        result.ladder.attempts,
        result.ladder.wasted_attempts,
        result.ladder.escalation_rate,
    );
    result
}

/// Interleaved repeats of the thread-count sweep.
const SWEEP_REPEATS: usize = 5;

/// Runs the same job at 1/2/4 worker threads (reuse on, candidate count
/// fixed by the schedule), [`SWEEP_REPEATS`] times interleaved, and checks
/// that every run is bit-identical to the first. Each count reports its
/// minimum wall time: single runs at quick scale take 50–80 ms, inside
/// the run-to-run noise of a shared host.
fn run_sweep(
    bench: &Benchmark,
    problem: Problem,
    case: usize,
    quick: bool,
    seed: u64,
) -> ThreadsSweep {
    let counts = vec![1usize, 2, 4];
    let mut wall_s = vec![f64::INFINITY; counts.len()];
    // The first run's design (`Some(None)` when it was infeasible).
    let mut reference: Option<Option<DesignResult>> = None;
    let mut all_identical = true;
    for _ in 0..SWEEP_REPEATS {
        for (&threads, wall) in counts.iter().zip(&mut wall_s) {
            let mut opts = schedule(quick, seed);
            opts.reuse = ReuseOptions::with_worker_threads(threads);
            let start = Instant::now();
            let result = TreeSearch::new(bench, opts).run(problem);
            *wall = wall.min(start.elapsed().as_secs_f64());
            let Some(reference) = &reference else {
                reference = Some(result);
                continue;
            };
            all_identical &= match (reference, &result) {
                (Some(a), Some(b)) => identical(a, b),
                (None, None) => true,
                _ => false,
            };
        }
    }
    let sweep = ThreadsSweep {
        problem: match problem {
            Problem::PumpingPower => "problem1".to_owned(),
            Problem::ThermalGradient => "problem2".to_owned(),
        },
        case,
        seed,
        threads: counts,
        wall_s,
        identical: all_identical,
    };
    println!(
        "  {:9} case {}: threads {:?} -> {:?} s, identical: {}",
        sweep.problem,
        case,
        sweep.threads,
        sweep
            .wall_s
            .iter()
            .map(|s| (s * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        sweep.identical,
    );
    sweep
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut opts = HarnessOpts::from_args();
    let quick = opts.rest.iter().any(|a| a == "--quick");
    let threads_sweep = opts.rest.iter().any(|a| a == "--threads-sweep");
    // Default to the small grid unless the caller asked for a specific
    // scale: the comparison is paired, so the speedup — not the absolute
    // times — is the measurement, and 21×21 keeps both arms tractable on
    // single-core CI hosts.
    if opts.grid == 41 && !opts.full {
        opts.grid = 21;
    }
    let sched = schedule(quick, opts.seed);
    println!(
        "staged-SA reuse benchmark, {} schedule at {1}x{1}, parallelism {2}:",
        if quick { "quick" } else { "reduced" },
        opts.grid,
        sched.parallelism,
    );

    // Process-origin snapshot for the whole-run escalation-tax summary
    // (taken before the warm-up so every solve in the process counts).
    let origin = coolnet_obs::snapshot();

    // Untimed warm-up: first-touch global state (allocator, lazy metric
    // registration) lands outside both timed arms.
    let warm = Benchmark::iccad_scaled(1, opts.dims());
    let mut warm_opts = TreeSearchOptions::quick(opts.seed);
    warm_opts.flows = vec![GlobalFlow::WestToEast];
    let _ = TreeSearch::new(&warm, warm_opts).run(Problem::PumpingPower);

    let runs = vec![
        run_pair(
            &Benchmark::iccad_scaled(1, opts.dims()),
            Problem::PumpingPower,
            1,
            quick,
            opts.seed,
        ),
        run_pair(
            &Benchmark::iccad_scaled(2, opts.dims()),
            Problem::ThermalGradient,
            2,
            quick,
            opts.seed,
        ),
    ];
    let total_plain: f64 = runs.iter().map(|r| r.plain_s).sum();
    let total_reused: f64 = runs.iter().map(|r| r.reused_s).sum();
    let speedup = total_plain / total_reused;
    println!("overall speedup: {speedup:.2}x");

    let sweeps = if threads_sweep {
        println!("worker-thread determinism sweep (1/2/4 threads, reuse on):");
        vec![
            run_sweep(
                &Benchmark::iccad_scaled(1, opts.dims()),
                Problem::PumpingPower,
                1,
                quick,
                opts.seed,
            ),
            run_sweep(
                &Benchmark::iccad_scaled(2, opts.dims()),
                Problem::ThermalGradient,
                2,
                quick,
                opts.seed,
            ),
        ]
    } else {
        Vec::new()
    };

    let metrics = coolnet_obs::snapshot();
    let ladder = LadderSummary::delta(&metrics, &origin);
    println!(
        "escalation tax: {} solves, {} attempts, {} wasted (rate {:.4})",
        ladder.solves, ladder.attempts, ladder.wasted_attempts, ladder.escalation_rate,
    );
    let artifact = SaBench {
        schedule: if quick { "quick" } else { "reduced" }.to_owned(),
        grid: opts.grid,
        parallelism: sched.parallelism,
        host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        flows: sched.flows.len(),
        runs,
        threads_sweep: sweeps,
        speedup,
        ladder,
        metrics,
    };
    write_json(&opts.out_path("BENCH_sa.json"), &artifact);
    Ok(())
}
