//! Probe-path benchmark: probes/sec and solver iterations for the two
//! steady-solve paths — the cold-rebuild reference
//! (`Simulator::simulate_reference`) and cached numeric reassembly
//! (`Simulator::simulate_with_guess`).
//!
//! ```sh
//! cargo run --release -p coolnet-bench --bin probe_bench
//! cargo run --release -p coolnet-bench --bin probe_bench -- --quick
//! ```
//!
//! Writes `BENCH_probe.json` into `--out` (default `target/experiments`).
//! `--quick` shrinks the grid and ladder for the CI smoke step; the
//! committed artifact at the repo root comes from a default-scale run.
//!
//! Solver statistics (iterations, attempts, escalations) come from the
//! `coolnet-obs` metrics layer: each configuration is measured as a
//! snapshot delta around its timed loop, and the artifact carries the
//! full end-of-run [`MetricsSnapshot`] under `metrics`. Pass
//! `--no-metrics` to disable the metrics layer and time the pure probe
//! path (the per-config statistics then read zero).

#![forbid(unsafe_code)]

use coolnet::prelude::*;
use coolnet_bench::{write_json, HarnessOpts, LadderSummary};
use coolnet_obs::MetricsSnapshot;
use serde::Serialize;
use std::time::Instant;

/// One measured configuration of the probe path.
#[derive(Debug, Serialize)]
struct ConfigResult {
    /// Configuration name: `cold` (every probe rebuilds assembly and
    /// ILU(0) from scratch) or `cached`.
    name: String,
    /// Total probes timed.
    probes: usize,
    /// Wall time for all probes, seconds.
    elapsed_s: f64,
    /// Throughput.
    probes_per_sec: f64,
    /// Mean BiCGSTAB iterations per probe (delta of the
    /// `ladder.iterations` histogram sum; 0 under `--no-metrics`).
    mean_iterations: f64,
    /// Mean solve attempts per probe (1.0 = the Krylov step always
    /// converged; 0 under `--no-metrics`).
    mean_attempts: f64,
    /// Escalation accounting over this configuration's window. Nonzero
    /// `escalations` flag a matrix regime the Krylov step no longer
    /// handles.
    #[serde(flatten)]
    ladder: LadderSummary,
}

/// The artifact: enough context to compare runs across commits.
#[derive(Debug, Serialize)]
struct ProbeBench {
    /// ICCAD case id.
    case: usize,
    /// Grid side length.
    grid: u16,
    /// Dies in the stack (= channel layers).
    dies: usize,
    /// Unknowns in the 4RM system.
    unknowns: usize,
    /// Hardware threads on the measurement host.
    host_threads: usize,
    /// Pressure ladder, kPa (each repeated `reps` times).
    pressures_kpa: Vec<f64>,
    /// Ladder repetitions per configuration.
    reps: usize,
    /// Per-configuration measurements.
    configs: Vec<ConfigResult>,
    /// probes/sec of `cached` over `cold`.
    speedup_cached: f64,
    /// Whether the metrics layer was enabled for this run (`false` under
    /// `--no-metrics`, which zeroes the solver statistics).
    metrics_enabled: bool,
    /// End-of-run snapshot of every `coolnet-obs` counter and histogram
    /// touched by the benchmark process.
    metrics: MetricsSnapshot,
}

fn ladder(lo_kpa: f64, hi_kpa: f64, steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| lo_kpa + (hi_kpa - lo_kpa) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// Runs `reps` warm-started sweeps of the ladder and times them, through
/// the cold-rebuild reference path when `cold` is set and through the
/// probe cache otherwise.
fn measure(
    stack: &Stack,
    cold: bool,
    pressures_kpa: &[f64],
    reps: usize,
) -> Result<ConfigResult, ThermalError> {
    let sim = Simulator::new(stack, ModelChoice::FourRm, &ThermalConfig::default())?;
    let probe = |kpa: f64, guess: Option<&ThermalSolution>| {
        let p = Pascal::from_kilopascals(kpa);
        match (cold, guess) {
            (true, _) => sim.simulate_reference(p, guess),
            (false, Some(g)) => sim.simulate_with_guess(p, g),
            (false, None) => sim.simulate(p),
        }
    };
    // Untimed warm-up probe: first-touch cache construction and symbolic
    // ILU(0) belong to `new()` conceptually, and every configuration pays
    // the same first solve from a flat initial guess.
    let mut prev = probe(pressures_kpa[0], None)?;

    // The obs counters are process-global; delta-ing snapshots around the
    // timed loop scopes them to exactly these `reps × len` probes. Both
    // snapshots sit outside the timed window.
    let before = coolnet_obs::snapshot();
    let start = Instant::now();
    for _ in 0..reps {
        for &kpa in pressures_kpa {
            prev = probe(kpa, Some(&prev))?;
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let after = coolnet_obs::snapshot();

    let probes = reps * pressures_kpa.len();
    let iterations = after.histogram_sum_delta(&before, "ladder.iterations");
    let ladder = LadderSummary::delta(&after, &before);
    let result = ConfigResult {
        name: if cold { "cold" } else { "cached" }.to_owned(),
        probes,
        elapsed_s,
        probes_per_sec: probes as f64 / elapsed_s,
        mean_iterations: per_probe(iterations, probes),
        mean_attempts: per_probe(ladder.attempts, probes),
        ladder,
    };
    println!(
        "  {:12} {:7.2} probes/s   {:5.1} iters/probe   {} escalations   {} wasted   \
         ({} probes, {:.2} s)",
        result.name,
        result.probes_per_sec,
        result.mean_iterations,
        result.ladder.escalations,
        result.ladder.wasted_attempts,
        probes,
        elapsed_s
    );
    Ok(result)
}

/// Mean of `num / probes`, tolerating zero probes (degenerate ladders).
fn per_probe(num: u64, probes: usize) -> f64 {
    if probes == 0 {
        0.0
    } else {
        num as f64 / probes as f64
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut opts = HarnessOpts::from_args();
    let quick = opts.rest.iter().any(|a| a == "--quick");
    let metrics_enabled = !opts.rest.iter().any(|a| a == "--no-metrics");
    coolnet_obs::set_enabled(metrics_enabled);
    if quick && opts.grid == 41 {
        opts.grid = 21;
    }
    let (steps, reps) = if quick { (6, 2) } else { (20, 5) };

    let dies = 2;
    let bench = Benchmark::iccad_scaled(2, opts.dims());
    let net = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )?;
    let stack = bench.stack_with(&vec![net; dies])?;
    // A narrow ladder around the paper's operating range: golden-section
    // and gradient probes sample nearby pressures, so consecutive
    // warm-started solves converge in a handful of iterations — the regime
    // the cache is built for.
    let pressures_kpa = ladder(8.0, 16.0, steps);

    let unknowns = Simulator::new(&stack, ModelChoice::FourRm, &ThermalConfig::default())?
        .simulate(Pascal::from_kilopascals(10.0))?
        .all_temperatures()
        .len();
    println!(
        "probe path, ICCAD case 2 at {0}x{0}, {dies} dies, {unknowns} unknowns:",
        opts.grid
    );

    let configs = vec![
        measure(&stack, true, &pressures_kpa, reps)?,
        measure(&stack, false, &pressures_kpa, reps)?,
    ];
    let speedup_cached = configs[1].probes_per_sec / configs[0].probes_per_sec;
    println!("speedup: cached {speedup_cached:.2}x");

    let artifact = ProbeBench {
        case: 2,
        grid: opts.grid,
        dies,
        unknowns,
        host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        pressures_kpa,
        reps,
        configs,
        speedup_cached,
        metrics_enabled,
        metrics: coolnet_obs::snapshot(),
    };
    write_json(&opts.out_path("BENCH_probe.json"), &artifact);
    Ok(())
}
