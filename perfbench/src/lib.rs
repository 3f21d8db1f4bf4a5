//! coolnet performance benchmark: three workloads, each keeping a
//! different layer of the stack hot.
//!
//! * [`design_serve`] — a closed batch of Reduced-schedule design jobs
//!   through one `coolnet-serve` [`JobQueue`](coolnet_serve::JobQueue):
//!   Algorithm 1 end to end, the shared solver pool and the shared
//!   evaluation cache.
//! * [`evaluate`] — Algorithm 2 with the 4RM model on a generated corpus
//!   slice, single-threaded: pressure search and the sparse solve ladder,
//!   dense rescues included.
//! * [`transient`] — the scenario presets at 41×41 with the 4RM model:
//!   warm-started Krylov solves and the transient integrator.
//!
//! A run sets a workload up several times (the median is `setup_s`) and
//! repeats measured passes until the time budget is spent (the median
//! is `wall_s`). Every pass checks its outputs; passes with the same seed
//! must reproduce the same result bits. With tracing on, the first pass
//! runs untraced and the others record spans and `coolnet-obs` deltas,
//! from which [`report`] derives the per-layer metrics.

#![forbid(unsafe_code)]

pub mod design_serve;
pub mod evaluate;
pub mod report;
pub mod trace;
pub mod transient;

use coolnet::cases::gen::CaseRng;
use coolnet::cases::Benchmark;
use coolnet::obs::{snapshot, MetricsDelta, MetricsSnapshot};
use coolnet::thermal::PowerMap;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Setups timed before the first measured pass, on top of the one each
/// pass makes, so `setup_s` is a median of several samples.
const SETUP_ONLY_REPS: usize = 16;

/// Fewest measured passes per run: the second pass is what the replay
/// check compares against.
const MIN_PASSES: usize = 2;

/// No new pass starts if it would probably end after this many seconds.
const RUN_CAP_S: f64 = 150.0;

/// Every workload's name and reason to exist, as `BENCHMARK.json` lists
/// them.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "design-serve",
        "Algorithm 1 end to end through coolnet-serve: queue wait, shared solver pool, \
         cross-tenant eval cache under eviction, 2RM probes and a final 4RM stage",
    ),
    (
        "evaluate-4rm",
        "Algorithm 2 with 4RM on a corpus slice, single-threaded: isolates pressure search \
         and the sparse ladder, with and without near-singular dense rescues",
    ),
    (
        "transient-4rm",
        "five scenario presets at 41x41 with 4RM (n above the dense cap): warm-started \
         Krylov solves and per-interval integrator work, no dense, search or SA",
    ),
];

/// A 64-bit value derived from `seed` and `salt` (splitmix64 mixing), so
/// each job, case or die gets its own stream.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    CaseRng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Relative amplitude of the per-cell power jitter the workload seed
/// draws.
const POWER_JITTER: f64 = 0.05;

/// Multiplies each cell's power by a factor drawn uniformly from
/// `[0.95, 1.05)`, then rescales every die back to its total. The
/// floorplan's shape and the case's power budget stay as they were.
pub(crate) fn jitter_power(bench: &mut Benchmark, seed: u64) {
    for (die, map) in bench.power_maps.iter_mut().enumerate() {
        let mut rng = CaseRng::new(mix(seed, die as u64));
        let total = map.total().value();
        let values = map
            .values()
            .iter()
            .map(|&w| w * (1.0 + POWER_JITTER * (2.0 * rng.unit() - 1.0)))
            .collect();
        *map = PowerMap::from_values(map.dims(), values);
        map.scale_to_total(total);
    }
}

/// The design-quality results of one pass, in the end-to-end metrics'
/// units. What each means on each workload is set out in the README.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quality {
    /// Pumping power of the Problem-1 (or time-averaged) operating
    /// points, µW.
    pub p1_w_pump_uw: f64,
    /// Thermal gradient of the Problem-2 (or time-averaged) operating
    /// points, K.
    pub p2_delta_t_k: f64,
    /// Feasible results ÷ results.
    pub feasible_frac: f64,
    /// Pumping energy, mJ (steady designs: over a 1 s hold).
    pub pump_energy_mj: f64,
    /// Largest thermal gradient seen, K.
    pub peak_delta_t_k: f64,
}

/// What one measured pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Measured wall time of the pass, seconds.
    pub wall_s: f64,
    /// CPU time of the measured window, seconds, all threads.
    pub cpu_s: f64,
    /// Operations attempted (jobs, evaluations or scenarios).
    pub attempted: u64,
    /// Operations that ended in a solver error, as opposed to a physics
    /// verdict such as "infeasible".
    pub failed: u64,
    /// Design-quality results.
    pub quality: Quality,
    /// Result bit patterns that every pass with this seed must repeat.
    pub replay: Vec<u64>,
    /// Failed output checks, one line each (empty when correct).
    pub problems: Vec<String>,
    /// `coolnet-obs` growth over the measured window.
    pub obs: MetricsDelta,
    /// Per-layer values only this workload can compute (serve queue
    /// times, dense/Krylov split, per-preset scenario times, ...).
    pub layer: BTreeMap<String, f64>,
}

/// CPU seconds this process has run, all threads, live and exited
/// (`utime + stime` of `/proc/self/stat`, in 1/100 s ticks). On a shared
/// host this excludes time the CPUs were taken away, which wall time
/// does not.
fn process_cpu_s() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the line.
            let rest = &stat[stat.rfind(')')? + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = fields.get(11)?.parse().ok()?;
            let stime: u64 = fields.get(12)?.parse().ok()?;
            Some(utime + stime)
        });
    ticks.map_or(f64::NAN, |t| t as f64 / 100.0)
}

/// The measured window of a pass: wall clock, CPU time and the
/// `coolnet-obs` counters, read at the start and again at [`close`].
///
/// [`close`]: Window::close
#[derive(Debug)]
pub(crate) struct Window {
    started: Instant,
    cpu: f64,
    obs: MetricsSnapshot,
}

impl Window {
    /// Opens the window.
    pub(crate) fn open() -> Self {
        Self {
            obs: snapshot(),
            cpu: process_cpu_s(),
            started: Instant::now(),
        }
    }

    /// When the window opened.
    pub(crate) fn started(&self) -> Instant {
        self.started
    }

    /// Closes the window into `pass`: `wall_s`, `cpu_s` and `obs`.
    pub(crate) fn close(self, pass: &mut Pass) {
        pass.wall_s = self.started.elapsed().as_secs_f64();
        pass.cpu_s = process_cpu_s() - self.cpu;
        pass.obs = snapshot().delta_since(&self.obs);
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Everything one pass consumes.
    type Inputs;

    /// Makes the pass inputs from `seed`. Timed as set-up.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::Inputs;

    /// Runs and checks one measured pass.
    fn run(&self, inputs: Self::Inputs, tr: &mut Tracer) -> Pass;
}

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// One measured pass and what its tracer saw.
#[derive(Debug)]
pub struct PassRecord {
    /// The pass.
    pub pass: Pass,
    /// Its tracer (disabled for untraced passes).
    pub tracer: Tracer,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Measured passes in order.
    pub passes: Vec<PassRecord>,
}

impl RunOutput {
    /// Operations attempted and failed over every pass.
    pub fn totals(&self) -> (u64, u64) {
        self.passes.iter().fold((0, 0), |(a, f), p| {
            (a + p.pass.attempted, f + p.pass.failed)
        })
    }
}

/// Runs `w` until the budget is spent: setups, then measured passes.
pub fn drive<W: Workload>(w: &W, cfg: &RunConfig) -> RunOutput {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_ONLY_REPS {
        let t = Instant::now();
        let inputs = w.setup(cfg.seed, &mut Tracer::new(false));
        setup_s.push(t.elapsed().as_secs_f64());
        drop(inputs);
    }
    let mut passes: Vec<PassRecord> = Vec::new();
    loop {
        // In a traced run the first pass stays untraced: it is the
        // baseline the tracing overhead is measured against.
        let mut tracer = Tracer::new(cfg.trace && !passes.is_empty());
        let t = Instant::now();
        let inputs = w.setup(cfg.seed, &mut tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        let pass = w.run(inputs, &mut tracer);
        let last = pass.wall_s;
        passes.push(PassRecord { pass, tracer });
        let elapsed = started.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && (elapsed >= cfg.seconds || elapsed + last > RUN_CAP_S) {
            break;
        }
    }
    RunOutput { setup_s, passes }
}

/// Median of `xs` (`NaN` when empty).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of `xs` (`NaN` when empty).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Whether `x ≤ limit` up to a relative slack of one part per million
/// (a bound met at the limit may be off by float rounding).
pub(crate) fn within(x: f64, limit: f64) -> bool {
    x <= limit + 1e-6 * limit.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet::grid::GridDims;

    #[test]
    fn jitter_keeps_die_totals_and_is_seeded() {
        let dims = GridDims::new(15, 15);
        let base = Benchmark::iccad_scaled(1, dims);
        let mut a = base.clone();
        let mut b = base.clone();
        jitter_power(&mut a, 5);
        jitter_power(&mut b, 5);
        for (m0, m1) in base.power_maps.iter().zip(&a.power_maps) {
            let (t0, t1) = (m0.total().value(), m1.total().value());
            assert!((t0 - t1).abs() <= 1e-12 * t0);
            assert_ne!(m0.values(), m1.values());
        }
        assert_eq!(a.power_maps[0].values(), b.power_maps[0].values());
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
