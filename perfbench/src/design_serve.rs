//! `design-serve`: a closed batch of three Reduced-schedule design jobs on
//! 21×21 ICCAD-scaled cases, all submitted at t = 0 to one fresh
//! `JobQueue` (concurrency 2, a 2-thread `SolverPool`):
//!
//! * P1 on case 1;
//! * P2 on case 2;
//! * P2 on case 1, sharing case 1's evaluation-cache scope with the first
//!   job.
//!
//! This is the production path: Algorithm 1 end to end, queue wait, the
//! shared pool, cross-tenant cache reuse under eviction pressure, and 2RM
//! probes with a final 4RM stage. The measured wall time is the batch
//! makespan.
//!
//! The search seeds are fixed, so every run replays the same three
//! designs; the workload seed only names the tenants. Drawing the search
//! seeds from the workload seed was tried: over five seeds the makespan
//! spread by 14 % (interquartile range over median), peak RSS by 24 % and
//! the P1 pumping power by 8 %, more than the run-to-run bounds allow.

use crate::trace::Tracer;
use crate::{mean, mix, within, Pass, Quality, Window, Workload};
use coolnet::cases::Benchmark;
use coolnet::opt::Problem;
use coolnet_serve::{JobArtifact, JobOutcome, JobQueue, JobSpec, QueueOptions, SearchPreset};
use std::time::Instant;

/// The `design-serve` workload.
#[derive(Debug, Clone)]
pub struct DesignServe {
    /// Search schedule of every job.
    pub preset: SearchPreset,
}

impl Default for DesignServe {
    fn default() -> Self {
        Self {
            preset: SearchPreset::Reduced,
        }
    }
}

/// The jobs of the batch: `(case, problem, search seed)`.
const JOBS: [(usize, Problem, u64); 3] = [
    (1, Problem::PumpingPower, 1),
    (2, Problem::ThermalGradient, 2),
    (1, Problem::ThermalGradient, 3),
];

/// Inputs of one pass.
#[derive(Debug)]
pub struct Inputs {
    queue: JobQueue,
    specs: Vec<JobSpec>,
    /// Each job's benchmark, for its limits.
    benches: Vec<Benchmark>,
}

impl Workload for DesignServe {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Inputs {
        let specs: Vec<JobSpec> = JOBS
            .iter()
            .enumerate()
            .map(|(i, &(case, problem, search_seed))| {
                let tenant = format!("tenant-{:016x}-{i}", mix(seed, i as u64));
                let mut spec = JobSpec::quick(tenant, case, problem, search_seed);
                spec.preset = self.preset;
                spec
            })
            .collect();
        let benches = specs
            .iter()
            .map(|s| {
                let dims = coolnet::grid::GridDims::new(s.grid.width, s.grid.height);
                tr.span("cases.expand", |_| Benchmark::iccad_scaled(s.case, dims))
            })
            .collect();
        let queue = tr.span("serve.queue_new", |_| {
            JobQueue::new(QueueOptions {
                concurrency: 2,
                pool_threads: 2,
                ..QueueOptions::default()
            })
        });
        Inputs {
            queue,
            specs,
            benches,
        }
    }

    fn run(&self, inputs: Inputs, tr: &mut Tracer) -> Pass {
        let Inputs {
            queue,
            specs,
            benches,
        } = inputs;
        let problems: Vec<Problem> = specs.iter().map(|s| s.problem).collect();
        let mut pass = Pass::default();
        let window = Window::open();
        let started = window.started();
        let finished = tr.op("serve.batch", "", |tr| {
            let submitted = Instant::now();
            let handles: Vec<_> = specs
                .into_iter()
                .map(|spec| tr.span("serve.submit", |_| queue.submit(spec)))
                .collect();
            // One idle waiter per job, so each completion time is seen
            // when it happens rather than in submission order.
            let finished: Vec<(JobArtifact, Instant)> = std::thread::scope(|scope| {
                let waiters: Vec<_> = handles
                    .into_iter()
                    .map(|h| scope.spawn(move || (h.wait(), Instant::now())))
                    .collect();
                waiters
                    .into_iter()
                    .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            for (_, end) in &finished {
                tr.record("serve.wait", submitted, *end);
            }
            finished
        });
        window.close(&mut pass);
        drop(queue);
        let makespan = finished
            .iter()
            .map(|(_, end)| *end)
            .max()
            .unwrap_or(started);
        pass.wall_s = makespan.duration_since(started).as_secs_f64();

        let mut queue_wait_s = 0.0;
        let mut job_s = 0.0;
        let mut attempts = 0u32;
        for (artifact, end) in &finished {
            let job = artifact.wall_ms as f64 * 1e-3;
            queue_wait_s += (end.duration_since(started).as_secs_f64() - job).max(0.0);
            job_s += job;
            attempts += artifact.attempts;
        }
        pass.layer.insert("serve.queue_wait_s".into(), queue_wait_s);
        pass.layer.insert("serve.job_s".into(), job_s);
        pass.layer
            .insert("serve.attempts".into(), f64::from(attempts));
        pass.layer.insert(
            "psearch.evaluations".into(),
            pass.obs.counter("eval.cache_misses") as f64,
        );

        // Concurrent jobs share one counter window, so an exhausted
        // ladder cannot be pinned on a job: it fails the whole batch.
        let exhausted = pass.obs.counter("ladder.exhausted") > 0;
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        let mut feasible = 0usize;
        let mut energy_mj = 0.0;
        let mut peak_dt = f64::NEG_INFINITY;
        for (((artifact, _), problem), bench) in finished.iter().zip(&problems).zip(&benches) {
            pass.attempted += 1;
            let solver_failure = matches!(
                artifact.outcome,
                JobOutcome::Failed { .. } | JobOutcome::Degraded { .. }
            );
            if solver_failure || exhausted {
                pass.failed += 1;
            }
            if artifact.outcome != JobOutcome::Completed {
                pass.problems
                    .push(format!("{}: outcome {:?}", artifact.id, artifact.outcome));
            }
            let Some(design) = &artifact.design else {
                pass.problems.push(format!("{}: no design", artifact.id));
                continue;
            };
            pass.replay.extend([
                design.p_sys_bits,
                design.w_pump_bits,
                design.t_max_bits,
                design.delta_t_bits,
                design.objective.to_bits(),
                design.liquid_cells as u64,
            ]);
            let w_pump = f64::from_bits(design.w_pump_bits);
            let t_max = f64::from_bits(design.t_max_bits);
            let delta_t = f64::from_bits(design.delta_t_bits);
            let mut ok = within(t_max, bench.t_max_limit.value());
            match problem {
                Problem::PumpingPower => {
                    ok &= within(delta_t, bench.delta_t_limit.value());
                    p1.push(w_pump * 1e6);
                }
                Problem::ThermalGradient => {
                    ok &= within(w_pump, bench.w_pump_limit().value());
                    p2.push(delta_t);
                }
            }
            if ok {
                feasible += 1;
            } else {
                pass.problems.push(format!(
                    "{}: design misses its limits (W_pump {w_pump} W, T_max {t_max} K, \
                     ΔT {delta_t} K)",
                    artifact.id
                ));
            }
            energy_mj += w_pump * 1e3;
            peak_dt = peak_dt.max(delta_t);
        }
        pass.quality = Quality {
            p1_w_pump_uw: mean(&p1),
            p2_delta_t_k: mean(&p2),
            feasible_frac: feasible as f64 / pass.attempted.max(1) as f64,
            pump_energy_mj: energy_mj,
            peak_delta_t_k: peak_dt,
        };
        pass
    }
}
