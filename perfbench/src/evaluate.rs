//! `evaluate-4rm`: Algorithm 2 and its Problem-2 counterpart with the 4RM
//! model on a generated corpus slice, single-threaded.
//!
//! The slice is the first five grid-≤15 specs of `corpus(2, ·)`: two
//! single-die cases whose Algorithm-3 walk reaches the near-singular
//! dense rescue and three multi-die cases that stay on Krylov rungs. The
//! workload seed jitters each case's per-cell power by ±5 % at fixed die
//! totals. It does not redraw the corpus: a redraw changes how many cases
//! reach the dense rescue, and with it the work of a pass, several-fold.
//!
//! There is no SA, pool, cache or queue here.

use crate::trace::Tracer;
use crate::{jitter_power, mean, mix, within, Pass, Quality, Window, Workload};
use coolnet::cases::gen::{corpus, CaseSpec};
use coolnet::cases::Benchmark;
use coolnet::network::builders::straight::{self, StraightParams};
use coolnet::network::builders::GlobalFlow;
use coolnet::network::CoolingNetwork;
use coolnet::obs::snapshot;
use coolnet::opt::psearch::PressureSearchOptions;
use coolnet::opt::{evaluate_problem1, evaluate_problem2, Evaluator, ModelChoice, NetworkScore};
use coolnet::thermal::ThermalError;
use coolnet::units::Pascal;
use std::time::Instant;

/// Corpus seed of the slice.
const SLICE_CORPUS_SEED: u64 = 2;
/// Largest grid side in the slice.
const SLICE_MAX_GRID: u16 = 15;

/// The `evaluate-4rm` workload.
#[derive(Debug, Clone)]
pub struct Evaluate4rm {
    /// Cases in the slice.
    pub cases: usize,
}

impl Default for Evaluate4rm {
    fn default() -> Self {
        Self { cases: 5 }
    }
}

/// The pressure-search options of the Reduced design schedule.
fn search_options() -> PressureSearchOptions {
    PressureSearchOptions {
        rel_tol: 0.02,
        max_probes: 60,
        ..PressureSearchOptions::default()
    }
}

/// The specs of the first `n` slice cases.
fn slice(n: usize) -> Vec<CaseSpec> {
    corpus(SLICE_CORPUS_SEED, 64)
        .into_iter()
        .filter(|s| s.grid <= SLICE_MAX_GRID)
        .take(n)
        .collect()
}

/// One case of a pass.
#[derive(Debug)]
pub struct Case {
    /// Spec name.
    pub name: String,
    /// The expanded, jittered benchmark.
    pub bench: Benchmark,
    /// Its straight-channel network.
    pub network: CoolingNetwork,
}

/// Which problem an evaluation scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Which {
    P1,
    P2,
}

impl Workload for Evaluate4rm {
    type Inputs = Vec<Case>;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Vec<Case> {
        slice(self.cases)
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut bench = tr.span("cases.expand", |_| spec.expand());
                jitter_power(&mut bench, mix(seed, i as u64));
                let network = tr.span("network.build", |_| {
                    straight::build_flow(
                        bench.dims,
                        &bench.tsv,
                        &bench.restricted,
                        GlobalFlow::WestToEast,
                        &StraightParams::default(),
                    )
                });
                let network = network.unwrap_or_else(|e| {
                    panic!("straight network for {} is illegal: {e}", spec.name)
                });
                Case {
                    name: spec.name,
                    bench,
                    network,
                }
            })
            .collect()
    }

    fn run(&self, cases: Vec<Case>, tr: &mut Tracer) -> Pass {
        let opts = search_options();
        let mut pass = Pass::default();
        let mut scores = Vec::new();
        let mut dense_s = 0.0;
        let mut krylov_s = 0.0;
        let mut dense_evals = 0u64;
        let window = Window::open();
        for case in &cases {
            let b = &case.bench;
            let ev = tr.op("evaluate.build", &case.name, |_| {
                Evaluator::new(b, &case.network, ModelChoice::FourRm)
            });
            for which in [Which::P1, Which::P2] {
                pass.attempted += 1;
                let Ok(ev) = &ev else {
                    pass.failed += 1;
                    continue;
                };
                let t = Instant::now();
                let before = snapshot();
                let score = match which {
                    Which::P1 => tr.op("netscore.p1", &case.name, |_| {
                        evaluate_problem1(ev, b.delta_t_limit, b.t_max_limit, &opts)
                    }),
                    Which::P2 => tr.op("netscore.p2", &case.name, |_| {
                        evaluate_problem2(ev, b.w_pump_limit(), b.t_max_limit, &opts)
                    }),
                };
                let secs = t.elapsed().as_secs_f64();
                let moved = snapshot().delta_since(&before);
                // Rung 3 of the default ladder is dense LU; solves the
                // diagnostics gate routes there up front count too.
                if moved.counter("ladder.rung3_converged") > 0 {
                    dense_s += secs;
                    dense_evals += 1;
                } else {
                    krylov_s += secs;
                }
                if score.is_err() || moved.counter("ladder.exhausted") > 0 {
                    pass.failed += 1;
                }
                if let Ok(score) = score {
                    scores.push((case, which, score));
                }
            }
        }
        window.close(&mut pass);

        pass.layer
            .insert("netscore.eval_s".into(), dense_s + krylov_s);
        pass.layer.insert("netscore.eval_s.dense".into(), dense_s);
        pass.layer.insert("netscore.eval_s.krylov".into(), krylov_s);
        pass.layer
            .insert("netscore.dense_evals".into(), dense_evals as f64);
        pass.layer
            .insert("psearch.evaluations".into(), pass.attempted as f64);
        pass.layer
            .insert("netscore.p1_s".into(), tr.total_secs("netscore.p1"));
        pass.layer
            .insert("netscore.p2_s".into(), tr.total_secs("netscore.p2"));

        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        let mut feasible = 0usize;
        let mut energy_mj = 0.0;
        let mut peak_dt = f64::NEG_INFINITY;
        for (case, which, score) in &scores {
            pass.replay.push(score.objective().to_bits());
            let NetworkScore::Feasible {
                p_sys,
                objective,
                profile,
            } = *score
            else {
                continue;
            };
            pass.replay.push(p_sys.value().to_bits());
            feasible += 1;
            peak_dt = peak_dt.max(profile.delta_t.value());
            match which {
                Which::P1 => p1.push(objective * 1e6),
                Which::P2 => p2.push(objective),
            }
            match verify(&case.bench, &case.network, *which, p_sys, objective) {
                Ok(w_pump) => energy_mj += w_pump * 1e3,
                Err(problem) => pass
                    .problems
                    .push(format!("{} {which:?}: {problem}", case.name)),
            }
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

/// Re-checks a feasible score with a fresh evaluator at its pressure:
/// limits met, objective equal to `W_pump` (P1) or `ΔT` (P2), and
/// `T_max` above the coolant inlet. Returns the pumping power in watts.
fn verify(
    bench: &Benchmark,
    network: &CoolingNetwork,
    which: Which,
    p_sys: Pascal,
    objective: f64,
) -> Result<f64, String> {
    let ev = Evaluator::new(bench, network, ModelChoice::FourRm)
        .map_err(|e: ThermalError| format!("fresh evaluator failed: {e}"))?;
    let profile = ev
        .profile(p_sys)
        .map_err(|e| format!("fresh profile failed: {e}"))?;
    let (t_max, delta_t) = (profile.t_max.value(), profile.delta_t.value());
    let w_pump = ev.w_pump(p_sys).value();
    if !within(t_max, bench.t_max_limit.value()) {
        return Err(format!(
            "T_max {t_max} K above {}",
            bench.t_max_limit.value()
        ));
    }
    if t_max <= ev.inlet_temperature().value() {
        return Err(format!("T_max {t_max} K not above the inlet"));
    }
    match which {
        Which::P1 => {
            if !within(delta_t, bench.delta_t_limit.value()) {
                return Err(format!(
                    "ΔT {delta_t} K above {}",
                    bench.delta_t_limit.value()
                ));
            }
            if w_pump.to_bits() != objective.to_bits() {
                return Err(format!("objective {objective} W is not W_pump {w_pump} W"));
            }
        }
        Which::P2 => {
            if !within(w_pump, bench.w_pump_limit().value()) {
                return Err(format!("W_pump {w_pump} W above the budget"));
            }
            // A fresh solve differs from the warm-started one by the
            // solver tolerance, far below this slack.
            if (delta_t - objective).abs() > 1e-4 * objective.abs().max(1e-3) {
                return Err(format!("objective {objective} K is not ΔT {delta_t} K"));
            }
        }
    }
    Ok(w_pump)
}
