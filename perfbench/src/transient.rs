//! `transient-4rm`: the five scenario presets at 41×41 with the 4RM model,
//! through `run_scenario` under the default `ThermalConfig`.
//!
//! At 41×41 the 4RM system (n = 10086) sits above the dense-rescue cap,
//! so the work is warm-started rung-0 Krylov solves plus the integrator's
//! per-interval bookkeeping: no dense rescues, no pressure search, no SA.
//! The workload seed jitters case 1's per-cell power by ±5 % at fixed die
//! totals.

use crate::trace::Tracer;
use crate::{jitter_power, Pass, Quality, Window, Workload};
use coolnet::cases::Benchmark;
use coolnet::grid::{Dir, GridDims};
use coolnet::network::builders::straight::{self, StraightParams};
use coolnet::network::CoolingNetwork;
use coolnet::obs::snapshot;
use coolnet::opt::scenario::{run_scenario, ScenarioSpec};
use coolnet::opt::ModelChoice;
use coolnet::thermal::ThermalConfig;
use std::time::Instant;

/// ICCAD case the scenarios run on.
const CASE: usize = 1;

/// The `transient-4rm` workload.
#[derive(Debug, Clone)]
pub struct Transient4rm {
    /// Grid side length.
    pub grid: u16,
}

impl Default for Transient4rm {
    fn default() -> Self {
        Self { grid: 41 }
    }
}

/// The preset names, in run order.
pub(crate) fn preset_names() -> Vec<String> {
    ScenarioSpec::presets(GridDims::new(11, 11), 1.0)
        .into_iter()
        .map(|s| s.name)
        .collect()
}

/// Inputs of one pass.
#[derive(Debug)]
pub struct Inputs {
    bench: Benchmark,
    network: CoolingNetwork,
    specs: Vec<ScenarioSpec>,
}

impl Workload for Transient4rm {
    type Inputs = Inputs;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Inputs {
        let dims = GridDims::new(self.grid, self.grid);
        let mut bench = tr.span("cases.expand", |_| Benchmark::iccad_scaled(CASE, dims));
        jitter_power(&mut bench, seed);
        let network = tr.span("network.build", |_| {
            straight::build(dims, &bench.tsv, Dir::East, &StraightParams::default())
        });
        let network = network.unwrap_or_else(|e| panic!("straight network is illegal: {e}"));
        let die_watts = bench.power_maps[0].total().value();
        let specs = ScenarioSpec::presets(dims, die_watts)
            .into_iter()
            .map(|mut spec| {
                spec.model = ModelChoice::FourRm;
                spec
            })
            .collect();
        Inputs {
            bench,
            network,
            specs,
        }
    }

    fn run(&self, inputs: Inputs, tr: &mut Tracer) -> Pass {
        let thermal = ThermalConfig::default();
        let mut pass = Pass::default();
        let mut traces = Vec::new();
        let mut run_s = 0.0;
        let window = Window::open();
        for spec in &inputs.specs {
            pass.attempted += 1;
            let before = snapshot();
            let t = Instant::now();
            let result = tr.op("scenario.run", &spec.name, |_| {
                run_scenario(&inputs.bench, &inputs.network, spec, &thermal)
            });
            let secs = t.elapsed().as_secs_f64();
            run_s += secs;
            pass.layer
                .insert(format!("scenario.run_s.{}", spec.name), secs);
            let exhausted = snapshot().delta_since(&before).counter("ladder.exhausted");
            if result.is_err() || exhausted > 0 {
                pass.failed += 1;
            }
            match result {
                Ok(trace) => traces.push(trace),
                Err(e) => pass.problems.push(format!("{}: {e}", spec.name)),
            }
        }
        window.close(&mut pass);

        let b = &inputs.bench;
        let intervals: usize = traces.iter().map(|t| t.intervals.len()).sum();
        pass.layer.insert("scenario.run_s".into(), run_s);
        pass.layer
            .insert("scenario.intervals_per_s".into(), intervals as f64 / run_s);

        let mut energy_j = 0.0;
        let mut duration = 0.0;
        let mut dt_weighted = 0.0;
        let mut within_limits = 0usize;
        let mut peak_dt = f64::NEG_INFINITY;
        for trace in &traces {
            pass.replay.push(trace.fingerprint());
            let peak_t = trace.peak_t_max().value();
            if !(300.0 < peak_t && peak_t < 400.0) {
                pass.problems.push(format!(
                    "{}: peak T_max {peak_t} K outside (300, 400)",
                    trace.name
                ));
            }
            let energy = trace.pumping_energy();
            if energy <= 0.0 {
                pass.problems
                    .push(format!("{}: pumping energy {energy} J", trace.name));
            }
            for s in &trace.intervals {
                if let Some(k) = s.stress.iter().find(|k| k.value() > s.delta_t.value()) {
                    pass.problems.push(format!(
                        "{} at t = {} s: stress {} K above ΔT {} K",
                        trace.name,
                        s.time,
                        k.value(),
                        s.delta_t.value()
                    ));
                }
                duration += s.interval_s;
                dt_weighted += s.delta_t.value() * s.interval_s;
                if s.delta_t <= b.delta_t_limit && s.t_max <= b.t_max_limit {
                    within_limits += 1;
                }
            }
            energy_j += energy;
            peak_dt = peak_dt.max(trace.peak_gradient().value());
        }
        pass.quality = Quality {
            p1_w_pump_uw: energy_j / duration * 1e6,
            p2_delta_t_k: dt_weighted / duration,
            feasible_frac: within_limits as f64 / intervals.max(1) as f64,
            pump_energy_mj: energy_j * 1e3,
            peak_delta_t_k: peak_dt,
        };
        pass
    }
}
