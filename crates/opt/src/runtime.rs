//! Run-time thermal management with adjustable flow rates — the paper's
//! future-work direction ("combining cooling networks with run-time
//! thermal management techniques (e.g., DVFS and adjustable flow rates) to
//! handle dynamic die power", §7).
//!
//! A [`PowerTrace`] describes die power over time (DVFS phases); a
//! proportional [`FlowController`] adjusts the pump pressure at a fixed
//! control interval to keep `T_max` at a setpoint, spending pumping energy
//! only when the workload requires it. The plant model is the transient
//! 2RM simulator; changing the pressure swaps the advection operator, so
//! the integrator is rebuilt (warm-started) whenever a control action
//! actually moves the pressure — and reused, internal state and all, when
//! the controller holds it (e.g. clamped at a bound).

use crate::evaluate::ModelChoice;
use coolnet_cases::Benchmark;
use coolnet_network::CoolingNetwork;
use coolnet_obs::LazyCounter;
use coolnet_thermal::{FourRm, ThermalConfig, ThermalError, TwoRm};
use coolnet_units::{Kelvin, Pascal, Watt};
use serde::{Deserialize, Serialize};

/// Completed or attempted [`simulate_adaptive_flow`] runs.
static M_RUNS: LazyCounter = LazyCounter::new("runtime.runs");
/// Control intervals simulated.
static M_CONTROL_STEPS: LazyCounter = LazyCounter::new("runtime.control_steps");
/// Transient-integrator rebuilds (full triplet reassembly + ILU(0)); a
/// clamped-pressure run should rebuild once, not once per control step.
static M_INTEGRATOR_REBUILDS: LazyCounter = LazyCounter::new("runtime.integrator_rebuilds");

/// A piecewise-constant die-power schedule: `(duration_s, power_scale)`
/// phases applied to the benchmark's nominal power maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    phases: Vec<(f64, f64)>,
}

impl PowerTrace {
    /// Creates a trace from `(duration_s, power_scale)` phases.
    ///
    /// # Panics
    ///
    /// Panics if any duration or scale is non-positive/negative.
    pub fn new(phases: Vec<(f64, f64)>) -> Self {
        assert!(!phases.is_empty(), "trace needs at least one phase");
        for &(d, s) in &phases {
            assert!(d > 0.0, "phase duration must be positive");
            assert!(s >= 0.0, "power scale must be non-negative");
        }
        Self { phases }
    }

    /// A simple high/low/high DVFS-like pattern.
    pub fn dvfs_square(period: f64, high: f64, low: f64) -> Self {
        Self::new(vec![
            (period, high),
            (period, low),
            (period, high),
            (period, low),
        ])
    }

    /// Total trace duration in seconds.
    pub fn duration(&self) -> f64 {
        self.phases.iter().map(|(d, _)| d).sum()
    }

    /// The power scale active at time `t` (last phase extends forever).
    /// A phaseless trace — constructible via deserialization even though
    /// [`PowerTrace::new`] rejects it — reads as nominal power.
    pub fn scale_at(&self, t: f64) -> f64 {
        let mut acc = 0.0;
        for &(d, s) in &self.phases {
            acc += d;
            if t < acc {
                return s;
            }
        }
        self.phases.last().map_or(1.0, |&(_, s)| s)
    }
}

/// A proportional controller on the pump pressure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowController {
    /// `T_max` setpoint.
    pub target: Kelvin,
    /// Proportional gain in Pa per kelvin of error.
    pub gain: f64,
    /// Lower pressure bound (pump idle).
    pub p_min: Pascal,
    /// Upper pressure bound (pump limit).
    pub p_max: Pascal,
}

impl FlowController {
    /// The next pressure given the current one and the measured `T_max`.
    pub fn update(&self, current: Pascal, t_max: Kelvin) -> Pascal {
        let error = t_max.value() - self.target.value();
        let p = current.value() + self.gain * error;
        Pascal::new(p.clamp(self.p_min.value(), self.p_max.value()))
    }
}

/// One sample of a run-time simulation.
///
/// All interval-scoped fields (`time`, `power_scale`, `p_sys`, `w_pump`)
/// refer to the *start* of the control interval, so a sample pairs each
/// quantity with the phase that was actually active while it applied;
/// only `t_max` is measured at the interval's end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSample {
    /// Simulation time in seconds at the start of the interval.
    pub time: f64,
    /// Die-power scale active during the interval (sampled at `time`).
    pub power_scale: f64,
    /// Pump pressure during this interval.
    pub p_sys: Pascal,
    /// Peak temperature at the end of the interval.
    pub t_max: Kelvin,
    /// Pumping power during this interval.
    pub w_pump: Watt,
    /// Actual simulated length of this interval in seconds. Equal to
    /// `dt · control_interval` except for the final interval of a trace
    /// whose duration is not an exact multiple, which is clamped to the
    /// trace remainder.
    pub interval_s: f64,
}

/// Options of a run-time simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOptions {
    /// Integrator time step in seconds.
    pub dt: f64,
    /// Steps between control actions.
    pub control_interval: usize,
    /// Thermal model for the plant.
    pub model: ModelChoice,
    /// Initial pump pressure.
    pub p_initial: Pascal,
    /// Thermal configuration of the plant (solver ladder, threads,
    /// tolerance, inlet temperature).
    pub thermal: ThermalConfig,
}

impl Default for RuntimeOptions {
    /// 1 ms steps, control every 10 steps, 2RM plant, 5 kPa start,
    /// default thermal configuration.
    fn default() -> Self {
        Self {
            dt: 1e-3,
            control_interval: 10,
            model: ModelChoice::fast(),
            p_initial: Pascal::from_kilopascals(5.0),
            thermal: ThermalConfig::default(),
        }
    }
}

/// The thermal plant behind a run-time simulation — shared with the
/// scenario engine ([`crate::scenario`]), which drives the same transient
/// integrators under richer event schedules.
pub(crate) enum Plant {
    Two(TwoRm),
    Four(FourRm),
}

impl Plant {
    /// Builds the plant for `stack` under the chosen thermal model.
    pub(crate) fn new(
        stack: &coolnet_thermal::Stack,
        model: ModelChoice,
        config: &ThermalConfig,
    ) -> Result<Self, ThermalError> {
        Ok(match model {
            ModelChoice::TwoRm { m } => Plant::Two(TwoRm::new(stack, m, config)?),
            ModelChoice::FourRm => Plant::Four(FourRm::new(stack, config)?),
        })
    }

    /// Builds a transient integrator at pressure `p` — a full triplet
    /// reassembly plus an ILU(0) factorization, the expensive part of a
    /// control action.
    pub(crate) fn integrator(
        &self,
        p: Pascal,
        dt: f64,
        initial: Option<&coolnet_thermal::ThermalSolution>,
    ) -> Result<coolnet_thermal::transient::Transient<'_>, ThermalError> {
        M_INTEGRATOR_REBUILDS.inc();
        match self {
            Plant::Two(s) => s.transient(p, dt, initial),
            Plant::Four(s) => s.transient(p, dt, initial),
        }
    }
}

/// Number of integrator steps covering `duration`.
///
/// The naive `(duration / dt).ceil()` is float-sensitive: an exact-ratio
/// trace like `duration = 0.1, dt = 1e-3` evaluates to
/// `100.00000000000001` and would simulate a spurious extra step. Ratios
/// within a relative epsilon of an integer snap to `round()`; genuine
/// partial steps still `ceil()`.
pub(crate) fn sim_steps(duration: f64, dt: f64) -> usize {
    let ratio = duration / dt;
    let rounded = ratio.round();
    let steps = if (ratio - rounded).abs() < 1e-9 * rounded.max(1.0) {
        rounded
    } else {
        ratio.ceil()
    };
    steps as usize
}

/// Number of control intervals covering `duration` (the last one may be
/// partial; the run loop clamps it to the trace remainder).
pub(crate) fn control_steps(duration: f64, dt: f64, control_interval: usize) -> usize {
    sim_steps(duration, dt).div_ceil(control_interval)
}

/// A run-time simulation failure, carrying where in the trace it happened
/// and every sample collected before the fault.
#[derive(Debug, Clone)]
pub struct RuntimeError {
    /// Control step at which the simulation failed (0-based; setup errors
    /// before the first step report step 0).
    pub step: usize,
    /// Simulated time in seconds at the start of the failing interval.
    pub time: f64,
    /// Pump pressure active when the failure occurred.
    pub p_sys: Pascal,
    /// Samples collected before the failure — the partial trace survives
    /// the error so callers can analyze or resume the run.
    pub samples: Vec<RuntimeSample>,
    /// The underlying thermal failure.
    pub source: ThermalError,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run-time simulation failed at control step {} (t = {:.6} s, P_sys = {:.1} Pa, \
             {} samples collected): {}",
            self.step,
            self.time,
            self.p_sys.value(),
            self.samples.len(),
            self.source
        )
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Simulates closed-loop run-time thermal management of one cooling
/// system under a dynamic power trace. Returns one sample per control
/// interval.
///
/// # Errors
///
/// Stack-building and simulation errors are wrapped in a [`RuntimeError`]
/// that records the failing control step, simulated time, active pressure,
/// and the samples collected up to the fault.
pub fn simulate_adaptive_flow(
    bench: &Benchmark,
    network: &CoolingNetwork,
    trace: &PowerTrace,
    controller: &FlowController,
    opts: &RuntimeOptions,
) -> Result<Vec<RuntimeSample>, RuntimeError> {
    // Context for wrapping a mid-trace failure without losing the samples.
    struct Ctx {
        step: usize,
        time: f64,
        p: Pascal,
        samples: Vec<RuntimeSample>,
    }
    let fail = |ctx: Ctx, source: ThermalError| RuntimeError {
        step: ctx.step,
        time: ctx.time,
        p_sys: ctx.p,
        samples: ctx.samples,
        source,
    };
    let mut ctx = Ctx {
        step: 0,
        time: 0.0,
        p: opts.p_initial,
        samples: Vec::new(),
    };

    let stack = match bench.stack_with(std::slice::from_ref(network)) {
        Ok(s) => s,
        Err(e) => return Err(fail(ctx, e)),
    };
    let config = opts.thermal.clone();
    let plant = match Plant::new(&stack, opts.model, &config) {
        Ok(p) => p,
        Err(e) => return Err(fail(ctx, e)),
    };
    // W_pump via the hydraulic model.
    let flow_cfg = crate::evaluate::Evaluator::flow_config_for(bench);
    let flow = match coolnet_flow::FlowModel::new(network, &flow_cfg) {
        Ok(m) => m,
        Err(e) => return Err(fail(ctx, e.into())),
    };

    M_RUNS.inc();
    let mut snapshot: Option<coolnet_thermal::ThermalSolution> = None;
    let total_sim_steps = sim_steps(trace.duration(), opts.dt);
    let steps_total = control_steps(trace.duration(), opts.dt, opts.control_interval);

    // The integrator persists across control steps and is rebuilt only
    // when the controller actually moves the pressure (the advection
    // operator depends on it); a clamped controller reuses it — internal
    // temperature state and all — for the whole trace.
    let mut tr = match plant.integrator(ctx.p, opts.dt, None) {
        Ok(tr) => tr,
        Err(e) => return Err(fail(ctx, e)),
    };
    let mut built_p = ctx.p;
    let mut steps_done = 0usize;

    for step in 0..steps_total {
        ctx.step = step;
        M_CONTROL_STEPS.inc();
        let t_start = ctx.time;
        let scale = trace.scale_at(t_start);
        let p = ctx.p;
        if p != built_p {
            // Warm-start the new operator from the latest field.
            tr = match plant.integrator(p, opts.dt, snapshot.as_ref()) {
                Ok(tr) => tr,
                Err(e) => return Err(fail(ctx, e)),
            };
            built_p = p;
        }
        tr.set_power_scale(scale);
        // The final interval of a non-exact-ratio trace is clamped to the
        // remainder: a 0.105 s trace simulates 105 steps, not 110.
        let steps_this = opts.control_interval.min(total_sim_steps - steps_done);
        if let Err(e) = tr.run(steps_this) {
            return Err(fail(ctx, e));
        }
        steps_done += steps_this;
        let interval_s = opts.dt * steps_this as f64;
        ctx.time = t_start + interval_s;
        let snap = tr.snapshot();
        let t_max = snap.max_temperature();
        ctx.samples.push(RuntimeSample {
            time: t_start,
            power_scale: scale,
            p_sys: p,
            t_max,
            w_pump: flow.pumping_power(p),
            interval_s,
        });
        ctx.p = controller.update(p, t_max);
        snapshot = Some(snap);
    }
    Ok(ctx.samples)
}

/// Total pumping energy of a sampled run: piecewise-constant pumping
/// power over each sample's actual simulated interval (the final interval
/// of a non-exact-ratio trace is shorter than the rest).
pub fn pumping_energy(samples: &[RuntimeSample]) -> f64 {
    samples
        .iter()
        .map(|s| s.w_pump.value() * s.interval_s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::{tsv, Dir, GridDims};
    use coolnet_network::builders::straight::{self, StraightParams};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes every test that drives `simulate_adaptive_flow`: the
    /// runtime metrics are process-global, so concurrent runs would bleed
    /// into each other's snapshot deltas.
    static METRICS: Mutex<()> = Mutex::new(());

    fn metrics_lock() -> MutexGuard<'static, ()> {
        coolnet_obs::sync::lock_recover(&METRICS)
    }

    fn setup() -> (Benchmark, CoolingNetwork) {
        let dims = GridDims::new(15, 15);
        let bench = Benchmark::iccad_scaled(1, dims);
        let net = straight::build(
            dims,
            &tsv::alternating(dims),
            Dir::East,
            &StraightParams::default(),
        )
        .unwrap();
        (bench, net)
    }

    #[test]
    fn trace_lookup_is_piecewise_constant() {
        let t = PowerTrace::new(vec![(1.0, 1.0), (2.0, 0.3)]);
        assert_eq!(t.scale_at(0.5), 1.0);
        assert_eq!(t.scale_at(1.5), 0.3);
        assert_eq!(t.scale_at(10.0), 0.3); // last phase extends
        assert_eq!(t.duration(), 3.0);
    }

    #[test]
    fn controller_raises_pressure_when_hot() {
        let c = FlowController {
            target: Kelvin::new(320.0),
            gain: 100.0,
            p_min: Pascal::new(1e3),
            p_max: Pascal::new(1e5),
        };
        let p = c.update(Pascal::new(5e3), Kelvin::new(330.0));
        assert!((p.value() - 6e3).abs() < 1e-9);
        // And clamps at bounds.
        let p = c.update(Pascal::new(9.99e4), Kelvin::new(400.0));
        assert_eq!(p.value(), 1e5);
        let p = c.update(Pascal::new(1.2e3), Kelvin::new(250.0));
        assert_eq!(p.value(), 1e3);
    }

    #[test]
    fn controller_drives_pressure_toward_the_active_bound() {
        // Deterministic closed-loop checks: with an unreachably low
        // setpoint the loop must pump up; with an unreachably high one it
        // must relax to idle.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.1, 1.0)]);
        let opts = RuntimeOptions {
            dt: 1e-3,
            control_interval: 10,
            p_initial: Pascal::from_kilopascals(5.0),
            ..RuntimeOptions::default()
        };
        let run = |target: f64| {
            let controller = FlowController {
                target: Kelvin::new(target),
                gain: 2000.0,
                p_min: Pascal::from_kilopascals(0.5),
                p_max: Pascal::from_kilopascals(60.0),
            };
            simulate_adaptive_flow(&bench, &net, &trace, &controller, &opts).unwrap()
        };
        // Always too hot relative to a 300.5 K target: pressure must rise.
        let hot = run(300.5);
        assert!(hot.last().unwrap().p_sys.value() > hot[0].p_sys.value());
        // Always cool vs a 390 K target: pressure must fall to idle.
        let cool = run(390.0);
        assert!(cool.last().unwrap().p_sys.value() < 5.0e3);
        for s in hot.iter().chain(&cool) {
            assert!(s.t_max.value() > 299.9 && s.t_max.value() < 400.0);
        }
    }

    #[test]
    fn adaptive_control_saves_pumping_energy_vs_fixed() {
        // The headline claim of run-time management: equal thermal envelope,
        // less pumping energy, on a high/low power trace.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.05, 1.0), (0.05, 0.1)]);
        let opts = RuntimeOptions {
            dt: 1e-3,
            control_interval: 10,
            p_initial: Pascal::from_kilopascals(10.0),
            ..RuntimeOptions::default()
        };
        let fixed = FlowController {
            target: Kelvin::new(310.0),
            gain: 0.0,
            p_min: Pascal::from_kilopascals(10.0),
            p_max: Pascal::from_kilopascals(10.0),
        };
        let adaptive = FlowController {
            target: Kelvin::new(310.0),
            gain: 800.0,
            p_min: Pascal::from_kilopascals(0.5),
            p_max: Pascal::from_kilopascals(10.0),
        };
        let e_fixed =
            pumping_energy(&simulate_adaptive_flow(&bench, &net, &trace, &fixed, &opts).unwrap());
        let e_adaptive = pumping_energy(
            &simulate_adaptive_flow(&bench, &net, &trace, &adaptive, &opts).unwrap(),
        );
        assert!(
            e_adaptive < e_fixed,
            "adaptive {e_adaptive} !< fixed {e_fixed}"
        );
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn bad_trace_is_rejected() {
        PowerTrace::new(vec![(0.0, 1.0)]);
    }

    #[test]
    fn exact_ratio_traces_have_no_spurious_interval() {
        // 0.1 / (1e-3 · 10) = 10.000000000000002 in f64: the naive ceil()
        // simulated an 11th interval. Exact ratios must snap.
        assert_eq!(control_steps(0.1, 1e-3, 10), 10);
        assert_eq!(control_steps(0.2, 1e-3, 10), 20);
        assert_eq!(control_steps(0.3, 1e-3, 10), 30);
        assert_eq!(control_steps(0.6, 2e-3, 30), 10);
        // Genuine partial intervals still round up.
        assert_eq!(control_steps(0.105, 1e-3, 10), 11);
        assert_eq!(control_steps(0.001, 1e-3, 10), 1);
        // Step-level accounting behind them.
        assert_eq!(sim_steps(0.105, 1e-3), 105);
        assert_eq!(sim_steps(0.1, 1e-3), 100);
        assert_eq!(sim_steps(0.0015, 1e-3), 2);
    }

    #[test]
    fn partial_final_interval_is_clamped_to_the_trace_remainder() {
        // Regression for the trace-end overrun: a 0.105 s trace used to
        // simulate 11 full intervals = 0.110 s, and `pumping_energy`
        // charged a full 0.010 s for the 0.005 s remainder. Post-fix the
        // final interval runs exactly the 5 remaining steps.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.105, 1.0)]);
        let opts = RuntimeOptions {
            dt: 1e-3,
            control_interval: 10,
            p_initial: Pascal::from_kilopascals(10.0),
            ..RuntimeOptions::default()
        };
        let clamped = FlowController {
            target: Kelvin::new(320.0),
            gain: 0.0,
            p_min: Pascal::from_kilopascals(10.0),
            p_max: Pascal::from_kilopascals(10.0),
        };
        let samples = simulate_adaptive_flow(&bench, &net, &trace, &clamped, &opts).unwrap();
        assert_eq!(samples.len(), 11);
        for s in &samples[..10] {
            assert!((s.interval_s - 0.010).abs() < 1e-12, "{s:?}");
        }
        let last = samples.last().unwrap();
        assert!(
            (last.interval_s - 0.005).abs() < 1e-12,
            "final interval simulated {} s, want the 0.005 s remainder \
             (pre-fix behavior: a full 0.010 s)",
            last.interval_s
        );
        // Total simulated time and charged energy match the trace.
        let simulated: f64 = samples.iter().map(|s| s.interval_s).sum();
        assert!((simulated - 0.105).abs() < 1e-12);
        let w = samples[0].w_pump.value();
        let energy = pumping_energy(&samples);
        assert!(
            (energy - w * 0.105).abs() < 1e-9 * w.max(1.0),
            "energy {energy} != w_pump x duration {}",
            w * 0.105
        );
    }

    #[test]
    fn clamped_controller_reuses_the_integrator() {
        // A controller clamped to a single pressure must build the
        // transient integrator once for the whole trace, not once per
        // control step — verified via the runtime.integrator_rebuilds
        // counter. Sample timestamps must stamp the interval *start*.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.1, 1.0)]);
        let opts = RuntimeOptions {
            dt: 1e-3,
            control_interval: 10,
            p_initial: Pascal::from_kilopascals(10.0),
            ..RuntimeOptions::default()
        };
        let clamped = FlowController {
            target: Kelvin::new(320.0),
            gain: 0.0,
            p_min: Pascal::from_kilopascals(10.0),
            p_max: Pascal::from_kilopascals(10.0),
        };
        let before = coolnet_obs::snapshot();
        let samples = simulate_adaptive_flow(&bench, &net, &trace, &clamped, &opts).unwrap();
        let after = coolnet_obs::snapshot();

        // Exact-ratio trace: exactly 10 intervals, no spurious 11th.
        assert_eq!(samples.len(), 10);
        let rebuilds = after.counter_delta(&before, "runtime.integrator_rebuilds");
        assert!(rebuilds <= 2, "clamped run rebuilt {rebuilds} times");
        assert_eq!(rebuilds, 1);
        assert_eq!(after.counter_delta(&before, "runtime.control_steps"), 10);
        assert_eq!(after.counter_delta(&before, "runtime.runs"), 1);

        // Interval-start timestamps: first sample at t = 0, fixed spacing.
        let interval = opts.dt * opts.control_interval as f64;
        for (i, s) in samples.iter().enumerate() {
            assert!((s.time - i as f64 * interval).abs() < 1e-12, "{s:?}");
            assert_eq!(s.power_scale, 1.0);
        }
    }

    #[test]
    fn moving_controller_rebuilds_once_per_pressure_change() {
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let trace = PowerTrace::new(vec![(0.05, 1.0)]);
        let opts = RuntimeOptions {
            dt: 1e-3,
            control_interval: 10,
            p_initial: Pascal::from_kilopascals(5.0),
            ..RuntimeOptions::default()
        };
        // Unreachable setpoint with a live gain: the pressure moves every
        // step until it clamps at p_max.
        let hot = FlowController {
            target: Kelvin::new(300.5),
            gain: 2000.0,
            p_min: Pascal::from_kilopascals(0.5),
            p_max: Pascal::from_kilopascals(60.0),
        };
        let before = coolnet_obs::snapshot();
        let samples = simulate_adaptive_flow(&bench, &net, &trace, &hot, &opts).unwrap();
        let after = coolnet_obs::snapshot();
        let changes = samples
            .windows(2)
            .filter(|w| w[0].p_sys != w[1].p_sys)
            .count() as u64;
        let rebuilds = after.counter_delta(&before, "runtime.integrator_rebuilds");
        assert_eq!(rebuilds, 1 + changes, "{samples:#?}");
    }
}
