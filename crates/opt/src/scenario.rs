//! Dynamic-scenario engine: declarative timed-event schedules driven
//! through the transient thermal plant under closed-loop flow control —
//! the paper's future-work direction ("combining cooling networks with
//! run-time thermal management techniques (e.g., DVFS and adjustable flow
//! rates) to handle dynamic die power", §7).
//!
//! A proportional [`FlowController`] adjusts the pump pressure at every
//! control-interval boundary to hold `T_max` at a setpoint, spending
//! pumping energy only when the workload requires it. What the workload
//! and the plant do is a list of timed [`ScenarioEvent`]s: global DVFS
//! steps ([`EventAction::PowerScale`]), a hotspot that *moves* (thread
//! migration, core sleep/boost), a pump that *fails* and recovers, a
//! coolant supply that *drifts*. A [`ScenarioSpec`] captures such a study
//! declaratively — a name, a duration, a controller and the events — and
//! is serde-round-trippable, so a scenario can live in a JSON file next to
//! the benchmark it stresses.
//!
//! [`run_scenario`] executes a spec against one cooling system and
//! returns a scored [`ScenarioTrace`]: per control interval, `T_max`, the
//! §3 gradient `ΔT`, the pumping power, and the per-die
//! max-spatial-gradient thermal-stress proxy
//! ([`ThermalSolution::stress_proxy`]). The plant is the transient 2RM or
//! 4RM simulator, and one integrator serves the whole run. A pressure
//! change rescales the advection operator in place on its cached pattern
//! and refactors the preconditioner ([`Transient::set_pressure`]); the
//! field and its time-level history carry on. When the controller holds
//! the pressure (e.g. clamped at a bound) nothing is refreshed. Events act
//! on the live integrator when they fire: power-scale, power-map and
//! inlet-temperature events are cheap RHS refreshes
//! ([`Transient::set_power_map`], [`Transient::set_inlet_temperature`]).
//!
//! Everything is deterministic: no clocks, no RNG, and every solve runs
//! on the calling thread. A spec replayed with the same thermal
//! configuration produces a bit-identical trace (compare
//! [`ScenarioTrace::fingerprint`]), independent of the host (see
//! `tests/scenario_determinism.rs`).
//!
//! [`Transient::set_pressure`]: coolnet_thermal::transient::Transient::set_pressure
//! [`Transient::set_power_map`]: coolnet_thermal::transient::Transient::set_power_map
//! [`Transient::set_inlet_temperature`]: coolnet_thermal::transient::Transient::set_inlet_temperature
//! [`ThermalSolution::stress_proxy`]: coolnet_thermal::ThermalSolution::stress_proxy

use crate::evaluate::ModelChoice;
use coolnet_cases::{floorplan, Benchmark};
use coolnet_grid::GridDims;
use coolnet_network::CoolingNetwork;
use coolnet_obs::LazyCounter;
use coolnet_thermal::{PowerMap, Simulator, ThermalConfig, ThermalError};
use coolnet_units::{Kelvin, Pascal, Watt};
use serde::{Deserialize, Serialize};

/// Completed or attempted [`run_scenario`] calls.
static M_RUNS: LazyCounter = LazyCounter::new("scenario.runs");
/// Events applied at control boundaries (over all runs).
static M_EVENTS: LazyCounter = LazyCounter::new("scenario.events_applied");
/// Control intervals simulated under a forced-pressure episode.
static M_FORCED: LazyCounter = LazyCounter::new("scenario.forced_intervals");
/// Transient-integrator operator set-ups: the one build per run plus one
/// in-place pressure refresh (values, `C/dt` diagonal, ILU(0) refactor)
/// per pressure change; a clamped-pressure run counts one, not one per
/// interval.
static M_INTEGRATOR_REBUILDS: LazyCounter = LazyCounter::new("scenario.integrator_rebuilds");

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

/// What a [`ScenarioEvent`] does when it fires.
///
/// Serialized externally tagged (`{"PowerScale": {"scale": 0.2}}`), the
/// only enum representation the vendored serde derive supports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventAction {
    /// Scale all die power by `scale` (global DVFS step).
    PowerScale {
        /// Multiplier on the nominal power maps; finite and non-negative.
        scale: f64,
    },
    /// Replace the power map of one die — hotspot migration or per-block
    /// sleep/boost. A cheap RHS refresh; the operator is untouched.
    PowerMap {
        /// 0-based die (source-layer) index, bottom die first.
        die: usize,
        /// The new map; must match the benchmark's grid dimensions.
        map: PowerMap,
    },
    /// Start a forced-pressure episode: the pump is pinned at `p_sys`
    /// regardless of the controller (failure to a degraded head, or a
    /// commanded operating point). Lasts until [`ReleasePressure`].
    ///
    /// [`ReleasePressure`]: EventAction::ReleasePressure
    ForcePressure {
        /// The pinned pressure; positive.
        p_sys: Pascal,
    },
    /// End a forced-pressure episode (pump recovery): the controller
    /// resumes bumplessly from the forced pressure.
    ReleasePressure,
    /// Move the coolant inlet temperature (chiller setpoint drift,
    /// warm-water-cooling episode). A cheap RHS refresh.
    InletTemperature {
        /// The new supply temperature; finite and positive.
        t_inlet: Kelvin,
    },
}

/// One timed event of a [`ScenarioSpec`].
///
/// Events take effect at the first control-interval boundary at or after
/// `at` — the control loop is the scenario's time quantum, exactly as it
/// would be on a real power-management unit. Events that share a boundary
/// apply in spec order. An event whose next boundary is the end of the
/// trace never fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// Scenario time in seconds at which the event is requested.
    pub at: f64,
    /// What happens.
    pub action: EventAction,
}

/// A declarative dynamic scenario: workload and plant events over a fixed
/// horizon, under closed-loop flow control.
///
/// The spec deliberately excludes the numerical substrate
/// ([`ThermalConfig`]: advection scheme, solver tolerance, baseline
/// inlet temperature) — that is [`run_scenario`]'s parameter, so the *same*
/// serialized scenario can be replayed under different solver settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (artifact key; `kebab-case` by convention).
    pub name: String,
    /// Horizon in seconds.
    pub duration: f64,
    /// Integrator time step in seconds.
    pub dt: f64,
    /// Integrator steps per control interval.
    pub control_interval: usize,
    /// Thermal model backing the plant.
    pub model: ModelChoice,
    /// The closed-loop pump controller.
    pub controller: FlowController,
    /// Pump pressure before the first control action.
    pub p_initial: Pascal,
    /// Timed events; need not be sorted.
    pub events: Vec<ScenarioEvent>,
}

impl ScenarioSpec {
    /// Validates the spec without running it.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for the first problem found:
    /// non-positive or non-finite times, an empty horizon, a controller
    /// with inverted or non-positive pressure bounds, or an event with an
    /// out-of-range time or an invalid payload. Die indices and map
    /// dimensions are checked against the actual stack at run time.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.duration.is_finite() && self.duration > 0.0) {
            return Err(format!(
                "duration {} must be finite and positive",
                self.duration
            ));
        }
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(format!("dt {} must be finite and positive", self.dt));
        }
        if self.control_interval == 0 {
            return Err("control_interval must be at least 1".to_owned());
        }
        if !(self.p_initial.value().is_finite() && self.p_initial.value() > 0.0) {
            return Err(format!(
                "p_initial {} Pa must be finite and positive",
                self.p_initial.value()
            ));
        }
        let c = &self.controller;
        if !(c.gain.is_finite() && c.gain >= 0.0) {
            return Err(format!(
                "controller gain {} must be finite and non-negative",
                c.gain
            ));
        }
        if !(c.p_min.value() > 0.0 && c.p_min.value() <= c.p_max.value()) {
            return Err(format!(
                "controller bounds [{}, {}] Pa must be positive and ordered",
                c.p_min.value(),
                c.p_max.value()
            ));
        }
        if !c.target.value().is_finite() {
            return Err("controller target must be finite".to_owned());
        }
        for (i, ev) in self.events.iter().enumerate() {
            if !(ev.at.is_finite() && (0.0..self.duration).contains(&ev.at)) {
                return Err(format!(
                    "event {i} at t = {} s is outside the [0, {}) s horizon",
                    ev.at, self.duration
                ));
            }
            match &ev.action {
                EventAction::PowerScale { scale } => {
                    if !(scale.is_finite() && *scale >= 0.0) {
                        return Err(format!(
                            "event {i}: power scale {scale} must be finite and non-negative"
                        ));
                    }
                }
                EventAction::PowerMap { map, .. } => {
                    if !map.total().value().is_finite() {
                        return Err(format!("event {i}: power map total must be finite"));
                    }
                }
                EventAction::ForcePressure { p_sys } => {
                    if !(p_sys.value().is_finite() && p_sys.value() > 0.0) {
                        return Err(format!(
                            "event {i}: forced pressure {} Pa must be finite and positive",
                            p_sys.value()
                        ));
                    }
                }
                EventAction::ReleasePressure => {}
                EventAction::InletTemperature { t_inlet } => {
                    if !(t_inlet.value().is_finite() && t_inlet.value() > 0.0) {
                        return Err(format!(
                            "event {i}: inlet temperature {} K must be finite and positive",
                            t_inlet.value()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The preset controller shared by the preset library: a proportional
    /// loop holding `T_max` near 312 K within a 0.5–30 kPa pump envelope.
    pub fn preset_controller() -> FlowController {
        FlowController {
            target: Kelvin::new(312.0),
            gain: 600.0,
            p_min: Pascal::from_kilopascals(0.5),
            p_max: Pascal::from_kilopascals(30.0),
        }
    }

    fn preset(name: &str, duration: f64, events: Vec<ScenarioEvent>) -> Self {
        Self {
            name: name.to_owned(),
            duration,
            dt: 1e-3,
            control_interval: 10,
            model: ModelChoice::fast(),
            controller: Self::preset_controller(),
            p_initial: Pascal::from_kilopascals(10.0),
            events,
        }
    }

    /// Preset: a DVFS square wave — four phases of `period` seconds
    /// alternating `high` and `low` global power scale.
    pub fn dvfs_square(period: f64, high: f64, low: f64) -> Self {
        let scale = |k: usize, s: f64| ScenarioEvent {
            at: period * k as f64,
            action: EventAction::PowerScale { scale: s },
        };
        Self::preset(
            "dvfs-square",
            4.0 * period,
            vec![scale(0, high), scale(1, low), scale(2, high), scale(3, low)],
        )
    }

    /// Preset: hotspot migration — a fixed power budget hops clockwise
    /// through the four quadrants of die `die` at 50 ms intervals
    /// (thread migration chased by the flow controller). Maps come from
    /// [`floorplan::hotspot_quadrant`].
    pub fn hotspot_migration(dims: GridDims, die: usize, watts: f64) -> Self {
        let events = (0..4u8)
            .map(|q| ScenarioEvent {
                at: 0.05 * q as f64,
                action: EventAction::PowerMap {
                    die,
                    map: floorplan::hotspot_quadrant(dims, watts, q),
                },
            })
            .collect();
        Self::preset("hotspot-migration", 0.2, events)
    }

    /// Preset: pump failure and recovery — at 50 ms the pump degrades to
    /// a 1 kPa head regardless of the controller; at 100 ms it recovers
    /// and the controller resumes from the degraded pressure.
    pub fn pump_failure_recovery() -> Self {
        Self::preset(
            "pump-failure-recovery",
            0.15,
            vec![
                ScenarioEvent {
                    at: 0.05,
                    action: EventAction::ForcePressure {
                        p_sys: Pascal::from_kilopascals(1.0),
                    },
                },
                ScenarioEvent {
                    at: 0.10,
                    action: EventAction::ReleasePressure,
                },
            ],
        )
    }

    /// Preset: coolant inlet excursion — the supply warms by `delta_k`
    /// kelvin at 50 ms (chiller drift) and returns to `t_base` at 100 ms.
    pub fn inlet_excursion(t_base: Kelvin, delta_k: f64) -> Self {
        Self::preset(
            "inlet-excursion",
            0.15,
            vec![
                ScenarioEvent {
                    at: 0.05,
                    action: EventAction::InletTemperature {
                        t_inlet: Kelvin::new(t_base.value() + delta_k),
                    },
                },
                ScenarioEvent {
                    at: 0.10,
                    action: EventAction::InletTemperature { t_inlet: t_base },
                },
            ],
        )
    }

    /// Preset: everything at once — a migrating hotspot, a DVFS boost, a
    /// pump failure/recovery episode and an inlet excursion over 0.2 s.
    /// Five event kinds; the end-to-end acceptance scenario of the engine.
    pub fn stress_combo(dims: GridDims, die: usize, watts: f64) -> Self {
        let quadrant = |at: f64, q: u8| ScenarioEvent {
            at,
            action: EventAction::PowerMap {
                die,
                map: floorplan::hotspot_quadrant(dims, watts, q),
            },
        };
        Self::preset(
            "stress-combo",
            0.2,
            vec![
                quadrant(0.0, 0),
                ScenarioEvent {
                    at: 0.02,
                    action: EventAction::PowerScale { scale: 1.3 },
                },
                ScenarioEvent {
                    at: 0.05,
                    action: EventAction::ForcePressure {
                        p_sys: Pascal::from_kilopascals(1.5),
                    },
                },
                quadrant(0.08, 2),
                ScenarioEvent {
                    at: 0.10,
                    action: EventAction::ReleasePressure,
                },
                ScenarioEvent {
                    at: 0.12,
                    action: EventAction::InletTemperature {
                        t_inlet: Kelvin::new(308.0),
                    },
                },
                ScenarioEvent {
                    at: 0.16,
                    action: EventAction::InletTemperature {
                        t_inlet: Kelvin::new(300.0),
                    },
                },
                ScenarioEvent {
                    at: 0.16,
                    action: EventAction::PowerScale { scale: 0.7 },
                },
            ],
        )
    }

    /// The full preset library for a die of `dims` cells dissipating
    /// `die_watts` on die 0 — the scenarios `scenario_bench` scores.
    pub fn presets(dims: GridDims, die_watts: f64) -> Vec<Self> {
        vec![
            Self::dvfs_square(0.05, 1.0, 0.2),
            Self::hotspot_migration(dims, 0, die_watts),
            Self::pump_failure_recovery(),
            Self::inlet_excursion(Kelvin::new(300.0), 8.0),
            Self::stress_combo(dims, 0, die_watts),
        ]
    }
}

/// One control interval of a [`ScenarioTrace`]. Interval-scoped fields
/// (`time`, `power_scale`, `p_sys`, `forced`, `t_inlet`, `w_pump`) hold
/// at the interval *start*; the thermal fields (`t_max`, `delta_t`,
/// `stress`) are measured at its end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioInterval {
    /// Scenario time in seconds at the start of the interval.
    pub time: f64,
    /// Actual simulated length in seconds (the final interval of a
    /// non-exact-ratio horizon is clamped to the remainder).
    pub interval_s: f64,
    /// Global die-power scale active during the interval.
    pub power_scale: f64,
    /// Pump pressure during the interval.
    pub p_sys: Pascal,
    /// Whether a forced-pressure episode overrode the controller.
    pub forced: bool,
    /// Coolant inlet temperature during the interval.
    pub t_inlet: Kelvin,
    /// Peak temperature at the end of the interval.
    pub t_max: Kelvin,
    /// §3 thermal gradient `ΔT` at the end of the interval.
    pub delta_t: Kelvin,
    /// Pumping power during the interval.
    pub w_pump: Watt,
    /// Per-die thermal-stress proxy at the end of the interval: the
    /// max-spatial-gradient of each source layer, bottom die first.
    pub stress: Vec<Kelvin>,
}

/// The scored result of [`run_scenario`]: one [`ScenarioInterval`] per
/// control interval, plus summary accessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTrace {
    /// The spec's name.
    pub name: String,
    /// Per-interval samples, in time order.
    pub intervals: Vec<ScenarioInterval>,
}

impl ScenarioTrace {
    /// Peak `T_max` over the whole trace.
    pub fn peak_t_max(&self) -> Kelvin {
        Kelvin::new(
            self.intervals
                .iter()
                .map(|s| s.t_max.value())
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Worst §3 gradient `ΔT` over the whole trace.
    pub fn peak_gradient(&self) -> Kelvin {
        Kelvin::new(
            self.intervals
                .iter()
                .map(|s| s.delta_t.value())
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Worst per-die thermal-stress proxy over all dies and intervals.
    pub fn peak_stress(&self) -> Kelvin {
        Kelvin::new(
            self.intervals
                .iter()
                .flat_map(|s| s.stress.iter().map(|k| k.value()))
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Total pumping energy in joules: piecewise-constant pumping power
    /// over each interval's actual simulated length.
    pub fn pumping_energy(&self) -> f64 {
        self.intervals
            .iter()
            .map(|s| s.w_pump.value() * s.interval_s)
            .sum()
    }

    /// An order-sensitive FNV-1a digest of every numeric field's IEEE-754
    /// bit pattern (plus the `forced` flags). Two traces are bit-identical
    /// iff their fingerprints match — the replay-contract check used by
    /// `scenario_bench` and the determinism suite, cheap enough to store
    /// in an artifact.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: &mut u64, bits: u64) {
            for b in bits.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in &self.intervals {
            eat(&mut h, s.time.to_bits());
            eat(&mut h, s.interval_s.to_bits());
            eat(&mut h, s.power_scale.to_bits());
            eat(&mut h, s.p_sys.value().to_bits());
            eat(&mut h, u64::from(s.forced));
            eat(&mut h, s.t_inlet.value().to_bits());
            eat(&mut h, s.t_max.value().to_bits());
            eat(&mut h, s.delta_t.value().to_bits());
            eat(&mut h, s.w_pump.value().to_bits());
            for k in &s.stress {
                eat(&mut h, k.value().to_bits());
            }
        }
        h
    }
}

/// A scenario failure.
#[derive(Debug)]
pub enum ScenarioError {
    /// The spec failed [`ScenarioSpec::validate`]; nothing ran.
    Spec {
        /// What is wrong with the spec.
        reason: String,
    },
    /// The simulation failed mid-trace.
    Run {
        /// Control step at which the run failed (0-based).
        step: usize,
        /// Scenario time in seconds at the start of the failing interval.
        time: f64,
        /// Pump pressure active when the failure occurred.
        p_sys: Pascal,
        /// Intervals completed before the fault.
        intervals: Vec<ScenarioInterval>,
        /// The underlying thermal failure.
        source: ThermalError,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Spec { reason } => write!(f, "invalid scenario spec: {reason}"),
            ScenarioError::Run {
                step,
                time,
                p_sys,
                intervals,
                source,
            } => write!(
                f,
                "scenario failed at control step {step} (t = {time:.6} s, P_sys = {:.1} Pa, \
                 {} intervals completed): {source}",
                p_sys.value(),
                intervals.len()
            ),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Spec { .. } => None,
            ScenarioError::Run { source, .. } => Some(source),
        }
    }
}

/// Number of integrator steps covering `duration`.
///
/// The naive `(duration / dt).ceil()` is float-sensitive: an exact-ratio
/// horizon like `duration = 0.1, dt = 1e-3` evaluates to
/// `100.00000000000001` and would simulate a spurious extra step. Ratios
/// within a relative epsilon of an integer snap to `round()`; genuine
/// partial steps still `ceil()`.
fn sim_steps(duration: f64, dt: f64) -> usize {
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
/// partial; the run loop clamps it to the horizon remainder).
fn control_steps(duration: f64, dt: f64, control_interval: usize) -> usize {
    sim_steps(duration, dt).div_ceil(control_interval)
}

/// Executes `spec` against one cooling system under the numerical
/// substrate `thermal` (advection scheme, solver tolerance and the
/// baseline inlet temperature events move away from).
///
/// Deterministic by construction: the trace depends only on
/// `(bench, network, spec, thermal)` — never on the host, wall clock or
/// thread scheduling, since every solve runs serially on the calling
/// thread — so a replay is bit-identical (see
/// `tests/scenario_determinism.rs`).
///
/// # Errors
///
/// [`ScenarioError::Spec`] if the spec fails validation;
/// [`ScenarioError::Run`] (carrying the completed intervals) if stack
/// building, an event application or a solve fails mid-trace.
pub fn run_scenario(
    bench: &Benchmark,
    network: &CoolingNetwork,
    spec: &ScenarioSpec,
    thermal: &ThermalConfig,
) -> Result<ScenarioTrace, ScenarioError> {
    spec.validate()
        .map_err(|reason| ScenarioError::Spec { reason })?;

    // Context for wrapping a mid-trace failure without losing the
    // completed intervals.
    struct Ctx {
        step: usize,
        time: f64,
        p: Pascal,
        intervals: Vec<ScenarioInterval>,
    }
    let fail = |ctx: Ctx, source: ThermalError| ScenarioError::Run {
        step: ctx.step,
        time: ctx.time,
        p_sys: ctx.p,
        intervals: ctx.intervals,
        source,
    };
    let mut ctx = Ctx {
        step: 0,
        time: 0.0,
        p: spec.p_initial,
        intervals: Vec::new(),
    };

    let stack = match bench.stack_with(std::slice::from_ref(network)) {
        Ok(s) => s,
        Err(e) => return Err(fail(ctx, e)),
    };
    let plant = match Simulator::new(&stack, spec.model, thermal) {
        Ok(p) => p,
        Err(e) => return Err(fail(ctx, e)),
    };
    // The plant already solved the network's hydraulics; the trace's
    // `w_pump` reads the first channel layer's model.
    let Some((_, flow)) = plant.layer_flows().iter().next() else {
        let reason = "stack has no channel layer".to_owned();
        return Err(fail(ctx, ThermalError::BadStack { reason }));
    };

    M_RUNS.inc();

    // Events in time order; ties keep spec order (stable sort).
    let mut events: Vec<&ScenarioEvent> = spec.events.iter().collect();
    events.sort_by(|a, b| a.at.total_cmp(&b.at));
    let mut next_event = 0usize;

    let mut forced: Option<Pascal> = None;
    let mut p_cmd = spec.p_initial;

    let total_sim_steps = sim_steps(spec.duration, spec.dt);
    let steps_total = control_steps(spec.duration, spec.dt, spec.control_interval);
    let mut steps_done = 0usize;

    // One integrator for the whole run, built at `p_initial`; a t = 0
    // forced-pressure event refreshes it before any step runs.
    M_INTEGRATOR_REBUILDS.inc();
    let mut tr = match plant.transient(spec.p_initial, spec.dt, None) {
        Ok(t) => t,
        Err(e) => return Err(fail(ctx, e)),
    };

    for step in 0..steps_total {
        ctx.step = step;
        let t_start = ctx.time;

        // Fire every event whose requested time is at or before this
        // boundary (within a relative epsilon absorbing the accumulation
        // error of summing interval lengths).
        let eps = 1e-9 * t_start.max(1.0);
        while next_event < events.len() && events[next_event].at <= t_start + eps {
            match &events[next_event].action {
                EventAction::PowerScale { scale } => tr.set_power_scale(*scale),
                EventAction::PowerMap { die, map } => {
                    if let Err(e) = tr.set_power_map(*die, map) {
                        return Err(fail(ctx, e));
                    }
                }
                EventAction::ForcePressure { p_sys } => forced = Some(*p_sys),
                EventAction::ReleasePressure => {
                    // Bumpless transfer: the controller resumes from the
                    // pressure the plant actually ran at.
                    if let Some(p) = forced.take() {
                        p_cmd = p;
                    }
                }
                EventAction::InletTemperature { t_inlet } => tr.set_inlet_temperature(*t_inlet),
            }
            next_event += 1;
            M_EVENTS.inc();
        }

        let p = forced.unwrap_or(p_cmd);
        ctx.p = p;
        if forced.is_some() {
            M_FORCED.inc();
        }

        if tr.pressure() != p {
            M_INTEGRATOR_REBUILDS.inc();
            if let Err(e) = tr.set_pressure(p) {
                return Err(fail(ctx, e));
            }
        }

        // The final interval of a non-exact-ratio horizon is clamped to
        // the remainder: a 0.105 s horizon simulates 105 steps, not 110.
        let steps_this = spec.control_interval.min(total_sim_steps - steps_done);
        if let Err(e) = tr.run(steps_this) {
            return Err(fail(ctx, e));
        }
        steps_done += steps_this;
        let interval_s = spec.dt * steps_this as f64;
        ctx.time = t_start + interval_s;

        let snap = tr.snapshot();
        let t_max = snap.max_temperature();
        ctx.intervals.push(ScenarioInterval {
            time: t_start,
            interval_s,
            power_scale: tr.power_scale(),
            p_sys: p,
            forced: forced.is_some(),
            t_inlet: tr.inlet_temperature(),
            t_max,
            delta_t: snap.gradient(),
            w_pump: flow.pumping_power(p),
            stress: snap.stress_proxy(),
        });
        p_cmd = spec.controller.update(p, t_max);
    }

    Ok(ScenarioTrace {
        name: spec.name.clone(),
        intervals: ctx.intervals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::{tsv, Dir};
    use coolnet_network::builders::straight::{self, StraightParams};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes scenario runs: the counters are process-global.
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

    fn quick(events: Vec<ScenarioEvent>) -> ScenarioSpec {
        ScenarioSpec {
            name: "test".to_owned(),
            duration: 0.06,
            dt: 1e-3,
            control_interval: 10,
            model: ModelChoice::fast(),
            controller: ScenarioSpec::preset_controller(),
            p_initial: Pascal::from_kilopascals(10.0),
            events,
        }
    }

    #[test]
    fn spec_round_trips_through_serde_with_every_event_kind() {
        let (bench, _) = setup();
        let mut spec = ScenarioSpec::stress_combo(bench.dims, 0, 6.0);
        spec.events.push(ScenarioEvent {
            at: 0.01,
            action: EventAction::PowerScale { scale: 0.5 },
        });
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // The combo preset exercises all five event kinds.
        let kinds: std::collections::BTreeSet<_> = spec
            .events
            .iter()
            .map(|e| match e.action {
                EventAction::PowerScale { .. } => "scale",
                EventAction::PowerMap { .. } => "map",
                EventAction::ForcePressure { .. } => "force",
                EventAction::ReleasePressure => "release",
                EventAction::InletTemperature { .. } => "inlet",
            })
            .collect();
        assert_eq!(kinds.len(), 5);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let ok = quick(vec![]);
        assert!(ok.validate().is_ok());

        let mut bad = ok.clone();
        bad.duration = 0.0;
        assert!(bad.validate().is_err());

        let mut bad = ok.clone();
        bad.control_interval = 0;
        assert!(bad.validate().is_err());

        let mut bad = ok.clone();
        bad.controller.p_min = Pascal::from_kilopascals(40.0); // > p_max
        assert!(bad.validate().is_err());

        // Event at/after the end of the horizon.
        let bad = quick(vec![ScenarioEvent {
            at: 0.06,
            action: EventAction::ReleasePressure,
        }]);
        assert!(bad.validate().is_err());

        let bad = quick(vec![ScenarioEvent {
            at: 0.01,
            action: EventAction::PowerScale { scale: -1.0 },
        }]);
        assert!(bad.validate().is_err());

        let bad = quick(vec![ScenarioEvent {
            at: 0.01,
            action: EventAction::ForcePressure {
                p_sys: Pascal::new(0.0),
            },
        }]);
        assert!(matches!(
            run_scenario(&setup().0, &setup().1, &bad, &ThermalConfig::default()),
            Err(ScenarioError::Spec { .. })
        ));
    }

    #[test]
    fn events_fire_at_the_next_control_boundary() {
        // An event requested mid-interval (t = 0.025, boundaries every
        // 0.010 s) must take effect at the 0.030 s boundary, not before.
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let spec = quick(vec![ScenarioEvent {
            at: 0.025,
            action: EventAction::PowerScale { scale: 0.2 },
        }]);
        let trace = run_scenario(&bench, &net, &spec, &ThermalConfig::default()).unwrap();
        assert_eq!(trace.intervals.len(), 6);
        for s in &trace.intervals[..3] {
            assert_eq!(s.power_scale, 1.0, "{s:?}");
        }
        for s in &trace.intervals[3..] {
            assert_eq!(s.power_scale, 0.2, "{s:?}");
        }
    }

    #[test]
    fn forced_pressure_overrides_and_releases_bumplessly() {
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let mut spec = quick(vec![
            ScenarioEvent {
                at: 0.02,
                action: EventAction::ForcePressure {
                    p_sys: Pascal::from_kilopascals(1.0),
                },
            },
            ScenarioEvent {
                at: 0.04,
                action: EventAction::ReleasePressure,
            },
        ]);
        // A dead controller isolates the episode logic: without events the
        // pressure would sit at p_initial forever.
        spec.controller.gain = 0.0;
        spec.controller.p_min = Pascal::from_kilopascals(0.5);
        spec.controller.p_max = Pascal::from_kilopascals(30.0);
        let before = coolnet_obs::snapshot();
        let trace = run_scenario(&bench, &net, &spec, &ThermalConfig::default()).unwrap();
        let after = coolnet_obs::snapshot();
        let p = |i: usize| trace.intervals[i].p_sys.to_kilopascals();
        assert_eq!(p(0), 10.0);
        assert_eq!(p(1), 10.0);
        assert_eq!(p(2), 1.0);
        assert_eq!(p(3), 1.0);
        assert!(trace.intervals[2].forced && trace.intervals[3].forced);
        // Bumpless release: the dead controller holds the pressure it
        // inherited from the episode, not the pre-failure 10 kPa.
        assert_eq!(p(4), 1.0);
        assert!(!trace.intervals[4].forced);
        assert!(after.counter_delta(&before, "scenario.forced_intervals") >= 2);
        assert!(after.counter_delta(&before, "scenario.events_applied") >= 2);
        assert!(after.counter_delta(&before, "scenario.runs") >= 1);
    }

    #[test]
    fn inlet_excursion_is_visible_in_the_trace() {
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let spec = quick(vec![ScenarioEvent {
            at: 0.03,
            action: EventAction::InletTemperature {
                t_inlet: Kelvin::new(308.0),
            },
        }]);
        let trace = run_scenario(&bench, &net, &spec, &ThermalConfig::default()).unwrap();
        assert_eq!(trace.intervals[0].t_inlet.value(), 300.0);
        assert_eq!(trace.intervals[5].t_inlet.value(), 308.0);
        // A warmer supply must warm the die beyond the event-free run.
        let base = run_scenario(&bench, &net, &quick(vec![]), &ThermalConfig::default()).unwrap();
        let last = trace.intervals.last().unwrap().t_max.value();
        let last_base = base.intervals.last().unwrap().t_max.value();
        assert!(
            last > last_base + 1.0,
            "excursion {last} K vs baseline {last_base} K"
        );
    }

    #[test]
    fn combo_preset_runs_end_to_end_with_finite_scores() {
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let spec = ScenarioSpec::stress_combo(bench.dims, 0, bench.power_maps[0].total().value());
        let trace = run_scenario(&bench, &net, &spec, &ThermalConfig::default()).unwrap();
        assert_eq!(trace.intervals.len(), 20);
        assert!(trace.peak_t_max().value().is_finite());
        assert!(trace.peak_gradient().value() > 0.0);
        assert!(trace.peak_stress().value() > 0.0);
        assert!(trace.pumping_energy() > 0.0);
        // Stress proxy is per-die and bounded by the layer range, which
        // is itself bounded by the global ΔT definition's per-layer max.
        for s in &trace.intervals {
            assert_eq!(s.stress.len(), bench.num_dies);
            for k in &s.stress {
                assert!(k.value() >= 0.0 && k.value() <= s.delta_t.value() + 1e-12);
            }
        }
        // The forced episode pins the recorded pressure.
        let forced: Vec<_> = trace.intervals.iter().filter(|s| s.forced).collect();
        assert!(!forced.is_empty());
        for s in &forced {
            assert_eq!(s.p_sys.to_kilopascals(), 1.5);
        }
    }

    #[test]
    fn replaying_a_spec_is_bit_identical() {
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let spec = ScenarioSpec::stress_combo(bench.dims, 0, 6.0);
        let thermal = ThermalConfig::default();
        let a = run_scenario(&bench, &net, &spec, &thermal).unwrap();
        let b = run_scenario(&bench, &net, &spec, &thermal).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        // And the fingerprint is sensitive to the trace content.
        let mut c = a.clone();
        c.intervals[0].t_max = Kelvin::new(c.intervals[0].t_max.value() + 1e-12);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn out_of_range_die_fails_with_run_error_carrying_progress() {
        let _guard = metrics_lock();
        let (bench, net) = setup();
        let spec = quick(vec![ScenarioEvent {
            at: 0.02,
            action: EventAction::PowerMap {
                die: 7,
                map: PowerMap::uniform(bench.dims, 5.0),
            },
        }]);
        match run_scenario(&bench, &net, &spec, &ThermalConfig::default()) {
            Err(ScenarioError::Run {
                step, intervals, ..
            }) => {
                assert_eq!(step, 2);
                assert_eq!(intervals.len(), 2);
            }
            other => panic!("want Run error, got {other:?}"),
        }
    }

    /// A closed-loop spec with no events: `duration` seconds at nominal
    /// power, 1 ms steps, control every 10 steps, starting at `p_kpa`.
    fn closed_loop(duration: f64, p_kpa: f64, controller: FlowController) -> ScenarioSpec {
        ScenarioSpec {
            duration,
            controller,
            p_initial: Pascal::from_kilopascals(p_kpa),
            ..quick(vec![])
        }
    }

    /// A controller with zero gain pinned at `kpa`.
    fn pinned(kpa: f64) -> FlowController {
        FlowController {
            target: Kelvin::new(320.0),
            gain: 0.0,
            p_min: Pascal::from_kilopascals(kpa),
            p_max: Pascal::from_kilopascals(kpa),
        }
    }

    fn run(spec: &ScenarioSpec) -> ScenarioTrace {
        let (bench, net) = setup();
        run_scenario(&bench, &net, spec, &ThermalConfig::default()).unwrap()
    }

    #[test]
    fn trace_lookup_is_piecewise_constant() {
        // Phases switch on time: the boundaries 0.1 and 0.15 s are reached
        // by summing 10 ms intervals (0.09999999999999999, 0.15) and must
        // still fire phases 3 and 4 on intervals 10 and 15, not one late.
        let _guard = metrics_lock();
        let trace = run(&ScenarioSpec::dvfs_square(0.05, 1.0, 0.2));
        assert_eq!(trace.intervals.len(), 20);
        for (i, s) in trace.intervals.iter().enumerate() {
            let want = if (i / 5) % 2 == 0 { 1.0 } else { 0.2 };
            assert_eq!(s.power_scale, want, "interval {i}: {s:?}");
        }
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
        let run_at = |target: f64| {
            let controller = FlowController {
                target: Kelvin::new(target),
                gain: 2000.0,
                p_min: Pascal::from_kilopascals(0.5),
                p_max: Pascal::from_kilopascals(60.0),
            };
            run(&closed_loop(0.1, 5.0, controller)).intervals
        };
        // Always too hot relative to a 300.5 K target: pressure must rise.
        let hot = run_at(300.5);
        assert!(hot.last().unwrap().p_sys.value() > hot[0].p_sys.value());
        // Always cool vs a 390 K target: pressure must fall to idle.
        let cool = run_at(390.0);
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
        let high_low = |controller: FlowController| ScenarioSpec {
            events: vec![
                ScenarioEvent {
                    at: 0.0,
                    action: EventAction::PowerScale { scale: 1.0 },
                },
                ScenarioEvent {
                    at: 0.05,
                    action: EventAction::PowerScale { scale: 0.1 },
                },
            ],
            ..closed_loop(0.1, 10.0, controller)
        };
        let fixed = FlowController {
            target: Kelvin::new(310.0),
            ..pinned(10.0)
        };
        let adaptive = FlowController {
            target: Kelvin::new(310.0),
            gain: 800.0,
            p_min: Pascal::from_kilopascals(0.5),
            p_max: Pascal::from_kilopascals(10.0),
        };
        let e_fixed = run(&high_low(fixed)).pumping_energy();
        let e_adaptive = run(&high_low(adaptive)).pumping_energy();
        assert!(
            e_adaptive < e_fixed,
            "adaptive {e_adaptive} !< fixed {e_fixed}"
        );
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
        // Regression for the trace-end overrun: a 0.105 s horizon used to
        // simulate 11 full intervals = 0.110 s, and the pumping energy
        // charged a full 0.010 s for the 0.005 s remainder. The final
        // interval runs exactly the 5 remaining steps.
        let _guard = metrics_lock();
        let trace = run(&closed_loop(0.105, 10.0, pinned(10.0)));
        let intervals = &trace.intervals;
        assert_eq!(intervals.len(), 11);
        for s in &intervals[..10] {
            assert!((s.interval_s - 0.010).abs() < 1e-12, "{s:?}");
        }
        let last = intervals.last().unwrap();
        assert!(
            (last.interval_s - 0.005).abs() < 1e-12,
            "final interval simulated {} s, want the 0.005 s remainder \
             (pre-fix behavior: a full 0.010 s)",
            last.interval_s
        );
        // Total simulated time and charged energy match the horizon.
        let simulated: f64 = intervals.iter().map(|s| s.interval_s).sum();
        assert!((simulated - 0.105).abs() < 1e-12);
        let w = intervals[0].w_pump.value();
        let energy = trace.pumping_energy();
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
        // control interval — verified via the scenario.integrator_rebuilds
        // counter. Interval timestamps must stamp the interval *start*.
        let _guard = metrics_lock();
        let spec = closed_loop(0.1, 10.0, pinned(10.0));
        let before = coolnet_obs::snapshot();
        let trace = run(&spec);
        let after = coolnet_obs::snapshot();

        // Exact-ratio horizon: exactly 10 intervals, no spurious 11th.
        assert_eq!(trace.intervals.len(), 10);
        let rebuilds = after.counter_delta(&before, "scenario.integrator_rebuilds");
        assert!(rebuilds <= 2, "clamped run rebuilt {rebuilds} times");
        assert_eq!(rebuilds, 1);
        assert_eq!(after.counter_delta(&before, "scenario.runs"), 1);

        // Interval-start timestamps: first interval at t = 0, fixed spacing.
        let interval = spec.dt * spec.control_interval as f64;
        for (i, s) in trace.intervals.iter().enumerate() {
            assert!((s.time - i as f64 * interval).abs() < 1e-12, "{s:?}");
            assert_eq!(s.power_scale, 1.0);
        }
    }

    #[test]
    fn moving_controller_rebuilds_once_per_pressure_change() {
        let _guard = metrics_lock();
        // Unreachable setpoint with a live gain: the pressure moves every
        // interval until it clamps at p_max.
        let hot = FlowController {
            target: Kelvin::new(300.5),
            gain: 2000.0,
            p_min: Pascal::from_kilopascals(0.5),
            p_max: Pascal::from_kilopascals(60.0),
        };
        let before = coolnet_obs::snapshot();
        let trace = run(&closed_loop(0.05, 5.0, hot));
        let after = coolnet_obs::snapshot();
        let changes = trace
            .intervals
            .windows(2)
            .filter(|w| w[0].p_sys != w[1].p_sys)
            .count() as u64;
        let rebuilds = after.counter_delta(&before, "scenario.integrator_rebuilds");
        assert_eq!(rebuilds, 1 + changes, "{trace:#?}");
    }
}
