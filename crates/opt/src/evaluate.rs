//! Cooling-system evaluation: one network + one benchmark, any pressure.

use coolnet_cases::Benchmark;
use coolnet_flow::{FlowConfig, FlowModel};
use coolnet_network::CoolingNetwork;
use coolnet_obs::LazyCounter;
use coolnet_thermal::{FourRm, Stack, ThermalConfig, ThermalError, ThermalSolution, TwoRm};
use coolnet_units::{ChannelGeometry, Kelvin, Pascal, Watt};
use std::cell::RefCell;

/// Thermal profiles evaluated via [`Evaluator::profile`].
static M_PROFILES: LazyCounter = LazyCounter::new("eval.profiles");

/// Which thermal model backs an [`Evaluator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ModelChoice {
    /// The fast 2RM with `m × m`-cell coarsening (inner-loop searches).
    TwoRm {
        /// Coarsening factor.
        m: u16,
    },
    /// The accurate 4RM (final stages and reported results).
    FourRm,
}

impl ModelChoice {
    /// The paper's inner-loop choice: 400 µm thermal cells, i.e. `m = 4`
    /// on the 100 µm pitch.
    pub fn fast() -> Self {
        ModelChoice::TwoRm { m: 4 }
    }
}

/// The thermal profile of one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Peak temperature `T_max`.
    pub t_max: Kelvin,
    /// Thermal gradient `ΔT`.
    pub delta_t: Kelvin,
}

enum Sim {
    Two(TwoRm),
    Four(FourRm),
}

/// Evaluates one cooling system (benchmark + network) at arbitrary system
/// pressure drops.
///
/// Thermal assembly and the hydraulic solve happen once at construction;
/// each [`profile`](Evaluator::profile) call is a warm-started linear
/// solve. The evaluator also exposes the `W_pump ↔ P_sys` conversions of
/// Eq. (10).
pub struct Evaluator {
    sim: Sim,
    /// One hydraulic model per channel layer, in stack order.
    flows: Vec<FlowModel>,
    /// Total unit flow `Σ 1/R_layer` over every channel layer: the layers
    /// share the same system pressure drop, so pumping powers add.
    total_unit_flow: f64,
    /// Previous solution, used to warm-start the next solve.
    last: RefCell<Option<ThermalSolution>>,
    probes: RefCell<usize>,
    /// Coolant supply temperature (`T_in`): the physical floor for every
    /// steady-state temperature the simulator can legitimately report.
    t_inlet: Kelvin,
}

impl Evaluator {
    /// Builds the evaluator. The network is shared by every channel layer
    /// of the benchmark's stack (which is mandatory for matched-layer
    /// cases and the paper's design style elsewhere).
    ///
    /// # Errors
    ///
    /// Propagates stack-building, hydraulic and assembly failures.
    pub fn new(
        bench: &Benchmark,
        network: &CoolingNetwork,
        model: ModelChoice,
    ) -> Result<Self, ThermalError> {
        let stack = bench.stack_with(std::slice::from_ref(network))?;
        Self::from_stack(&stack, network, model)
    }

    /// Builds an evaluator for an explicit [`Stack`]. The pumping-power
    /// model is built from the stack's own channel layers — every layer
    /// contributes, since the layers are hydraulically parallel across the
    /// same system pressure drop. The `_network` argument is retained for
    /// API compatibility and no longer consulted.
    ///
    /// # Errors
    ///
    /// Propagates hydraulic and assembly failures.
    pub fn from_stack(
        stack: &Stack,
        _network: &CoolingNetwork,
        model: ModelChoice,
    ) -> Result<Self, ThermalError> {
        let config = ThermalConfig::default();
        let sim = match model {
            ModelChoice::TwoRm { m } => Sim::Two(TwoRm::new(stack, m, &config)?),
            ModelChoice::FourRm => Sim::Four(FourRm::new(stack, &config)?),
        };
        // Hydraulic models for W_pump: one per channel layer. A multi-die
        // stack has one channel layer per die; counting only the first
        // undercounts W_pump N× and makes pressure_for_power convert the
        // Problem-2 budget into a too-generous pressure cap.
        let mut flows = Vec::new();
        for &li in stack.channel_layer_indices().iter() {
            if let coolnet_thermal::LayerKind::Channel {
                network,
                flow,
                widths,
                ..
            } = &stack.layers()[li].kind
            {
                flows.push(FlowModel::with_widths(network, flow, widths.as_ref())?);
            }
        }
        if flows.is_empty() {
            return Err(ThermalError::BadStack {
                reason: "no channel layer".into(),
            });
        }
        let total_unit_flow = flows.iter().map(|f| 1.0 / f.system_resistance()).sum();
        Ok(Self {
            sim,
            flows,
            total_unit_flow,
            last: RefCell::new(None),
            probes: RefCell::new(0),
            t_inlet: config.t_inlet,
        })
    }

    /// The coolant supply temperature (`T_in`). By the maximum principle
    /// no steady-state die temperature can sit below it, so any peak
    /// limit at or under this value is infeasible without probing.
    pub fn inlet_temperature(&self) -> Kelvin {
        self.t_inlet
    }

    /// Convenience: the benchmark's flow configuration.
    pub fn flow_config_for(bench: &Benchmark) -> FlowConfig {
        FlowConfig {
            geometry: ChannelGeometry::new(bench.pitch, bench.channel_height, bench.pitch),
            ..FlowConfig::default()
        }
    }

    /// Thermal profile at `p_sys` (warm-started from the previous call).
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalError`] from the solve.
    pub fn profile(&self, p_sys: Pascal) -> Result<Profile, ThermalError> {
        let sol = self.solve(p_sys)?;
        let profile = Profile {
            t_max: sol.max_temperature(),
            delta_t: sol.gradient(),
        };
        *self.last.borrow_mut() = Some(sol);
        *self.probes.borrow_mut() += 1;
        M_PROFILES.inc();
        Ok(profile)
    }

    /// The full thermal solution at `p_sys` (for temperature maps).
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalError`] from the solve.
    pub fn solve(&self, p_sys: Pascal) -> Result<ThermalSolution, ThermalError> {
        // Non-positive pressure is an expected error path (ZeroFlow below);
        // only a non-finite value is a caller bug.
        debug_assert!(
            p_sys.value().is_finite(),
            "system pressure drop must be finite, got {p_sys}"
        );
        let guess = self.last.borrow();
        match (&self.sim, guess.as_ref()) {
            (Sim::Two(s), Some(g)) => s.simulate_with_guess(p_sys, g),
            (Sim::Two(s), None) => s.simulate(p_sys),
            (Sim::Four(s), Some(g)) => s.simulate_with_guess(p_sys, g),
            (Sim::Four(s), None) => s.simulate(p_sys),
        }
    }

    /// Pumping power at `p_sys`, summed over every channel layer
    /// (Eq. (10): `W_pump = P_sys² · Σ 1/R_layer`).
    pub fn w_pump(&self, p_sys: Pascal) -> Watt {
        Watt::new(p_sys.value() * p_sys.value() * self.total_unit_flow)
    }

    /// The pressure producing total pumping power `w` across all channel
    /// layers (inverse of Eq. (10)).
    pub fn pressure_for_power(&self, w: Watt) -> Pascal {
        Pascal::new((w.value() / self.total_unit_flow).sqrt())
    }

    /// System fluid resistance `R_sys` of the whole stack (channel layers
    /// in parallel).
    pub fn system_resistance(&self) -> f64 {
        1.0 / self.total_unit_flow
    }

    /// The per-channel-layer hydraulic models, in stack order.
    pub fn layer_flows(&self) -> &[FlowModel] {
        &self.flows
    }

    /// Number of thermal solves performed so far (diagnostics; the paper's
    /// speed argument is about keeping this small per network).
    pub fn probe_count(&self) -> usize {
        *self.probes.borrow()
    }

    /// Forgets all warm-start state (the previous thermal solution and the
    /// simulator's internal probe history), so the next
    /// [`profile`](Evaluator::profile) call behaves exactly like the first call on a
    /// freshly built evaluator.
    ///
    /// Evaluation-reuse layers call this before replaying a cached
    /// evaluator for a new logical evaluation: the solver's iterate
    /// sequence then matches a fresh build bit-for-bit, which is what
    /// makes caching behaviorally transparent. The probe counter is left
    /// untouched — it is a diagnostic over the evaluator's lifetime.
    pub fn reset_state(&self) {
        *self.last.borrow_mut() = None;
        match &self.sim {
            Sim::Two(s) => s.reset_probe_history(),
            Sim::Four(s) => s.reset_probe_history(),
        }
    }
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field(
                "model",
                &match self.sim {
                    Sim::Two(_) => "2RM",
                    Sim::Four(_) => "4RM",
                },
            )
            .field("probes", &self.probe_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::{tsv, Dir, GridDims};
    use coolnet_network::builders::straight::{self, StraightParams};

    fn setup() -> (Benchmark, CoolingNetwork) {
        let dims = GridDims::new(21, 21);
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
    fn profile_improves_with_pressure() {
        let (bench, net) = setup();
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        let lo = ev.profile(Pascal::from_kilopascals(1.0)).unwrap();
        let hi = ev.profile(Pascal::from_kilopascals(20.0)).unwrap();
        assert!(hi.t_max < lo.t_max);
        assert_eq!(ev.probe_count(), 2);
    }

    #[test]
    fn w_pump_round_trip() {
        let (bench, net) = setup();
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast()).unwrap();
        let p = Pascal::from_kilopascals(7.0);
        let w = ev.w_pump(p);
        assert!((ev.pressure_for_power(w).value() - p.value()).abs() / p.value() < 1e-9);
    }

    #[test]
    fn multi_layer_w_pump_sums_all_channel_layers() {
        // A 2-die stack has two channel layers sharing P_sys; W_pump must
        // be the sum of per-layer pumping powers, not just the first
        // layer's (the pre-fix behavior, which undercounts by 2×).
        let dims = GridDims::new(21, 21);
        let bench = Benchmark::iccad_scaled(2, dims);
        let net = straight::build(
            dims,
            &tsv::alternating(dims),
            Dir::East,
            &StraightParams::default(),
        )
        .unwrap();
        let stack = bench.stack_with(&[net.clone(), net.clone()]).unwrap();
        assert_eq!(stack.channel_layer_indices().len(), 2);
        let ev = Evaluator::from_stack(&stack, &net, ModelChoice::fast()).unwrap();
        let p = Pascal::from_kilopascals(10.0);

        let mut expected = 0.0;
        let mut first_layer_only = None;
        for &li in stack.channel_layer_indices().iter() {
            if let coolnet_thermal::LayerKind::Channel {
                network,
                flow,
                widths,
                ..
            } = &stack.layers()[li].kind
            {
                let w = FlowModel::with_widths(network, flow, widths.as_ref())
                    .unwrap()
                    .pumping_power(p)
                    .value();
                first_layer_only.get_or_insert(w);
                expected += w;
            }
        }
        let got = ev.w_pump(p).value();
        assert!(
            (got - expected).abs() / expected < 1e-12,
            "W_pump {got} != per-layer sum {expected}"
        );
        // Guard against the single-layer regression explicitly.
        let single = first_layer_only.unwrap();
        assert!(
            (got - single).abs() / expected > 0.4,
            "W_pump {got} counts only one layer ({single})"
        );
        // The inverse conversion must round-trip through the summed model.
        let back = ev.pressure_for_power(ev.w_pump(p)).value();
        assert!((back - p.value()).abs() / p.value() < 1e-9);
    }

    #[test]
    fn four_rm_and_two_rm_agree_roughly() {
        let (bench, net) = setup();
        let p = Pascal::from_kilopascals(5.0);
        let fast = Evaluator::new(&bench, &net, ModelChoice::TwoRm { m: 2 })
            .unwrap()
            .profile(p)
            .unwrap();
        let fine = Evaluator::new(&bench, &net, ModelChoice::FourRm)
            .unwrap()
            .profile(p)
            .unwrap();
        let rise_fast = fast.t_max.value() - 300.0;
        let rise_fine = fine.t_max.value() - 300.0;
        assert!(
            (rise_fast - rise_fine).abs() / rise_fine < 0.3,
            "2RM {rise_fast} vs 4RM {rise_fine}"
        );
    }
}
