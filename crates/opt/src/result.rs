//! Final design results, measured with the accurate model.

use crate::evaluate::{Evaluator, ModelChoice, OperatingPoint};
use crate::netscore::{evaluate_problem1, evaluate_problem2, NetworkScore};
use crate::psearch::PressureSearchOptions;
use crate::Problem;
use coolnet_cases::Benchmark;
use coolnet_network::CoolingNetwork;
use coolnet_thermal::ThermalError;
use coolnet_units::{Kelvin, Pascal, Watt};
use serde::{Deserialize, Serialize};

/// A designed cooling system with its reported metrics — one row of
/// Table 3 or Table 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignResult {
    /// Human-readable label ("baseline straight W->E", "tree-like SA", ...).
    pub label: String,
    /// The designed network.
    pub network: CoolingNetwork,
    /// Operating system pressure drop.
    pub p_sys: Pascal,
    /// Pumping power at `p_sys`.
    pub w_pump: Watt,
    /// Peak temperature at `p_sys`.
    pub t_max: Kelvin,
    /// Thermal gradient at `p_sys`.
    pub delta_t: Kelvin,
}

impl DesignResult {
    /// Runs the full network evaluation for `problem` on the *accurate*
    /// 4RM model and packages the outcome. Returns `None` when the network
    /// is infeasible under the problem's constraints.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (infeasibility is `Ok(None)`).
    pub fn measure(
        bench: &Benchmark,
        network: &CoolingNetwork,
        problem: Problem,
        label: impl Into<String>,
        opts: &PressureSearchOptions,
    ) -> Result<Option<Self>, ThermalError> {
        Self::measure_with_model(bench, network, problem, label, opts, ModelChoice::FourRm)
    }

    /// Like [`measure`](Self::measure) but with an explicit model choice
    /// (the quick harness paths use 2RM).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure_with_model(
        bench: &Benchmark,
        network: &CoolingNetwork,
        problem: Problem,
        label: impl Into<String>,
        opts: &PressureSearchOptions,
        model: ModelChoice,
    ) -> Result<Option<Self>, ThermalError> {
        let ev = Evaluator::new(bench, network, model)?;
        let score = match problem {
            Problem::PumpingPower => {
                evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, opts)?
            }
            Problem::ThermalGradient => {
                evaluate_problem2(&ev, bench.w_pump_limit(), bench.t_max_limit, opts)?
            }
        };
        Ok(match score {
            NetworkScore::Feasible { p_sys, profile, .. } => Some(Self::at(
                label,
                network.clone(),
                OperatingPoint {
                    p_sys,
                    profile,
                    w_pump: ev.w_pump(p_sys),
                },
            )),
            NetworkScore::Infeasible => None,
        })
    }

    /// Packages a network and the operating point its evaluation selected.
    pub fn at(label: impl Into<String>, network: CoolingNetwork, point: OperatingPoint) -> Self {
        Self {
            label: label.into(),
            network,
            p_sys: point.p_sys,
            w_pump: point.w_pump,
            t_max: point.profile.t_max,
            delta_t: point.profile.delta_t,
        }
    }

    /// The objective value under `problem` (used for picking winners).
    pub fn objective(&self, problem: Problem) -> f64 {
        match problem {
            Problem::PumpingPower => self.w_pump.value(),
            Problem::ThermalGradient => self.delta_t.value(),
        }
    }

    /// Formats the four reported quantities like the paper's tables
    /// (`P_sys` in kPa, `T_max`/`ΔT` in K, `W_pump` in mW).
    pub fn table_row(&self) -> String {
        format!(
            "{:<28} P_sys = {:8.2} kPa  T_max = {:7.2} K  dT = {:6.2} K  W_pump = {:10.4} mW",
            self.label,
            self.p_sys.to_kilopascals(),
            self.t_max.value(),
            self.delta_t.value(),
            self.w_pump.to_milliwatts(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::{tsv, Dir, GridDims};
    use coolnet_network::builders::straight::{self, StraightParams};

    #[test]
    fn measure_produces_consistent_row() {
        let dims = GridDims::new(21, 21);
        let bench = Benchmark::iccad_scaled(1, dims);
        let net = straight::build(
            dims,
            &tsv::alternating(dims),
            Dir::East,
            &StraightParams::default(),
        )
        .unwrap();
        let opts = PressureSearchOptions {
            rel_tol: 0.02,
            max_probes: 60,
            ..PressureSearchOptions::default()
        };
        let r = DesignResult::measure_with_model(
            &bench,
            &net,
            Problem::PumpingPower,
            "straight",
            &opts,
            ModelChoice::fast(),
        )
        .unwrap()
        .expect("feasible");
        assert!(r.delta_t.value() <= bench.delta_t_limit.value() * 1.01);
        assert!(r.w_pump.value() > 0.0);
        assert_eq!(r.objective(Problem::PumpingPower), r.w_pump.value());
        assert_eq!(r.objective(Problem::ThermalGradient), r.delta_t.value());
        let row = r.table_row();
        assert!(row.contains("straight") && row.contains("kPa"));
    }
}
