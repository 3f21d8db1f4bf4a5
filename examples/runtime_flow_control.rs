//! Run-time thermal management with adjustable flow rates — the paper's
//! future-work direction, demonstrated: a DVFS-like square power trace
//! runs against (a) a fixed worst-case pump pressure and (b) a
//! proportional flow controller, comparing pumping energy at equal thermal
//! safety.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example runtime_flow_control
//! ```

use coolnet::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
    let network = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )?;

    // Workload: full power / 20% power alternating every 50 ms.
    let workload = ScenarioSpec::dvfs_square(0.05, 1.0, 0.2);
    let target = Kelvin::new(312.0);

    // (a) Fixed pressure sized for the high-power phase.
    let fixed = FlowController {
        target,
        gain: 0.0, // no adaptation
        p_min: Pascal::from_kilopascals(12.0),
        p_max: Pascal::from_kilopascals(12.0),
    };
    // (b) Adaptive proportional controller.
    let adaptive = FlowController {
        target,
        gain: 600.0,
        p_min: Pascal::from_kilopascals(0.5),
        p_max: Pascal::from_kilopascals(30.0),
    };

    println!(
        "workload: {:?} s DVFS square trace, T_max target {target}",
        workload.duration
    );
    for (name, controller) in [("fixed pressure", fixed), ("adaptive flow", adaptive)] {
        let spec = ScenarioSpec {
            controller,
            p_initial: Pascal::from_kilopascals(12.0),
            ..workload.clone()
        };
        let trace = run_scenario(&bench, &network, &spec, &ThermalConfig::default())?;
        println!("\n--- {name} ---");
        println!("   t (ms)  scale   P (kPa)   T_max (K)   W_pump (mW)");
        for s in trace.intervals.iter().step_by(2) {
            println!(
                "  {:>6.0}  {:>5.2}  {:>8.2}  {:>10.2}  {:>12.4}",
                s.time * 1e3,
                s.power_scale,
                s.p_sys.to_kilopascals(),
                s.t_max.value(),
                s.w_pump.to_milliwatts()
            );
        }
        println!(
            "worst T_max = {:.2} K, pumping energy = {:.3} mJ",
            trace.peak_t_max().value(),
            trace.pumping_energy() * 1e3
        );
    }
    println!(
        "\nThe adaptive controller backs the pump off during low-power phases,\n\
         cutting pumping energy while holding the same thermal envelope."
    );
    Ok(())
}
