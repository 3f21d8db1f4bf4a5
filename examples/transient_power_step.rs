//! Transient thermal response to a die-power step — the §2.3 transient
//! extension in action.
//!
//! The die starts at the coolant inlet temperature; at t = 0 the full
//! benchmark power switches on and we watch `T_max` climb to the steady
//! state, which is also computed directly as a cross-check.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example transient_power_step
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
    let stack = bench.stack_with(std::slice::from_ref(&network))?;
    let sim = Simulator::new(
        &stack,
        ModelChoice::TwoRm { m: 2 },
        &ThermalConfig::default(),
    )?;
    let p_sys = Pascal::from_kilopascals(8.0);

    let steady = sim.simulate(p_sys)?;
    println!(
        "steady state: T_max = {:.2} K, dT = {:.2} K",
        steady.max_temperature().value(),
        steady.gradient().value()
    );

    // Step response with 1 ms backward-Euler steps.
    let mut transient = sim.transient(p_sys, 1e-3, None)?;
    println!("\n   t (ms)    T_max (K)   progress");
    let t_final = steady.max_temperature().value();
    for step in 1..=30 {
        transient.step()?;
        if step % 3 == 0 {
            let snap = transient.snapshot();
            let t = snap.max_temperature().value();
            let progress = (t - 300.0) / (t_final - 300.0) * 100.0;
            println!(
                "  {:>6.1}    {:>9.3}   {:>6.1}%",
                transient.time() * 1e3,
                t,
                progress
            );
        }
    }
    Ok(())
}
