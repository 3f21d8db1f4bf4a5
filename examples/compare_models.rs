//! Compare the 4RM and 2RM thermal models on one cooling system: accuracy
//! versus thermal-cell size — a single-network slice of Fig. 9.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example compare_models
//! ```

use coolnet::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = Benchmark::iccad_scaled(1, GridDims::new(41, 41));
    let network = straight::build(
        bench.dims,
        &bench.tsv,
        Dir::East,
        &StraightParams::default(),
    )?;
    let stack = bench.stack_with(std::slice::from_ref(&network))?;
    let config = ThermalConfig::default();
    let p_sys = Pascal::from_kilopascals(8.0);

    // Reference: the 4RM model (thermal cells conform to the channels).
    let t0 = Instant::now();
    let four = Simulator::new(&stack, ModelChoice::FourRm, &config)?;
    let reference = four.simulate(p_sys)?;
    let t_four = t0.elapsed();
    println!(
        "4RM: {} nodes, {:?}, T_max = {:.2} K",
        four.num_nodes(),
        t_four,
        reference.max_temperature().value()
    );

    println!("\n  m   cell (um)   nodes   mean rel err   max abs err (K)   speed-up");
    for m in [1u16, 2, 4, 6, 8] {
        let t0 = Instant::now();
        let two = Simulator::new(&stack, ModelChoice::TwoRm { m }, &config)?;
        let sol = two.simulate(p_sys)?;
        let t_two = t0.elapsed();
        let err = compare::mean_relative_error(&reference, &sol);
        let abs = compare::max_absolute_error(&reference, &sol);
        println!(
            "  {:<3} {:>9} {:>7}   {:>10.4}%   {:>15.3}   {:>7.1}x",
            m,
            m as usize * 100,
            two.num_nodes(),
            err * 100.0,
            abs,
            t_four.as_secs_f64() / t_two.as_secs_f64().max(1e-9),
        );
    }
    println!(
        "\nThe paper adopts 400 um thermal cells (m = 4) as the accuracy/runtime\n\
         trade-off for the design loops (§6)."
    );
    Ok(())
}
