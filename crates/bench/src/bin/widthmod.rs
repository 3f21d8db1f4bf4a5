//! Width-modulation study (the GreenCool baseline, reference \[10\]):
//! quantifies §1's criticism that the 1-D per-channel model "ignores heat
//! transfer between regions cooled by different channels and is thus
//! inaccurate on the full-chip scale".
//!
//! 1. designs width-modulated straight channels with the 1-D model;
//! 2. re-measures the *same* design with the full 4RM model;
//! 3. reports prediction error and compares against uniform straight
//!    channels and a tree-like network.
//!
//! ```sh
//! cargo run --release -p coolnet-bench --bin widthmod
//! ```

#![forbid(unsafe_code)]

use coolnet::opt::widthmod::{self, WidthModLimits};
use coolnet::prelude::*;
use coolnet_bench::HarnessOpts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = HarnessOpts::from_args();
    let bench = opts.benchmark(1);

    // 1-D design limits are calibrated to the 1-D model's own scale: with
    // no lateral spreading, hotspot gradients are grossly over-predicted
    // (at 41×41 the full-width floor sits ~50 K above the real 4RM
    // answer), so fixed kelvin limits would be meaningless across grids.
    // Instead, take the model's own full-width high-pressure floor and
    // leave a narrow feasibility band above it for the designer to trade
    // width against.
    let menu = [40e-6, 60e-6, 80e-6, 100e-6];
    let floor = {
        let model = widthmod::OneDimModel::new(&bench);
        model.predict(
            &vec![menu[menu.len() - 1]; model.num_channels()],
            Pascal::from_kilopascals(1000.0),
        )
    };
    let limits = WidthModLimits {
        delta_t: Kelvin::new(floor.delta_t.value() + 3.0),
        t_max: Kelvin::new(floor.t_max.value() + 2.0),
    };
    let Some(design) = widthmod::design(&bench, &menu, limits, 8) else {
        println!("1-D designer found no feasible design");
        return Ok(());
    };

    println!("width-modulated design ({} channels):", design.widths.len());
    let narrowed = design.widths.iter().filter(|&&w| w < 100e-6).count();
    println!(
        "  {narrowed} of {} channels narrowed; menu {:?} um",
        design.widths.len(),
        menu.iter().map(|w| w * 1e6).collect::<Vec<_>>()
    );
    println!(
        "  chosen widths (um): {:?}",
        design
            .widths
            .iter()
            .map(|w| (w * 1e6) as i64)
            .collect::<Vec<_>>()
    );

    // --- The paper's §1 criticism, quantified -----------------------------
    println!("\n1-D model prediction vs full 4RM measurement (same design, same P_sys):");
    let stack = design.to_stack(&bench)?;
    let sim = Simulator::new(&stack, ModelChoice::FourRm, &ThermalConfig::default())?;
    let measured = sim.simulate(design.p_sys)?;
    let pred = &design.predicted;
    println!(
        "  {:<12} {:>12} {:>12}",
        "", "1-D predicted", "4RM measured"
    );
    println!(
        "  {:<12} {:>10.2} K {:>10.2} K",
        "T_max",
        pred.t_max.value(),
        measured.max_temperature().value()
    );
    println!(
        "  {:<12} {:>10.2} K {:>10.2} K",
        "dT",
        pred.delta_t.value(),
        measured.gradient().value()
    );
    let over = pred.delta_t.value() / measured.gradient().value();
    println!(
        "  -> the 1-D model over-predicts the gradient {over:.1}x because it ignores\n\
         \x20    inter-channel heat transfer (the paper's §1 argument)."
    );

    // --- Design-quality comparison under the full model --------------------
    println!("\nfull-model comparison (Problem-1 evaluation, 4RM):");
    let psearch = opts.psearch();
    if let Ok(Some(uniform)) = DesignResult::measure(
        &bench,
        &design.network(&bench)?,
        Problem::PumpingPower,
        "uniform straight",
        &psearch,
    ) {
        println!("  {}", uniform.table_row());
    }
    // Width-modulated design measured at the pressure where it meets the
    // real constraints (re-tuned on the full model).
    let ev = Evaluator::from_stack(&stack, ModelChoice::FourRm)?;
    match evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, &psearch)? {
        NetworkScore::Feasible {
            p_sys, objective, ..
        } => {
            println!(
                "  width-modulated (4RM-tuned)   P_sys = {:8.2} kPa  W_pump = {:10.4} mW",
                p_sys.to_kilopascals(),
                objective * 1e3
            );
        }
        NetworkScore::Infeasible => {
            println!("  width-modulated: infeasible under the real constraints");
        }
    }
    let mut tree_opts = opts.tree_options(Problem::PumpingPower);
    tree_opts.flows = vec![GlobalFlow::WestToEast];
    if let Some(tree) = TreeSearch::new(&bench, tree_opts).run(Problem::PumpingPower) {
        println!("  {}", tree.table_row());
    }
    println!(
        "\nNote: the width-modulated W_pump above uses the full-model evaluation;\n\
         flexible topology (trees) remains the stronger lever, as the paper argues."
    );
    Ok(())
}
