//! End-to-end flow on a *user-defined* case: write a plain-text case file
//! (Algorithm 1's "stack description and floorplan files"), load it, and
//! design a cooling network for it.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example custom_case
//! ```

use coolnet::cases::files;
use coolnet::prelude::*;

const CASE: &str = "
# A two-die accelerator with an asymmetric hotspot in the north-east.
grid 25 25
pitch 100e-6
channel_height 300e-6
dt_limit 18
tmax_limit 355.0
matched_layers false
die                      # compute die (bottom)
  uniform 2.0
  block 16 16 22 22 2.5  # the accelerator block
die                      # memory die (top)
  uniform 1.5
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // In a real flow this would be `files::load(Path::new("my_case.txt"))`.
    let bench = files::parse(CASE)?;
    println!(
        "loaded case: {} dies, {:.2} W total, dT* = {} K",
        bench.num_dies,
        bench.total_power(),
        bench.delta_t_limit.value()
    );

    // Baseline, measured with the 4RM like the tree search's final stage
    // (and like `table3`).
    let psearch = PressureSearchOptions::default();
    let base =
        baseline::best_straight(&bench, Problem::PumpingPower, &psearch, ModelChoice::FourRm);
    match &base {
        Some(r) => println!("baseline:  {}", r.table_row()),
        None => println!("baseline:  N/A (no feasible straight-channel network)"),
    }

    // Tree search (quick schedule; the hotspot sits north-east, so give
    // the search both axes to choose its flow direction from).
    let mut opts = TreeSearchOptions::quick(7);
    opts.flows = vec![
        GlobalFlow::WestToEast,
        GlobalFlow::EastToWest,
        GlobalFlow::SouthToNorth,
        GlobalFlow::NorthToSouth,
    ];
    let tree = TreeSearch::new(&bench, opts).run(Problem::PumpingPower);
    match &tree {
        Some(r) => println!("designed:  {}", r.table_row()),
        None => println!("designed:  N/A (no feasible tree network)"),
    }
    if let (Some(b), Some(t)) = (&base, &tree) {
        // The search never scores the straight baseline itself, so a short
        // schedule can end on a tree that needs more pumping power.
        let ratio = t.w_pump.value() / b.w_pump.value();
        if ratio <= 1.0 {
            println!("\nsaving vs baseline: {:.1}%", 100.0 * (1.0 - ratio));
        } else {
            println!(
                "\nthe tree loses: it needs {:.1}% more pumping power than the baseline",
                100.0 * (ratio - 1.0)
            );
        }
    }

    // Round-trip the case file for archival.
    let rendered = files::render(&bench);
    let reparsed = files::parse(&rendered)?;
    assert_eq!(reparsed.power_maps, bench.power_maps);
    println!(
        "\ncase file round-trips ({} bytes rendered)",
        rendered.len()
    );
    Ok(())
}
