//! Fig. 9: 2RM accuracy (a) and speed-up (b) relative to 4RM.
//!
//! The paper sweeps 5 benchmarks × 40 network samples × 6 thermal cell
//! sizes × 13 pressures (15600 simulations). The reduced default sweeps a
//! representative subset; `--full` restores the paper's counts.
//!
//! ```sh
//! cargo run --release -p coolnet-bench --bin fig9 [-- accuracy|speedup|both] [-- --full]
//! ```

#![forbid(unsafe_code)]

use coolnet::prelude::*;
use coolnet_bench::{write_csv, HarnessOpts};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Straight,
    Tree,
    Manual,
}

fn network_samples(bench: &Benchmark, full: bool) -> Vec<(Family, CoolingNetwork)> {
    let mut out = Vec::new();
    let dims = bench.dims;
    // Straight channels in several directions/spacings.
    let dirs = if full {
        vec![Dir::East, Dir::West, Dir::North, Dir::South]
    } else {
        vec![Dir::East, Dir::North]
    };
    for dir in dirs {
        for spacing in [2u16, 4] {
            if let Ok(n) = straight::build(
                dims,
                &bench.tsv,
                dir,
                &StraightParams { spacing, offset: 0 },
            ) {
                out.push((Family::Straight, n));
            }
        }
    }
    // Tree-like networks with a few parameter settings.
    let along = dims.width() as i32;
    let settings: &[(i32, i32)] = if full {
        &[(3, 6), (4, 7), (2, 5), (3, 7), (4, 6)]
    } else {
        &[(3, 6), (4, 7)]
    };
    for &(a, b) in settings {
        let b1 = ((along * a / 10) & !1).max(2) as u16;
        let b2 = ((along * b / 10) & !1) as u16;
        let cfg = TreeConfig::uniform(
            GlobalFlow::WestToEast,
            BranchStyle::Binary,
            TreeConfig::max_trees(dims, GlobalFlow::WestToEast, BranchStyle::Binary),
            b1,
            b2,
        );
        if let Ok(n) =
            coolnet::network::builders::tree::build(dims, &bench.tsv, &bench.restricted, &cfg)
        {
            out.push((Family::Tree, n));
        }
    }
    // Manual styles from the early-exploration gallery.
    for d in manual::gallery(dims, &bench.tsv, &bench.restricted) {
        out.push((Family::Manual, d.network));
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = HarnessOpts::from_args();
    let mode = opts
        .rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "both".to_owned());
    let run_accuracy = mode == "accuracy" || mode == "both";
    let run_speedup = mode == "speedup" || mode == "both";

    let ms: Vec<u16> = if opts.full {
        vec![2, 4, 6, 8, 10, 12]
    } else {
        vec![2, 4, 6, 8]
    };
    let pressures: Vec<f64> = if opts.full {
        (0..13).map(|i| 2.0e3 * 1.4f64.powi(i)).collect()
    } else {
        vec![2.0e3, 8.0e3, 32.0e3]
    };
    let cases: Vec<usize> = if opts.full {
        (1..=5).collect()
    } else {
        vec![1, 4]
    };

    // error[(family, m)] -> accumulated (sum, count); time[(m)] similar.
    let mut errors: BTreeMap<(Family, u16), (f64, usize)> = BTreeMap::new();
    let mut all_errors: BTreeMap<u16, (f64, usize)> = BTreeMap::new();
    let mut time_four = (0.0f64, 0usize);
    let mut time_two: BTreeMap<u16, (f64, usize)> = BTreeMap::new();
    let config = ThermalConfig::default();

    let mut simulations = 0usize;
    for &case in &cases {
        let bench = opts.benchmark(case);
        for (family, net) in network_samples(&bench, opts.full) {
            let Ok(stack) = bench.stack_with(std::slice::from_ref(&net)) else {
                continue;
            };
            let t0 = Instant::now();
            let Ok(four) = Simulator::new(&stack, ModelChoice::FourRm, &config) else {
                continue;
            };
            let mut reference: Vec<(f64, ThermalSolution)> = Vec::new();
            for &p in &pressures {
                let Ok(sol) = four.simulate(Pascal::new(p)) else {
                    continue;
                };
                reference.push((p, sol));
            }
            time_four.0 += t0.elapsed().as_secs_f64();
            time_four.1 += reference.len().max(1);

            for &m in &ms {
                let t0 = Instant::now();
                let Ok(two) = Simulator::new(&stack, ModelChoice::TwoRm { m }, &config) else {
                    continue;
                };
                let mut solved = 0usize;
                for (p, ref_sol) in &reference {
                    let Ok(sol) = two.simulate(Pascal::new(*p)) else {
                        continue;
                    };
                    solved += 1;
                    simulations += 1;
                    let err = compare::mean_relative_error(ref_sol, &sol);
                    let e = errors.entry((family, m)).or_insert((0.0, 0));
                    e.0 += err;
                    e.1 += 1;
                    let a = all_errors.entry(m).or_insert((0.0, 0));
                    a.0 += err;
                    a.1 += 1;
                }
                let t = time_two.entry(m).or_insert((0.0, 0));
                t.0 += t0.elapsed().as_secs_f64();
                t.1 += solved.max(1);
            }
        }
    }
    println!("{simulations} 2RM simulations compared against 4RM references\n");

    if run_accuracy {
        println!("Fig. 9(a): mean relative error of 2RM vs 4RM, by thermal cell size");
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>12}",
            "cell (um)", "all", "straight", "tree-like", "manual"
        );
        let mut rows = Vec::new();
        for &m in &ms {
            let pick = |f: Family| {
                errors
                    .get(&(f, m))
                    .map(|(s, c)| s / *c as f64 * 100.0)
                    .unwrap_or(f64::NAN)
            };
            let all = all_errors
                .get(&m)
                .map(|(s, c)| s / *c as f64 * 100.0)
                .unwrap_or(f64::NAN);
            println!(
                "{:>10} {:>11.4}% {:>11.4}% {:>11.4}% {:>11.4}%",
                m as usize * 100,
                all,
                pick(Family::Straight),
                pick(Family::Tree),
                pick(Family::Manual)
            );
            rows.push(vec![
                (m as usize * 100) as f64,
                all,
                pick(Family::Straight),
                pick(Family::Tree),
                pick(Family::Manual),
            ]);
        }
        write_csv(
            &opts.out_path("fig9a_accuracy.csv"),
            &[
                "cell_um",
                "all_pct",
                "straight_pct",
                "tree_pct",
                "manual_pct",
            ],
            &rows,
        );
    }

    if run_speedup {
        let per_four = time_four.0 / time_four.1 as f64;
        println!(
            "\nFig. 9(b): 2RM speed-up over 4RM (per steady simulation, incl. assembly share)"
        );
        println!(
            "4RM reference: {:.3} s per simulation on this machine",
            per_four
        );
        println!("{:>10} {:>14} {:>10}", "cell (um)", "2RM (s)", "speed-up");
        let mut rows = Vec::new();
        for &m in &ms {
            if let Some((t, c)) = time_two.get(&m) {
                let per_two = t / *c as f64;
                println!(
                    "{:>10} {:>14.4} {:>9.1}x",
                    m as usize * 100,
                    per_two,
                    per_four / per_two
                );
                rows.push(vec![(m as usize * 100) as f64, per_two, per_four / per_two]);
            }
        }
        write_csv(
            &opts.out_path("fig9b_speedup.csv"),
            &["cell_um", "tworm_s", "speedup"],
            &rows,
        );
    }
    Ok(())
}
