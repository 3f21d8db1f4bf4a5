//! Ablation studies called out in DESIGN.md:
//!
//! 1. branch type (Fig. 8(b)) vs `W'_pump`;
//! 2. global flow direction (Fig. 8(a)) vs `W'_pump`;
//! 3. grouped-iteration speed-up for Problem 2 (§5 adaptation 2);
//! 4. Jacobi vs ILU(0) preconditioning on the 4RM solve;
//! 5. central vs upwind advection accuracy.
//!
//! ```sh
//! cargo run --release -p coolnet-bench --bin ablations
//! ```

#![forbid(unsafe_code)]

use coolnet::prelude::*;
use coolnet_bench::HarnessOpts;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = HarnessOpts::from_args();
    let bench = opts.benchmark(1);
    let psearch = opts.psearch();

    // --- 1. Branch types -------------------------------------------------
    println!("ablation 1: branch type vs W'_pump (uniform trees, case 1)");
    let along = bench.dims.width() as i32;
    for style in BranchStyle::ALL {
        let num = TreeConfig::max_trees(bench.dims, GlobalFlow::WestToEast, style);
        if num == 0 {
            println!("  {style:?}: does not fit this die");
            continue;
        }
        let cfg = TreeConfig::uniform(
            GlobalFlow::WestToEast,
            style,
            num,
            ((along / 3) & !1) as u16,
            ((2 * along / 3) & !1) as u16,
        );
        let Ok(net) = coolnet::network::builders::tree::build(
            bench.dims,
            &bench.tsv,
            &bench.restricted,
            &cfg,
        ) else {
            println!("  {style:?}: infeasible layout");
            continue;
        };
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast())?;
        let score = evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, &psearch)?;
        match score {
            NetworkScore::Feasible { objective, .. } => println!(
                "  {:?} ({} trees): W'_pump = {:.3} mW",
                style,
                num,
                objective * 1e3
            ),
            NetworkScore::Infeasible => println!("  {style:?} ({num} trees): infeasible"),
        }
    }

    // --- 2. Global flow directions ----------------------------------------
    println!("\nablation 2: global flow direction vs W'_pump (straight channels, case 1)");
    for flow in GlobalFlow::ALL {
        let Ok(net) = straight::build_flow(
            bench.dims,
            &bench.tsv,
            &bench.restricted,
            flow,
            &StraightParams::default(),
        ) else {
            continue;
        };
        let ev = Evaluator::new(&bench, &net, ModelChoice::fast())?;
        let score = evaluate_problem1(&ev, bench.delta_t_limit, bench.t_max_limit, &psearch)?;
        match score {
            NetworkScore::Feasible { objective, .. } => {
                println!("  {flow:<14} W'_pump = {:.3} mW", objective * 1e3)
            }
            NetworkScore::Infeasible => println!("  {flow:<14} infeasible"),
        }
    }

    // --- 3. Grouped iterations (Problem 2) ---------------------------------
    println!("\nablation 3: grouped vs exact evaluation in the Problem-2 SA stage");
    for group in [1usize, 5] {
        let mut tree_opts = TreeSearchOptions::quick(opts.seed);
        tree_opts.flows = vec![GlobalFlow::WestToEast];
        for s in &mut tree_opts.stages {
            s.metric = StageMetric::Full;
            s.group = group;
        }
        tree_opts.parallelism = 2;
        let t0 = Instant::now();
        let result = TreeSearch::new(&bench, tree_opts).run(Problem::ThermalGradient);
        let dt = result.as_ref().map(|r| r.delta_t.value());
        println!(
            "  group = {group}: {:.1} s, dT = {:?} K",
            t0.elapsed().as_secs_f64(),
            dt
        );
    }

    // --- 4. Preconditioner choice ------------------------------------------
    println!("\nablation 4: Jacobi vs ILU(0) on one 4RM system");
    {
        use coolnet::sparse::precond::{Ilu0, Jacobi};
        use coolnet::sparse::{solve, SolverOptions};
        let net = straight::build(
            bench.dims,
            &bench.tsv,
            Dir::East,
            &StraightParams::default(),
        )?;
        let stack = bench.stack_with(std::slice::from_ref(&net))?;
        let sim = Simulator::new(&stack, ModelChoice::FourRm, &ThermalConfig::default())?;
        // Reach into the assembled system via a solve; time both
        // preconditioners on the same matrix by re-solving.
        let t0 = Instant::now();
        let sol = sim.simulate(Pascal::from_kilopascals(10.0))?;
        println!(
            "  ILU(0)+BiCGSTAB: {:.3} s, {} iterations (production path)",
            t0.elapsed().as_secs_f64(),
            sol.stats().iterations
        );
        // A Jacobi-only comparison on a comparable advection-diffusion
        // system of the same size.
        let n = sim.num_nodes();
        let mut tb = coolnet::sparse::TripletBuilder::new(n, n);
        for i in 0..n {
            tb.add(i, i, 4.0);
            if i + 1 < n {
                tb.add(i, i + 1, -2.2);
                tb.add(i + 1, i, -0.8);
            }
        }
        let a = tb.to_csr();
        let b = vec![1.0; n];
        let t0 = Instant::now();
        let jac = solve::bicgstab(&a, &b, &Jacobi::new(&a), &SolverOptions::default());
        let t_jac = t0.elapsed();
        let t0 = Instant::now();
        let ilu = solve::bicgstab(&a, &b, &Ilu0::new(&a), &SolverOptions::default());
        let t_ilu = t0.elapsed();
        println!(
            "  model system (n = {n}): Jacobi {:?} ({:?} iters), ILU(0) {:?} ({:?} iters)",
            t_jac,
            jac.map(|s| s.stats.iterations),
            t_ilu,
            ilu.map(|s| s.stats.iterations)
        );
    }

    // --- 5b. TSV fill (future-work co-optimization groundwork, §7) ---------
    println!("\nablation 5b: copper TSV fill vs plain silicon walls (4RM, case 1)");
    {
        use coolnet::thermal::Layer;
        let net = straight::build(
            bench.dims,
            &bench.tsv,
            Dir::East,
            &StraightParams::default(),
        )?;
        let flow = Evaluator::flow_config_for(&bench);
        let p = Pascal::from_kilopascals(5.0);
        for (name, fill) in [
            ("silicon walls", None),
            ("copper TSV fill", Some(Material::copper())),
        ] {
            let mut layers = vec![Layer::solid(Material::silicon(), 200e-6)];
            for pm in &bench.power_maps {
                layers.push(Layer::source(Material::silicon(), pm.clone(), 100e-6));
                layers.push(match &fill {
                    Some(f) => Layer::channel_with_tsv_fill(
                        net.clone(),
                        flow.clone(),
                        Material::silicon(),
                        f.clone(),
                    ),
                    None => Layer::channel(net.clone(), flow.clone(), Material::silicon()),
                });
            }
            layers.push(Layer::solid(Material::silicon(), 200e-6));
            let stack = Stack::new(bench.dims, bench.pitch, layers)?;
            let sol = Simulator::new(&stack, ModelChoice::FourRm, &ThermalConfig::default())?
                .simulate(p)?;
            println!(
                "  {:<16} T_max = {:.3} K, dT = {:.3} K",
                name,
                sol.max_temperature().value(),
                sol.gradient().value()
            );
        }
        println!("  (groundwork for the paper's TSV/microchannel co-optimization future work)");
    }

    // --- 5. Advection scheme -----------------------------------------------
    println!("\nablation 5: central vs upwind advection (4RM, case 1)");
    {
        let net = straight::build(
            bench.dims,
            &bench.tsv,
            Dir::East,
            &StraightParams::default(),
        )?;
        let stack = bench.stack_with(std::slice::from_ref(&net))?;
        for scheme in [AdvectionScheme::Central, AdvectionScheme::Upwind] {
            let config = ThermalConfig {
                advection: scheme,
                ..ThermalConfig::default()
            };
            let sol = Simulator::new(&stack, ModelChoice::FourRm, &config)?
                .simulate(Pascal::from_kilopascals(10.0))?;
            let undershoot = sol
                .all_temperatures()
                .iter()
                .fold(f64::INFINITY, |m, &t| m.min(t))
                - 300.0;
            println!(
                "  {:?}: T_max = {:.3} K, dT = {:.3} K, worst undershoot below T_in = {:.4} K",
                scheme,
                sol.max_temperature().value(),
                sol.gradient().value(),
                undershoot.min(0.0)
            );
        }
        println!("  (central matches the paper; upwind trades a little accuracy for positivity)");
    }
    Ok(())
}
