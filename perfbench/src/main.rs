//! Runs one coolnet benchmark workload and prints its result.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload evaluate-4rm --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `design-serve`, `evaluate-4rm`, `transient-4rm`. The first
//! line printed is a header (host threads, git revision, seed, thermal
//! defaults); the last is the result, `{"correct", "attempted",
//! "failed", "metrics"}`, with the end-to-end metrics under
//! `--trace 0` and the per-layer metrics under `--trace 1`. A traced run
//! also prints its spans, per-operation `coolnet-obs` deltas and
//! count-stability labels on the line before the result.

#![forbid(unsafe_code)]

use coolnet::thermal::ThermalConfig;
use coolnet_perfbench::design_serve::DesignServe;
use coolnet_perfbench::evaluate::Evaluate4rm;
use coolnet_perfbench::report::{self, hex};
use coolnet_perfbench::transient::Transient4rm;
use coolnet_perfbench::{drive, RunConfig, Workload, WORKLOADS};
use serde_json::json;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <design-serve|evaluate-4rm|transient-4rm> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let cfg = RunConfig {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// The revision the benchmark was built from: `COOLNET_GIT_REV` if set,
/// else `git rev-parse HEAD`, else `"unknown"` (e.g. in an exported tree).
fn git_revision() -> String {
    if let Ok(rev) = std::env::var("COOLNET_GIT_REV") {
        return rev;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn execute<W: Workload>(w: &W, name: &str, why: &str, cfg: &RunConfig) -> ExitCode {
    let header = json!({
        "benchmark": "coolnet-perfbench",
        "workload": name,
        "why": why,
        "seed": (cfg.seed),
        "seconds": (cfg.seconds),
        "trace": (cfg.trace),
        "nproc": (std::thread::available_parallelism().map_or(1, |p| p.get())),
        "git_revision": (git_revision()),
        "thermal_config": (ThermalConfig::default())
    });
    println!("{}", serde_json::to_string(&header).unwrap_or_default());

    let out = drive(w, cfg);

    let mut problems: Vec<String> = Vec::new();
    let first = &out.passes[0].pass;
    for (i, rec) in out.passes.iter().enumerate() {
        problems.extend(rec.pass.problems.iter().map(|p| format!("pass {i}: {p}")));
        if rec.pass.replay != first.replay {
            problems.push(format!("pass {i}: result bits differ from pass 0"));
        }
    }
    let (defs, values) = if cfg.trace {
        (report::per_layer(), report::per_layer_values(&out))
    } else {
        let values = report::end_to_end_values(&out);
        for (name, v) in &values {
            if !(v.is_finite() && *v > 0.0) {
                problems.push(format!("end-to-end metric {name} is {v}"));
            }
        }
        (report::end_to_end(), values)
    };

    let mut artifact = json!({
        "pass_wall_s": (out.passes.iter().map(|p| p.pass.wall_s).collect::<Vec<_>>()),
        "pass_cpu_s": (out.passes.iter().map(|p| p.pass.cpu_s).collect::<Vec<_>>()),
        "setup_s": (out.setup_s.clone()),
        "replay": (first.replay.iter().map(|&b| hex(b)).collect::<Vec<_>>()),
        "problems": (problems.clone())
    });
    if cfg.trace {
        let per_pass: Vec<_> = out
            .passes
            .iter()
            .map(|p| report::layer_values(&p.pass, &p.tracer))
            .collect();
        // Only the first pass of a traced run is untraced.
        let last = out.passes.last().expect("a run makes at least two passes");
        let gaps = report::attribution_gaps(last);
        if let serde_json::Value::Object(map) = &mut artifact {
            map.insert("spans".into(), json!((last.tracer.spans())));
            map.insert("ops".into(), json!((last.tracer.ops())));
            map.insert("attribution_gaps".into(), json!((gaps)));
            map.insert("counts".into(), json!((report::count_stability(&per_pass))));
        }
    }
    println!("{}", serde_json::to_string(&artifact).unwrap_or_default());
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{}",
        report::result_line(problems.is_empty(), &out, &defs, &values)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let (name, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let why = WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w);
    match (name.as_str(), why) {
        ("design-serve", Some(why)) => execute(&DesignServe::default(), &name, why, &cfg),
        ("evaluate-4rm", Some(why)) => execute(&Evaluate4rm::default(), &name, why, &cfg),
        ("transient-4rm", Some(why)) => execute(&Transient4rm::default(), &name, why, &cfg),
        _ => {
            eprintln!("unknown workload {name}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
