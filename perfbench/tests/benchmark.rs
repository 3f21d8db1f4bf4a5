//! The benchmark's own checks: its catalogue matches `BENCHMARK.json`,
//! and the single-threaded workloads repeat every count exactly.

use coolnet_perfbench::design_serve::DesignServe;
use coolnet_perfbench::evaluate::Evaluate4rm;
use coolnet_perfbench::report::{self, MetricDef};
use coolnet_perfbench::transient::Transient4rm;
use coolnet_perfbench::{drive, RunConfig, RunOutput, Workload, WORKLOADS};
use coolnet_serve::SearchPreset;
use serde_json::Value;
use std::sync::Mutex;

/// `coolnet-obs` counters are process-wide: runs must not overlap.
static OBS: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    let Value::Array(items) = &doc[key] else {
        panic!("{key} is not a list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| match &m[f] {
                Value::String(s) => s.clone(),
                other => panic!("{key}.{f} is {other:?}"),
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn catalogue(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter()
        .map(|d| (d.name, d.unit.to_owned(), d.better.to_owned()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), catalogue(report::end_to_end()));
    assert_eq!(listed(&doc, "per_layer"), catalogue(report::per_layer()));
    let Value::Array(workloads) = &doc["workloads"] else {
        panic!("workloads is not a list");
    };
    let names: Vec<(String, String)> = workloads
        .iter()
        .map(|w| match (&w["name"], &w["why"]) {
            (Value::String(n), Value::String(y)) => (n.clone(), y.clone()),
            other => panic!("bad workload entry {other:?}"),
        })
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|&(n, y)| (n.to_owned(), y.to_owned()))
        .collect();
    assert_eq!(names, expected);
}

/// Two traced passes (the first untraced) of `w`, under the obs lock.
fn two_passes<W: Workload>(w: &W) -> RunOutput {
    let _guard = OBS.lock().unwrap_or_else(|p| p.into_inner());
    let cfg = RunConfig {
        seed: 11,
        seconds: 0.0,
        trace: true,
    };
    drive(w, &cfg)
}

fn assert_clean(out: &RunOutput) {
    let first = &out.passes[0].pass;
    for rec in &out.passes {
        assert!(rec.pass.problems.is_empty(), "{:?}", rec.pass.problems);
        assert_eq!(rec.pass.failed, 0);
        assert_eq!(rec.pass.replay, first.replay, "result bits must repeat");
    }
}

fn assert_counts_exact(out: &RunOutput) {
    let per_pass: Vec<_> = out
        .passes
        .iter()
        .map(|p| report::layer_values(&p.pass, &p.tracer))
        .collect();
    for (name, label) in report::count_stability(&per_pass) {
        assert_eq!(
            label.stability, "exact",
            "{name} spread {}..{}",
            label.min, label.max
        );
    }
    let traced = out.passes.last().expect("two passes");
    assert!(traced.tracer.enabled());
    assert!(
        report::attribution_gaps(traced).is_empty(),
        "{:?}",
        report::attribution_gaps(traced)
    );
}

#[test]
fn evaluate_counts_repeat_exactly() {
    // The first two slice cases: one reaches the dense rescue, one not.
    let out = two_passes(&Evaluate4rm { cases: 2 });
    assert_clean(&out);
    assert_counts_exact(&out);
    let layer = report::per_layer_values(&out);
    assert!(layer["netscore.eval_s.dense"] > 0.0);
    assert!(layer["netscore.eval_s.krylov"] > 0.0);
    assert!(layer["ladder.diag_routed"] > 0.0);
}

#[test]
fn transient_counts_repeat_exactly() {
    let out = two_passes(&Transient4rm { grid: 21 });
    assert_clean(&out);
    assert_counts_exact(&out);
    let layer = report::per_layer_values(&out);
    assert_eq!(layer["ladder.diag_routed"], 0.0);
    assert_eq!(layer["par.spmv_parallel"], 0.0);
    assert!(layer["scenario.run_s"] > 0.0);
}

#[test]
fn design_serve_quick_batch_checks_out() {
    let out = two_passes(&DesignServe {
        preset: SearchPreset::Quick,
    });
    assert_clean(&out);
    let e2e = report::end_to_end_values(&out);
    assert_eq!(e2e["feasible_frac"], 1.0);
    assert_eq!(e2e["ok_frac"], 1.0);
    let layer = report::per_layer_values(&out);
    assert_eq!(layer["serve.attempts"], 3.0);
    assert!(layer["eval.requests"] > 0.0);
}
