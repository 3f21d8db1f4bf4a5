//! Metric catalogues, per-layer derivation, count stability and the
//! printed artifact.

use crate::trace::Tracer;
use crate::{median, Pass, PassRecord, RunOutput};
use serde::Serialize;
use std::collections::BTreeMap;

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which direction is better.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("wall_s", "s", "lower"),
        def("cpu_s", "s", "lower"),
        def("ok_frac", "ratio", "higher"),
        def("p1_w_pump_uW", "uW", "lower"),
        def("p2_delta_t_K", "K", "lower"),
        def("feasible_frac", "ratio", "higher"),
        def("pump_energy_mJ", "mJ", "lower"),
        def("peak_delta_t_K", "K", "lower"),
    ]
}

/// `coolnet-obs` counters reported as they are.
const OBS_COUNTERS: [(&str, &str); 24] = [
    ("eval.cache_hits", "higher"),
    ("eval.cache_misses", "lower"),
    ("eval.cache_evictions", "lower"),
    ("psearch.probes", "lower"),
    ("flow.assemblies", "lower"),
    ("flow.pumping_power_evals", "lower"),
    ("probe.steady_solves", "lower"),
    ("probe.refreshes", "lower"),
    ("probe.refresh_skips", "higher"),
    ("probe.symbolic_builds", "lower"),
    ("probe.warm_starts", "higher"),
    ("scenario.events_applied", "lower"),
    ("scenario.forced_intervals", "lower"),
    ("ladder.solves", "lower"),
    ("ladder.attempts", "lower"),
    ("ladder.diag_routed", "lower"),
    ("ladder.rung0_converged", "higher"),
    ("ladder.rung1_converged", "lower"),
    ("ladder.rung2_converged", "lower"),
    ("ladder.rung3_converged", "lower"),
    ("ladder.rung4plus_converged", "lower"),
    ("ladder.exhausted", "lower"),
    ("ladder.hinted_solves", "higher"),
    ("par.spmv_parallel", "higher"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("serve.queue_wait_s", "s", "lower"),
        def("serve.job_s", "s", "lower"),
        def("serve.attempts", "count", "lower"),
        def("eval.requests", "count", "lower"),
        def("eval.cache_hit_ratio", "ratio", "higher"),
        def("psearch.probes_per_eval", "count", "lower"),
        def("netscore.p1_s", "s", "lower"),
        def("netscore.p2_s", "s", "lower"),
        def("netscore.eval_s", "s", "lower"),
        def("netscore.eval_s.dense", "s", "lower"),
        def("netscore.eval_s.krylov", "s", "lower"),
        def("netscore.dense_share", "ratio", "lower"),
        def("netscore.dense_evals", "count", "lower"),
        def("evaluate.build_s", "s", "lower"),
        def("scenario.run_s", "s", "lower"),
    ];
    for name in crate::transient::preset_names() {
        defs.push(def(format!("scenario.run_s.{name}"), "s", "lower"));
    }
    defs.extend([
        def("scenario.intervals_per_s", "1/s", "higher"),
        def("ladder.wasted_attempts", "count", "lower"),
        def("ladder.dense_share", "ratio", "lower"),
        def("ladder.iterations", "count", "lower"),
        def("ladder.iterations_per_solve", "count", "lower"),
        def("network.build_s", "s", "lower"),
        def("cases.expand_s", "s", "lower"),
        def("process.peak_rss_mb", "MB", "lower"),
        def("trace.wall_s", "s", "lower"),
        def("trace.overhead_s", "s", "lower"),
    ]);
    defs.extend(OBS_COUNTERS.iter().map(|&(n, b)| def(n, "count", b)));
    defs
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer values of one pass: `coolnet-obs` deltas over the
/// measured window, span totals, and the workload's own values.
pub fn layer_values(pass: &Pass, tr: &Tracer) -> BTreeMap<String, f64> {
    let d = &pass.obs;
    let c = |name: &str| d.counter(name) as f64;
    let mut m: BTreeMap<String, f64> = OBS_COUNTERS
        .iter()
        .map(|&(n, _)| (n.to_owned(), c(n)))
        .collect();
    let requests = c("eval.cache_hits") + c("eval.cache_misses");
    let iterations = d.histograms.get("ladder.iterations").map_or(0, |h| h.sum) as f64;
    let evaluations = pass
        .layer
        .get("psearch.evaluations")
        .copied()
        .unwrap_or(0.0);
    let derived = [
        ("eval.requests", requests),
        (
            "eval.cache_hit_ratio",
            ratio(c("eval.cache_hits"), requests),
        ),
        (
            "psearch.probes_per_eval",
            ratio(c("psearch.probes"), evaluations),
        ),
        (
            "ladder.wasted_attempts",
            (c("ladder.attempts") - c("ladder.solves")).max(0.0),
        ),
        (
            "ladder.dense_share",
            ratio(c("ladder.diag_routed"), c("ladder.solves")),
        ),
        ("ladder.iterations", iterations),
        (
            "ladder.iterations_per_solve",
            ratio(iterations, c("ladder.solves")),
        ),
        ("evaluate.build_s", tr.total_secs("evaluate.build")),
        ("network.build_s", tr.total_secs("network.build")),
        ("cases.expand_s", tr.total_secs("cases.expand")),
    ];
    m.extend(derived.iter().map(|&(n, v)| (n.to_owned(), v)));
    m.extend(pass.layer.iter().map(|(n, &v)| (n.clone(), v)));
    let eval_s = m.get("netscore.eval_s").copied().unwrap_or(0.0);
    let dense_s = m.get("netscore.eval_s.dense").copied().unwrap_or(0.0);
    m.insert("netscore.dense_share".into(), ratio(dense_s, eval_s));
    m
}

/// Whether a count repeated over the passes of a run.
#[derive(Debug, Clone, Serialize)]
pub struct CountStability {
    /// The count in the last pass.
    pub value: f64,
    /// `"exact"` when every pass saw the same count, else `"spread"`.
    pub stability: &'static str,
    /// Smallest count over the passes.
    pub min: f64,
    /// Largest count over the passes.
    pub max: f64,
}

/// Labels every count metric as exact or spread over `per_pass`.
pub fn count_stability(per_pass: &[BTreeMap<String, f64>]) -> BTreeMap<String, CountStability> {
    per_layer()
        .into_iter()
        .filter(|d| d.unit == "count")
        .map(|d| {
            let values: Vec<f64> = per_pass
                .iter()
                .map(|m| m.get(&d.name).copied().unwrap_or(0.0))
                .collect();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let label = CountStability {
                value: values.last().copied().unwrap_or(0.0),
                stability: if min == max { "exact" } else { "spread" },
                min,
                max,
            };
            (d.name, label)
        })
        .collect()
}

/// Counters whose per-operation deltas do not add up to the pass delta
/// (empty when the operations attribute every count exactly).
pub fn attribution_gaps(rec: &PassRecord) -> Vec<String> {
    rec.pass
        .obs
        .counters
        .iter()
        .filter(|(name, &total)| rec.tracer.op_counter_sum(name) != total)
        .map(|(name, &total)| {
            format!(
                "{name}: ops {} vs pass {total}",
                rec.tracer.op_counter_sum(name)
            )
        })
        .collect()
}

/// Formats a 64-bit pattern as 16 hex digits.
pub fn hex(bits: u64) -> String {
    format!("{bits:016x}")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end values of a run.
pub fn end_to_end_values(out: &RunOutput) -> BTreeMap<String, f64> {
    let walls: Vec<f64> = out.passes.iter().map(|p| p.pass.wall_s).collect();
    let cpus: Vec<f64> = out.passes.iter().map(|p| p.pass.cpu_s).collect();
    let (attempted, failed) = out.totals();
    let q = out
        .passes
        .first()
        .map(|p| p.pass.quality)
        .unwrap_or_default();
    [
        ("setup_s", median(&out.setup_s)),
        ("wall_s", median(&walls)),
        ("cpu_s", median(&cpus)),
        ("ok_frac", 1.0 - ratio(failed as f64, attempted as f64)),
        ("p1_w_pump_uW", q.p1_w_pump_uw),
        ("p2_delta_t_K", q.p2_delta_t_k),
        ("feasible_frac", q.feasible_frac),
        ("pump_energy_mJ", q.pump_energy_mj),
        ("peak_delta_t_K", q.peak_delta_t_k),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_owned(), v))
    .collect()
}

/// The per-layer values of a traced run: the median over traced passes,
/// plus the tracing overhead against the untraced first pass.
pub fn per_layer_values(out: &RunOutput) -> BTreeMap<String, f64> {
    let traced: Vec<&PassRecord> = out.passes.iter().filter(|p| p.tracer.enabled()).collect();
    let untraced: Vec<f64> = out
        .passes
        .iter()
        .filter(|p| !p.tracer.enabled())
        .map(|p| p.pass.wall_s)
        .collect();
    let per_pass: Vec<BTreeMap<String, f64>> = traced
        .iter()
        .map(|p| layer_values(&p.pass, &p.tracer))
        .collect();
    let traced_wall = median(&traced.iter().map(|p| p.pass.wall_s).collect::<Vec<_>>());
    per_layer()
        .into_iter()
        .map(|d| {
            let v = match d.name.as_str() {
                "process.peak_rss_mb" => peak_rss_mb(),
                "trace.wall_s" => traced_wall,
                "trace.overhead_s" => traced_wall - median(&untraced),
                name => median(
                    &per_pass
                        .iter()
                        .map(|m| m.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            (d.name, v)
        })
        .collect()
}

/// The benchmark's final line: `{"correct", "attempted", "failed",
/// "metrics"}` with every metric of `defs` taken from `values`.
pub fn result_line(
    correct: bool,
    out: &RunOutput,
    defs: &[MetricDef],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut metrics = serde_json::Map::new();
    for d in defs {
        let v = values.get(&d.name).copied().unwrap_or(f64::NAN);
        let v = if v.is_finite() { v } else { 0.0 };
        metrics.insert(
            d.name.clone(),
            serde_json::json!({"value": v, "unit": (d.unit)}),
        );
    }
    let (attempted, failed) = out.totals();
    let line = serde_json::json!({
        "correct": correct,
        "attempted": (attempted.max(1)),
        "failed": failed,
        "metrics": (serde_json::Value::Object(metrics))
    });
    serde_json::to_string(&line).unwrap_or_default()
}
