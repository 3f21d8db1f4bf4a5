//! Differential-fidelity sweep over the generated case corpus.
//!
//! ```sh
//! cargo run --release -p coolnet-bench --bin diff_bench
//! cargo run --release -p coolnet-bench --bin diff_bench -- --quick
//! cargo run --release -p coolnet-bench --bin diff_bench -- --emit-jobs examples/corpus_jobs.json
//! ```
//!
//! Expands `corpus(seed, 120)` ([`coolnet::cases::gen::corpus`]) and runs
//! every generated case through the six differential checks of
//! [`coolnet::opt::differential`]: serde and case-file round-trips,
//! 2RM-vs-4RM agreement under the rise-relative metric, the analytic
//! single-channel closed form, Algorithm 3 optimum stability across
//! models, and the energy-balance pressure floor. Writes `BENCH_diff.json` into `--out`
//! (default `target/experiments`) with per-case reports and the contract
//! bits the CI smoke step gates on:
//!
//! * `all_ok` — every case passed every gated check;
//! * `all_identical` — re-running the whole sweep at the same config
//!   reproduced the base corpus fingerprint bit-for-bit
//!   (`replay_fingerprint == fingerprint`);
//! * `ladder.wasted_attempts` — solve-ladder attempts beyond one per
//!   solve over the base sweep (expected 0: these systems are SPD and
//!   must solve on the Krylov step).
//!
//! `--quick` trims the corpus to a small-grid slice so the smoke step
//! stays fast; the committed artifact at the repo root comes from a full
//! 120-case run. `--emit-jobs PATH` instead writes a few corpus-fed
//! `coolnet-serve` job specs (`"case": 0` sentinel plus an embedded
//! `case_spec`) and exits — the source of `examples/corpus_jobs.json`.

#![forbid(unsafe_code)]

use coolnet::cases::gen::{corpus, CaseSpec};
use coolnet::opt::differential::{fingerprint, run_case, CaseReport, DiffConfig};
use coolnet_bench::{write_json, HarnessOpts, LadderSummary};
use coolnet_obs::MetricsSnapshot;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// Evaluation-cache deltas over the base sweep. The differential checks
/// drive the models directly (no [`coolnet::opt::evalcache`]), so these
/// stay 0 — recorded anyway so the artifact shape matches the other
/// benches and a future regression that routes the sweep through the
/// cache shows up as a diff.
#[derive(Debug, Serialize)]
struct CacheSummary {
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl CacheSummary {
    fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> Self {
        Self {
            cache_hits: after.counter_delta(before, "eval.cache_hits"),
            cache_misses: after.counter_delta(before, "eval.cache_misses"),
            cache_evictions: after.counter_delta(before, "eval.cache_evictions"),
        }
    }
}

/// The artifact: enough context to compare sweeps across commits.
#[derive(Debug, Serialize)]
struct DiffBench {
    /// Quick (small-grid slice) or full 120-case run.
    quick: bool,
    /// Corpus seed.
    seed: u64,
    /// Generated cases actually swept.
    cases_run: usize,
    /// Cases where every gated check passed.
    passed: usize,
    /// Every case met the rise-relative 2RM-vs-4RM gate.
    all_agreement_ok: bool,
    /// Every case matched the analytic single-channel closed form.
    all_analytic_ok: bool,
    /// Every spec and case file survived its round-trip bit-identically.
    all_roundtrip_ok: bool,
    /// Every case's Algorithm 3 optima agreed across models.
    all_optimum_ok: bool,
    /// Every case violated `T*_max` just under its energy-balance floor.
    all_energy_bound_ok: bool,
    /// All of the above.
    all_ok: bool,
    /// Hex FNV-1a corpus fingerprint of the base sweep (hex so `jq`
    /// string compares are exact; JSON numbers round above 2^53).
    fingerprint: String,
    /// Hex corpus fingerprint of a whole-sweep replay at the same config.
    replay_fingerprint: String,
    /// The replay reproduced the base fingerprint bit-for-bit.
    all_identical: bool,
    /// Wall time of the base sweep, seconds.
    wall_s: f64,
    /// Solve-ladder escalation accounting over the base sweep.
    ladder: LadderSummary,
    /// Evaluation-cache deltas over the base sweep (expected all 0).
    cache: CacheSummary,
    /// Snapshot of every `coolnet-obs` metric taken right after the base
    /// sweep, so its counters cover the same window as `ladder` and
    /// `cache` (the replay is not counted).
    metrics: MetricsSnapshot,
    /// Per-case differential reports.
    cases: Vec<CaseReport>,
}

/// Full corpus size; the `--quick` slice is drawn from the same corpus so
/// quick-mode case names are a subset of the committed artifact's.
const CORPUS_SIZE: usize = 120;

fn sweep(specs: &[CaseSpec], cfg: &DiffConfig) -> Vec<CaseReport> {
    specs
        .iter()
        .map(|spec| run_case(spec, cfg).unwrap_or_else(|e| panic!("case {}: {e}", spec.name)))
        .collect()
}

/// The serde surface of a corpus-fed `coolnet-serve` job: the `0` case
/// sentinel routes `JobSpec::benchmark` through the embedded spec; every
/// other `JobSpec` field has a serde default.
#[derive(Debug, Serialize)]
struct CorpusJob {
    id: String,
    case: usize,
    case_spec: CaseSpec,
    problem: String,
    seed: u64,
}

fn emit_jobs(path: &Path, specs: &[CaseSpec]) {
    // A few small corpus cases as serve job specs; problems alternate so
    // the example exercises both formulations.
    let jobs: Vec<CorpusJob> = specs
        .iter()
        .filter(|s| s.grid <= 21)
        .take(3)
        .enumerate()
        .map(|(i, spec)| CorpusJob {
            id: format!("corpus-{}", spec.name),
            case: 0,
            case_spec: spec.clone(),
            problem: if i % 2 == 0 {
                "PumpingPower"
            } else {
                "ThermalGradient"
            }
            .to_owned(),
            seed: 7,
        })
        .collect();
    write_json(path, &jobs);
}

fn main() {
    let opts = HarnessOpts::from_args();
    let quick = opts.rest.iter().any(|a| a == "--quick");
    let all_specs = corpus(opts.seed, CORPUS_SIZE);

    if let Some(i) = opts.rest.iter().position(|a| a == "--emit-jobs") {
        let path = opts.rest.get(i + 1).expect("--emit-jobs needs a path");
        emit_jobs(Path::new(path), &all_specs);
        return;
    }

    let specs: Vec<CaseSpec> = if quick {
        all_specs
            .into_iter()
            .filter(|s| s.grid <= 21)
            .take(8)
            .collect()
    } else {
        all_specs
    };
    let cfg = if quick {
        DiffConfig {
            coarsenings: vec![2],
            ..DiffConfig::default()
        }
    } else {
        DiffConfig::default()
    };
    println!(
        "diff_bench: {} cases (seed {}, {})",
        specs.len(),
        opts.seed,
        if quick { "quick" } else { "full" }
    );

    let before = coolnet_obs::snapshot();
    let t0 = Instant::now();
    let reports = sweep(&specs, &cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let after = coolnet_obs::snapshot();
    let base_fp = fingerprint(&reports);
    println!("  base sweep: {:.1} s, fingerprint {base_fp:016x}", wall_s);

    let replay_fp = fingerprint(&sweep(&specs, &cfg));
    println!("  replay: fingerprint {replay_fp:016x}");

    let artifact = DiffBench {
        quick,
        seed: opts.seed,
        cases_run: reports.len(),
        passed: reports.iter().filter(|r| r.all_ok()).count(),
        all_agreement_ok: reports.iter().all(|r| r.agreement_ok),
        all_analytic_ok: reports.iter().all(|r| r.analytic_ok),
        all_roundtrip_ok: reports
            .iter()
            .all(|r| r.serde_roundtrip_ok && r.file_roundtrip_ok),
        all_optimum_ok: reports.iter().all(|r| r.optimum.ok),
        all_energy_bound_ok: reports.iter().all(|r| r.energy_bound_ok),
        all_ok: reports.iter().all(CaseReport::all_ok),
        fingerprint: format!("{base_fp:016x}"),
        replay_fingerprint: format!("{replay_fp:016x}"),
        all_identical: replay_fp == base_fp,
        wall_s,
        ladder: LadderSummary::delta(&after, &before),
        cache: CacheSummary::delta(&after, &before),
        metrics: after,
        cases: reports,
    };
    println!(
        "  passed {}/{}, all_ok = {}, all_identical = {}",
        artifact.passed, artifact.cases_run, artifact.all_ok, artifact.all_identical
    );
    write_json(&opts.out_path("BENCH_diff.json"), &artifact);
    assert!(artifact.all_ok, "differential gates failed");
    assert!(artifact.all_identical, "replay diverged");
}
