//! Staged SA search over hierarchical tree-like networks (§4.4, §5).
//!
//! Each tree contributes two parameters — the branch positions `(b1, b2)` —
//! and the search perturbs them per tree with stage-dependent step sizes.
//! Stages follow the paper's Table 1 shape: early stages are rough and
//! cheap (fixed-pressure `ΔT` cost, many rounds, 2RM), later stages use
//! the full network evaluation and finally the 4RM model. All global flow
//! directions are attempted and the best kept (§4.4); the three branch
//! types are chosen by the caller to fit the chip size.

use crate::control::{CutPoint, SearchControl};
use crate::evalcache::{BuiltEval, EvalCache, ScoreKey};
use crate::evaluate::{Evaluator, ModelChoice, OperatingPoint};
use crate::netscore::{evaluate_problem1, evaluate_problem2, NetworkScore};
use crate::pool::Pool;
use crate::psearch::PressureSearchOptions;
use crate::result::DesignResult;
use crate::sa::Acceptor;
use crate::Problem;
use coolnet_cases::Benchmark;
use coolnet_network::builders::tree::{self, BranchStyle, TreeConfig};
use coolnet_network::builders::GlobalFlow;
use coolnet_network::CoolingNetwork;
use coolnet_obs::LazyCounter;
use coolnet_units::Pascal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::sync::Arc;

/// Scores that came out `+∞` because a solve returned an error (as opposed
/// to a candidate that is physically infeasible).
static M_SOLVER_ERRORS: LazyCounter = LazyCounter::new("eval.solver_errors");

/// The cost metric of one SA stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageMetric {
    /// `ΔT` under a frozen `P_sys` — a single simulation per candidate
    /// (stage 1 of the Problem-1 schedule).
    FixedPressureGradient,
    /// The full network evaluation (`W'_pump` or minimum `ΔT`).
    Full,
}

/// One stage of the staged schedule (the paper's Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    /// SA iterations per round.
    pub iterations: usize,
    /// Independent rounds (different seeds); round winners are re-scored
    /// with the next stage's metric and the best one seeds it.
    pub rounds: usize,
    /// Branch-position move step in basic cells (kept even).
    pub step: u16,
    /// Thermal model for this stage.
    pub model: ModelChoice,
    /// Cost metric.
    pub metric: StageMetric,
    /// Problem-2 grouping: every `group`-th iteration re-runs the full
    /// evaluation and freezes its optimal pressure for the rest of the
    /// group (§5, adaptation 2). `1` disables grouping.
    pub group: usize,
}

/// Options of the evaluation-reuse layer: how the staged SA amortizes
/// repeated work across iterations. Both knobs are behaviorally
/// transparent — a fixed seed yields the same [`DesignResult`] at any
/// setting — so they trade memory and threads against wall-clock time
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseOptions {
    /// Capacity of the per-run [`EvalCache`] (built networks, warm
    /// evaluators and memoized scores per `(config, model)`); `0` disables
    /// caching entirely.
    pub cache_capacity: usize,
    /// Number of evaluation worker threads; `0` (the default) follows
    /// [`TreeSearchOptions::parallelism`].
    ///
    /// This decouples *how many* candidates each iteration proposes
    /// (`parallelism`, which shapes the RNG draw sequence and therefore
    /// the search trajectory) from *how many threads* score them. Any
    /// value yields a bit-identical [`DesignResult`] for a fixed job:
    /// RNG draws happen on the coordinating thread, results are written
    /// back by candidate index, and cache entries compute deterministically
    /// — the thread-sweep determinism suite pins exactly this.
    pub worker_threads: usize,
}

impl Default for ReuseOptions {
    /// Cache 512 entries, threads follow parallelism.
    fn default() -> Self {
        Self {
            cache_capacity: 512,
            worker_threads: 0,
        }
    }
}

impl ReuseOptions {
    /// No cache: every request is built and scored from scratch. The
    /// reference arm of the cache-transparency tests and benchmarks.
    pub fn off() -> Self {
        Self {
            cache_capacity: 0,
            worker_threads: 0,
        }
    }

    /// Like [`Default`], but scoring on exactly `threads` worker threads.
    pub fn with_worker_threads(threads: usize) -> Self {
        Self {
            worker_threads: threads,
            ..Self::default()
        }
    }
}

/// Options of the tree-network search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeSearchOptions {
    /// Stage schedule.
    pub stages: Vec<Stage>,
    /// Global flow directions to attempt.
    pub flows: Vec<GlobalFlow>,
    /// Branch style (chosen "manually to fit the chip size").
    pub style: BranchStyle,
    /// Number of trees; `0` selects the maximum that fits.
    pub num_trees: usize,
    /// Neighbors evaluated in parallel per iteration.
    pub parallelism: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Pressure-search options used by the inner evaluations.
    pub psearch: PressureSearchOptions,
    /// Evaluation-reuse knobs (cache + persistent worker pool).
    pub reuse: ReuseOptions,
}

impl TreeSearchOptions {
    /// The paper's Problem-1 schedule: 60/40/40/30 iterations over
    /// 8/4/2/1 rounds; large steps then small; 2RM until the final 4RM
    /// stage (§6).
    pub fn paper_problem1(seed: u64) -> Self {
        let two = ModelChoice::fast();
        Self {
            stages: vec![
                Stage {
                    iterations: 60,
                    rounds: 8,
                    step: 8,
                    model: two,
                    metric: StageMetric::FixedPressureGradient,
                    group: 1,
                },
                Stage {
                    iterations: 40,
                    rounds: 4,
                    step: 8,
                    model: two,
                    metric: StageMetric::Full,
                    group: 1,
                },
                Stage {
                    iterations: 40,
                    rounds: 2,
                    step: 2,
                    model: two,
                    metric: StageMetric::Full,
                    group: 1,
                },
                Stage {
                    iterations: 30,
                    rounds: 1,
                    step: 2,
                    model: ModelChoice::FourRm,
                    metric: StageMetric::Full,
                    group: 1,
                },
            ],
            flows: GlobalFlow::ALL.to_vec(),
            style: BranchStyle::Binary,
            num_trees: 0,
            parallelism: 8,
            seed,
            psearch: PressureSearchOptions::default(),
            reuse: ReuseOptions::default(),
        }
    }

    /// The paper's Problem-2 schedule: 80/20/20 iterations over 8/2/1
    /// rounds with grouped evaluations; 4RM already in the last two stages
    /// thanks to the grouping speed-up (§5, §6).
    pub fn paper_problem2(seed: u64) -> Self {
        let two = ModelChoice::fast();
        Self {
            stages: vec![
                Stage {
                    iterations: 80,
                    rounds: 8,
                    step: 8,
                    model: two,
                    metric: StageMetric::Full,
                    group: 5,
                },
                Stage {
                    iterations: 20,
                    rounds: 2,
                    step: 2,
                    model: two,
                    metric: StageMetric::Full,
                    group: 5,
                },
                Stage {
                    iterations: 20,
                    rounds: 1,
                    step: 2,
                    model: ModelChoice::FourRm,
                    metric: StageMetric::Full,
                    group: 5,
                },
            ],
            flows: GlobalFlow::ALL.to_vec(),
            style: BranchStyle::Binary,
            num_trees: 0,
            parallelism: 8,
            seed,
            psearch: PressureSearchOptions::default(),
            reuse: ReuseOptions::default(),
        }
    }

    /// A mid-effort schedule for the reduced-scale experiment harness:
    /// the paper's four-stage structure with fewer iterations/rounds, a
    /// 4RM final stage, and `group` set for Problem-2 style runs.
    pub fn reduced(seed: u64) -> Self {
        let two = ModelChoice::fast();
        Self {
            stages: vec![
                Stage {
                    iterations: 16,
                    rounds: 4,
                    step: 8,
                    model: two,
                    metric: StageMetric::FixedPressureGradient,
                    group: 1,
                },
                Stage {
                    iterations: 12,
                    rounds: 2,
                    step: 4,
                    model: two,
                    metric: StageMetric::Full,
                    group: 4,
                },
                Stage {
                    iterations: 8,
                    rounds: 1,
                    step: 2,
                    model: two,
                    metric: StageMetric::Full,
                    group: 4,
                },
                Stage {
                    iterations: 6,
                    rounds: 1,
                    step: 2,
                    model: ModelChoice::FourRm,
                    metric: StageMetric::Full,
                    group: 4,
                },
            ],
            flows: GlobalFlow::ALL.to_vec(),
            style: BranchStyle::Binary,
            num_trees: 0,
            parallelism: 4,
            seed,
            psearch: PressureSearchOptions {
                rel_tol: 0.02,
                max_probes: 60,
                ..PressureSearchOptions::default()
            },
            reuse: ReuseOptions::default(),
        }
    }

    /// A heavily reduced schedule for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        let two = ModelChoice::fast();
        Self {
            stages: vec![
                Stage {
                    iterations: 5,
                    rounds: 2,
                    step: 4,
                    model: two,
                    metric: StageMetric::FixedPressureGradient,
                    group: 1,
                },
                Stage {
                    iterations: 4,
                    rounds: 1,
                    step: 2,
                    model: two,
                    metric: StageMetric::Full,
                    group: 2,
                },
            ],
            flows: vec![GlobalFlow::WestToEast, GlobalFlow::SouthToNorth],
            style: BranchStyle::Binary,
            num_trees: 0,
            parallelism: 2,
            seed,
            psearch: PressureSearchOptions {
                rel_tol: 0.05,
                max_probes: 30,
                ..PressureSearchOptions::default()
            },
            reuse: ReuseOptions::default(),
        }
    }
}

/// What one evaluation request computes for its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalKind {
    /// The full network evaluation: problem objective + optimal pressure.
    Full,
    /// `ΔT` at a frozen pressure — the rough stage-1 metric, deliberately
    /// problem-independent (the paper uses it to shape the landscape, not
    /// to compare against full objectives).
    GradientAt(Pascal),
    /// The problem objective at a frozen pressure (grouped iterations).
    /// Unlike [`EvalKind::GradientAt`], this is commensurable with
    /// [`EvalKind::Full`] costs: Metropolis compares the two directly at
    /// group boundaries.
    ObjectiveAt(Pascal),
}

/// One scoring request dispatched to the evaluation layer. Owns its
/// configuration, so requests can cross thread boundaries into shared
/// execution substrates.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// The candidate tree configuration to score.
    pub config: TreeConfig,
    /// The thermal model to score it with.
    pub model: ModelChoice,
    /// What to compute.
    pub kind: EvalKind,
}

/// `(cost, the operating point if a full evaluation found a feasible one)`.
pub type EvalResponse = (f64, Option<OperatingPoint>);

/// An external batch-execution substrate for candidate scoring — the seam
/// a multi-job service plugs its process-wide solver pool into (see
/// [`TreeSearch::run_with_exec`]).
///
/// Implementations must preserve item order and absorb per-item failures
/// as `(f64::INFINITY, None)`; determinism of the search only relies on
/// *values*, never on scoring latency or thread placement.
pub trait EvalExec: Sync {
    /// Scores one batch of requests, preserving order.
    fn score_batch(&self, reqs: Vec<EvalRequest>) -> Vec<EvalResponse>;
}

/// Scores one batch through `exec`. A substrate that returns a short
/// batch must not desynchronize the candidate/cost pairing, so missing
/// responses are padded as failures. A NaN cost is as infeasible as an
/// infinite one: it becomes `+∞` here, before any selection or
/// Metropolis test sees it.
fn score_all(exec: &dyn EvalExec, reqs: Vec<EvalRequest>) -> Vec<EvalResponse> {
    let n = reqs.len();
    let mut out = exec.score_batch(reqs);
    out.resize(n, (f64::INFINITY, None));
    for (cost, _) in out.iter_mut().filter(|(c, _)| c.is_nan()) {
        *cost = f64::INFINITY;
    }
    out
}

/// Scores one request through the same path as batches, so cache hits and
/// pool accounting see it too.
fn score_one(exec: &dyn EvalExec, req: EvalRequest) -> EvalResponse {
    score_all(exec, vec![req])
        .into_iter()
        .next()
        .unwrap_or((f64::INFINITY, None))
}

/// An [`EvalExec`] that scores batches on a [`Pool`], owned (the
/// run-private pool of [`TreeSearch::run_controlled`]) or borrowed (a
/// process-wide pool shared across jobs). A request whose scoring panics
/// gets `(+∞, None)`.
pub struct PoolExec<P, F> {
    pool: P,
    score: Arc<F>,
}

impl<P, F> PoolExec<P, F>
where
    P: Borrow<Pool> + Sync,
    F: Fn(&EvalRequest) -> EvalResponse + Send + Sync + 'static,
{
    /// Scores every request with `score` on the workers of `pool`.
    pub fn new(pool: P, score: F) -> Self {
        Self {
            pool,
            score: Arc::new(score),
        }
    }
}

impl<P, F> EvalExec for PoolExec<P, F>
where
    P: Borrow<Pool> + Sync,
    F: Fn(&EvalRequest) -> EvalResponse + Send + Sync + 'static,
{
    fn score_batch(&self, reqs: Vec<EvalRequest>) -> Vec<EvalResponse> {
        self.pool
            .borrow()
            .execute(reqs, &self.score, (f64::INFINITY, None))
            .0
    }
}

/// A self-contained scoring engine for [`EvalRequest`]s: everything needed
/// to build and score candidate configurations for one `(benchmark,
/// problem)` pair, owning its inputs so it is `Send + Sync + 'static`.
///
/// [`TreeSearch`] builds one per run; a multi-job service holds one per
/// job in an `Arc` and scores requests from pooled worker threads shared
/// across jobs. When a cache is attached, scores are memoized under the
/// scorer's scope key, so heterogeneous jobs can share one process-wide
/// [`EvalCache`] without cross-contamination.
pub struct RequestScorer {
    bench: Benchmark,
    psearch: PressureSearchOptions,
    problem: Problem,
    cache: Option<Arc<EvalCache>>,
    scope: u64,
}

impl RequestScorer {
    /// A scorer for `problem` on `bench` (cloned), uncached.
    pub fn new(bench: &Benchmark, psearch: PressureSearchOptions, problem: Problem) -> Self {
        // Export an explicit zero from the first scorer on.
        M_SOLVER_ERRORS.register();
        Self {
            bench: bench.clone(),
            psearch,
            problem,
            cache: None,
            scope: 0,
        }
    }

    /// Attaches a (possibly shared) cache; `scope` must uniquely identify
    /// every input that affects scores beyond the per-request key — in
    /// practice a hash of the benchmark and pressure-search options. Two
    /// scorers may share a cache with the same scope only if they would
    /// produce identical scores for identical requests.
    pub fn with_cache(mut self, cache: Arc<EvalCache>, scope: u64) -> Self {
        self.cache = Some(cache);
        self.scope = scope;
        self
    }

    /// Scores one request, through the cache when one is attached. Solver
    /// errors are absorbed as `+∞` and counted in `eval.solver_errors`.
    pub fn score(&self, req: &EvalRequest) -> EvalResponse {
        match &self.cache {
            Some(cache) => {
                let key = match req.kind {
                    EvalKind::Full => ScoreKey::Full(self.problem),
                    EvalKind::GradientAt(p) => ScoreKey::gradient_at(p),
                    EvalKind::ObjectiveAt(p) => ScoreKey::objective_at(self.problem, p),
                };
                cache.eval_scoped(
                    self.scope,
                    &req.config,
                    req.model,
                    key,
                    || self.build_eval(&req.config, req.model),
                    |ev| self.compute(req.kind, ev),
                )
            }
            None => match self.build_eval(&req.config, req.model) {
                Some(built) => self.compute(req.kind, &built.ev),
                None => (f64::INFINITY, None),
            },
        }
    }

    /// Builds the network and evaluator for a configuration (the cache
    /// miss path; `None` marks the configuration unbuildable).
    fn build_eval(&self, config: &TreeConfig, model: ModelChoice) -> Option<BuiltEval> {
        let net = tree::build(
            self.bench.dims,
            &self.bench.tsv,
            &self.bench.restricted,
            config,
        )
        .ok()?;
        let ev = Evaluator::new(&self.bench, &net, model)
            .map_err(count_solver_error)
            .ok()?;
        Some(BuiltEval { net, ev })
    }

    /// Computes one request's value on an evaluator. This is the single
    /// scoring function of the staged SA; every metric variant lives here
    /// so the cached and uncached paths cannot drift apart.
    fn compute(&self, kind: EvalKind, ev: &Evaluator) -> EvalResponse {
        match kind {
            EvalKind::Full => match self.full_score(ev) {
                Some(NetworkScore::Feasible {
                    p_sys,
                    objective,
                    profile,
                }) => (
                    objective,
                    Some(OperatingPoint {
                        p_sys,
                        profile,
                        w_pump: ev.w_pump(p_sys),
                    }),
                ),
                _ => (f64::INFINITY, None),
            },
            EvalKind::GradientAt(p) => match ev.profile(p).map_err(count_solver_error) {
                Ok(profile) => (profile.delta_t.value(), None),
                Err(_) => (f64::INFINITY, None),
            },
            // Grouped iterations score with the *problem's* metric at the
            // frozen pressure, so in-group costs are commensurable with
            // the full objectives set at group boundaries. (Scoring ΔT in
            // kelvin here while boundaries set W_pump in watts let the
            // Metropolis test compare incommensurable quantities for
            // Problem 1 — the grouped-objective mixing bug.)
            EvalKind::ObjectiveAt(p) => match ev.profile(p).map_err(count_solver_error) {
                Ok(profile) => match self.problem {
                    Problem::PumpingPower => {
                        if profile.delta_t <= self.bench.delta_t_limit
                            && profile.t_max <= self.bench.t_max_limit
                        {
                            (ev.w_pump(p).value(), None)
                        } else {
                            (f64::INFINITY, None)
                        }
                    }
                    Problem::ThermalGradient => (profile.delta_t.value(), None),
                },
                Err(_) => (f64::INFINITY, None),
            },
        }
    }

    fn full_score(&self, ev: &Evaluator) -> Option<NetworkScore> {
        match self.problem {
            Problem::PumpingPower => evaluate_problem1(
                ev,
                self.bench.delta_t_limit,
                self.bench.t_max_limit,
                &self.psearch,
            )
            .map_err(count_solver_error)
            .ok(),
            Problem::ThermalGradient => evaluate_problem2(
                ev,
                self.bench.w_pump_limit(),
                self.bench.t_max_limit,
                &self.psearch,
            )
            .map_err(count_solver_error)
            .ok(),
        }
    }
}

/// Counts one solver error on its way to a `+∞` score.
fn count_solver_error<E>(_: E) {
    M_SOLVER_ERRORS.inc();
}

impl std::fmt::Debug for RequestScorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestScorer")
            .field("problem", &self.problem)
            .field("scope", &self.scope)
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

/// How a staged search ended: the explicit replacement for the old
/// `Option<DesignResult>` return, distinguishing "ran the full schedule"
/// from "was interrupted with a best-so-far incumbent" and "proved
/// infeasible".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SearchOutcome {
    /// The full schedule ran and found a feasible design.
    Completed(DesignResult),
    /// The search was stopped at `cut` (cancellation, deadline, or
    /// budget); `best` is the incumbent at the cut, measured with the
    /// final stage's model — `None` when no feasible incumbent existed
    /// yet.
    Degraded {
        /// Best-so-far design at the cut, if any was feasible.
        best: Option<DesignResult>,
        /// Where and why the search stopped; feeding it to
        /// [`SearchControl::replay`] reproduces this outcome bit for bit.
        cut: CutPoint,
    },
    /// The full schedule ran and no feasible tree-like network was found
    /// (the paper's case-5 situation).
    Infeasible,
}

impl SearchOutcome {
    /// The design carried by this outcome, if any.
    pub fn design(&self) -> Option<&DesignResult> {
        match self {
            SearchOutcome::Completed(d) => Some(d),
            SearchOutcome::Degraded { best, .. } => best.as_ref(),
            SearchOutcome::Infeasible => None,
        }
    }

    /// Consumes the outcome into its design, if any.
    pub fn into_design(self) -> Option<DesignResult> {
        match self {
            SearchOutcome::Completed(d) => Some(d),
            SearchOutcome::Degraded { best, .. } => best,
            SearchOutcome::Infeasible => None,
        }
    }

    /// The cut point, when the search was interrupted.
    pub fn cut(&self) -> Option<CutPoint> {
        match self {
            SearchOutcome::Degraded { cut, .. } => Some(*cut),
            _ => None,
        }
    }

    /// Whether the full schedule ran to completion with a feasible design.
    pub fn is_completed(&self) -> bool {
        matches!(self, SearchOutcome::Completed(_))
    }
}

/// The per-flow result: a measured design (if the flow produced one) plus
/// the cut that interrupted it (if one did).
struct FlowRun {
    result: Option<DesignResult>,
    cut: Option<CutPoint>,
}

/// The staged tree-network search (the outer level of Algorithm 1).
#[derive(Debug)]
pub struct TreeSearch<'a> {
    bench: &'a Benchmark,
    opts: TreeSearchOptions,
}

impl<'a> TreeSearch<'a> {
    /// Creates a search over `bench` with the given options.
    pub fn new(bench: &'a Benchmark, opts: TreeSearchOptions) -> Self {
        Self { bench, opts }
    }

    /// Runs the search for `problem`; returns the best feasible design
    /// measured with the final stage's model, or `None` if no feasible
    /// tree-like network was found (the paper's case-5 situation).
    ///
    /// Thin wrapper over [`run_controlled`](Self::run_controlled) with an
    /// unlimited [`SearchControl`] — an uninterrupted run's outcome always
    /// collapses losslessly into this `Option`.
    pub fn run(&self, problem: Problem) -> Option<DesignResult> {
        self.run_controlled(problem, &SearchControl::unlimited())
            .into_design()
    }

    /// Runs the search for `problem` under `control`: cancellation,
    /// deadline-token and budget crossings are observed at round and
    /// iteration boundaries (deterministic checkpoints) and degrade the
    /// run to its best-so-far incumbent instead of discarding it.
    ///
    /// The evaluation-reuse layer ([`ReuseOptions`]) is set up here: one
    /// [`EvalCache`] and one [`Pool`] serve the whole run, across every
    /// flow direction, stage, round and iteration.
    pub fn run_controlled(&self, problem: Problem, control: &SearchControl) -> SearchOutcome {
        let mut scorer = RequestScorer::new(self.bench, self.opts.psearch, problem);
        if self.opts.reuse.cache_capacity > 0 {
            let cache = Arc::new(EvalCache::new(self.opts.reuse.cache_capacity));
            // A private per-run cache needs no distinguishing scope.
            scorer = scorer.with_cache(cache, 0);
        }
        // Candidate count stays `parallelism` (it shapes the RNG draw
        // sequence); only the scoring thread count follows the override.
        let threads = match self.opts.reuse.worker_threads {
            0 => self.opts.parallelism,
            n => n,
        };
        let exec = PoolExec::new(Pool::for_run(threads), move |req: &EvalRequest| {
            scorer.score(req)
        });
        self.run_all_flows(problem, control, &exec)
    }

    /// Like [`run_controlled`](Self::run_controlled), but scoring every
    /// candidate through an external [`EvalExec`] substrate instead of a
    /// run-private pool — the entry point for a multi-job service sharing
    /// one process-wide [`Pool`] and [`EvalCache`] across tenants. The
    /// caller owns caching (attach one to the [`RequestScorer`] behind
    /// `exec`); per-run state (RNG, incumbents, frozen pressures) stays in
    /// this call's frame, so concurrent jobs cannot observe each other.
    pub fn run_with_exec(
        &self,
        problem: Problem,
        control: &SearchControl,
        exec: &dyn EvalExec,
    ) -> SearchOutcome {
        self.run_all_flows(problem, control, exec)
    }

    fn run_all_flows(
        &self,
        problem: Problem,
        control: &SearchControl,
        exec: &dyn EvalExec,
    ) -> SearchOutcome {
        let mut best: Option<DesignResult> = None;
        let mut cut: Option<CutPoint> = None;
        for (fi, &flow) in self.opts.flows.iter().enumerate() {
            let flow_run = self.run_flow(flow, fi as u64, control, exec);
            if let Some(result) = flow_run.result {
                let better = match &best {
                    None => true,
                    Some(b) => result.objective(problem) < b.objective(problem),
                };
                if better {
                    best = Some(result);
                }
            }
            if flow_run.cut.is_some() {
                cut = flow_run.cut;
                break;
            }
        }
        match (cut, best) {
            (Some(cut), best) => SearchOutcome::Degraded { best, cut },
            (None, Some(best)) => SearchOutcome::Completed(best),
            (None, None) => SearchOutcome::Infeasible,
        }
    }

    /// The along-axis length for a flow direction.
    fn along_len(&self, flow: GlobalFlow) -> u16 {
        if flow.axis().is_horizontal() {
            self.bench.dims.width()
        } else {
            self.bench.dims.height()
        }
    }

    fn initial_config(&self, flow: GlobalFlow) -> Option<TreeConfig> {
        let num_trees = if self.opts.num_trees == 0 {
            TreeConfig::max_trees(self.bench.dims, flow, self.opts.style)
        } else {
            self.opts.num_trees
        };
        if num_trees == 0 {
            return None;
        }
        let along = self.along_len(flow) as i32;
        let b1 = clamp_even(along / 3, 2, along - 6);
        let b2 = clamp_even(2 * along / 3, b1 + 2, along - 4);
        Some(TreeConfig::uniform(
            flow,
            self.opts.style,
            num_trees,
            b1 as u16,
            b2 as u16,
        ))
    }

    fn build(&self, config: &TreeConfig) -> Option<CoolingNetwork> {
        tree::build(
            self.bench.dims,
            &self.bench.tsv,
            &self.bench.restricted,
            config,
        )
        .ok()
    }

    fn perturb(&self, config: &TreeConfig, step: u16, rng: &mut StdRng) -> TreeConfig {
        let along = self.along_len(config.flow) as i32;
        let step = step.max(2) as i32;
        let mut c = config.clone();
        for t in &mut c.trees {
            // Each parameter moves by ±step or stays, with equal
            // probability (§4.4 move description).
            if rng.gen::<bool>() {
                let d = if rng.gen::<bool>() { step } else { -step };
                t.b1 = clamp_even(t.b1 as i32 + d, 2, t.b2 as i32 - 2) as u16;
            }
            if rng.gen::<bool>() {
                let d = if rng.gen::<bool>() { step } else { -step };
                t.b2 = clamp_even(t.b2 as i32 + d, t.b1 as i32 + 2, along - 4) as u16;
            }
        }
        c
    }

    fn run_flow(
        &self,
        flow: GlobalFlow,
        flow_seed: u64,
        control: &SearchControl,
        exec: &dyn EvalExec,
    ) -> FlowRun {
        let none = FlowRun {
            result: None,
            cut: None,
        };
        let Some(mut current) = self.initial_config(flow) else {
            return none;
        };
        // Reject flows whose uniform initialization cannot even be drawn.
        if self.build(&current).is_none() {
            return none;
        }

        let mut cut: Option<CutPoint> = None;
        'stages: for (si, stage) in self.opts.stages.iter().enumerate() {
            let mut round_winners: Vec<(TreeConfig, f64)> = Vec::new();
            for round in 0..stage.rounds {
                // Round-boundary checkpoint: cancellation/deadline/budget
                // crossings take effect here (and at the finer iteration
                // checkpoints inside the round), never mid-evaluation, so
                // the cut index is a pure function of the spec and seed.
                if let Err(c) = control.checkpoint() {
                    cut = Some(c);
                    break;
                }
                let seed = self
                    .opts
                    .seed
                    .wrapping_mul(0x9E37)
                    .wrapping_add(flow_seed * 1000 + (si * 64 + round) as u64);
                let (winner, round_cut) =
                    self.run_stage_round(stage, &current, seed, control, exec);
                round_winners.push(winner);
                if round_cut.is_some() {
                    cut = round_cut;
                    break;
                }
            }
            if cut.is_some() {
                // Interrupted: keep the best incumbent seen so far without
                // paying for a rescoring pass. Winners of one stage share a
                // metric, so their own costs are directly comparable; an
                // empty winner list keeps the previous stage's incumbent.
                let mut best_idx: Option<usize> = None;
                for (i, (_, c)) in round_winners.iter().enumerate() {
                    match best_idx {
                        None => best_idx = Some(i),
                        Some(b) if c.total_cmp(&round_winners[b].1).is_lt() => best_idx = Some(i),
                        Some(_) => {}
                    }
                }
                if let Some(b) = best_idx {
                    current = round_winners[b].0.clone();
                }
                break 'stages;
            }
            if round_winners.is_empty() {
                continue;
            }
            // Re-evaluate round winners with the *next* stage's metric/model
            // (or this stage's, for the last stage) and pick the best.
            let next = self.opts.stages.get(si + 1).copied().unwrap_or(*stage);
            let rescored: Vec<f64> = match next.metric {
                StageMetric::Full => score_all(
                    exec,
                    round_winners
                        .iter()
                        .map(|(config, _)| EvalRequest {
                            config: config.clone(),
                            model: next.model,
                            kind: EvalKind::Full,
                        })
                        .collect(),
                )
                .into_iter()
                .map(|(c, _)| c)
                .collect(),
                StageMetric::FixedPressureGradient => round_winners
                    .iter()
                    .map(|(_, own_cost)| *own_cost)
                    .collect(),
            };
            // First strict minimum under total order (NaN sorts last, so a
            // stray NaN can never win; matches Iterator::min_by semantics).
            let mut best_idx = 0;
            for (i, c) in rescored.iter().enumerate().skip(1) {
                if c.total_cmp(&rescored[best_idx]).is_lt() {
                    best_idx = i;
                }
            }
            current = round_winners[best_idx].0.clone();
            // If a fully-evaluated stage ends with every round infeasible,
            // later (more expensive) stages will not rescue this flow
            // direction; bail out early (this is how the case-5 "SA cannot
            // find a feasible solution" outcome resolves quickly).
            if stage.metric == StageMetric::Full
                && round_winners.iter().all(|(_, c)| c.is_infinite())
                && rescored.iter().all(|c| c.is_infinite())
            {
                return none;
            }
        }

        // Final measurement with the last stage's model (paper: stage 4 is
        // 4RM, so the reported numbers come from the accurate model). An
        // interrupted flow measures its best-so-far incumbent the same way,
        // so a degraded artifact reports accurate-model numbers too. The
        // full evaluation goes through the evaluation layer: the last
        // stage's rescoring has usually memoized it already, and a
        // recomputation replays a fresh evaluator bit for bit.
        let final_model = self
            .opts
            .stages
            .last()
            .map_or(ModelChoice::FourRm, |s| s.model);
        let (_, point) = score_one(
            exec,
            EvalRequest {
                config: current.clone(),
                model: final_model,
                kind: EvalKind::Full,
            },
        );
        let result = point.and_then(|point| {
            let net = self.build(&current)?;
            Some(DesignResult::at(
                format!("tree-like SA ({flow})"),
                net,
                point,
            ))
        });
        FlowRun { result, cut }
    }

    /// One SA round of one stage. The problem being solved is bound
    /// inside `exec`'s evaluation closure. Returns the round winner plus
    /// the cut that interrupted the round, if one did (the winner is then
    /// the best-so-far incumbent at the cut).
    fn run_stage_round(
        &self,
        stage: &Stage,
        init: &TreeConfig,
        seed: u64,
        control: &SearchControl,
        exec: &dyn EvalExec,
    ) -> ((TreeConfig, f64), Option<CutPoint>) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Fixed pressure for cheap metrics: from a full evaluation of the
        // initial configuration (fallback: the search default).
        let mut fixed_p = match stage.metric {
            StageMetric::FixedPressureGradient => {
                let (_, point) = score_one(
                    exec,
                    EvalRequest {
                        config: init.clone(),
                        model: stage.model,
                        kind: EvalKind::Full,
                    },
                );
                Some(point.map_or(Pascal::new(self.opts.psearch.p_init), |o| o.p_sys))
            }
            StageMetric::Full => None,
        };

        let init_kind = match (stage.metric, fixed_p) {
            (StageMetric::FixedPressureGradient, Some(p)) => EvalKind::GradientAt(p),
            _ => EvalKind::Full,
        };
        let (init_cost, _) = score_one(
            exec,
            EvalRequest {
                config: init.clone(),
                model: stage.model,
                kind: init_kind,
            },
        );
        let t0 = if init_cost.is_finite() && init_cost != 0.0 {
            0.1 * init_cost.abs()
        } else {
            1.0
        };
        let mut acceptor = Acceptor::new(t0, 0.92, rng.gen());

        let mut current = init.clone();
        let mut current_cost = init_cost;
        let mut best = init.clone();
        let mut best_cost = init_cost;

        for it in 0..stage.iterations {
            // Iteration-boundary checkpoint: between candidate batches is
            // the finest grain at which a stop can land without making the
            // cut index depend on scoring latency.
            if let Err(c) = control.checkpoint() {
                return ((best, best_cost), Some(c));
            }
            // Grouping (§5, adaptation 2): refresh the frozen pressure
            // from a full evaluation of the incumbent at each group
            // boundary.
            if stage.metric == StageMetric::Full && stage.group > 1 && it % stage.group == 0 {
                let (cost, point) = score_one(
                    exec,
                    EvalRequest {
                        config: current.clone(),
                        model: stage.model,
                        kind: EvalKind::Full,
                    },
                );
                current_cost = cost;
                // An infeasible incumbent yields no pressure; keep the
                // last known frozen pressure instead of clearing it (a
                // cleared pressure silently degrades the rest of the group
                // to full evaluations, forfeiting the grouping speed-up).
                if let Some(point) = point {
                    fixed_p = Some(point.p_sys);
                }
                if cost < best_cost {
                    best = current.clone();
                    best_cost = cost;
                }
            }
            // In-group iterations score at the frozen pressure with the
            // problem's own metric (commensurable with group-boundary full
            // objectives); stage-1 rough rounds score ΔT at the frozen
            // pressure; everything else is a full evaluation.
            let kind = match stage.metric {
                StageMetric::FixedPressureGradient => match fixed_p {
                    Some(p) => EvalKind::GradientAt(p),
                    None => EvalKind::Full,
                },
                StageMetric::Full if stage.group > 1 && it % stage.group != 0 => match fixed_p {
                    Some(p) => EvalKind::ObjectiveAt(p),
                    None => EvalKind::Full,
                },
                StageMetric::Full => EvalKind::Full,
            };
            let candidates: Vec<TreeConfig> = (0..self.opts.parallelism.max(1))
                .map(|_| self.perturb(&current, stage.step, &mut rng))
                .collect();
            let costs: Vec<f64> = score_all(
                exec,
                candidates
                    .iter()
                    .map(|config| EvalRequest {
                        config: config.clone(),
                        model: stage.model,
                        kind,
                    })
                    .collect(),
            )
            .into_iter()
            .map(|(c, _)| c)
            .collect();
            let Some(first) = costs.first() else {
                continue;
            };
            let mut k = 0;
            let mut c = *first;
            for (i, &ci) in costs.iter().enumerate().skip(1) {
                if ci.total_cmp(&c).is_lt() {
                    k = i;
                    c = ci;
                }
            }
            if acceptor.accept(current_cost, c) {
                current = candidates[k].clone();
                current_cost = c;
                if c < best_cost {
                    best = current.clone();
                    best_cost = c;
                }
            }
        }
        ((best, best_cost), None)
    }
}

fn clamp_even(v: i32, lo: i32, hi: i32) -> i32 {
    let v = v.clamp(lo, hi.max(lo));
    if v % 2 == 0 {
        v
    } else if v < hi {
        v + 1
    } else {
        v - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::GridDims;

    /// Scores every batch serially on the calling thread.
    struct SerialExec<F>(F);

    /// A scripted operating point at `p` (the metrics are placeholders).
    fn point_at(p_sys: Pascal) -> OperatingPoint {
        OperatingPoint {
            p_sys,
            profile: crate::evaluate::Profile {
                t_max: coolnet_units::Kelvin::new(300.0),
                delta_t: coolnet_units::Kelvin::new(0.0),
            },
            w_pump: coolnet_units::Watt::new(0.0),
        }
    }

    impl<F: Fn(&EvalRequest) -> EvalResponse + Sync> EvalExec for SerialExec<F> {
        fn score_batch(&self, reqs: Vec<EvalRequest>) -> Vec<EvalResponse> {
            reqs.iter().map(&self.0).collect()
        }
    }

    #[test]
    fn clamp_even_behaves() {
        assert_eq!(clamp_even(7, 2, 20), 8);
        assert_eq!(clamp_even(21, 2, 20), 20);
        assert_eq!(clamp_even(1, 2, 20), 2);
        assert_eq!(clamp_even(19, 2, 19), 18);
    }

    #[test]
    fn quick_search_solves_problem1_on_small_case() {
        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut opts = TreeSearchOptions::quick(3);
        opts.parallelism = 2;
        let result = TreeSearch::new(&bench, opts)
            .run(Problem::PumpingPower)
            .expect("a feasible tree network must exist for case 1");
        assert!(result.delta_t.value() <= bench.delta_t_limit.value() * 1.05);
        assert!(result.w_pump.value() > 0.0);
        assert!(result.label.contains("tree-like"));
    }

    #[test]
    fn quick_search_solves_problem2_on_small_case() {
        let bench = Benchmark::iccad_scaled(2, GridDims::new(21, 21));
        let mut opts = TreeSearchOptions::quick(5);
        opts.parallelism = 2;
        opts.flows = vec![GlobalFlow::WestToEast];
        let result = TreeSearch::new(&bench, opts)
            .run(Problem::ThermalGradient)
            .expect("a feasible tree network must exist for case 2");
        assert!(result.w_pump.value() <= bench.w_pump_limit().value() * 1.01);
    }

    #[test]
    fn perturbation_keeps_parameters_legal() {
        let bench = Benchmark::iccad_scaled(1, GridDims::new(31, 31));
        let opts = TreeSearchOptions::quick(1);
        let search = TreeSearch::new(&bench, opts);
        let init = search.initial_config(GlobalFlow::WestToEast).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = init;
        for _ in 0..200 {
            c = search.perturb(&c, 4, &mut rng);
            for t in &c.trees {
                assert!(t.b1 % 2 == 0 && t.b2 % 2 == 0);
                assert!(t.b1 < t.b2);
                assert!((t.b2 as i32) < 31 - 1);
            }
            assert!(search.build(&c).is_some(), "perturbed config must build");
        }
    }

    #[test]
    fn grouped_problem1_scores_watts_not_kelvin() {
        // Regression test for the grouped-objective mixing bug: with
        // `StageMetric::Full` and `group > 1`, group boundaries set the
        // incumbent cost to the full Problem-1 objective (W_pump in
        // watts), and in-group candidates must be scored in the same
        // unit. The pre-fix code scored them as ΔT at the frozen pressure
        // (kelvin), so Metropolis compared incommensurable quantities.
        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let opts = TreeSearchOptions::quick(3);
        let scorer = RequestScorer::new(&bench, opts.psearch, Problem::PumpingPower);
        let search = TreeSearch::new(&bench, opts);
        let config = search.initial_config(GlobalFlow::WestToEast).unwrap();
        let model = ModelChoice::fast();
        let (obj, p) = scorer.score(&EvalRequest {
            config: config.clone(),
            model,
            kind: EvalKind::Full,
        });
        let point = p.expect("initial config must be feasible on case 1");
        let p = point.p_sys;
        assert!(obj.is_finite() && obj > 0.0);
        assert_eq!(point.w_pump.value().to_bits(), obj.to_bits());
        // At the frozen optimal pressure, the in-group score must equal
        // the full objective exactly (it is W_pump at the same pressure,
        // and the constraints hold there by construction).
        let (grouped, _) = scorer.score(&EvalRequest {
            config: config.clone(),
            model,
            kind: EvalKind::ObjectiveAt(p),
        });
        assert!(
            (grouped - obj).abs() <= 1e-9 * obj,
            "grouped in-group score {grouped} must equal the full objective {obj} \
             (pre-fix it returned ΔT in kelvin)"
        );
        // And a constraint-violating frozen pressure must score +∞, not a
        // small ΔT: freeze far below the feasible pressure.
        let (starved, _) = scorer.score(&EvalRequest {
            config,
            model,
            kind: EvalKind::ObjectiveAt(Pascal::new(p.value() / 64.0)),
        });
        assert!(
            starved.is_infinite(),
            "infeasible frozen pressure must be +∞, got {starved}"
        );
    }

    #[test]
    fn grouped_problem2_in_group_metric_is_gradient() {
        // Problem 2's objective *is* ΔT, so the in-group score at the
        // frozen pressure stays the plain gradient (the §5 grouping).
        let bench = Benchmark::iccad_scaled(2, GridDims::new(21, 21));
        let opts = TreeSearchOptions::quick(3);
        let scorer = RequestScorer::new(&bench, opts.psearch, Problem::ThermalGradient);
        let search = TreeSearch::new(&bench, opts);
        let config = search.initial_config(GlobalFlow::WestToEast).unwrap();
        let model = ModelChoice::fast();
        let p = Pascal::from_kilopascals(8.0);
        let (objective_at, _) = scorer.score(&EvalRequest {
            config: config.clone(),
            model,
            kind: EvalKind::ObjectiveAt(p),
        });
        let (gradient_at, _) = scorer.score(&EvalRequest {
            config,
            model,
            kind: EvalKind::GradientAt(p),
        });
        assert_eq!(objective_at.to_bits(), gradient_at.to_bits());
    }

    #[test]
    fn infeasible_group_boundary_keeps_frozen_pressure() {
        // Regression test: a group-boundary full evaluation that comes
        // back infeasible carries no optimal pressure. The pre-fix code
        // assigned `None` to `fixed_p` anyway, silently degrading every
        // remaining in-group iteration to a full evaluation (and its full
        // pressure search). The fix keeps the last known frozen pressure,
        // so in-group candidates keep scoring at `ObjectiveAt`.
        use std::sync::Mutex;

        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut opts = TreeSearchOptions::quick(1);
        opts.parallelism = 1;
        let search = TreeSearch::new(&bench, opts);
        let init = search
            .initial_config(GlobalFlow::WestToEast)
            .expect("initial config");

        // Scripted evaluator: the first two full evaluations (the round's
        // initial cost and the first group boundary) are feasible and
        // freeze 5 kPa; every later full evaluation is infeasible.
        let full_calls = Mutex::new(0usize);
        let log = Mutex::new(Vec::new());
        let eval = |req: &EvalRequest| -> EvalResponse {
            match req.kind {
                EvalKind::Full => {
                    let mut n = full_calls.lock().unwrap_or_else(|p| p.into_inner());
                    *n += 1;
                    log.lock().unwrap_or_else(|p| p.into_inner()).push('F');
                    if *n <= 2 {
                        (100.0, Some(point_at(Pascal::new(5000.0))))
                    } else {
                        (f64::INFINITY, None)
                    }
                }
                EvalKind::ObjectiveAt(p) => {
                    assert_eq!(p.value(), 5000.0, "frozen pressure must be retained");
                    log.lock().unwrap_or_else(|p| p.into_inner()).push('O');
                    (50.0, None)
                }
                EvalKind::GradientAt(_) => {
                    log.lock().unwrap_or_else(|p| p.into_inner()).push('G');
                    (1.0, None)
                }
            }
        };
        let exec = SerialExec(eval);
        let stage = Stage {
            iterations: 8,
            rounds: 1,
            step: 4,
            model: ModelChoice::fast(),
            metric: StageMetric::Full,
            group: 4,
        };
        let ((_, _), cut) =
            search.run_stage_round(&stage, &init, 42, &SearchControl::unlimited(), &exec);
        assert!(cut.is_none());

        let log = log.into_inner().unwrap_or_else(|p| p.into_inner());
        // Full evaluations: the initial cost, the boundary refreshes at
        // iterations 0 and 4, and the boundary iterations' own candidates
        // (boundary candidates always evaluate fully). The infeasible
        // it = 4 boundary must NOT add more: iterations 5–7 stay at the
        // frozen pressure. Pre-fix this log showed 8 F and 3 O.
        let fulls = log.iter().filter(|&&t| t == 'F').count();
        let objectives = log.iter().filter(|&&t| t == 'O').count();
        assert_eq!(fulls, 5, "{log:?}");
        assert_eq!(objectives, 6, "{log:?}");
    }

    #[test]
    fn nan_initial_score_does_not_freeze_the_round() {
        // A NaN initial cost is infeasible, so the first finite candidate
        // must displace it. Compared as a cost, NaN makes `c <= NaN` and
        // the Metropolis draw both false: every candidate is rejected and
        // the round returns its NaN incumbent.
        use std::sync::atomic::{AtomicUsize, Ordering};

        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut opts = TreeSearchOptions::quick(1);
        opts.parallelism = 2;
        let search = TreeSearch::new(&bench, opts);
        let init = search
            .initial_config(GlobalFlow::WestToEast)
            .expect("initial config");
        // Scripted scores: NaN for the round's initial cost, then finite
        // and strictly improving for every candidate.
        let calls = AtomicUsize::new(0);
        let exec = SerialExec(|_: &EvalRequest| -> EvalResponse {
            match calls.fetch_add(1, Ordering::Relaxed) {
                0 => (f64::NAN, None),
                n => (100.0 - n as f64, None),
            }
        });
        let stage = Stage {
            iterations: 3,
            rounds: 1,
            step: 2,
            model: ModelChoice::fast(),
            metric: StageMetric::Full,
            group: 1,
        };
        let ((_, cost), cut) =
            search.run_stage_round(&stage, &init, 42, &SearchControl::unlimited(), &exec);
        assert!(cut.is_none());
        // Three iterations of two candidates: the last scores 100 - 6.
        assert_eq!(cost, 94.0, "the round kept its NaN incumbent");
    }

    #[test]
    fn cache_and_pool_are_transparent_on_quick_search() {
        // The reuse layer must not change results: same seed, reuse on
        // vs fully off, identical designs field by field.
        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut on = TreeSearchOptions::quick(7);
        on.parallelism = 2;
        on.flows = vec![GlobalFlow::WestToEast];
        let mut off = on.clone();
        assert_eq!(on.reuse, ReuseOptions::default());
        off.reuse = ReuseOptions::off();
        let a = TreeSearch::new(&bench, on).run(Problem::PumpingPower);
        let b = TreeSearch::new(&bench, off).run(Problem::PumpingPower);
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.label, b.label);
                assert_eq!(a.p_sys.value().to_bits(), b.p_sys.value().to_bits());
                assert_eq!(a.w_pump.value().to_bits(), b.w_pump.value().to_bits());
                assert_eq!(a.t_max.value().to_bits(), b.t_max.value().to_bits());
                assert_eq!(a.delta_t.value().to_bits(), b.delta_t.value().to_bits());
            }
            (a, b) => assert_eq!(a.is_some(), b.is_some(), "feasibility must agree"),
        }
    }

    fn assert_same_design(a: &DesignResult, b: &DesignResult) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.p_sys.value().to_bits(), b.p_sys.value().to_bits());
        assert_eq!(a.w_pump.value().to_bits(), b.w_pump.value().to_bits());
        assert_eq!(a.t_max.value().to_bits(), b.t_max.value().to_bits());
        assert_eq!(a.delta_t.value().to_bits(), b.delta_t.value().to_bits());
    }

    #[test]
    fn budget_cut_degrades_to_best_so_far_and_replays_bitwise() {
        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut opts = TreeSearchOptions::quick(3);
        opts.parallelism = 2;
        opts.flows = vec![GlobalFlow::WestToEast];
        let search = TreeSearch::new(&bench, opts);

        let outcome = search.run_controlled(
            Problem::PumpingPower,
            &SearchControl::unlimited().with_budget(4),
        );
        let SearchOutcome::Degraded { best, cut } = outcome else {
            panic!("a 4-checkpoint budget must interrupt the quick schedule");
        };
        assert_eq!(cut.reason, crate::control::StopReason::BudgetExhausted);
        assert_eq!(cut.checkpoint, 4);
        let best = best.expect("case 1's incumbent is feasible from the start");

        // The replay contract: feeding the recorded cut back reproduces
        // the degraded run bit for bit.
        let replay = search.run_controlled(Problem::PumpingPower, &SearchControl::replay(cut));
        let SearchOutcome::Degraded {
            best: replayed,
            cut: replay_cut,
        } = replay
        else {
            panic!("replaying a cut must degrade again");
        };
        assert_eq!(replay_cut, cut);
        assert_same_design(
            &best,
            &replayed.expect("replay must find the same incumbent"),
        );
    }

    #[test]
    fn zero_budget_still_measures_the_initial_incumbent() {
        // The extreme degradation (a deadline that already passed at job
        // start): the very first checkpoint cuts, and the artifact still
        // carries a real design — the measured initial configuration.
        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut opts = TreeSearchOptions::quick(3);
        opts.parallelism = 1;
        opts.flows = vec![GlobalFlow::WestToEast];
        let outcome = TreeSearch::new(&bench, opts).run_controlled(
            Problem::PumpingPower,
            &SearchControl::unlimited().with_budget(0),
        );
        let SearchOutcome::Degraded { best, cut } = outcome else {
            panic!("zero budget must degrade");
        };
        assert_eq!(cut.checkpoint, 0);
        assert!(
            best.is_some(),
            "case 1's uniform initial config is feasible and must be measured"
        );
    }

    #[test]
    fn cancelled_token_degrades_instead_of_discarding() {
        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut opts = TreeSearchOptions::quick(5);
        opts.parallelism = 1;
        opts.flows = vec![GlobalFlow::WestToEast];
        let control = SearchControl::unlimited();
        control.token().cancel();
        let outcome = TreeSearch::new(&bench, opts).run_controlled(Problem::PumpingPower, &control);
        match outcome {
            SearchOutcome::Degraded { cut, .. } => {
                assert_eq!(cut.reason, crate::control::StopReason::Cancelled);
            }
            other => panic!("pre-cancelled token must degrade, got {other:?}"),
        }
    }

    #[test]
    fn external_exec_matches_in_run_scoring_bitwise() {
        // The serve-style execution seam must be score-transparent: a
        // trivial EvalExec over a RequestScorer yields the same design as
        // the run-private pool path.
        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut opts = TreeSearchOptions::quick(7);
        opts.parallelism = 2;
        opts.flows = vec![GlobalFlow::WestToEast];
        let scorer = RequestScorer::new(&bench, opts.psearch, Problem::PumpingPower)
            .with_cache(Arc::new(EvalCache::new(256)), 9);
        let search = TreeSearch::new(&bench, opts);
        let external = search.run_with_exec(
            Problem::PumpingPower,
            &SearchControl::unlimited(),
            &SerialExec(|r: &EvalRequest| scorer.score(r)),
        );
        let internal = search.run(Problem::PumpingPower);
        match (external, internal) {
            (SearchOutcome::Completed(a), Some(b)) => assert_same_design(&a, &b),
            (a, b) => panic!("outcomes must agree and complete: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn short_batches_are_padded_as_failures() {
        // A substrate that drops responses must not shift costs onto the
        // wrong candidates: the missing tail scores (+∞, None).
        struct FirstOnly;
        impl EvalExec for FirstOnly {
            fn score_batch(&self, reqs: Vec<EvalRequest>) -> Vec<EvalResponse> {
                let echo = |r: &EvalRequest| match r.kind {
                    EvalKind::GradientAt(p) => (p.value(), Some(point_at(p))),
                    _ => (f64::NAN, None),
                };
                reqs.iter().take(1).map(echo).collect()
            }
        }
        let bench = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let search = TreeSearch::new(&bench, TreeSearchOptions::quick(1));
        let config = search
            .initial_config(GlobalFlow::WestToEast)
            .expect("initial config");
        let req = |p: f64| EvalRequest {
            config: config.clone(),
            model: ModelChoice::fast(),
            kind: EvalKind::GradientAt(Pascal::new(p)),
        };
        let out = score_all(&FirstOnly, vec![req(1.0), req(2.0), req(3.0)]);
        let pad = (f64::INFINITY, None);
        assert_eq!(out, vec![(1.0, Some(point_at(Pascal::new(1.0)))), pad, pad]);
        assert_eq!(
            score_one(&FirstOnly, req(5.0)),
            (5.0, Some(point_at(Pascal::new(5.0))))
        );
    }

    #[test]
    fn paper_schedules_have_documented_shape() {
        let p1 = TreeSearchOptions::paper_problem1(0);
        assert_eq!(
            p1.stages.iter().map(|s| s.iterations).collect::<Vec<_>>(),
            vec![60, 40, 40, 30]
        );
        assert_eq!(
            p1.stages.iter().map(|s| s.rounds).collect::<Vec<_>>(),
            vec![8, 4, 2, 1]
        );
        assert_eq!(p1.stages[3].model, ModelChoice::FourRm);
        let p2 = TreeSearchOptions::paper_problem2(0);
        assert_eq!(
            p2.stages.iter().map(|s| s.iterations).collect::<Vec<_>>(),
            vec![80, 20, 20]
        );
        assert_eq!(
            p2.stages.iter().map(|s| s.rounds).collect::<Vec<_>>(),
            vec![8, 2, 1]
        );
        assert!(p2.stages.iter().all(|s| s.group > 1));
    }
}
