//! The job queue: N concurrent design jobs over one shared evaluation
//! substrate, with deadlines, cancellation, bounded retries, and
//! optional replay verification.
//!
//! ## Execution model
//!
//! A [`JobQueue`] owns three kinds of threads:
//!
//! * **runners** (`concurrency` of them) each pull one [`JobSpec`] at a
//!   time and drive its staged search end to end;
//! * **solver workers** (one process-wide [`Pool`]) score candidate
//!   batches for *all* runners, so N jobs time-share the machine instead
//!   of oversubscribing it;
//! * a **watchdog** that turns wall-clock deadlines into cooperative
//!   [`CancelToken`] expiries. Wall time never enters the optimizer —
//!   the token crossing is observed at a deterministic checkpoint and
//!   recorded as the job's [`CutPoint`](coolnet_opt::CutPoint).
//!
//! Jobs share one process-wide [`EvalCache`]; each job's scores are
//! memoized under a scope key derived from its benchmark and
//! pressure-search options, so heterogeneous tenants cannot poison each
//! other's entries while identical tenants share work.
//!
//! ## Fault tolerance
//!
//! Each attempt of a job runs under `catch_unwind`. A panicking attempt
//! is retried after a deterministic, bounded backoff; when attempts run
//! out, the job is reported as a `Failed` artifact — the shared cache,
//! the solver pool, and sibling jobs are untouched either way (the chaos
//! suite pins this). Every lock in the crate is acquired through the
//! poison-recovering helpers of [`coolnet_obs::sync`].

use crate::job::{BatchReport, JobArtifact, JobSpec};
use coolnet_obs::sync::lock_recover;
use coolnet_opt::evalcache::EvalCache;
use coolnet_opt::pool::Pool;
use coolnet_opt::treeopt::{EvalExec, EvalRequest, EvalResponse, PoolExec, TreeSearch};
use coolnet_opt::{CancelToken, RequestScorer, SearchControl, SearchOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning of a [`JobQueue`].
#[derive(Debug, Clone)]
pub struct QueueOptions {
    /// Jobs driven concurrently (runner threads).
    pub concurrency: usize,
    /// Worker threads in the shared solver pool; `0` sizes it to the
    /// available parallelism.
    pub pool_threads: usize,
    /// Capacity of the shared, scope-keyed evaluation cache; `0`
    /// disables sharing (each job still computes correctly, just
    /// without memoization).
    pub cache_capacity: usize,
    /// Maximum attempts per job (≥ 1); a panicking attempt consumes one.
    pub max_attempts: u32,
    /// Base retry backoff in milliseconds; attempt `k` (1-based) waits
    /// `backoff_ms << (k - 1)`, capped at one second. Deterministic by
    /// construction — no jitter.
    pub backoff_ms: u64,
    /// After an interrupted job, re-run its spec with the recorded cut
    /// point (faults disabled) and record whether the deterministic core
    /// matched in [`JobArtifact::replay_identical`].
    pub verify_replay: bool,
}

impl Default for QueueOptions {
    fn default() -> Self {
        Self {
            concurrency: 2,
            pool_threads: 0,
            cache_capacity: 1024,
            max_attempts: 3,
            backoff_ms: 10,
            verify_replay: false,
        }
    }
}

/// Handle to a submitted job: cancel it, then (or instead) wait for its
/// artifact.
#[derive(Debug)]
pub struct JobHandle {
    id: String,
    token: CancelToken,
    rx: Receiver<JobArtifact>,
}

impl JobHandle {
    /// The spec's id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Requests cooperative cancellation; the job degrades to its
    /// best-so-far incumbent at the next checkpoint. Idempotent, and a
    /// no-op after the job finished.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the job's artifact is ready.
    pub fn wait(self) -> JobArtifact {
        self.rx.recv().unwrap_or_else(|_| {
            // Unreachable in practice: runners always send an artifact
            // (attempts run under catch_unwind). Degrade gracefully
            // anyway rather than panicking the caller.
            JobArtifact::failed(&self.id, "job runner disappeared", 0)
        })
    }
}

/// A wall-clock deadline being watched: fire `token` once `at` passes.
struct Watch {
    token: CancelToken,
    at: Instant,
    done: Arc<AtomicBool>,
}

/// State shared by runners and the watchdog.
struct Shared {
    pool: Pool,
    cache: Option<Arc<EvalCache>>,
    opts: QueueOptions,
    watches: Mutex<Vec<Watch>>,
}

type Submission = (JobSpec, CancelToken, Sender<JobArtifact>);

/// A fault-tolerant, multi-tenant queue of design jobs. See the module
/// docs for the execution model.
pub struct JobQueue {
    shared: Arc<Shared>,
    submit_tx: Option<Sender<Submission>>,
    runners: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("concurrency", &self.runners.len())
            .field("pool_threads", &self.shared.pool.threads())
            .finish()
    }
}

impl JobQueue {
    /// Builds a queue: spawns the runner threads, the shared solver pool
    /// and the deadline watchdog.
    pub fn new(opts: QueueOptions) -> Self {
        let pool_threads = match opts.pool_threads {
            0 => std::thread::available_parallelism().map_or(2, |p| p.get()),
            n => n,
        };
        let cache =
            (opts.cache_capacity > 0).then(|| Arc::new(EvalCache::new(opts.cache_capacity)));
        let concurrency = opts.concurrency.max(1);
        let shared = Arc::new(Shared {
            pool: Pool::new(pool_threads),
            cache,
            opts,
            watches: Mutex::new(Vec::new()),
        });
        let (submit_tx, submit_rx) = channel::<Submission>();
        let submit_rx = Arc::new(Mutex::new(submit_rx));
        let runners = (0..concurrency)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&submit_rx);
                std::thread::Builder::new()
                    .name(format!("coolnet-runner-{i}"))
                    .spawn(move || runner_loop(&shared, &rx))
                    .expect("spawning a job runner thread")
            })
            .collect();
        let shutdown = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("coolnet-watchdog".into())
                .spawn(move || watchdog_loop(&shared, &shutdown))
                .expect("spawning the deadline watchdog thread")
        };
        Self {
            shared,
            submit_tx: Some(submit_tx),
            runners,
            watchdog: Some(watchdog),
            shutdown,
        }
    }

    /// Submits one job; returns immediately with its handle.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let id = spec.id.clone();
        let token = CancelToken::new();
        let (tx, rx) = channel();
        if let Some(submit) = &self.submit_tx {
            if submit.send((spec, token.clone(), tx)).is_err() {
                // Runners gone (unreachable while the queue is alive);
                // the handle's wait() degrades to a Failed artifact.
            }
        }
        JobHandle { id, token, rx }
    }

    /// Runs a whole batch and returns artifacts in input order, wrapped
    /// in a [`BatchReport`].
    pub fn run_batch(&self, specs: Vec<JobSpec>) -> BatchReport {
        let handles: Vec<JobHandle> = specs.into_iter().map(|s| self.submit(s)).collect();
        BatchReport::new(handles.into_iter().map(JobHandle::wait).collect())
    }

    /// The shared evaluation cache, when one is configured (tests use
    /// this to assert substrate health across chaos drills).
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.shared.cache.as_ref()
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        // Close the submission channel: runners drain pending jobs, then
        // exit on the disconnect.
        self.submit_tx = None;
        for runner in self.runners.drain(..) {
            if let Err(payload) = runner.join() {
                std::panic::resume_unwind(payload);
            }
        }
        self.shutdown.store(true, Ordering::Release);
        if let Some(watchdog) = self.watchdog.take() {
            if let Err(payload) = watchdog.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// How often the watchdog scans its deadline list. Deadline *accuracy*
/// is bounded by this; deadline *determinism* is not (the artifact
/// records the checkpoint where the expiry was observed, whatever the
/// latency).
const WATCHDOG_TICK: Duration = Duration::from_millis(2);

fn watchdog_loop(shared: &Shared, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Acquire) {
        {
            let mut watches = lock_recover(&shared.watches);
            // Deadline enforcement is inherently wall-clock; expiry only
            // cancels work, it never feeds a DesignResult.
            // analyze:allow(determinism)
            let now = Instant::now();
            watches.retain(|w| {
                if w.done.load(Ordering::Acquire) {
                    return false;
                }
                if now >= w.at {
                    w.token.expire();
                    return false;
                }
                true
            });
        }
        std::thread::sleep(WATCHDOG_TICK);
    }
}

fn runner_loop(shared: &Shared, rx: &Mutex<Receiver<Submission>>) {
    loop {
        let (spec, token, reply) = match lock_recover(rx).recv() {
            Ok(sub) => sub,
            Err(_) => return, // queue dropped
        };
        let artifact = run_job(shared, &spec, &token);
        // The submitter may have dropped its handle; that's fine.
        let _ = reply.send(artifact);
    }
}

/// FNV-1a over a byte string; the cache scope key is a hash of every
/// job input that affects scores beyond the per-request `(config,
/// model, kind)` key.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The job's [`PoolExec`] on the shared pool, optionally panicking at a
/// scripted batch index — the coordinating-thread fault used by chaos
/// drills. The panic fires *before* dispatch, on the runner thread,
/// where the job-level `catch_unwind` absorbs it.
struct PooledExec<'a, F> {
    exec: PoolExec<&'a Pool, F>,
    batches: AtomicU64,
    fault_at: Option<u64>,
}

impl<F> EvalExec for PooledExec<'_, F>
where
    F: Fn(&EvalRequest) -> EvalResponse + Send + Sync + 'static,
{
    fn score_batch(&self, reqs: Vec<EvalRequest>) -> Vec<EvalResponse> {
        let index = self.batches.fetch_add(1, Ordering::Relaxed);
        if Some(index) == self.fault_at {
            panic!("injected fault: scoring batch {index}");
        }
        self.exec.score_batch(reqs)
    }
}

/// Drives one job end to end: validate, then attempt with bounded
/// retries, then (optionally) verify replay. Never panics — every
/// attempt runs under `catch_unwind`.
fn run_job(shared: &Shared, spec: &JobSpec, token: &CancelToken) -> JobArtifact {
    // Wall-time telemetry for the artifact's `wall_ms`; the design
    // payload itself stays a pure function of spec + seed.
    // analyze:allow(determinism)
    let started = Instant::now();
    let before = coolnet_obs::snapshot();
    if let Err(error) = spec.validate() {
        let mut artifact = JobArtifact::failed(&spec.id, format!("invalid spec: {error}"), 0);
        artifact.wall_ms = wall_ms(started);
        return artifact;
    }

    // Register the wall-clock deadline. An already-expired deadline
    // (deadline_ms == 0) is fired synchronously so the cut lands at
    // checkpoint 0 regardless of watchdog latency.
    let done = Arc::new(AtomicBool::new(false));
    if let Some(ms) = spec.deadline_ms {
        if ms == 0 {
            token.expire();
        } else {
            lock_recover(&shared.watches).push(Watch {
                token: token.clone(),
                at: started + Duration::from_millis(ms),
                done: Arc::clone(&done),
            });
        }
    }

    let max_attempts = shared.opts.max_attempts.max(1);
    let mut artifact = None;
    for attempt in 1..=max_attempts {
        let fault_active = spec.fault.is_some_and(|f| attempt <= f.attempts);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(shared, spec, token, None, fault_active)
        }));
        match outcome {
            Ok(outcome) => {
                artifact = Some(JobArtifact::from_outcome(
                    &spec.id,
                    &outcome,
                    spec.problem,
                    attempt,
                ));
                break;
            }
            Err(payload) => {
                let error = panic_message(&*payload);
                if attempt == max_attempts {
                    artifact = Some(JobArtifact::failed(
                        &spec.id,
                        format!("all {max_attempts} attempts panicked; last: {error}"),
                        attempt,
                    ));
                } else if shared.opts.backoff_ms > 0 {
                    // Deterministic exponential backoff, capped at 1 s.
                    let wait = (shared.opts.backoff_ms << (attempt - 1)).min(1000);
                    std::thread::sleep(Duration::from_millis(wait));
                }
            }
        }
    }
    done.store(true, Ordering::Release);
    let mut artifact = artifact.unwrap_or_else(|| {
        JobArtifact::failed(&spec.id, "no attempt produced an outcome", max_attempts)
    });

    if shared.opts.verify_replay {
        artifact.replay_identical = verify_replay(shared, spec, &artifact);
    }
    artifact.wall_ms = wall_ms(started);
    artifact.metrics = coolnet_obs::snapshot().delta_since(&before);
    artifact
}

/// One search attempt on the shared substrate.
///
/// `replay` switches the control to deterministic replay of a recorded
/// cut; `fault_active` arms the spec's scripted fault for this attempt.
fn run_attempt(
    shared: &Shared,
    spec: &JobSpec,
    token: &CancelToken,
    replay: Option<coolnet_opt::CutPoint>,
    fault_active: bool,
) -> SearchOutcome {
    let bench = spec.benchmark();
    let options = spec.search_options();
    let mut control = match replay {
        Some(cut) => SearchControl::replay(cut),
        None => SearchControl::with_token(token.clone()),
    };
    if replay.is_none() {
        if let Some(budget) = spec.budget {
            control = control.with_budget(budget);
        }
        if let Some(at) = spec.cancel_at {
            control = control.with_cancel_at(at);
        }
    }

    let mut scorer = RequestScorer::new(&bench, options.psearch, spec.problem);
    if let Some(cache) = &shared.cache {
        // Scope the shared cache to everything that affects scores but
        // is not in the per-request key: the benchmark and the
        // pressure-search options. Serialization is the canonical form.
        let scope_input = serde_json::to_string(&(&bench, &options.psearch))
            .unwrap_or_else(|_| format!("{}:{:?}", spec.case, spec.grid));
        let scope = fnv1a(scope_input.as_bytes());
        scorer = scorer.with_cache(Arc::clone(cache), scope);
    }
    let exec = PooledExec {
        exec: PoolExec::new(&shared.pool, move |req: &EvalRequest| scorer.score(req)),
        batches: AtomicU64::new(0),
        fault_at: fault_active
            .then(|| spec.fault.map(|f| f.at_batch))
            .flatten(),
    };
    TreeSearch::new(&bench, options).run_with_exec(spec.problem, &control, &exec)
}

/// Re-runs an interrupted spec with its recorded cut (faults disabled)
/// and compares deterministic cores. `None` when the artifact has no cut
/// to replay (completed/infeasible/failed jobs).
fn verify_replay(shared: &Shared, spec: &JobSpec, artifact: &JobArtifact) -> Option<bool> {
    let cut = artifact.cut?;
    let token = CancelToken::new();
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        run_attempt(shared, spec, &token, Some(cut), false)
    }))
    .ok()?;
    let replay_artifact =
        JobArtifact::from_outcome(&spec.id, &replayed, spec.problem, artifact.attempts);
    Some(replay_artifact.deterministic_core() == artifact.deterministic_core())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn wall_ms(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutcome;
    use coolnet_opt::{Problem, StopReason};

    fn quick_queue(concurrency: usize) -> JobQueue {
        JobQueue::new(QueueOptions {
            concurrency,
            pool_threads: 2,
            backoff_ms: 0,
            ..QueueOptions::default()
        })
    }

    #[test]
    fn invalid_spec_fails_without_running() {
        let queue = quick_queue(1);
        let mut spec = JobSpec::quick("bad", 1, Problem::PumpingPower, 1);
        spec.case = 9;
        let artifact = queue.submit(spec).wait();
        match &artifact.outcome {
            JobOutcome::Failed { error } => assert!(error.contains("case 9"), "{error}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(artifact.attempts, 0);
    }

    #[test]
    fn zero_deadline_degrades_at_checkpoint_zero() {
        let queue = quick_queue(1);
        let mut spec = JobSpec::quick("deadline", 1, Problem::PumpingPower, 5);
        spec.deadline_ms = Some(0);
        let artifact = queue.submit(spec).wait();
        assert_eq!(
            artifact.outcome,
            JobOutcome::Degraded {
                reason: StopReason::DeadlineExceeded
            }
        );
        let cut = artifact.cut.expect("degraded artifacts carry a cut");
        assert_eq!(cut.checkpoint, 0);
        assert!(
            artifact.design.is_some(),
            "the measured initial incumbent survives a checkpoint-0 cut"
        );
    }

    #[test]
    fn scripted_cancellation_is_reproducible() {
        let run = || {
            let queue = quick_queue(1);
            let mut spec = JobSpec::quick("cancel", 1, Problem::PumpingPower, 5);
            spec.cancel_at = Some(3);
            queue.submit(spec).wait()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.outcome,
            JobOutcome::Degraded {
                reason: StopReason::Cancelled
            }
        );
        assert_eq!(a.deterministic_core(), b.deterministic_core());
    }
}
