//! Chaos suite for the job service: live cancellation mid-search while
//! solver faults are being injected, panicking attempts retried and
//! exhausted — and in every case the shared substrate (evaluation cache,
//! solver pool, sibling jobs) must come out fully usable, with follow-up
//! jobs replaying bitwise-identically to fresh-process runs.
//!
//! The sparse fault harness ([`fault::inject`]) holds a process-wide
//! gate, so the drills that use it are serialized against each other by
//! construction.

use coolnet_opt::{Problem, StopReason};
use coolnet_serve::{FaultSpec, JobOutcome, JobQueue, JobSpec, QueueOptions};
use coolnet_sparse::resilience::fault::{self, FaultKind, FaultPlan};

fn chaos_queue(concurrency: usize, max_attempts: u32) -> JobQueue {
    JobQueue::new(QueueOptions {
        concurrency,
        pool_threads: 2,
        max_attempts,
        backoff_ms: 0,
        verify_replay: false,
        ..QueueOptions::default()
    })
}

fn healthy(id: &str, seed: u64) -> JobSpec {
    JobSpec::quick(id, 1, Problem::PumpingPower, seed)
}

fn core_json(artifact: &coolnet_serve::JobArtifact) -> String {
    serde_json::to_string(&artifact.deterministic_core()).expect("core serializes")
}

/// The headline drill: cancel a job mid-SA *while* a solver fault plan
/// is active, then prove the queue's substrate survived — the next job
/// on the same queue must replay bitwise-identically to a run on a
/// fresh queue (the stand-in for a fresh process).
#[test]
fn live_cancel_under_fault_plan_leaves_substrate_usable() {
    let queue = chaos_queue(1, 3);

    let cancelled = {
        // The first solve attempt under the scope fails; the direct step
        // rescues that solve, so evaluations stay correct — chaos, not
        // corruption.
        let _scope = fault::inject(&FaultPlan::fail_first(1, FaultKind::Breakdown));
        let mut spec = healthy("under-fire", 3);
        spec.id = "under-fire".into();
        let handle = queue.submit(spec);
        handle.cancel();
        handle.wait()
    };
    match &cancelled.outcome {
        JobOutcome::Degraded { reason } => assert_eq!(*reason, StopReason::Cancelled),
        // A cancel that lands after the last checkpoint lets the run
        // complete; either way the substrate checks below must hold.
        JobOutcome::Completed => {}
        other => panic!("cancelled job must degrade or complete, got {other:?}"),
    }
    if let Some(cut) = cancelled.cut {
        assert!(
            cancelled.design.is_some() || cut.checkpoint == 0,
            "a mid-run cut keeps the best-so-far incumbent"
        );
    }

    // Substrate health, part 1: the shared cache still serves jobs.
    let shared_cache_len = queue.cache().expect("cache configured").len();

    // Substrate health, part 2: the next job on the same (possibly
    // dirty) queue matches a fresh queue bitwise.
    let _scope = fault::inject(&FaultPlan::none());
    let on_dirty_queue = queue.submit(healthy("after-chaos", 42)).wait();
    let on_fresh_queue = chaos_queue(1, 3).submit(healthy("after-chaos", 42)).wait();
    assert_eq!(on_dirty_queue.outcome, JobOutcome::Completed);
    assert_eq!(core_json(&on_dirty_queue), core_json(&on_fresh_queue));
    assert!(
        queue.cache().expect("cache").len() >= shared_cache_len,
        "the shared cache keeps serving after the drill"
    );
}

/// A transient coordinating-thread panic (fault on attempt 1 only) is
/// retried and the job completes — identically to a never-faulted run.
#[test]
fn transient_panic_is_retried_to_an_identical_result() {
    let queue = chaos_queue(2, 3);
    let mut faulty = healthy("flaky", 42);
    faulty.fault = Some(FaultSpec {
        at_batch: 2,
        attempts: 1,
    });
    let clean = healthy("clean", 42);
    let report = queue.run_batch(vec![faulty, clean]);

    let flaky = &report.jobs[0];
    assert_eq!(flaky.outcome, JobOutcome::Completed);
    assert_eq!(flaky.attempts, 2, "attempt 1 panicked, attempt 2 completed");

    // The retried job's deterministic core matches the clean sibling's
    // (same case/seed): the fault left no trace in the result.
    let mut a = flaky.deterministic_core();
    let mut b = report.jobs[1].deterministic_core();
    a.id = String::new();
    b.id = String::new();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

/// A persistent panic exhausts its attempts and becomes a `Failed`
/// artifact — while a sibling job sharing the pool and cache completes
/// untouched.
#[test]
fn persistent_panic_fails_cleanly_without_harming_siblings() {
    let queue = chaos_queue(2, 2);
    let mut doomed = healthy("doomed", 5);
    doomed.fault = Some(FaultSpec {
        at_batch: 0,
        attempts: u32::MAX,
    });
    let sibling = healthy("sibling", 42);
    let report = queue.run_batch(vec![doomed, sibling]);

    let doomed = &report.jobs[0];
    match &doomed.outcome {
        JobOutcome::Failed { error } => {
            assert!(error.contains("injected fault"), "{error}");
            assert!(error.contains("2 attempts"), "{error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(doomed.attempts, 2);
    assert!(doomed.design.is_none());

    assert_eq!(report.jobs[1].outcome, JobOutcome::Completed);

    // The queue outlives the failure: a follow-up job still completes
    // and matches a fresh queue bitwise.
    let after = queue.submit(healthy("after-failure", 42)).wait();
    let fresh = chaos_queue(1, 2)
        .submit(healthy("after-failure", 42))
        .wait();
    assert_eq!(after.outcome, JobOutcome::Completed);
    assert_eq!(core_json(&after), core_json(&fresh));
}
