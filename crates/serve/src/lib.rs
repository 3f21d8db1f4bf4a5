//! # coolnet-serve
//!
//! A fault-tolerant, multi-tenant design-job service over the coolnet
//! optimizer: serde [`JobSpec`]s in, serde [`JobArtifact`]s out.
//!
//! The service turns the library's staged SA search into an operable
//! batch/queue workload:
//!
//! * **Multi-tenancy** — a [`JobQueue`] drives N jobs concurrently over
//!   one process-wide [`Pool`](coolnet_opt::pool::Pool) and one scope-keyed
//!   [`EvalCache`](coolnet_opt::evalcache::EvalCache); per-job state
//!   (frozen pressures, warm starts, RNG chains) stays private to each
//!   job.
//! * **Cancellation & deadlines** — cooperative
//!   [`CancelToken`](coolnet_opt::CancelToken)s polled at deterministic
//!   checkpoints; wall-clock deadlines are enforced by a watchdog thread
//!   that fires tokens, so the optimizer itself never reads a clock.
//!   Interrupted jobs degrade to their best-so-far incumbent and record
//!   the [`CutPoint`](coolnet_opt::CutPoint) where they stopped.
//! * **Deterministic replay** — an artifact's deterministic core is a
//!   pure function of its spec; re-running a spec with its recorded cut
//!   reproduces the core bit for bit, at any queue concurrency
//!   (`QueueOptions::verify_replay` checks this in-process).
//! * **Fault isolation** — every attempt runs under `catch_unwind` with
//!   poison-recovering lock discipline; panicking attempts retry with
//!   deterministic bounded backoff, and a job that exhausts its attempts
//!   becomes a `Failed` artifact without disturbing the shared substrate
//!   or sibling jobs. (Deterministic non-panic outcomes — `Infeasible`
//!   from an exhausted solve — are *not* retried: re-running a
//!   pure function cannot change its result.)
//!
//! The first transport is the batch CLI (`coolnet-serve --jobs
//! jobs.json --concurrency N`); the queue API is transport-agnostic.
//!
//! ```no_run
//! use coolnet_serve::{JobQueue, JobSpec, QueueOptions};
//! use coolnet_opt::Problem;
//!
//! let queue = JobQueue::new(QueueOptions::default());
//! let mut spec = JobSpec::quick("demo", 1, Problem::PumpingPower, 42);
//! spec.deadline_ms = Some(5_000);
//! let handle = queue.submit(spec);
//! let artifact = handle.wait();
//! println!("{:?}: {:?}", artifact.id, artifact.outcome);
//! ```

#![forbid(unsafe_code)]

pub mod job;
pub mod queue;

pub use job::{
    BatchReport, DesignSummary, DeterministicCore, FaultSpec, GridSpec, JobArtifact, JobOutcome,
    JobSpec, SearchPreset,
};
pub use queue::{JobHandle, JobQueue, QueueOptions};
