//! The evaluation pool: one owned set of worker threads that scores
//! batches of independent items, for every parallel evaluation in the
//! workspace.
//!
//! Algorithm 1 scores a batch of SA neighbours per iteration (64 at a
//! time on an 80-core server in the paper, §6).
//! [`TreeSearch`](crate::treeopt::TreeSearch) builds one [`Pool`] per run;
//! `coolnet-serve` builds one per process and shares it across concurrent
//! jobs, so N jobs time-share one set of threads instead of
//! oversubscribing the machine N-fold.
//!
//! [`Pool::execute`] preserves item order, so results never depend on
//! which worker scored which item. Fault containment is structural:
//!
//! * every task runs under `catch_unwind`, so a panicking evaluation kills
//!   neither its worker nor its batch; the slot it failed to fill gets the
//!   caller's fallback value;
//! * a task reports completion from a `Drop` impl, which also runs when
//!   the task unwinds or is dropped unrun, so a submitter can never wait
//!   forever on a lost completion;
//! * result slots sit behind poison-recovering locks
//!   ([`coolnet_obs::sync`]), so no panic can wedge sibling batches;
//! * a worker that fails to spawn is skipped, and with no worker at all a
//!   batch runs inline on the submitting thread.

use coolnet_obs::sync::lock_recover;
use coolnet_obs::LazyCounter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Tasks dispatched through a [`Pool`].
static M_POOL_TASKS: LazyCounter = LazyCounter::new("sa.pool_tasks");
/// Pool workers that died outside a task (found when the pool is joined).
static M_LOST_WORKERS: LazyCounter = LazyCounter::new("sa.pool_lost_workers");

type Task = Box<dyn FnOnce() + Send>;

/// Caps a requested worker count at the host's available parallelism (a
/// request of `0` gets one worker): evaluations are CPU-bound, so more
/// workers than hardware threads only add scheduling overhead.
fn effective_workers(requested: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    requested.clamp(1, hw)
}

/// A persistent pool of evaluation worker threads; dropping it joins them.
pub struct Pool {
    /// `None` only while dropping: closing the channel ends the workers.
    task_tx: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// The shared state of one [`Pool::execute`] call: the result slots and
/// the number of tasks that have not reported yet.
struct Batch<R> {
    state: Mutex<(Vec<Option<R>>, usize)>,
    all_done: Condvar,
}

/// One task's completion report, filed when dropped — normally after the
/// evaluation, but also during unwinding or when the task is dropped
/// without running, which is what makes completion unlosable.
struct Report<R> {
    batch: Arc<Batch<R>>,
    index: usize,
    result: Option<R>,
}

impl<R> Report<R> {
    /// Files the evaluation's result (`None` if it panicked).
    fn file(mut self, result: Option<R>) {
        self.result = result;
    }
}

impl<R> Drop for Report<R> {
    fn drop(&mut self) {
        let mut state = lock_recover(&self.batch.state);
        let (slots, pending) = &mut *state;
        if let Some(slot) = slots.get_mut(self.index) {
            *slot = self.result.take();
        }
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
            self.batch.all_done.notify_all();
        }
    }
}

impl Pool {
    /// Spawns a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let (task_tx, task_rx) = channel::<Task>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let workers = (0..threads.max(1))
            .filter_map(|i| {
                let rx = Arc::clone(&task_rx);
                std::thread::Builder::new()
                    .name(format!("coolnet-eval-{i}"))
                    .spawn(move || worker_loop(&rx))
                    // A failed spawn leaves a smaller pool; results do not
                    // depend on the worker count.
                    .ok()
            })
            .collect();
        // From here on only the workers hold the receiver: if none could
        // be spawned, every send fails and hands its task back to run
        // inline (see `submit`).
        Self {
            task_tx: Some(task_tx),
            workers,
        }
    }

    /// Spawns the pool of one search run: `requested` workers clamped to
    /// the hardware, so a 1-core host never time-slices a 4-thread pool.
    /// Results do not depend on the worker count, so the clamp changes
    /// wall time only. [`TreeSearch`](crate::treeopt::TreeSearch) builds
    /// its pool here; a service's pool size is a deployment setting and
    /// uses [`Pool::new`].
    pub fn for_run(requested: usize) -> Self {
        Self::new(effective_workers(requested))
    }

    /// Number of worker threads (`0` if none could be spawned; batches
    /// then run on the submitting thread).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Evaluates `eval` on every item, preserving order. An item whose
    /// evaluation panics gets `fallback`; the second return value counts
    /// those panics.
    ///
    /// Many threads may call this concurrently; their tasks interleave on
    /// the shared workers, and each call returns as soon as all of *its*
    /// items are accounted for.
    pub fn execute<T, R, F>(&self, items: Vec<T>, eval: &Arc<F>, fallback: R) -> (Vec<R>, usize)
    where
        T: Send + 'static,
        R: Clone + Send + 'static,
        F: Fn(&T) -> R + Send + Sync + ?Sized + 'static,
    {
        let n = items.len();
        M_POOL_TASKS.add(n as u64);
        let batch = Arc::new(Batch {
            state: Mutex::new((vec![None; n], n)),
            all_done: Condvar::new(),
        });
        for (index, item) in items.into_iter().enumerate() {
            let eval = Arc::clone(eval);
            let report = Report {
                batch: Arc::clone(&batch),
                index,
                result: None,
            };
            self.submit(Box::new(move || {
                report.file(catch_unwind(AssertUnwindSafe(|| eval(&item))).ok());
            }));
        }
        let mut state = lock_recover(&batch.state);
        while state.1 > 0 {
            state = batch
                .all_done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let mut panics = 0;
        let out = state
            .0
            .iter_mut()
            .map(|slot| {
                slot.take().unwrap_or_else(|| {
                    panics += 1;
                    fallback.clone()
                })
            })
            .collect();
        (out, panics)
    }

    /// Queues one task, or runs it here when no worker can take it.
    fn submit(&self, task: Task) {
        let rejected = match &self.task_tx {
            Some(tx) => tx.send(task).err().map(|SendError(task)| task),
            None => Some(task),
        };
        if let Some(task) = rejected {
            task();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Task>>) {
    loop {
        // Hold the lock only for the receive so workers evaluate
        // concurrently; the guard drops at the end of this statement.
        let task = lock_recover(rx).recv();
        match task {
            Ok(task) => task(),
            Err(_) => return, // the pool is shutting down
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.task_tx = None;
        for worker in self.workers.drain(..) {
            // Evaluation panics are caught inside each task, so a worker
            // dies only from a panic outside one (say, in an item's own
            // `Drop`). Drop must not panic; count it instead.
            if worker.join().is_err() {
                M_LOST_WORKERS.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_preserves_order_and_absorbs_panics() {
        let pool = Pool::new(3);
        let eval = Arc::new(|x: &u32| {
            assert!(x % 9 != 4, "injected evaluation panic");
            (*x, f64::from(*x) * 2.0)
        });
        let fallback = (u32::MAX, f64::INFINITY);
        let (out, panics) = pool.execute((0..23).collect(), &eval, fallback);
        assert_eq!(panics, 3);
        for (i, v) in (0u32..).zip(&out) {
            if i % 9 == 4 {
                assert_eq!(*v, fallback, "panicked slot gets the fallback");
            } else {
                assert_eq!(*v, (i, f64::from(i) * 2.0));
            }
        }
        // The panicking tasks killed no worker, and later batches —
        // empty and single-item ones included — still come back in order.
        assert!(pool.workers.iter().all(|w| !w.is_finished()));
        for len in [0u32, 1, 17, 33] {
            let (again, _) = pool.execute((100..100 + len).collect(), &eval, fallback);
            let expected: Vec<_> = (100..100 + len)
                .map(|x| {
                    if x % 9 == 4 {
                        fallback
                    } else {
                        (x, f64::from(x) * 2.0)
                    }
                })
                .collect();
            assert_eq!(again, expected);
        }
    }

    #[test]
    fn run_pools_are_clamped_to_the_hardware() {
        // On any host: a request above the hardware gets the hardware,
        // and a small request is kept when the hardware allows it.
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(Pool::for_run(hw + 1).threads(), hw);
        assert_eq!(Pool::for_run(4).threads(), 4.min(hw));
    }

    #[test]
    fn concurrent_batches_share_one_pool() {
        let pool = Pool::new(2);
        let eval = Arc::new(|x: &u32| f64::from(*x) * 2.0);
        // Release all submitters at once so their batches interleave.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        pool.execute((0..6).collect(), &eval, f64::INFINITY)
                    })
                })
                .collect();
            for h in handles {
                let (out, panics) = h.join().unwrap();
                assert_eq!(panics, 0);
                assert_eq!(out, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
            }
        });
    }

    #[test]
    fn pool_without_workers_runs_batches_inline() {
        // The state `Pool::new` leaves when no worker could be spawned:
        // nobody holds the receiver, so every task runs on the caller.
        let (task_tx, _) = channel::<Task>();
        let pool = Pool {
            task_tx: Some(task_tx),
            workers: Vec::new(),
        };
        let caller = std::thread::current().id();
        let eval = Arc::new(move |x: &u32| {
            assert_eq!(std::thread::current().id(), caller);
            assert!(*x != 2, "injected evaluation panic");
            *x + 1
        });
        let (out, panics) = pool.execute(vec![0, 1, 2, 3], &eval, 0);
        assert_eq!((out, panics), (vec![1, 2, 0, 4], 1));
    }
}
