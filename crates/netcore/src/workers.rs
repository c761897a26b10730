//! The request-execution pool: a fixed set of threads draining a shared
//! job queue, so the reactor thread never runs a request itself.
//!
//! The queue is effectively bounded by the reactor's dispatch
//! discipline (at most one in-flight request per connection, and
//! connections are bounded), so no separate queue bound is needed.
//! Shutdown drains: queued jobs still run before workers exit, which is
//! what lets the reactor flush their responses during its drain phase.
//!
//! Workers are panic-isolated: a job that panics is caught inside the
//! worker loop, counted on the pool's [`ConnectionCounters`] (when it
//! has one), and the thread keeps draining the queue. One poisonous
//! request can therefore never thin the pool — the `workers_alive`
//! gauge stays flat through a panic storm.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use crate::counters::ConnectionCounters;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    stop: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
    counters: Option<ConnectionCounters>,
}

/// A fixed-size worker pool executing boxed jobs in FIFO order.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.threads.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) named
    /// `{name_prefix}-{index}`.
    pub fn new(workers: usize, name_prefix: &str) -> WorkerPool {
        WorkerPool::with_counters(workers, name_prefix, None)
    }

    /// [`new`](Self::new) wired to shared counters: worker liveness
    /// (`workers_alive`) and caught-panic counts (`worker_panics`) land
    /// on the same handle the transport reports connection gauges on.
    pub fn with_counters(
        workers: usize,
        name_prefix: &str,
        counters: Option<ConnectionCounters>,
    ) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                stop: false,
            }),
            available: Condvar::new(),
            counters,
        });
        let threads = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Counted up here, not by the thread once it runs: a pool
                // that `with_counters` returned must never read as
                // thinner than it is (the `AliveGuard` counts it down).
                if let Some(c) = &shared.counters {
                    c.on_worker_up();
                }
                thread::Builder::new()
                    .name(format!("{name_prefix}-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Enqueues one job; a parked worker wakes to run it.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.stop {
            return; // shutting down: the job's completion would be dropped anyway
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.available.notify_one();
    }

    /// Stops accepting jobs, lets the queue drain, and joins every
    /// worker. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.stop = true;
        }
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrements `workers_alive` on scope exit — including the (should-be
/// impossible) case of a panic escaping the catch below, so the gauge
/// never overstates live workers.
struct AliveGuard<'a>(Option<&'a ConnectionCounters>);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.0 {
            c.on_worker_down();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let counters = shared.counters.as_ref();
    let _alive = AliveGuard(counters);
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.stop {
                    break None;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => {
                // Isolate the job: a panicking request answers (or
                // drops) its own completion, the worker keeps draining.
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    if let Some(c) = counters {
                        c.on_worker_panic();
                    }
                }
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_shutdown_drains_the_queue() {
        let ran = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(2, "test-worker");
        for _ in 0..64 {
            let ran = Arc::clone(&ran);
            pool.execute(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 64, "shutdown dropped jobs");
        // Post-shutdown submits are ignored, not panics.
        pool.execute(|| unreachable!("executed after shutdown"));
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0, "clamped");
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn panicking_jobs_are_isolated_and_the_pool_keeps_serving() {
        let counters = ConnectionCounters::default();
        let ran = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::with_counters(2, "chaos-worker", Some(counters.clone()));
        // Interleave panicking jobs with real ones: every real job must
        // still run, and no worker thread may die.
        for i in 0..32 {
            if i % 2 == 0 {
                pool.execute(|| panic!("injected job panic"));
            } else {
                let ran = Arc::clone(&ran);
                pool.execute(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        // Queue drained with both workers still alive, then shutdown
        // brings the liveness gauge to zero.
        while counters.snapshot().worker_panics < 16 {
            thread::yield_now();
        }
        assert_eq!(counters.snapshot().workers_alive, 2, "a worker died");
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 16, "a real job was lost");
        let snap = counters.snapshot();
        assert_eq!(snap.worker_panics, 16);
        assert_eq!(snap.workers_alive, 0, "joined workers still counted");
    }
}
