//! The one batching queue: where the GEMM's `N` dimension is formed.
//!
//! AQS-GEMM amortizes its weight-side work over `N`, so both serving
//! paths coalesce along it — the stateless [`Runtime`](crate::Runtime)
//! (N workers) and the `DecodeBatcher` (one).
//! They differ in *what may share a pass* ([`Queued::take`]) and in *how
//! a pass executes*; the protocol around those two lives here once:
//!
//! ```text
//!  push ─▶ run: wait ─▶ purge ─▶ linger ─▶ take ─▶ execute ─▶ (next batch)
//! ```
//!
//! * **Purge** drops jobs whose caller stopped waiting and answers jobs
//!   whose deadline passed — counted first, answered second.
//! * **Linger** ends when the head's group fills the column budget, when
//!   another model queues behind the head (lingering would
//!   head-of-line-block it), at the head's own deadline, after
//!   `max_wait` (zero by default: batches still form behind a pass in
//!   flight; too large for the clock means no bound), or on shutdown.
//! * **Shutdown** ([`Workers::shut_down`], also on drop) refuses new
//!   pushes, cuts lingers short, drains every accepted job, joins.
//!
//! The `serve.queue.{push, wake, take}` fault sites sit at the lock /
//! condvar hand-offs, outside the lock; a seeded `Delay` there perturbs
//! the schedule (`tests/queue_schedule.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use panacea_telemetry::TraceContext;

use crate::metrics::ShardCounters;
use crate::model::PreparedModel;

/// The optional attributes a request carries into the queue.
/// `RequestCtx::default()` is a plain request: untraced, no deadline.
#[derive(Debug, Clone, Default)]
pub struct RequestCtx {
    /// When present, the executing worker records its queue / batch /
    /// pass spans into the submitting request's trace before answering.
    pub trace: Option<TraceContext>,
    /// When present, a request still queued at this instant is dropped
    /// before any GEMM work and answered
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded);
    /// one already past it is rejected at submission. Lingering for
    /// companions never holds the queue head past its own deadline.
    pub deadline: Option<Instant>,
}

/// A point-in-time view of how much work a runtime is holding — what a
/// router compares across shards when spreading load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepth {
    /// Requests waiting in the queue.
    pub queued_jobs: usize,
    /// Activation columns waiting in the queue.
    pub queued_cols: usize,
    /// Columns claimed by workers but not yet answered.
    pub in_flight_cols: usize,
}

impl QueueDepth {
    /// Total outstanding columns (queued + in flight) — the scalar load
    /// figure shard routing ranks by.
    pub fn load(&self) -> usize {
        self.queued_cols + self.in_flight_cols
    }
}

/// What the queue needs to know about a job, plus the job kind's own
/// grouping rule.
pub(crate) trait Queued: Sized {
    /// What [`take`](Self::take) hands a worker.
    type Batch: AsRef<[Self]>;

    /// Jobs share a pass only on the same instance (pointer identity).
    fn model(&self) -> &Arc<PreparedModel>;
    /// Activation columns the job adds to a pass.
    fn cols(&self) -> usize;
    /// When the job was pushed — the linger is measured from here.
    fn enqueued_at(&self) -> Instant;
    /// Past this instant the job is answered instead of executed.
    fn deadline(&self) -> Option<Instant>;
    /// Whether the caller stopped waiting for the answer.
    fn abandoned(&self) -> bool {
        false
    }
    /// Answers the job's caller `DeadlineExceeded`.
    fn answer_expired(self);

    /// Columns the head's group could dispatch right now — lingering
    /// stops once this reaches the budget.
    fn fusable_cols(queue: &VecDeque<Self>) -> usize;
    /// Removes the head's group, up to `max_batch` columns.
    fn take(queue: &mut VecDeque<Self>, max_batch: usize) -> Option<Self::Batch>;
}

/// Drops every queued job whose caller abandoned it (sustained overload
/// must not leave admitted-then-shed jobs growing the queue) and answers
/// every job whose deadline has passed — expired work is shed *before*
/// the GEMM. Live jobs keep their order. Counts first (into the shard's
/// `cancelled` and `expired`), answers second: a caller that observes
/// its answer must also observe the counter.
pub(crate) fn purge<J: Queued>(queue: &mut VecDeque<J>, now: Instant, counts: &ShardCounters) {
    let mut cancelled = 0;
    let mut expired = Vec::new();
    let mut i = 0;
    while i < queue.len() {
        if queue[i].abandoned() {
            queue.remove(i);
            cancelled += 1;
        } else if queue[i].deadline().is_some_and(|d| now >= d) {
            expired.extend(queue.remove(i));
        } else {
            i += 1;
        }
    }
    counts.cancelled.add(cancelled);
    counts.expired.add(expired.len() as u64);
    for job in expired {
        job.answer_expired();
    }
}

/// The latest instant the head's batch may keep lingering: the policy's
/// bound capped by the head's own deadline; `None` when `max_wait`
/// overflows the clock and the head has no deadline.
pub(crate) fn dispatch_deadline<J: Queued>(head: &J, max_wait: Duration) -> Option<Instant> {
    match (head.enqueued_at().checked_add(max_wait), head.deadline()) {
        (Some(linger), Some(deadline)) => Some(linger.min(deadline)),
        (linger, deadline) => linger.or(deadline),
    }
}

/// Whether every queued job targets the queue head's model. Workers only
/// linger while this holds: once a *different* model waits behind the
/// head, lingering would head-of-line-block it.
fn is_single_model<J: Queued>(queue: &VecDeque<J>) -> bool {
    let Some(head) = queue.front() else {
        return true;
    };
    queue.iter().all(|j| Arc::ptr_eq(j.model(), head.model()))
}

#[derive(Debug)]
struct State<J> {
    queue: VecDeque<J>,
    in_flight_cols: usize,
    shutting_down: bool,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct BatchQueue<J> {
    state: Mutex<State<J>>,
    work_ready: Condvar,
    max_batch: usize,
    max_wait: Duration,
    counters: Arc<ShardCounters>,
}

impl<J: Queued> BatchQueue<J> {
    /// An empty queue forming batches of up to `max_batch` columns,
    /// lingering up to `max_wait`, counting purged jobs into `counters`.
    pub(crate) fn new(max_batch: usize, max_wait: Duration, counters: Arc<ShardCounters>) -> Self {
        BatchQueue {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                in_flight_cols: 0,
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
            max_batch,
            max_wait,
            counters,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.state.lock().expect("queue lock poisoned")
    }

    /// Enqueues a job and wakes a worker; hands the job back once
    /// shutdown has begun.
    pub(crate) fn push(&self, job: J) -> Result<(), J> {
        {
            let mut st = self.lock();
            if st.shutting_down {
                return Err(job);
            }
            st.queue.push_back(job);
        }
        panacea_faultline::point("serve.queue.push");
        self.work_ready.notify_one();
        Ok(())
    }

    /// Wakes every worker to re-purge, after a queued job was abandoned.
    pub(crate) fn wake(&self) {
        panacea_faultline::point("serve.queue.wake");
        // Passing through the lock between the caller's store and the
        // notify closes the lost-wakeup window: a worker that purged
        // before the store cannot yet be parked (it still holds the
        // lock), so by the time this acquires the lock it is either
        // parked (and will get the notify) or will re-purge and see the
        // flag. No expect: a poisoned lock means workers died; nothing
        // to wake.
        if let Ok(guard) = self.state.lock() {
            drop(guard);
            self.work_ready.notify_all();
        }
    }

    /// Runs one worker: hands `execute` every batch (with the instants
    /// its formation started and ended) until shutdown has drained the
    /// queue. A batch's columns count as in flight while it executes.
    pub(crate) fn run(&self, mut execute: impl FnMut(J::Batch, (Instant, Instant))) {
        while let Some((batch, cols, formed)) = self.next_batch() {
            // Defense in depth: the executors isolate pass panics
            // themselves; if anything outside that isolation still
            // unwinds, the dropped responders surface `WorkerLost` to
            // the waiting callers and the worker survives.
            let _ = catch_unwind(AssertUnwindSafe(|| execute(batch, formed)));
            self.lock().in_flight_cols -= cols;
        }
    }

    /// Blocks until a batch is ready and claims it; `None` once shutdown
    /// has begun and the queue is drained.
    fn next_batch(&self) -> Option<(J::Batch, usize, (Instant, Instant))> {
        let sweep = |st: &mut State<J>| purge(&mut st.queue, Instant::now(), &self.counters);
        let mut st = self.lock();
        loop {
            sweep(&mut st);
            // Idle: wait for work, or for shutdown with a drained queue.
            while st.queue.is_empty() {
                if st.shutting_down {
                    return None;
                }
                st = self.work_ready.wait(st).expect("queue lock poisoned");
                sweep(&mut st);
            }

            let form_started = Instant::now();
            while !st.shutting_down
                && J::fusable_cols(&st.queue) < self.max_batch
                && is_single_model(&st.queue)
            {
                // `None`: another worker drained the queue meanwhile.
                let Some(head) = st.queue.front() else { break };
                let now = Instant::now();
                let wait = match dispatch_deadline(head, self.max_wait) {
                    Some(deadline) if deadline <= now => break,
                    Some(deadline) => deadline - now,
                    None => Duration::MAX,
                };
                let (guard, timeout) = self
                    .work_ready
                    .wait_timeout(st, wait)
                    .expect("queue lock poisoned");
                st = guard;
                sweep(&mut st);
                if timeout.timed_out() {
                    break;
                }
            }

            // Last-instant expiry: a head whose deadline elapsed during
            // the linger is answered `DeadlineExceeded`, not run late.
            sweep(&mut st);
            let Some(batch) = J::take(&mut st.queue, self.max_batch) else {
                continue;
            };
            let form_done = Instant::now();
            let cols: usize = batch.as_ref().iter().map(J::cols).sum();
            st.in_flight_cols += cols;
            drop(st);
            panacea_faultline::point("serve.queue.take");
            // If the batch left stragglers (over budget, another model, a
            // repeat session), make sure an idle sibling picks them up.
            self.work_ready.notify_one();
            return Some((batch, cols, (form_started, form_done)));
        }
    }

    /// Snapshot of the queued and in-flight work.
    pub(crate) fn depth(&self) -> QueueDepth {
        let st = self.lock();
        QueueDepth {
            queued_jobs: st.queue.len(),
            queued_cols: st.queue.iter().map(J::cols).sum(),
            in_flight_cols: st.in_flight_cols,
        }
    }
}

/// The threads draining a [`BatchQueue`]; dropping it shuts the queue
/// down and joins them.
#[derive(Debug)]
pub(crate) struct Workers<J: Queued> {
    queue: Arc<BatchQueue<J>>,
    threads: Vec<JoinHandle<()>>,
}

impl<J: Queued + Send + 'static> Workers<J> {
    /// Spawns `count` threads named `{name}-{i}`, each running `body`
    /// (per-worker state plus [`BatchQueue::run`]).
    pub(crate) fn spawn(
        queue: Arc<BatchQueue<J>>,
        count: usize,
        name: &str,
        body: impl Fn(&BatchQueue<J>) + Send + Sync + 'static,
    ) -> Self {
        let body = Arc::new(body);
        let threads = (0..count)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let body = Arc::clone(&body);
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || body(&queue))
                    .expect("spawn worker")
            })
            .collect();
        Workers { queue, threads }
    }
}

impl<J: Queued> Workers<J> {
    /// Threads still running (zero after shutdown).
    pub(crate) fn count(&self) -> usize {
        self.threads.len()
    }

    /// Stops intake, lets the workers drain every queued job, and joins
    /// them. Idempotent.
    pub(crate) fn shut_down(&mut self) {
        self.queue.lock().shutting_down = true;
        self.queue.work_ready.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl<J: Queued> Drop for Workers<J> {
    fn drop(&mut self) {
        self.shut_down();
    }
}
