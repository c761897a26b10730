//! Continuous batching for decode: coalescing concurrent sessions'
//! single-token steps into one GEMM pass per layer.
//!
//! KV caching makes one decode step O(prefix), but a single-token step
//! alone runs the whole block stack at GEMM width `N = 1`, so a fleet of
//! concurrent decode sessions stepping alone walks every weight once per
//! session and serializes work one wider GEMM could share. The
//! `DecodeBatcher` fixes that: callers enqueue steps, and a dedicated
//! worker stacks the queued steps of the *same* prepared model (one
//! column group per session) into a single fused pass — one
//! QKV/proj/fc1/fc2 GEMM per block over all sessions' columns,
//! attention per session against its own cache
//! ([`panacea_block::decode_step_batch`] over the steps stacked by
//! [`run_coalesced`]).
//!
//! Guarantees:
//!
//! * **Bit-exact** — each session's output is bit-identical to stepping
//!   it alone (column-exact coalescing, same accumulation order); the
//!   batcher changes throughput, never bits.
//! * **Same-model grouping** — sessions on different prepared instances
//!   never share a pass (their weights differ), mirroring the stateless
//!   batcher's pointer-identity grouping.
//! * **One step per session per pass** — two queued steps for one
//!   session are order-dependent (the second attends over the first's
//!   K/V), so the second waits for the next pass.
//! * **No poisoning** — steps are validated *before* they can enqueue
//!   ([`PreparedModel::validate_decode`](crate::PreparedModel::validate_decode)),
//!   so a malformed request fails on its own thread and can never take
//!   a fused batch down.
//!
//! Waiting, purging expired steps and lingering belong to the shared
//! `BatchQueue` (`queue.rs`), the same queue the stateless runtime
//! drains; this module is decode's *grouping rule*
//! (`take_decode_batch`) and its one *pass body* (`run_pass`). The
//! worker runs the pass body for fused passes (`execute_batch` adds the
//! cells, counters, event and spans around it); a chunk that fills the
//! column budget by itself runs the same body on its caller's thread
//! (`DecodeBatcher::run_on_caller`), so there is one lock → snapshot →
//! `catch_unwind` → rollback → retry → poison sequence. Knobs:
//! `max_batch` bounds the fused pass's total columns, and `max_wait` is
//! how long the oldest queued step lingers for batchmates. Even at zero
//! linger (the default), batches form naturally under load: while one
//! pass executes, the next wave of steps queues up behind it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use panacea_block::KvCache;
use panacea_core::pe_padded_cols;
use panacea_core::pipeline::run_coalesced;
use panacea_telemetry::{EventSeverity, TraceContext};
use panacea_tensor::Matrix;

use crate::metrics::Metrics;
use crate::model::{timed_blocks, PreparedModel};
use crate::queue::{BatchQueue, Queued, RequestCtx, Workers};
use crate::session::{Session, Slot};

/// What a fused pass hands back to each waiting step: the session's
/// output columns and its total token count afterwards.
pub(crate) type StepOutcome = (Matrix<f32>, usize);

/// How a step failed inside the batching worker. The session manager
/// maps these onto [`ServeError`](crate::ServeError) — and, for
/// poisoned failures, evicts the owning session before answering.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StepFailure {
    /// The worker caught a panic executing this step. `poisoned` means
    /// the panic was attributed to *this session's own* work (its solo
    /// retry died, or it was alone in the pass), so its KV state —
    /// though rolled back — is suspect and the session must be evicted.
    Internal { poisoned: bool, at: &'static str },
    /// The step's deadline expired while it was queued; it was dropped
    /// before any GEMM work.
    DeadlineExceeded,
}

/// What one step is answered with.
pub(crate) type Answer = Result<StepOutcome, StepFailure>;

/// One queued decode step.
#[derive(Debug)]
struct DecodeJob {
    session: u64,
    slot: Arc<Slot>,
    hidden: Matrix<f32>,
    responder: mpsc::Sender<Answer>,
    enqueued_at: Instant,
    /// When present, the step is answered `DeadlineExceeded` instead of
    /// executed once this instant passes.
    deadline: Option<Instant>,
    /// When present, the worker records `queue_wait` and a
    /// link-annotated `decode_pass` span into this step's trace.
    ctx: Option<TraceContext>,
}

impl Queued for DecodeJob {
    type Batch = Vec<DecodeJob>;

    fn model(&self) -> &Arc<PreparedModel> {
        &self.slot.model
    }

    fn cols(&self) -> usize {
        self.hidden.cols()
    }

    fn enqueued_at(&self) -> Instant {
        self.enqueued_at
    }

    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    fn answer_expired(self) {
        let _ = self.responder.send(Err(StepFailure::DeadlineExceeded));
    }

    fn fusable_cols(queue: &VecDeque<Self>) -> usize {
        eligible_cols(queue)
    }

    fn take(queue: &mut VecDeque<Self>, max_batch: usize) -> Option<Vec<DecodeJob>> {
        take_decode_batch(queue, max_batch)
    }
}

/// The continuous-batching executor behind
/// [`SessionManager::step`](crate::SessionManager::step): a queue of
/// decode steps plus one worker thread fusing them into batched GEMM
/// passes. Owned by the session manager; dropping it drains the queue
/// and joins the worker.
#[derive(Debug)]
pub(crate) struct DecodeBatcher {
    metrics: Metrics,
    queue: Arc<BatchQueue<DecodeJob>>,
    _worker: Workers<DecodeJob>,
}

impl DecodeBatcher {
    /// Spawns the batching worker. `max_batch` bounds a fused pass's
    /// total columns (at least the head step always dispatches);
    /// `max_wait` is the linger for batchmates; `metrics` is the
    /// session manager's. Passes, panics and expired steps count into
    /// its counter block.
    pub(crate) fn new(max_batch: usize, max_wait: Duration, metrics: Metrics) -> Self {
        let queue = Arc::new(BatchQueue::new(
            max_batch,
            max_wait,
            Arc::clone(metrics.counters()),
        ));
        let worker = {
            let metrics = metrics.clone();
            Workers::spawn(
                Arc::clone(&queue),
                1,
                "panacea-decode-batch",
                move |queue| queue.run(|jobs, _| execute_batch(jobs, &metrics)),
            )
        };
        DecodeBatcher {
            metrics,
            queue,
            _worker: worker,
        }
    }

    /// Enqueues one pre-validated step and returns the channel its
    /// outcome arrives on. The caller blocks on the receiver; a closed
    /// channel means the worker died (surfaced as `WorkerLost`).
    pub(crate) fn submit(
        &self,
        session: u64,
        slot: Arc<Slot>,
        hidden: Matrix<f32>,
        ctx: RequestCtx,
    ) -> mpsc::Receiver<Answer> {
        let (tx, rx) = mpsc::channel();
        // A push refused by shutdown drops the job and with it `tx`, so
        // the receiver reports the closed channel.
        let _ = self.queue.push(DecodeJob {
            session,
            slot,
            hidden,
            responder: tx,
            enqueued_at: Instant::now(),
            deadline: ctx.deadline,
            ctx: ctx.trace,
        });
        rx
    }

    /// Runs one pre-validated step on the caller's thread, through the
    /// same pass body as a fused pass, as a one-step pass. It is not
    /// counted as a fused pass: a chunk that fills the column budget by
    /// itself would gain nothing from the worker, and running it here
    /// keeps concurrent wide prefills parallel.
    pub(crate) fn run_on_caller(&self, slot: &Slot, hidden: &Matrix<f32>) -> Answer {
        match run_pass(&self.metrics, &[(slot, hidden)]) {
            Ok(mut outcomes) => Ok(outcomes.pop().expect("one step, one outcome")),
            Err(mut answers) => answers.pop().expect("one step, one answer"),
        }
    }
}

/// Columns the head's model could fuse right now: same prepared
/// instance, at most one step per session.
fn eligible_cols(queue: &VecDeque<DecodeJob>) -> usize {
    let Some(head) = queue.front() else { return 0 };
    let mut sessions: Vec<u64> = Vec::with_capacity(queue.len());
    let mut cols = 0;
    for job in queue {
        if Arc::ptr_eq(&job.slot.model, &head.slot.model) && !sessions.contains(&job.session) {
            sessions.push(job.session);
            cols += job.hidden.cols();
        }
    }
    cols
}

/// Removes the head step plus every queued same-model step for a
/// session not already in the batch, in arrival order, until the column
/// budget fills. Steps for other models (or repeat sessions) keep their
/// relative order.
fn take_decode_batch(queue: &mut VecDeque<DecodeJob>, max_batch: usize) -> Option<Vec<DecodeJob>> {
    let head = queue.pop_front()?;
    let model = Arc::clone(&head.slot.model);
    let mut cols = head.hidden.cols();
    let mut sessions = vec![head.session];
    let mut jobs = vec![head];
    let mut i = 0;
    while i < queue.len() && cols < max_batch {
        let candidate = &queue[i];
        if Arc::ptr_eq(&candidate.slot.model, &model)
            && !sessions.contains(&candidate.session)
            // The budget is a hard bound: a companion that would push
            // the pass past it waits for the next one, so a queued
            // single-token step is never head-of-line-blocked behind a
            // wide chunk riding its pass.
            && cols + candidate.hidden.cols() <= max_batch
        {
            let job = queue.remove(i).expect("index in bounds");
            cols += job.hidden.cols();
            sessions.push(job.session);
            jobs.push(job);
        } else {
            i += 1;
        }
    }
    Some(jobs)
}

/// The one decode pass body, run by the batching worker for a fused
/// pass and by [`DecodeBatcher::run_on_caller`] for a budget-filling
/// chunk: lock every participating session for the duration of the pass
/// (a session's steps are serialized by definition; holding the lock
/// across the pass is exactly the serialization a solo step would
/// impose, and releasing it mid-pass would let an eviction tear
/// half-advanced KV state), run the batched decode, and split the
/// outputs back per session. `Ok` carries one outcome per step, in
/// order; `Err` means the pass did not run and carries each step's own
/// answer.
///
/// # Panic isolation
///
/// The pass runs under `catch_unwind` with the session guards held
/// *outside* the closure, so a mid-pass panic (a model bug, or the
/// `serve.decode.fused_pass` fault site firing) cannot poison the cells.
/// A panicking pass may have appended K/V to some blocks but not others,
/// so every participant's cache is rolled back to its pre-pass token
/// count ([`KvCache::truncate_tokens`]) — then each batchmate is retried
/// **solo** (still bit-exact: solo stepping is the definition of
/// exactness). A step whose solo retry also panics is the poison pill:
/// its cache is rolled back again and its caller is answered
/// `Internal { poisoned: true }`, which makes the session manager evict
/// the session. A single-step pass attributes the panic directly.
fn run_pass(
    metrics: &Metrics,
    steps: &[(&Slot, &Matrix<f32>)],
) -> Result<Vec<StepOutcome>, Vec<Answer>> {
    let model = &steps[0].0.model;
    // Poison-tolerant lock: every path that panics under a session lock
    // catches it and rolls the cache back before the lock releases.
    let mut guards: Vec<MutexGuard<'_, Session>> = steps
        .iter()
        .map(|(slot, _)| slot.cell.lock().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let hiddens: Vec<&Matrix<f32>> = steps.iter().map(|&(_, h)| h).collect();
    // Pre-pass token counts — the rollback points if the pass dies.
    let snapshots: Vec<usize> = guards.iter().map(|g| g.kv.tokens()).collect();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        panacea_faultline::point("serve.decode.fused_pass");
        let mut kvs: Vec<&mut KvCache> = guards.iter_mut().map(|g| &mut g.kv).collect();
        // Batchmates share a prepared model, hence (by name) these cells.
        // Every step was validated against that model and each cache was
        // built by it, so the pass cannot fail; a broken invariant would
        // panic and be isolated like any other panic.
        timed_blocks(&steps[0].0.cells.block, || {
            run_coalesced(&hiddens, |x, segments| {
                model
                    .forward_decode_batch(x, segments, &mut kvs)
                    .expect("a validated step on its own model's cache")
            })
        })
    }));
    let (parts, _) = match ran {
        Ok(outcome) => outcome,
        Err(_) => {
            metrics.record_worker_panic(model.name(), "decode_fused_pass");
            // Roll every participant back to its pre-pass prefix: the
            // dead pass may have appended K/V to some blocks only.
            for (guard, &snap) in guards.iter_mut().zip(&snapshots) {
                guard.kv.truncate_tokens(snap);
            }
            if steps.len() == 1 {
                // Alone in the pass: the panic is this step's own.
                return Err(vec![Err(StepFailure::Internal {
                    poisoned: true,
                    at: "decode_fused_pass",
                })]);
            }
            // Retry each batchmate solo; a retry that panics again is
            // the culprit and poisons only its own session.
            let now = Instant::now();
            let answers = steps
                .iter()
                .zip(guards.iter_mut())
                .zip(&snapshots)
                .map(|((&(_, hidden), guard), &snap)| {
                    let solo = catch_unwind(AssertUnwindSafe(|| {
                        panacea_faultline::point("serve.decode.solo_retry");
                        let mut kvs: Vec<&mut KvCache> = vec![&mut guard.kv];
                        model
                            .forward_decode_batch(hidden, &[hidden.cols()], &mut kvs)
                            .expect("a validated step on its own model's cache")
                    }));
                    match solo {
                        Ok((out, _)) => {
                            guard.last_used = now;
                            Ok((out, guard.kv.tokens()))
                        }
                        Err(_) => {
                            metrics.record_worker_panic(model.name(), "decode_solo_retry");
                            guard.kv.truncate_tokens(snap);
                            Err(StepFailure::Internal {
                                poisoned: true,
                                at: "decode_solo_retry",
                            })
                        }
                    }
                })
                .collect();
            return Err(answers);
        }
    };
    let now = Instant::now();
    Ok(parts
        .into_iter()
        .zip(guards.iter_mut())
        .map(|(part, g)| {
            g.last_used = now;
            (part, g.kv.tokens())
        })
        .collect())
}

/// The batching worker's side of one fused pass: the linger cell, then —
/// for a pass that ran — the occupancy and fused-pass cells, the pass
/// counters, the `batch_formed` event and the traced steps' spans around
/// [`run_pass`], then one answer per caller. A pass that panicked counts
/// only as a panic, so every view of it agrees.
fn execute_batch(jobs: Vec<DecodeJob>, metrics: &Metrics) {
    let cells = &jobs[0].slot.cells;
    let pass_started = Instant::now();
    for job in &jobs {
        cells
            .linger
            .record_latency(pass_started.duration_since(job.enqueued_at));
    }
    let steps: Vec<(&Slot, &Matrix<f32>)> = jobs.iter().map(|j| (&*j.slot, &j.hidden)).collect();
    let answers: Vec<Answer> = match run_pass(metrics, &steps) {
        Err(answers) => answers,
        Ok(outcomes) => {
            let now = Instant::now();
            cells.occupancy.record_count(jobs.len() as u64);
            cells
                .fused_pass
                .record_latency(now.duration_since(pass_started));
            let total: usize = jobs.iter().map(|j| j.hidden.cols()).sum();
            let counters = metrics.counters();
            counters.decode_batches.add(1);
            counters.decode_batched_steps.add(jobs.len() as u64);
            counters
                .decode_padded_cols
                .add(pe_padded_cols(total) as u64);
            metrics.recorder().record(
                EventSeverity::Info,
                "batch_formed",
                format!("fused=decode sessions={} cols={total}", jobs.len()),
            );
            // Trace ids of every traced step in this pass: each traced
            // step's `decode_pass` span links to its batchmates' traces.
            let traced_ids: Vec<u64> = jobs
                .iter()
                .filter_map(|j| j.ctx.as_ref().map(|c| c.trace_id()))
                .collect();
            // Spans land before the send: the stepping thread is blocked
            // on its channel, so its trace cannot finish earlier.
            for job in &jobs {
                let Some(ctx) = &job.ctx else { continue };
                ctx.record_span("queue_wait", job.enqueued_at, pass_started);
                let links: Vec<u64> = traced_ids
                    .iter()
                    .copied()
                    .filter(|&id| id != ctx.trace_id())
                    .collect();
                ctx.record_span_linked("decode_pass", pass_started, now, links);
            }
            outcomes.into_iter().map(Ok).collect()
        }
    };
    for (job, answer) in jobs.iter().zip(answers) {
        // A dropped receiver just means the caller stopped waiting; the
        // session still advanced.
        let _ = job.responder.send(answer);
    }
}
