//! Dynamic batching: coalescing queued requests into one wide GEMM.
//!
//! AQS-GEMM amortizes its weight-side work (walking the resident
//! weight index, loading slice planes, compensation setup) over the `N`
//! dimension, so serving throughput grows when independent requests'
//! activation columns ride in one call. This module is the stateless
//! path's *grouping rule* and *executor*: `take_batch` groups queued
//! jobs that target the *same* prepared model (pointer identity, so a
//! re-registered model never mixes with its predecessor) up to a column
//! budget, and `execute` splits the accumulators back per request —
//! bit-exactly, because the GEMM is element-exact under any column
//! grouping. Waiting, purging and lingering belong to the shared
//! `BatchQueue` (`queue.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panacea_core::pe_padded_cols;
use panacea_telemetry::{DimCell, TraceContext};

use crate::metrics::Metrics;
use crate::model::{timed_blocks, PreparedModel};
use crate::queue::Queued;
use crate::{InferenceOutput, Payload, ServeError};

/// Batching policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Column budget per batch: a batch closes once the coalesced
    /// requests reach this many activation columns.
    pub max_batch: usize,
    /// How long the oldest queued request may wait for companions before
    /// the batch is dispatched anyway. Zero by default — a lone request
    /// never pays a linger, and batches still form behind the passes in
    /// flight; a short linger fills batches when arrivals trickle in.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 32,
            max_wait: Duration::ZERO,
        }
    }
}

/// One queued request: its typed payload, the resolved model handle,
/// the response channel, and the enqueue timestamp latency is measured
/// from.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) model: Arc<PreparedModel>,
    pub(crate) payload: Payload,
    pub(crate) responder: mpsc::Sender<Result<InferenceOutput, ServeError>>,
    pub(crate) enqueued_at: Instant,
    /// When present, the job is dropped (answered `DeadlineExceeded`)
    /// if it is still queued past this instant — expired work never
    /// reaches the GEMM.
    pub(crate) deadline: Option<Instant>,
    /// Set by the caller's dropped `Pending` handle; workers drop the
    /// job instead of executing it. Shared with the `Pending`.
    pub(crate) cancelled: Arc<AtomicBool>,
    /// When present, the worker records `queue_wait` / `batch_form` /
    /// `execute` / `split_back` spans into the submitting request's
    /// trace before answering.
    pub(crate) ctx: Option<TraceContext>,
}

/// One model's pre-resolved `(model, "batch", …)` stage cells plus its
/// block sub-layer cells. A worker resolves these when it first runs a
/// model and reuses them for every following batch of the same
/// prepared instance.
#[derive(Debug)]
pub(crate) struct BatchCells {
    /// [`PreparedModel::instance_id`] of the model these belong to.
    instance: u64,
    /// Enqueue-to-execution-start wait, per request.
    queue_wait: Arc<DimCell>,
    /// Linger-start-to-batch-taken formation time, per batch.
    batch_form: Arc<DimCell>,
    /// Coalesced forward-pass duration, per batch.
    execute: Arc<DimCell>,
    /// Split-and-respond fan-out duration, per batch.
    split_back: Arc<DimCell>,
    /// See [`PreparedModel::block_cells`].
    block: Vec<Arc<DimCell>>,
}

impl BatchCells {
    fn resolve(metrics: &Metrics, model: &PreparedModel) -> Self {
        let registry = metrics.registry();
        let cell = |stage| registry.cell(model.name(), "batch", stage);
        BatchCells {
            instance: model.instance_id(),
            queue_wait: cell("queue_wait"),
            batch_form: cell("batch_form"),
            execute: cell("execute"),
            split_back: cell("split_back"),
            block: model.block_cells(registry),
        }
    }
}

/// A dispatchable group of same-model jobs.
#[derive(Debug)]
pub(crate) struct Batch {
    pub(crate) model: Arc<PreparedModel>,
    pub(crate) jobs: Vec<Job>,
}

impl AsRef<[Job]> for Batch {
    fn as_ref(&self) -> &[Job] {
        &self.jobs
    }
}

impl Queued for Job {
    type Batch = Batch;

    fn model(&self) -> &Arc<PreparedModel> {
        &self.model
    }

    fn cols(&self) -> usize {
        self.payload.cols()
    }

    fn enqueued_at(&self) -> Instant {
        self.enqueued_at
    }

    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    fn abandoned(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    fn answer_expired(self) {
        // A dropped receiver just means the caller also gave up.
        let _ = self.responder.send(Err(ServeError::DeadlineExceeded));
    }

    fn fusable_cols(queue: &VecDeque<Self>) -> usize {
        head_model_cols(queue)
    }

    fn take(queue: &mut VecDeque<Self>, max_batch: usize) -> Option<Batch> {
        take_batch(queue, max_batch)
    }
}

/// Total queued columns targeting the queue head's model — what the
/// worker compares against [`BatchPolicy::max_batch`] when deciding
/// whether to keep waiting.
pub(crate) fn head_model_cols(queue: &VecDeque<Job>) -> usize {
    let Some(head) = queue.front() else { return 0 };
    queue
        .iter()
        .filter(|j| Arc::ptr_eq(&j.model, &head.model))
        .map(|j| j.payload.cols())
        .sum()
}

/// Removes the head job plus every queued job for the same model, in
/// arrival order, until the column budget is filled. Jobs for other
/// models keep their relative order.
pub(crate) fn take_batch(queue: &mut VecDeque<Job>, max_batch: usize) -> Option<Batch> {
    let head = queue.pop_front()?;
    let model = Arc::clone(&head.model);
    let mut cols = head.payload.cols();
    let mut jobs = vec![head];
    let mut i = 0;
    while i < queue.len() && cols < max_batch {
        if Arc::ptr_eq(&queue[i].model, &model) {
            let job = queue.remove(i).expect("index in bounds");
            cols += job.payload.cols();
            jobs.push(job);
        } else {
            i += 1;
        }
    }
    Some(Batch { model, jobs })
}

/// Executes a batch: one coalesced forward pass, split back per request,
/// responses sent, metrics recorded. Requests whose receiver has been
/// dropped are completed and counted but their send is ignored.
///
/// `cells` memoizes the stage cells of the model this worker ran last —
/// re-resolved only when a batch for a different prepared instance comes
/// up.
///
/// The forward pass runs under `catch_unwind`: a panic (a model bug, or
/// the `serve.worker.execute` fault site firing) answers every rider
/// with [`ServeError::Internal`] and records a `worker_panic` — the
/// worker thread survives and the callers are released, not abandoned.
/// Stateless requests tolerate the batch-wide answer because infer is
/// idempotent; clients simply retry.
pub(crate) fn execute(
    batch: Batch,
    (form_started, form_done): (Instant, Instant),
    metrics: &Metrics,
    cells: &mut Option<BatchCells>,
) {
    let Batch { model, jobs } = batch;
    let cells = match cells {
        Some(cells) if cells.instance == model.instance_id() => cells,
        stale => stale.insert(BatchCells::resolve(metrics, &model)),
    };
    for job in &jobs {
        if let Some(ctx) = &job.ctx {
            ctx.record_span("batch_form", form_started, form_done);
        }
    }
    cells
        .batch_form
        .record_latency(form_done.duration_since(form_started));
    let refs: Vec<&Payload> = jobs.iter().map(|j| &j.payload).collect();
    let total_cols: usize = refs.iter().map(|p| p.cols()).sum();

    let started = Instant::now();
    for job in &jobs {
        cells
            .queue_wait
            .record_latency(started.duration_since(job.enqueued_at));
    }
    let ran = catch_unwind(AssertUnwindSafe(|| {
        panacea_faultline::point("serve.worker.execute");
        timed_blocks(&cells.block, || model.forward_batch(&refs))
    }));
    let (outputs, _) = match ran {
        Ok(out) => out,
        Err(_) => {
            metrics.record_worker_panic(model.name(), "worker_execute");
            for job in &jobs {
                let _ = job.responder.send(Err(ServeError::Internal {
                    at: "worker_execute",
                }));
            }
            return;
        }
    };
    let compute = started.elapsed();

    let done = Instant::now();
    // Record before answering: a caller that observes its response must
    // also observe this batch in the metrics.
    metrics.record_batch(jobs.len(), total_cols, pe_padded_cols(total_cols), compute);
    cells.execute.record_latency(compute);
    let split_started = Instant::now();
    for (job, out) in jobs.iter().zip(outputs) {
        // Record remote spans *before* answering: the submitting thread
        // is blocked on this channel, so its trace cannot finish until
        // the spans are in its buffer.
        if let Some(ctx) = &job.ctx {
            ctx.record_span("queue_wait", job.enqueued_at, started);
            ctx.record_span("execute", started, done);
            ctx.record_span("split_back", split_started, Instant::now());
        }
        // A dropped receiver just means the caller stopped waiting.
        let _ = job.responder.send(Ok(InferenceOutput {
            payload: out,
            scale: model.output_scale(),
            batched_cols: total_cols,
            latency: done.duration_since(job.enqueued_at),
        }));
    }
    cells.split_back.record_latency(split_started.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ShardCounters;
    use crate::queue::{dispatch_deadline, purge, QueueDepth};
    use crate::testutil::{codes, models};

    fn prepared(seed: u64) -> Arc<PreparedModel> {
        Arc::new(models(&["m"], seed).pop().expect("one model"))
    }

    type Reply = Result<InferenceOutput, ServeError>;

    fn run(batch: Batch, metrics: &Metrics) {
        let now = Instant::now();
        execute(batch, (now, now), metrics, &mut None);
    }

    fn job(model: &Arc<PreparedModel>, cols: usize) -> (Job, mpsc::Receiver<Reply>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                model: Arc::clone(model),
                payload: codes(model, cols, 0).into(),
                responder: tx,
                enqueued_at: Instant::now(),
                deadline: None,
                cancelled: Arc::new(AtomicBool::new(false)),
                ctx: None,
            },
            rx,
        )
    }

    #[test]
    fn take_batch_groups_by_model_identity() {
        let a = prepared(1);
        let b = prepared(2);
        let mut queue = VecDeque::new();
        let (ja1, _r1) = job(&a, 2);
        let (jb, _r2) = job(&b, 2);
        let (ja2, _r3) = job(&a, 3);
        queue.extend([ja1, jb, ja2]);
        assert_eq!(head_model_cols(&queue), 5);
        let batch = take_batch(&mut queue, 32).expect("non-empty");
        assert_eq!(batch.jobs.len(), 2);
        assert!(Arc::ptr_eq(&batch.model, &a));
        // The other model's job stays queued at the head.
        assert_eq!(queue.len(), 1);
        assert!(Arc::ptr_eq(&queue[0].model, &b));
    }

    #[test]
    fn take_batch_respects_column_budget() {
        let a = prepared(3);
        let mut queue = VecDeque::new();
        let mut rxs = Vec::new();
        for _ in 0..6 {
            let (j, rx) = job(&a, 4);
            queue.push_back(j);
            rxs.push(rx);
        }
        // Budget 10: head (4) + one more (8) still < 10, third reaches 12.
        let batch = take_batch(&mut queue, 10).expect("non-empty");
        assert_eq!(batch.jobs.len(), 3);
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn purge_cancelled_drops_abandoned_jobs_only() {
        let a = prepared(11);
        let mut queue = VecDeque::new();
        let (j1, _r1) = job(&a, 1);
        let (j2, _r2) = job(&a, 2);
        let (j3, _r3) = job(&a, 3);
        j2.cancelled.store(true, Ordering::Release);
        queue.extend([j1, j2, j3]);
        let counts = ShardCounters::default();
        purge(&mut queue, Instant::now(), &counts);
        assert_eq!(counts.cancelled.sum(), 1);
        let widths: Vec<usize> = queue.iter().map(|j| j.payload.cols()).collect();
        assert_eq!(widths, vec![1, 3], "live jobs must keep their order");
        purge(&mut queue, Instant::now(), &counts);
        assert_eq!(counts.cancelled.sum(), 1);
        assert_eq!(counts.expired.sum(), 0);
    }

    #[test]
    fn empty_queue_yields_no_batch() {
        let mut queue: VecDeque<Job> = VecDeque::new();
        assert!(take_batch(&mut queue, 8).is_none());
        assert_eq!(head_model_cols(&queue), 0);
    }

    #[test]
    fn execute_answers_every_job_bit_exactly() {
        let a = prepared(4);
        let mut queue = VecDeque::new();
        let mut rxs = Vec::new();
        for cols in [1usize, 3, 5] {
            let (j, rx) = job(&a, cols);
            queue.push_back(j);
            rxs.push(rx);
        }
        let singles: Vec<Payload> = queue.iter().map(|j| a.forward(&j.payload).0).collect();
        let metrics = Metrics::default();
        let batch = take_batch(&mut queue, 64).expect("non-empty");
        run(batch, &metrics);
        for (rx, alone) in rxs.iter().zip(singles) {
            let out = rx.try_recv().expect("answered").expect("succeeded");
            assert_eq!(out.payload, alone);
            assert_eq!(out.batched_cols, 9);
        }
        let snap = metrics.counters().snapshot(QueueDepth::default());
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.columns, 9);
        // What the PE array would pad 9 columns with.
        assert_eq!(snap.padded_cols, 3);
        // Each stage sample lands in the registry exactly once: one
        // queue wait per request, one execute / split-back per batch.
        let count = |stage| {
            let cell = metrics.registry().cell("m", "batch", stage);
            cell.total().latency.count
        };
        assert_eq!(count("queue_wait"), 3);
        assert_eq!(count("execute"), 1);
        assert_eq!(count("split_back"), 1);
    }

    #[test]
    fn purge_expired_answers_deadline_exceeded_before_the_gemm() {
        let a = prepared(12);
        let mut queue = VecDeque::new();
        let (mut j1, r1) = job(&a, 1);
        let (j2, r2) = job(&a, 2);
        let (mut j3, r3) = job(&a, 3);
        let now = Instant::now();
        j1.deadline = Some(now - Duration::from_millis(1)); // already past
        j3.deadline = Some(now + Duration::from_secs(60)); // comfortably live
        queue.extend([j1, j2, j3]);
        let counts = ShardCounters::default();
        purge(&mut queue, now, &counts);
        assert_eq!(counts.expired.sum(), 1);
        match r1.try_recv().expect("expired job is answered") {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(r2.try_recv().is_err(), "live job not answered yet");
        assert!(r3.try_recv().is_err(), "live job not answered yet");
        let widths: Vec<usize> = queue.iter().map(|j| j.payload.cols()).collect();
        assert_eq!(widths, vec![2, 3], "live jobs keep their order");
    }

    #[test]
    fn head_dispatch_deadline_is_capped_by_the_job_deadline() {
        let a = prepared(13);
        let (mut j, _r) = job(&a, 1);
        let long = Duration::from_secs(10);
        assert_eq!(dispatch_deadline(&j, long), Some(j.enqueued_at + long));
        // A linger too long for the clock is no bound, not a panic.
        assert_eq!(dispatch_deadline(&j, Duration::MAX), None);
        let d = j.enqueued_at + Duration::from_millis(1);
        j.deadline = Some(d);
        assert_eq!(dispatch_deadline(&j, long), Some(d));
        assert_eq!(dispatch_deadline(&j, Duration::MAX), Some(d));
    }

    #[test]
    fn execute_survives_dropped_receivers() {
        let a = prepared(5);
        let (j, rx) = job(&a, 2);
        drop(rx);
        let metrics = Metrics::default();
        run(
            Batch {
                model: Arc::clone(&a),
                jobs: vec![j],
            },
            &metrics,
        );
        assert_eq!(metrics.counters().requests.sum(), 1);
    }
}
