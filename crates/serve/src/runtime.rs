//! The worker pool: N threads draining the shared request queue.
//!
//! Requests are validated at submission, resolved to a shared
//! [`PreparedModel`] handle, and pushed onto the runtime's
//! `BatchQueue` (`queue.rs`). Each worker runs the queue's loop with
//! `execute`: the queue claims the head's model, lingers (bounded by
//! [`BatchPolicy::max_wait`], zero by default) for enough same-model
//! companions to fill [`BatchPolicy::max_batch`] columns, and hands the
//! coalesced batch over to run outside the lock.
//!
//! Shutdown is cooperative and clean: [`Runtime::shutdown`] (also run by
//! drop) stops intake and wakes every worker; workers stop waiting for
//! companions, drain every already-queued request, and exit, and the
//! caller joins them all — no detached threads survive, and no accepted
//! request is dropped.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::{Duration, Instant};

use crate::batch::{execute, BatchPolicy, Job};
use crate::metrics::{Metrics, ShardStats};
use crate::model::{ModelRegistry, PreparedModel};
use crate::queue::{BatchQueue, QueueDepth, RequestCtx, Workers};
use crate::{InferenceOutput, Payload, ServeError};

/// Runtime sizing and batching configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Batching policy (column budget and linger time).
    pub policy: BatchPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            policy: BatchPolicy::default(),
        }
    }
}

/// A batched, multi-threaded inference runtime over a model registry.
///
/// Submission, metrics and queue depth are [`RuntimeHandle`]'s methods,
/// reached through deref; the `Runtime` adds ownership of the worker
/// threads.
///
/// # Examples
///
/// ```
/// use panacea_serve::{LayerSpec, ModelRegistry, PreparedModel, PrepareOptions, Runtime, RuntimeConfig};
/// use panacea_tensor::{dist::DistributionKind, seeded_rng, Matrix};
/// use std::sync::Arc;
///
/// let mut rng = seeded_rng(1);
/// let w = DistributionKind::Gaussian { mean: 0.0, std: 0.05 }.sample_matrix(8, 16, &mut rng);
/// let calib = DistributionKind::Gaussian { mean: 0.2, std: 0.5 }.sample_matrix(16, 32, &mut rng);
/// let registry = Arc::new(ModelRegistry::new());
/// registry.insert(
///     PreparedModel::prepare("fc", &[LayerSpec::unbiased(w)], &calib,
///                            PrepareOptions::default()).unwrap(),
/// );
/// let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
/// let payload = registry.get("fc").unwrap().quantize(&calib);
/// let out = runtime.infer("fc", payload).unwrap();
/// assert_eq!(out.payload.as_codes().unwrap().shape(), (8, 32));
/// ```
#[derive(Debug)]
pub struct Runtime {
    handle: RuntimeHandle,
    workers: Workers<Job>,
}

impl Runtime {
    /// Spawns the worker pool (at least one worker) over `registry`,
    /// recording into a counter block, metric registry and flight
    /// recorder private to this runtime.
    pub fn start(registry: Arc<ModelRegistry>, config: RuntimeConfig) -> Self {
        Runtime::start_with_metrics(registry, config, Metrics::default())
    }

    /// [`start`](Self::start) recording into `metrics` instead: requests,
    /// batches, columns, purged jobs and caught panics count into its
    /// [`ShardCounters`](crate::ShardCounters); the workers'
    /// `(model, "batch", queue_wait|batch_form|execute|split_back)` and
    /// `(model, "block", …)` stage latencies land in its registry, batch
    /// formations and worker panics in its recorder.
    pub fn start_with_metrics(
        registry: Arc<ModelRegistry>,
        config: RuntimeConfig,
        metrics: Metrics,
    ) -> Self {
        let queue = Arc::new(BatchQueue::new(
            config.policy.max_batch,
            config.policy.max_wait,
            Arc::clone(metrics.counters()),
        ));
        let workers = {
            let metrics = metrics.clone();
            Workers::spawn(
                Arc::clone(&queue),
                config.workers.max(1),
                "panacea-serve",
                move |queue| {
                    let mut cells = None;
                    queue.run(|batch, formed| execute(batch, formed, &metrics, &mut cells));
                },
            )
        };
        Runtime {
            handle: RuntimeHandle {
                registry,
                queue,
                metrics,
            },
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.count()
    }

    /// A cloneable, submission-capable handle onto this runtime.
    ///
    /// The handle shares the queue and registry but not the worker
    /// threads, so it can be handed to connection handlers or pollers
    /// without tying the runtime's lifetime to theirs. Once the owning
    /// [`Runtime`] shuts down, submissions through any handle fail with
    /// [`ServeError::ShuttingDown`].
    pub fn handle(&self) -> RuntimeHandle {
        self.handle.clone()
    }

    /// Stops accepting new requests, drains every queued request, and
    /// joins all workers. Idempotent; also happens on drop.
    pub fn shutdown(&mut self) {
        self.workers.shut_down();
    }
}

impl Deref for Runtime {
    type Target = RuntimeHandle;

    fn deref(&self) -> &RuntimeHandle {
        &self.handle
    }
}

/// A cloneable handle onto a [`Runtime`]: submit, poll metrics and queue
/// depth — everything except lifecycle control (shutdown stays with the
/// owning `Runtime`). Obtained from [`Runtime::handle`]; a `Runtime`
/// also derefs to its own.
#[derive(Debug, Clone)]
pub struct RuntimeHandle {
    registry: Arc<ModelRegistry>,
    queue: Arc<BatchQueue<Job>>,
    metrics: Metrics,
}

impl RuntimeHandle {
    /// The registry this runtime resolves model names against.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Validates and enqueues a request for an already-resolved model,
    /// returning a handle the caller blocks on. Requests for the same
    /// model that are queued together — behind the batches in flight, or
    /// within the policy's linger — ride the same batch. With a trace in
    /// `ctx`, the worker records `queue_wait` / `batch_form` / `execute` /
    /// `split_back` spans into the submitting request's trace; with a
    /// deadline, a request still queued when it passes is dropped before
    /// the GEMM and answered [`ServeError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// The validation errors of [`PreparedModel::validate`],
    /// [`ServeError::DeadlineExceeded`] when the deadline has already
    /// passed at submission, and [`ServeError::ShuttingDown`] once
    /// shutdown has begun.
    pub fn submit(
        &self,
        model: Arc<PreparedModel>,
        payload: impl Into<Payload>,
        ctx: RequestCtx,
    ) -> Result<Pending, ServeError> {
        let payload = payload.into();
        model.validate(&payload)?;
        let enqueued_at = Instant::now();
        if ctx.deadline.is_some_and(|d| enqueued_at >= d) {
            return Err(ServeError::DeadlineExceeded);
        }
        let (tx, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        let job = Job {
            model,
            payload,
            responder: tx,
            enqueued_at,
            deadline: ctx.deadline,
            cancelled: Arc::clone(&cancelled),
            ctx: ctx.trace,
        };
        self.queue.push(job).map_err(|_| ServeError::ShuttingDown)?;
        Ok(Pending {
            rx,
            cancelled,
            queue: Arc::downgrade(&self.queue),
        })
    }

    /// Resolves `model` by name, submits with no trace or deadline, and
    /// blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for unregistered names, the errors of
    /// [`submit`](Self::submit), and [`ServeError::WorkerLost`] if the
    /// runtime dies before answering.
    pub fn infer(
        &self,
        model: &str,
        payload: impl Into<Payload>,
    ) -> Result<InferenceOutput, ServeError> {
        let resolved = self
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel {
                model: model.to_string(),
            })?;
        self.submit(resolved, payload, RequestCtx::default())?
            .wait()
    }

    /// The counter block this runtime records into, with its own queue
    /// depth — the whole shard's when a session manager counts into the
    /// same block.
    pub fn metrics(&self) -> ShardStats {
        self.metrics.counters().snapshot(self.queue_depth())
    }

    /// Snapshot of the queued and in-flight work — what a shard router
    /// ranks runtimes by.
    pub fn queue_depth(&self) -> QueueDepth {
        self.queue.depth()
    }
}

/// A pending response handle.
///
/// Dropping it cancels the request if it is still queued: workers purge
/// abandoned jobs instead of computing answers nobody is waiting for.
/// A request already claimed into a batch completes normally (its
/// response is simply discarded), so cancellation never tears work out
/// from under a worker.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<InferenceOutput, ServeError>>,
    /// Shared with the queued [`Job`]; set on drop.
    cancelled: Arc<AtomicBool>,
    /// Woken on cancellation so a lingering batch window does not keep
    /// an abandoned job queued. Weak: a response handle must not keep a
    /// shut-down runtime's queue alive.
    queue: Weak<BatchQueue<Job>>,
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.cancelled.store(true, Ordering::Release);
        // The queue holds the only other handle on the flag, so a strong
        // count above one means the job may still be queued and a worker
        // should wake to purge it. After execution (the common case) the
        // count is one and the wakeup is skipped.
        if Arc::strong_count(&self.cancelled) > 1 {
            if let Some(queue) = self.queue.upgrade() {
                queue.wake();
            }
        }
    }
}

impl Pending {
    /// Blocks until the batched result for this request arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerLost`] if the runtime terminated without
    /// answering (it never does under clean shutdown, which drains the
    /// queue first); [`ServeError::DeadlineExceeded`] if the request's
    /// deadline expired while queued; [`ServeError::Internal`] if the
    /// executing worker caught a panic.
    pub fn wait(self) -> Result<InferenceOutput, ServeError> {
        match self.rx.recv() {
            Ok(answer) => answer,
            Err(_) => Err(ServeError::WorkerLost),
        }
    }

    /// Non-blocking poll: `Ok(None)` while the batch is still in flight.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerLost`] if the runtime terminated without
    /// answering — distinct from "not ready yet", so a polling loop can
    /// stop instead of spinning forever. Also surfaces the worker's own
    /// answer errors (`DeadlineExceeded`, `Internal`).
    pub fn try_wait(&self) -> Result<Option<InferenceOutput>, ServeError> {
        match self.rx.try_recv() {
            Ok(answer) => answer.map(Some),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ServeError::WorkerLost),
        }
    }

    /// Blocks up to `timeout` for the response: `Ok(None)` if it did not
    /// arrive in time (the request stays queued and this handle stays
    /// valid, so the caller may wait again — or drop the handle, which
    /// cancels the request if a worker has not yet claimed it).
    ///
    /// This is the bounded wait an admission layer uses to shed slow
    /// requests without spin-looping on [`try_wait`](Self::try_wait).
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerLost`] if the runtime terminated without
    /// answering.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Option<InferenceOutput>, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(answer) => answer.map(Some),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::WorkerLost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{codes as codes_for, registry as registry_with};
    use panacea_tensor::Matrix;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn single_request_round_trips() {
        let registry = registry_with(&["m"], 1);
        let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
        let model = registry.get("m").expect("registered");
        let codes = codes_for(&model, 4, 0);
        let (expect, _) = model.forward_codes(&codes);
        let out = runtime.infer("m", codes).expect("served");
        assert_eq!(out.payload, expect.into());
        assert!(out.latency > Duration::ZERO);
        assert_eq!(runtime.metrics().requests, 1);
    }

    #[test]
    fn try_wait_polls_until_the_answer_lands() {
        let registry = registry_with(&["m"], 9);
        let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
        let model = registry.get("m").expect("registered");
        let codes = codes_for(&model, 4, 1);
        let (expect, _) = model.forward_codes(&codes);
        let pending = runtime
            .submit(model, codes, RequestCtx::default())
            .expect("queued");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let out = loop {
            match pending.try_wait().expect("runtime alive") {
                Some(out) => break out,
                None => {
                    assert!(std::time::Instant::now() < deadline, "poll timed out");
                    thread::yield_now();
                }
            }
        };
        assert_eq!(out.payload, expect.into());
    }

    #[test]
    fn mixed_models_are_not_head_of_line_blocked() {
        let registry = registry_with(&["a", "b"], 10);
        // A long linger relative to compute: if lingering ignored the mix
        // of models, model A's batch would sit the full max_wait.
        let runtime = Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers: 2,
                policy: BatchPolicy {
                    max_batch: 64,
                    max_wait: Duration::from_secs(5),
                },
            },
        );
        let a = registry.get("a").expect("registered");
        let b = registry.get("b").expect("registered");
        let pa = runtime
            .submit(Arc::clone(&a), codes_for(&a, 1, 0), RequestCtx::default())
            .expect("queued");
        let pb = runtime
            .submit(Arc::clone(&b), codes_for(&b, 1, 1), RequestCtx::default())
            .expect("queued");
        // Queueing model B behind model A must cut A's linger short —
        // far below the 5s deadline a head-of-line block would cost.
        let out_a = pa.wait().expect("model A served");
        assert!(
            out_a.latency < Duration::from_millis(2500),
            "model A head-of-line blocked for {:?}",
            out_a.latency
        );
        // B, now alone in the queue, may linger up to its own deadline;
        // it must still be answered (here: promptly, since A's dispatch
        // leaves an idle worker and B's linger ends at its deadline at
        // the latest).
        assert!(pb.wait().is_ok());
        assert_eq!(runtime.metrics().requests, 2);
    }

    #[test]
    fn unknown_model_and_bad_codes_rejected() {
        let registry = registry_with(&["m"], 2);
        let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
        assert!(matches!(
            runtime.infer("ghost", Matrix::<i32>::zeros(16, 1)),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            runtime.infer("m", Matrix::<i32>::zeros(3, 1)),
            Err(ServeError::Shape {
                expected: 16,
                actual: 3
            })
        ));
    }

    #[test]
    fn concurrent_requests_all_answered_bit_exactly() {
        let registry = registry_with(&["a", "b"], 3);
        let runtime = Arc::new(Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers: 4,
                policy: BatchPolicy {
                    max_batch: 16,
                    max_wait: Duration::from_millis(1),
                },
            },
        ));
        let mut threads = Vec::new();
        for t in 0..8 {
            let runtime = Arc::clone(&runtime);
            let registry = Arc::clone(&registry);
            threads.push(thread::spawn(move || {
                let name = if t % 2 == 0 { "a" } else { "b" };
                let model = registry.get(name).expect("registered");
                let codes = codes_for(&model, 1 + t % 3, t);
                let (expect, _) = model.forward_codes(&codes);
                let out = runtime.infer(name, codes).expect("served");
                assert_eq!(out.payload, expect.into(), "thread {t} got a wrong answer");
            }));
        }
        for th in threads {
            th.join().expect("request thread");
        }
        let m = runtime.metrics();
        assert_eq!(m.requests, 8);
        assert!(m.batches <= 8);
    }

    #[test]
    fn batching_coalesces_under_load() {
        let registry = registry_with(&["m"], 4);
        // One worker + generous linger ⇒ queued singles must coalesce.
        let runtime = Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 8,
                    max_wait: Duration::from_millis(50),
                },
            },
        );
        let model = registry.get("m").expect("registered");
        let pending: Vec<Pending> = (0..8)
            .map(|i| {
                runtime
                    .submit(
                        Arc::clone(&model),
                        codes_for(&model, 1, i),
                        RequestCtx::default(),
                    )
                    .expect("queued")
            })
            .collect();
        for p in pending {
            let out = p.wait().expect("served");
            assert!(out.batched_cols >= 1);
        }
        let m = runtime.metrics();
        assert_eq!(m.requests, 8);
        assert!(
            m.batches < 8,
            "8 lingering singles should share batches, got {} batches",
            m.batches
        );
    }

    #[test]
    fn unbounded_linger_dispatches_on_budget_without_poisoning_the_queue() {
        let registry = registry_with(&["m"], 13);
        // `Duration::MAX` cannot be added to an `Instant`: it must mean
        // "wait until full", not a panic under the queue lock.
        let runtime = Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 2,
                    max_wait: Duration::MAX,
                },
            },
        );
        let model = registry.get("m").expect("registered");
        let pending: Vec<Pending> = (0..2)
            .map(|i| {
                runtime
                    .submit(
                        Arc::clone(&model),
                        codes_for(&model, 1, i),
                        RequestCtx::default(),
                    )
                    .expect("queued")
            })
            .collect();
        for p in pending {
            assert_eq!(p.wait().expect("served").batched_cols, 2);
        }
        assert_eq!(runtime.metrics().batches, 1);
        // The queue is still usable: a budget-filling request is served.
        let out = runtime
            .submit(
                Arc::clone(&model),
                codes_for(&model, 2, 2),
                RequestCtx::default(),
            )
            .expect("queue lock not poisoned")
            .wait()
            .expect("served");
        assert_eq!(out.batched_cols, 2);
    }

    #[test]
    fn dropping_pending_cancels_queued_work() {
        let registry = registry_with(&["m"], 11);
        // One worker with a generous linger: the head request waits for
        // companions, giving the abandoned one time to be purged.
        let runtime = Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 64,
                    max_wait: Duration::from_millis(150),
                },
            },
        );
        let model = registry.get("m").expect("registered");
        let kept = runtime
            .submit(
                Arc::clone(&model),
                codes_for(&model, 1, 0),
                RequestCtx::default(),
            )
            .expect("queued");
        let abandoned = runtime
            .submit(
                Arc::clone(&model),
                codes_for(&model, 1, 1),
                RequestCtx::default(),
            )
            .expect("queued");
        drop(abandoned);
        let out = kept.wait().expect("served");
        assert_eq!(
            out.batched_cols, 1,
            "cancelled request rode the dispatched batch"
        );
        let m = runtime.metrics();
        assert_eq!(m.requests, 1, "cancelled request was executed");
        assert_eq!(m.cancelled, 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_workers() {
        let registry = registry_with(&["m"], 5);
        let mut runtime = Runtime::start(registry, RuntimeConfig::default());
        runtime.shutdown();
        runtime.shutdown();
        assert!(matches!(
            runtime.infer("m", Matrix::<i32>::zeros(16, 1)),
            Err(ServeError::ShuttingDown)
        ));
    }
}
