//! `panacea-serve` — a batched, multi-threaded AQS inference runtime.
//!
//! The rest of the workspace reproduces the Panacea paper's *algorithms*:
//! asymmetric quantization, bit-slice compression, and the AQS-GEMM that
//! executes one layer for one caller. This crate adds the *serving* layer
//! a production deployment needs, exploiting two structural properties of
//! the AQS flow:
//!
//! 1. **Preparation amortizes.** Weight slicing, calibration, ZPM/DBS and
//!    zero-point folding are expensive but happen once per model. A
//!    [`PreparedModel`] is immutable after preparation and is shared
//!    across threads by [`ModelRegistry`] behind an [`Arc`](std::sync::Arc).
//! 2. **Width amortizes.** AQS-GEMM's per-tile preparation is amortized
//!    over the `N` dimension, and the GEMM is element-exact under any
//!    column grouping — so independent requests can be coalesced into one
//!    wide call and split back **bit-exactly**. One batching queue forms
//!    that `N` for both serving paths — the [`Runtime`]'s stateless
//!    requests ([`BatchPolicy`]'s `max_batch` column budget and
//!    `max_wait` linger) and the [`SessionManager`]'s decode steps
//!    ([`SessionConfig`]'s `max_decode_batch` / `decode_max_wait`) — each
//!    path supplying only its grouping rule and its executor. The linger
//!    is zero by default: a lone request dispatches at once, and batches
//!    form from whatever queued behind the passes in flight.
//!
//! ```text
//!  submit()─▶ ┌────────── BatchQueue ───────────┐ ─▶ N runtime workers: hstack columns
//!             │ purge cancelled / expired       │      ─▶ AQS-GEMM chain ─▶ split_cols ─▶ reply
//!             │ linger ≤ max_wait (default 0)   │
//!  step()───▶ │ take ≤ max_batch, same model    │ ─▶ 1 decode worker: fused pass, attention
//!             └─────────────────────────────────┘      per session over its own KV cache ─▶ reply
//! ```
//!
//! Shutdown is clean by construction: dropping the [`Runtime`] (or the
//! [`SessionManager`]) stops intake, drains every accepted request, and
//! joins all workers.
//!
//! Counting is per shard: a [`Runtime`] and a [`SessionManager`] built
//! over clones of one [`Metrics`] count into one [`ShardCounters`]
//! block — workers, both queues, the decode batcher and the session
//! lifecycle alike — and [`RuntimeHandle::metrics`] and
//! [`SessionManager::stats`] both return its snapshot, the
//! [`ShardStats`] a gateway's `stats` verb reports.

pub mod batch;
pub mod decode_batch;
pub mod metrics;
pub mod model;
pub mod payload;
mod queue;
pub mod runtime;
pub mod session;
#[doc(hidden)]
pub mod testutil;

use std::fmt;
use std::time::Duration;

use panacea_core::pipeline::PipelineError;
use panacea_tensor::Matrix;

pub use batch::BatchPolicy;
pub use metrics::{Metrics, ShardCounters, ShardStats};
pub use model::{LayerSpec, ModelRegistry, PrepareOptions, PreparedModel};
pub use payload::{Payload, PayloadKind};
pub use queue::{QueueDepth, RequestCtx};
pub use runtime::{Pending, Runtime, RuntimeConfig, RuntimeHandle};
pub use session::{SessionConfig, SessionManager};

/// A completed request: the typed result payload plus serving telemetry.
#[derive(Debug, Clone)]
pub struct InferenceOutput {
    /// The result for this request's columns, bit-identical to running
    /// the request alone: final-layer integer accumulators
    /// ([`Payload::Codes`], `M × N_req`) for linear chains, output
    /// hidden states ([`Payload::Hidden`]) for transformer-block models.
    pub payload: Payload,
    /// Scale converting code accumulators to floats
    /// (`acc · scale ≈ W·x + b`); `1.0` and unused for
    /// [`Payload::Hidden`] results.
    pub scale: f64,
    /// Total columns in that batch (≥ this request's columns).
    pub batched_cols: usize,
    /// Queue-to-response latency for this request.
    pub latency: Duration,
}

impl InferenceOutput {
    /// The float view of the result: dequantized accumulators for linear
    /// chains, the hidden states themselves for block models.
    pub fn to_f32(&self) -> Matrix<f32> {
        match &self.payload {
            Payload::Codes(acc) => acc.map(|&v| (f64::from(v) * self.scale) as f32),
            Payload::Hidden(h) => h.clone(),
        }
    }
}

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The requested model name is not registered.
    UnknownModel {
        /// The name that failed to resolve.
        model: String,
    },
    /// A model was prepared with zero layers.
    EmptyModel {
        /// The offending model name.
        model: String,
    },
    /// Feature-dimension mismatch (layer chain or request codes).
    Shape {
        /// Expected feature count.
        expected: usize,
        /// Provided feature count.
        actual: usize,
    },
    /// A request carried zero activation columns.
    EmptyRequest,
    /// A layer's output rows are not a multiple of the PE array's vector
    /// width, so the accelerator model cannot execute it.
    UnalignedRows {
        /// The offending row count.
        rows: usize,
    },
    /// Request codes exceed the model's calibrated activation format.
    CodesOutOfRange {
        /// Largest representable code.
        max: i32,
    },
    /// A block-model request carried NaN or infinite hidden-state
    /// elements (block inputs are f32 and must be finite).
    NonFiniteInput,
    /// The request's payload domain does not match the model's kind —
    /// activation codes sent to a transformer-block model, or hidden
    /// states sent to a linear chain. Also raised when a decode session
    /// is opened on a chain model (sessions hold block KV state).
    PayloadKindMismatch {
        /// The model that was addressed.
        model: String,
        /// Whether that model is a transformer-block model.
        model_is_block: bool,
    },
    /// The addressed decode session does not exist on this runtime —
    /// never opened, already closed, or evicted (idle timeout or KV byte
    /// budget). The caller must open a fresh session and replay its
    /// prefix.
    UnknownSession {
        /// The session id that failed to resolve.
        session: u64,
    },
    /// Admitting this decode step would exceed the session manager's KV
    /// byte budget and no idle session could be evicted to make room.
    /// Retryable once other sessions close or go idle.
    KvBudgetExceeded {
        /// Bytes the cache would hold after this step.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The admission layer shed this request instead of queueing it
    /// unboundedly: either the in-flight limit was reached or the
    /// queue-wait bound elapsed before a worker answered.
    Overloaded {
        /// Which admission bound rejected the request.
        reason: OverloadReason,
    },
    /// The runtime is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The runtime terminated before answering (never happens under
    /// clean shutdown, which drains the queue).
    WorkerLost,
    /// The request's deadline expired before it could execute; the work
    /// was dropped (at the queue, before the GEMM) and the caller
    /// released. Retry with a fresh deadline if the result still
    /// matters.
    DeadlineExceeded,
    /// A worker caught a panic while executing this request. The worker
    /// survived (panic isolation), the caller is answered instead of
    /// abandoned, and any decode session whose state the panic may have
    /// corrupted has been evicted.
    Internal {
        /// Where the panic was caught (e.g. `worker_execute`,
        /// `decode_fused_pass`).
        at: &'static str,
    },
    /// Quantization/slicing failed during model preparation.
    Pipeline(PipelineError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel { model } => write!(f, "unknown model {model:?}"),
            ServeError::EmptyModel { model } => {
                write!(f, "model {model:?} has no layers")
            }
            ServeError::Shape { expected, actual } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, got {actual}"
                )
            }
            ServeError::EmptyRequest => write!(f, "request has zero activation columns"),
            ServeError::UnalignedRows { rows } => {
                write!(
                    f,
                    "layer output rows {rows} must be a multiple of the PE vector width"
                )
            }
            ServeError::CodesOutOfRange { max } => {
                write!(f, "request codes exceed the calibrated format (max {max})")
            }
            ServeError::NonFiniteInput => {
                write!(f, "block request contains NaN or infinite hidden states")
            }
            ServeError::PayloadKindMismatch {
                model,
                model_is_block,
            } => {
                if *model_is_block {
                    write!(
                        f,
                        "model {model:?} serves transformer blocks; send hidden states, not codes"
                    )
                } else {
                    write!(
                        f,
                        "model {model:?} is a linear chain; send activation codes, not hidden states"
                    )
                }
            }
            ServeError::UnknownSession { session } => {
                write!(
                    f,
                    "decode session {session} does not exist (closed or evicted)"
                )
            }
            ServeError::KvBudgetExceeded { needed, budget } => {
                write!(
                    f,
                    "KV cache budget exceeded: step needs {needed} bytes, budget is {budget}"
                )
            }
            ServeError::Overloaded { reason } => write!(f, "overloaded: {reason}"),
            ServeError::ShuttingDown => write!(f, "runtime is shutting down"),
            ServeError::WorkerLost => write!(f, "runtime terminated before answering"),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline expired before the request executed")
            }
            ServeError::Internal { at } => {
                write!(f, "internal failure: a worker panicked during {at}")
            }
            ServeError::Pipeline(e) => write!(f, "model preparation failed: {e}"),
        }
    }
}

/// Which admission bound caused a [`ServeError::Overloaded`] rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The maximum number of simultaneously admitted requests was
    /// reached; shedding keeps queueing bounded under a burst.
    InFlight {
        /// The configured in-flight limit that was hit.
        limit: usize,
    },
    /// The request was admitted and queued but no worker answered within
    /// the queue-wait bound; the caller was released rather than left
    /// waiting (the runtime still completes the work it accepted).
    QueueWait {
        /// The bound that elapsed.
        waited: Duration,
    },
}

impl fmt::Display for OverloadReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverloadReason::InFlight { limit } => {
                write!(f, "in-flight limit {limit} reached")
            }
            OverloadReason::QueueWait { waited } => {
                write!(f, "queue wait exceeded {waited:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        ServeError::Pipeline(e)
    }
}
