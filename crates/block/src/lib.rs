//! `panacea-block` — a quantized transformer-block execution engine.
//!
//! The rest of the workspace quantizes *isolated* GEMMs:
//! `core::pipeline::QuantizedLinear` runs one weight layer, and
//! `panacea-serve` chains them linearly. Real decoder workloads execute
//! transformer *blocks* — LayerNorm → QKV GEMM → multi-head attention →
//! output projection → residual → LayerNorm → MLP → residual — where the
//! GEMMs are separated by structural f32 math. This crate closes that
//! gap:
//!
//! ```text
//!  h ─ LN ─ q8 ─▶ QKV AQS-GEMM ─ deq ─▶ attention (f32, per segment)
//!                                           │ q8
//!                                           ▼
//!                                 proj AQS-GEMM ─ deq ─▶ (+h) residual
//!                                                           │
//!              LN ─ q8 ─▶ fc1 AQS-GEMM ── requant ──▶ 8-bit codes
//!                                                           │ GELU LUT
//!                                 fc2 AQS-GEMM ◀── codes ───┘
//!                                       │ deq
//!                                       ▼
//!                                 (+) residual ─▶ h'
//! ```
//!
//! * All four weight GEMMs run the full AQS pipeline
//!   ([`QuantizedLinear`](panacea_core::pipeline::QuantizedLinear)):
//!   SBR-sliced weights, calibrated asymmetric activations, compression +
//!   skipping + compensation.
//! * The fc1 → fc2 boundary never leaves the coded domain: fc1's
//!   accumulators are requantized (fixed-point, [`panacea_quant::requant`])
//!   into an 8-bit pre-GELU format and GELU is applied as a 256-entry
//!   code→code lookup table, exactly how integer inference stacks fold
//!   elementwise glue between consecutive GEMMs instead of round-tripping
//!   through f32.
//! * Attention, LayerNorm, and the residual adds run in f32 using the
//!   *same* [`panacea_tensor::ops`] implementations as the float oracle
//!   ([`panacea_models::engine::TinyTransformer`]), so quantization is the
//!   only source of divergence — measured per block by [`sqnr_report`].
//!   KV-cached decode attends from the paged cache with its own kernel
//!   ([`kv`]), bit-identical to
//!   [`panacea_tensor::ops::multi_head_attention_decode`].
//! * [`QuantizedBlock::forward_segments`] runs independent sequences
//!   packed into one wide GEMM `N` dimension (attention stays
//!   per-sequence); [`run_coalesced`](panacea_core::pipeline::run_coalesced)
//!   over it stacks the requests and splits the result back
//!   **bit-exactly** — the contract the serving batcher relies on.

pub mod builder;
pub mod engine;
pub mod kv;
pub mod stage_timing;

use std::fmt;

use panacea_core::pipeline::PipelineError;
use panacea_tensor::matrix::MatrixError;

pub use builder::{sqnr_report, zoo_hidden_states, zoo_transformer, BlockBuilder, BlockSqnr};
pub use engine::{BlockWorkload, QuantizedBlock};
pub use kv::{decode_step, decode_step_batch, BlockKvState, KvCache};
pub use stage_timing::{with_stage_times, StageTimes, STAGE_NAMES};

/// Errors from block preparation.
#[derive(Debug)]
pub enum BlockError {
    /// A geometry constraint failed (head divisibility, PE vector
    /// alignment, calibration width).
    Geometry(String),
    /// A weight GEMM failed to quantize/slice.
    Pipeline(PipelineError),
    /// A float calibration product had incompatible shapes.
    Matrix(MatrixError),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::Geometry(msg) => write!(f, "block geometry invalid: {msg}"),
            BlockError::Pipeline(e) => write!(f, "block layer preparation failed: {e}"),
            BlockError::Matrix(e) => write!(f, "block calibration failed: {e}"),
        }
    }
}

impl std::error::Error for BlockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlockError::Pipeline(e) => Some(e),
            BlockError::Matrix(e) => Some(e),
            BlockError::Geometry(_) => None,
        }
    }
}

impl From<PipelineError> for BlockError {
    fn from(e: PipelineError) -> Self {
        BlockError::Pipeline(e)
    }
}

impl From<MatrixError> for BlockError {
    fn from(e: MatrixError) -> Self {
        BlockError::Matrix(e)
    }
}
