//! # Panacea
//!
//! A from-scratch Rust reproduction of *"Panacea: Novel DNN Accelerator
//! using Accuracy-Preserving Asymmetric Quantization and Energy-Saving
//! Bit-Slice Sparsity"* (HPCA 2025).
//!
//! This facade crate re-exports the workspace sub-crates:
//!
//! * [`tensor`] — matrices, synthetic distributions, statistics;
//! * [`quant`] — symmetric/asymmetric PTQ, calibration, ZPM, DBS, OPTQ;
//! * [`bitslice`] — SBR & straightforward slicing, slice vectors, sparsity;
//! * [`core`] — the AQS-GEMM (compression + skipping + compensation) and
//!   baseline GEMMs, plus the Table-I workload model;
//! * [`sim`] — the Panacea cycle/energy simulator and the SA-WS / SA-OS /
//!   SIMD / Sibia baseline accelerators;
//! * [`models`] — DNN benchmark layer inventories, a small forward engine,
//!   and quality-proxy metrics;
//! * [`block`] — the quantized transformer-block execution engine:
//!   pre-norm attention + MLP blocks whose four weight GEMMs run the AQS
//!   pipeline, glued by shared f32 attention/LayerNorm math and a
//!   requantized, coded-domain fc1→GELU→fc2 boundary;
//! * [`serve`] — the batched, multi-threaded inference runtime: a
//!   prepared-model registry, a dynamic batcher coalescing requests into
//!   the GEMM `N` dimension, and a worker pool with clean shutdown;
//! * [`gateway`] — the sharded TCP front-end over `serve`: line-delimited
//!   JSON protocol, rendezvous shard routing, a content-addressed LRU
//!   request cache, and admission control with explicit overload
//!   rejections;
//! * [`faultline`] — deterministic fault injection: seeded
//!   `FaultPlan` scenarios firing panics, injected latency, and I/O
//!   faults at named sites across the serving stack, compiled to one
//!   relaxed load per site when disarmed;
//! * [`telemetry`] — std-only observability primitives: sharded-atomic
//!   log-linear latency histograms with mergeable snapshots and
//!   p50/p90/p99 estimates, request-scoped span tracing with bounded
//!   slow-trace rings, and cache-padded sharded counters.
//!
//! # Quickstart
//!
//! ```
//! use panacea::quant::{AsymmetricQuantizer, Quantizer};
//! use panacea::tensor::{dist::DistributionKind, seeded_rng};
//!
//! let mut rng = seeded_rng(1);
//! let x = DistributionKind::AsymmetricGaussian { mean: 1.0, std: 0.5, skew: 0.1 }
//!     .sample_matrix(16, 16, &mut rng);
//! let q = AsymmetricQuantizer::calibrate(x.as_slice(), 8);
//! let xq = q.quantize_matrix(&x);
//! assert!(xq.iter().all(|&v| (0..=255).contains(&v)));
//! ```

pub use panacea_bitslice as bitslice;
pub use panacea_block as block;
pub use panacea_core as core;
pub use panacea_faultline as faultline;
pub use panacea_gateway as gateway;
pub use panacea_models as models;
pub use panacea_quant as quant;
pub use panacea_serve as serve;
pub use panacea_sim as sim;
pub use panacea_telemetry as telemetry;
pub use panacea_tensor as tensor;
