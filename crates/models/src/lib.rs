//! DNN benchmark substrate for the Panacea reproduction.
//!
//! The paper evaluates on HuggingFace checkpoints of DeiT-base, BERT-base,
//! GPT-2, OPT-350M/1.3B/2.7B, Llama-3.2-1B/3B and ResNet-18. What the
//! accelerator model actually consumes from those models is (a) the GEMM
//! dimensions of every layer and (b) the statistical shape of each layer's
//! input activations (which determines bit-slice sparsity). This crate
//! provides both, from scratch:
//!
//! * [`zoo`] — exact layer-shape inventories of the nine benchmark
//!   models (dimensions from the published architecture configs);
//! * [`engine`] — a small pure-Rust transformer forward engine
//!   (LayerNorm, QKV attention, GELU MLP) with synthetic weights, used to
//!   produce *actual* activation tensors for calibration and end-to-end
//!   examples;
//! * [`proxy`] — quality proxies mapping output SQNR to the accuracy /
//!   perplexity deltas the paper reports (a substitution for dataset
//!   evaluation; the module doc states it).
//!
//! The per-layer sparsity profile that feeds the simulator lives in
//! `panacea-bench`, which reads `ρ_w` / `ρ_x` from the kernel's own
//! closed-form statistics.

pub mod engine;
pub mod proxy;
pub mod zoo;

pub use zoo::{Benchmark, LayerKind, LayerSpec, ModelSpec};
