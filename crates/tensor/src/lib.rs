//! Dense matrix substrate for the Panacea reproduction.
//!
//! This crate provides the numeric foundation that every other crate in the
//! workspace builds on:
//!
//! * [`Matrix`] — a simple, row-major, owned 2-D container used for weights,
//!   activations, and integer GEMM results;
//! * [`dist`] — synthetic value distributions that mimic the activation and
//!   weight statistics of real DNN layers (Gaussian weights, asymmetric
//!   post-GELU activations, long-tail channels with outliers, …);
//! * [`ops`] — shared f32 transformer math (LayerNorm, softmax,
//!   multi-head attention, residual add) used by both the float forward
//!   engine and the quantized block engine;
//! * [`stats`] — summary statistics (mean/std/min-max/histogram) and
//!   error metrics (MSE, SQNR) used by the PTQ calibration and by the
//!   quality-proxy evaluation.
//!
//! # Examples
//!
//! ```
//! use panacea_tensor::{Matrix, dist::DistributionKind, stats};
//!
//! let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! assert_eq!(m[(1, 2)], 5.0);
//! let mean = stats::mean(m.as_slice());
//! assert!((mean - 2.5).abs() < 1e-6);
//! let _kind = DistributionKind::Gaussian { mean: 0.0, std: 1.0 };
//! ```

pub mod dist;
pub mod matrix;
pub mod ops;
pub mod stats;

pub use matrix::Matrix;

/// Deterministic RNG used across the workspace so every experiment is
/// reproducible from a single `u64` seed.
///
/// # Examples
///
/// ```
/// use rand::Rng;
/// let mut rng = panacea_tensor::seeded_rng(42);
/// let x: f64 = rng.gen();
/// let mut rng2 = panacea_tensor::seeded_rng(42);
/// let y: f64 = rng2.gen();
/// assert_eq!(x, y);
/// ```
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
