//! AQS-GEMM — the Panacea paper's primary algorithmic contribution —
//! together with the baseline GEMMs it is evaluated against and the
//! Table-I workload model.
//!
//! There is **one tile** that multiplies slices — over one packed
//! resident weight layout, in two lane orientations, each plane pair's
//! chosen by the side it skips (`aqs::products_lanes_n` for the HO
//! weight plane's pairs on a full 16-column tile, `aqs::products_lanes_m`
//! for every other pair and every pair of a narrower tile, i.e. every
//! decode step, whose walk of `k` carries `4 / C` panels for `C`
//! columns) — and **three skip policies** for it: both operands' compressed HO
//! vectors (AQS-GEMM), or the weights' or the activations' alone (the two
//! Sibia configurations). Statistics come in closed form from the two
//! sides' compressed counts; the loop nests that count per outer product
//! live in `tests/oracle` as the references of the differential tests.
//! The resident weight stores every plane nibble-packed, in the order
//! `vpdpbusd` reads it. On a build that targets AVX-512 VNNI and VBMI
//! every plane pair of unsigned activations but HO×HO — the static
//! LO_w×LO_x, HO_w×LO_x over the weight's live k-quads and LO_w×HO_x over
//! the activation's — runs on `vpdpbusd` (`dot`, private, the crate's
//! only module allowed `unsafe`), to the same bits.
//!
//! * [`dense`] — plain integer GEMM with workload accounting (what the
//!   SA-WS / SA-OS / SIMD baselines execute);
//! * [`sibia`] — the Sibia bit-slice GEMM: SBR slicing for both operands,
//!   skipping of all-zero HO slice-vectors of *one* operand (the paper's
//!   `max(ρ_w, ρ_x)` limitation) — the tile with `r = 0`, no compensation
//!   and the other side's mask all-ones;
//! * [`aqs`] — the **asymmetrically-quantized bit-slice GEMM**: SBR
//!   weights × straightforward-sliced unsigned activations, compression of
//!   all-zero weight HO vectors *and* all-`r` activation HO vectors, MAC
//!   skipping for both, and the Eq. 5→6 compensation term that restores
//!   bit-exact results while reusing already-loaded weight slices;
//! * [`workload`] — operation/EMA counters and the closed-form Table-I
//!   expressions they are validated against;
//! * [`pipeline`] — a prepared quantized linear layer (weights sliced
//!   and packed into the tile's resident layout, zero-point folded into
//!   the bias, optional requantization) tying the
//!   whole inference flow together. Its kernel plan — plane counts,
//!   activation plane weights, `r`, skip policy and the proof that no
//!   `i32` accumulator can wrap — is derived from `(w_bits, activation
//!   calibration, K)` at `prepare`, which is where unsupported formats
//!   are refused.
//!
//! # Examples
//!
//! Bit-exactness of AQS-GEMM against the dense reference:
//!
//! ```
//! use panacea_bitslice::{SlicedActivation, SlicedWeight};
//! use panacea_core::aqs::aqs_gemm;
//! use panacea_quant::dbs::DbsType;
//! use panacea_tensor::Matrix;
//!
//! let w = Matrix::from_fn(4, 8, |r, c| (r as i32 * 3 + c as i32) % 63 - 31);
//! let x = Matrix::from_fn(8, 4, |r, c| ((r * 17 + c * 53) % 256) as i32);
//! let sw = SlicedWeight::from_int(&w, 1).unwrap();
//! let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
//! let (out, _workload) = aqs_gemm(&sw, &sx, 10);
//! assert_eq!(out, w.gemm(&x).unwrap());
//! ```

#![deny(unsafe_code)]

pub mod aqs;
pub mod dense;
#[allow(unsafe_code)] // the dot-product kernel's intrinsics, and nowhere else
mod dot;
pub mod pipeline;
mod plan;
pub mod sibia;
pub mod workload;

pub use aqs::{aqs_gemm, aqs_tile_stats, TileStats};
pub use workload::{pe_padded_cols, Workload};
