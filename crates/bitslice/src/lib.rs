//! Bit-slice representations for the Panacea reproduction.
//!
//! Integer GEMM operands are segmented into 4-bit *slices* so that sparse
//! high-order (HO) slices can be compressed and their MACs skipped (the
//! kernel's skip index lives in `panacea-core`'s `PackedWeight`; the
//! simulator prices the compressed format in `panacea-sim`):
//!
//! * [`slicing`] — the two slicing schemes of the paper (Fig. 3):
//!   the **signed bit-slice representation** (SBR, from Sibia) for
//!   symmetrically-quantized weights, and **straightforward slicing** for
//!   asymmetrically-quantized unsigned activations (DBS-aware);
//! * [`plane`] — whole-tensor slice planes ([`SlicedWeight`],
//!   [`SlicedActivation`]) with exact reconstruction;
//! * [`vector`] — grouping slices into length-`v` slice-vectors (4×1 for
//!   weights along M, 1×4 for activations along N) and testing their
//!   compressibility (all-zero / all-`r`);
//! * [`sparsity`] — slice-level and vector-level sparsity metrics used by
//!   the paper's Figs. 5, 8 and 14.
//!
//! # Examples
//!
//! ```
//! use panacea_bitslice::slicing::{sbr_slices, sbr_reconstruct};
//!
//! // A near-zero negative 7-bit value has a *zero* HO slice under SBR.
//! let s = sbr_slices(-3, 1);
//! assert_eq!(s[1], 0); // HO slice skippable
//! assert_eq!(sbr_reconstruct(&s), -3);
//! ```

pub mod plane;
pub mod slicing;
pub mod sparsity;
pub mod vector;

pub use plane::{activation_plane_weight, SliceError, SlicedActivation, SlicedWeight};
pub use vector::{ActVector, WeightVector, VECTOR_LEN};
