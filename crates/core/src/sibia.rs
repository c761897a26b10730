//! The Sibia bit-slice GEMM (Im et al., HPCA 2023) — the strongest prior
//! baseline (paper §II-B, Fig. 4, Table I).
//!
//! Both operands are symmetrically quantized to `(3n+4)` bits and sliced
//! with SBR. Zero HO slice-vectors of **one** operand (weights *or*
//! activations, whichever is configured) are compressed and their outer
//! products skipped; the other operand's HO sparsity is left on the table.
//! That single-sided limitation is exactly what AQS-GEMM lifts, and it is
//! where Table I's `max(ρ_w, ρ_x)` factor comes from.
//!
//! It is the same machine, so it is the same code: one tile
//! ([`aqs`](crate::aqs)), three skip policies — both sides for AQS-GEMM,
//! either single side here, with `r = 0`, no compensation and the other
//! side's mask all-ones — and statistics in closed form. The loop nest
//! that tests a flag and counts per outer product lives in
//! `tests/oracle` as the reference of the differential tests.

use panacea_bitslice::SlicedWeight;
use panacea_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::aqs::{run_sliced, PackedWeight};
use crate::plan::KernelPlan;
use crate::workload::{pe_padded_cols, Workload};

/// Which operand's zero HO vectors Sibia compresses and skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkipSide {
    /// Skip zero weight HO vectors (4×1 along M).
    Weight,
    /// Skip zero activation HO vectors (1×4 along N).
    Activation,
}

/// Computes `W · X` with Sibia's single-sided zero-vector skipping; both
/// operands are SBR slice stacks (activations symmetric, hence also
/// [`SlicedWeight`]). Returns the bit-exact product and the measured
/// workload.
///
/// EMA is counted in 4-bit units of the *packed* `(3n+4)`-bit format
/// (e.g. 7-bit operands cost 1.75 units per element — Table I's `14K`).
///
/// # Panics
///
/// Panics if shapes are incompatible or `M` is not a multiple of 4. `N`
/// may be any width.
///
/// # Examples
///
/// ```
/// use panacea_bitslice::SlicedWeight;
/// use panacea_core::sibia::{sibia_gemm, SkipSide};
/// use panacea_tensor::Matrix;
///
/// let w = Matrix::from_fn(4, 4, |r, c| (r as i32 - c as i32) * 3);
/// let x = Matrix::from_fn(4, 4, |r, c| (r as i32 * c as i32) % 7 - 3);
/// let sw = SlicedWeight::from_int(&w, 1).unwrap();
/// let sx = SlicedWeight::from_int(&x, 1).unwrap();
/// let (out, _) = sibia_gemm(&sw, &sx, SkipSide::Activation);
/// assert_eq!(out, w.gemm(&x).unwrap());
/// ```
pub fn sibia_gemm(w: &SlicedWeight, x: &SlicedWeight, side: SkipSide) -> (Matrix<i32>, Workload) {
    let (out, executed) = run_sliced(&KernelPlan::for_operands(w, x, 0, Some(side)), w, x);
    // The PE array moves the padding of a partial last vector too.
    let (k_dim, n) = x.plane(0).shape();
    let x_elems = k_dim * (n + pe_padded_cols(n));
    let packed_bits =
        w.plane(0).len() as u64 * u64::from(w.bits()) + x_elems as u64 * u64::from(x.bits());
    let workload = Workload {
        ema_slices: packed_bits.div_ceil(4),
        ..executed
    };
    (out, workload)
}

/// Measures the HO vector sparsities and picks the better [`SkipSide`],
/// as Sibia's scheduler would.
pub fn choose_skip_side(w: &SlicedWeight, x: &SlicedWeight) -> SkipSide {
    let plan = KernelPlan::for_operands(w, x, 0, None);
    let stats = PackedWeight::pack(w).tile_stats(&plan, x);
    if stats.rho_w >= stats.rho_x {
        SkipSide::Weight
    } else {
        SkipSide::Activation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::table1;
    use rand::Rng;

    fn random_sym(m: usize, k: usize, sparse: f64, seed: u64) -> Matrix<i32> {
        let mut rng = panacea_tensor::seeded_rng(seed);
        Matrix::from_fn(m, k, |_, _| {
            if rng.gen::<f64>() < sparse {
                rng.gen_range(-7i32..=7)
            } else {
                rng.gen_range(-64i32..64)
            }
        })
    }

    #[test]
    fn exact_for_both_skip_sides() {
        let w = random_sym(8, 12, 0.6, 1);
        let x = random_sym(12, 8, 0.7, 2);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedWeight::from_int(&x, 1).unwrap();
        let reference = w.gemm(&x).unwrap();
        for side in [SkipSide::Weight, SkipSide::Activation] {
            let (out, _) = sibia_gemm(&sw, &sx, side);
            assert_eq!(out, reference, "side={side:?}");
        }
    }

    #[test]
    fn workload_matches_table1() {
        let k_dim = 40usize;
        for &rho in &[0.0, 0.25, 0.5, 1.0] {
            let kx = (rho * k_dim as f64).round() as usize;
            // First kx rows of the activation HO are zero vectors.
            let x = Matrix::from_fn(k_dim, 4, |r, _| if r < kx { 3 } else { 40 });
            let w = Matrix::from_fn(4, k_dim, |_, _| 40);
            let sw = SlicedWeight::from_int(&w, 1).unwrap();
            let sx = SlicedWeight::from_int(&x, 1).unwrap();
            let (out, wl) = sibia_gemm(&sw, &sx, SkipSide::Activation);
            assert_eq!(out, w.gemm(&x).unwrap());
            assert_eq!(
                wl.mul as f64,
                table1::sibia_mul(k_dim as u64, rho, 0.0),
                "rho={rho}"
            );
            assert_eq!(wl.ema_slices as f64, table1::sibia_ema(k_dim as u64));
        }
    }

    #[test]
    fn single_sided_skipping_leaves_other_sparsity_unused() {
        // Sparse weights but skipping configured on (dense) activations:
        // no work is saved — the Sibia limitation AQS-GEMM removes.
        let w = random_sym(8, 16, 1.0, 5); // all-zero HO weight vectors
        let x = random_sym(16, 8, 0.0, 6);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedWeight::from_int(&x, 1).unwrap();
        let (_, wl_wrong) = sibia_gemm(&sw, &sx, SkipSide::Activation);
        let (_, wl_right) = sibia_gemm(&sw, &sx, SkipSide::Weight);
        assert!(wl_right.mul < wl_wrong.mul);
        assert_eq!(choose_skip_side(&sw, &sx), SkipSide::Weight);
    }

    #[test]
    fn ema_is_constant_in_sparsity() {
        let w = random_sym(4, 20, 0.9, 7);
        let x_dense = random_sym(20, 4, 0.0, 8);
        let x_sparse = random_sym(20, 4, 1.0, 9);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let (_, a) = sibia_gemm(
            &sw,
            &SlicedWeight::from_int(&x_dense, 1).unwrap(),
            SkipSide::Activation,
        );
        let (_, b) = sibia_gemm(
            &sw,
            &SlicedWeight::from_int(&x_sparse, 1).unwrap(),
            SkipSide::Activation,
        );
        assert_eq!(a.ema_slices, b.ema_slices);
    }

    #[test]
    fn mixed_precision_10bit_weights() {
        // The paper's GPT-2 MLP case: 10-bit weights = 3 SBR slices.
        let mut rng = panacea_tensor::seeded_rng(10);
        let w = Matrix::from_fn(4, 8, |_, _| rng.gen_range(-512i32..512));
        let x = random_sym(8, 4, 0.5, 11);
        let sw = SlicedWeight::from_int(&w, 2).unwrap();
        let sx = SlicedWeight::from_int(&x, 1).unwrap();
        let (out, _) = sibia_gemm(&sw, &sx, SkipSide::Activation);
        assert_eq!(out, w.gemm(&x).unwrap());
    }
}
