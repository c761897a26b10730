//! What the one tile of [`aqs`](crate::aqs) is asked to do.
//!
//! A [`KernelPlan`] is derived, never assembled: from a layer's
//! `(w_bits, LayerQuantConfig, K)` by [`KernelPlan::for_layer`], which is
//! where unsupported formats and accumulators that could leave `i32` are
//! refused, or from operands the caller already sliced by
//! [`KernelPlan::for_operands`]. It fixes the plane counts, the activation
//! plane weights `c_j`, the value `r` the HO activation plane is
//! re-centred by, and whose compressed HO vectors are skipped — the only
//! difference between AQS-GEMM and the two Sibia configurations.

use panacea_bitslice::{activation_plane_weight, SliceError, SlicedWeight};
use panacea_quant::dbs::DbsType;
use panacea_quant::{LayerQuantConfig, Quantizer};

use crate::aqs::Planes;
use crate::pipeline::PipelineError;
use crate::sibia::SkipSide;

/// Planes of a `(3n+4)`-bit SBR weight, `n ≤ 4`.
fn sbr_planes(w_bits: u8) -> Option<usize> {
    matches!(w_bits, 4 | 7 | 10 | 13 | 16).then(|| usize::from(w_bits - 4) / 3 + 1)
}

/// The largest magnitude the GEMM part of an accumulator can reach — at
/// the end or at any point on the way — for inner dimension `k_dim`,
/// `w_bits`-bit SBR weights and `act_bits`-bit activation codes:
/// `K · Σ_i 8^{i+1} · (2^act_bits − 1)`. The weight factor is the sum of
/// the planes' own worst cases (`|slice| ≤ 8`), slightly above
/// `max|w| = 2^{w_bits−1}`, because the kernel sums plane by plane.
/// Within a 256-`k` block each plane pair's raw slice products sum in an
/// `i16` register tile or, for a pair of a `u8` activation stack on a
/// build with the dot product (every pair but a narrow walk's HO×HO), in
/// `i32` lanes with the weight as the offset operand: such a lane holds
/// `Σ(w + 8)·x` of the block, at most `256 · 23 · 15` in magnitude,
/// before the `−8·Σx` correction leaves `Σ w·x`. The block sum is in
/// `i16` range either way (the `const` assertions in `aqs`), so both
/// paths end a block at the same exact value and this one bound covers
/// both.
///
/// # Panics
///
/// Panics if `w_bits ∉ {4, 7, 10, 13, 16}` or `act_bits > 16`.
pub fn accumulator_bound(k_dim: usize, w_bits: u8, act_bits: u8) -> i64 {
    assert!(act_bits <= 16, "activation codes are at most 16 bits");
    let w_planes = sbr_planes(w_bits).expect("w_bits is 3n + 4 with n ≤ 4");
    let w_abs: i64 = (1..=w_planes as u32).map(|i| 8i64.pow(i)).sum();
    k_dim as i64 * w_abs * ((1i64 << act_bits) - 1)
}

/// One validated description of a GEMM for the tile.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KernelPlan {
    w_planes: usize,
    /// Activation plane weights `c_j`, LO first.
    x_scales: Vec<i32>,
    /// What the HO activation plane is stored re-centred by.
    r: i16,
    /// Sibia's restriction: compressed HO vectors are skipped on this
    /// side only. `None` is AQS-GEMM, which skips on both.
    only: Option<SkipSide>,
    /// [`accumulator_bound`], proven to fit `i32`; `None` for operands
    /// the caller sliced, whose sums are debug-checked only.
    acc_bound: Option<i64>,
}

impl KernelPlan {
    /// The AQS plan of a layer with `w_bits`-bit weights, inner dimension
    /// `k_dim` and inputs calibrated as `act`.
    pub(crate) fn for_layer(
        w_bits: u8,
        act: &LayerQuantConfig,
        k_dim: usize,
    ) -> Result<Self, PipelineError> {
        let act_bits = act.quantizer.params().bits;
        let (Some(w_planes), true) = (sbr_planes(w_bits), matches!(act_bits, 8 | 12 | 16)) else {
            return Err(PipelineError::UnsupportedFormat { w_bits, act_bits });
        };
        let x_lo = usize::from(act_bits / 4 - 1);
        if act.dbs_type != DbsType::Type1 && x_lo != 1 {
            return Err(SliceError::DbsUnsupported { k: x_lo }.into());
        }
        let bound = accumulator_bound(k_dim, w_bits, act_bits);
        if bound > i64::from(i32::MAX) {
            return Err(PipelineError::AccumulatorOverflow { bound });
        }
        let x_scales = (0..=x_lo).map(|j| activation_plane_weight(x_lo, act.dbs_type, j));
        Ok(Self::new(
            w_planes,
            x_scales.collect(),
            act.frequent_ho_slice.into(),
            None,
            Some(bound),
        ))
    }

    /// The plan of operands sliced by the caller: formats read off the
    /// stacks themselves, so they cannot disagree with them.
    pub(crate) fn for_operands<X: Planes>(
        w: &SlicedWeight,
        x: &X,
        r: i16,
        only: Option<SkipSide>,
    ) -> Self {
        let x_scales = (0..x.num_planes()).map(|j| x.plane_weight(j));
        Self::new(w.num_planes(), x_scales.collect(), r, only, None)
    }

    fn new(
        w_planes: usize,
        x_scales: Vec<i32>,
        r: i16,
        only: Option<SkipSide>,
        acc_bound: Option<i64>,
    ) -> Self {
        // `|x_HO − r| ≤ 15` is what the `i16` tile's bound assumes.
        assert!((0..16).contains(&r), "r = {r} is not a 4-bit HO slice");
        KernelPlan {
            w_planes,
            x_scales,
            r,
            only,
            acc_bound,
        }
    }

    /// The resident constant of each output row: `extra(m, ΣW[m])` plus
    /// Eq. 6's offline term `b'[m] = r·c_HO·ΣW[m]`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::AccumulatorOverflow`] if the GEMM bound plus the
    /// largest constant leaves `i32`.
    pub(crate) fn row_consts(
        &self,
        row_sums: &[i64],
        extra: impl Fn(usize, i64) -> i64,
    ) -> Result<Vec<i32>, PipelineError> {
        let r_eff = i64::from(self.r) * i64::from(*self.x_scales.last().expect("a plane"));
        let admit = |(m, &sum): (usize, &i64)| {
            let c = extra(m, sum) + r_eff * sum;
            let gemm_part = self.acc_bound.unwrap_or(0);
            let bound = gemm_part.saturating_add(c.saturating_abs());
            match i32::try_from(c) {
                Ok(c) if bound <= i64::from(i32::MAX) => Ok(c),
                _ => Err(PipelineError::AccumulatorOverflow { bound }),
            }
        };
        row_sums.iter().enumerate().map(admit).collect()
    }

    pub(crate) fn w_planes(&self) -> usize {
        self.w_planes
    }

    pub(crate) fn x_scales(&self) -> &[i32] {
        &self.x_scales
    }

    pub(crate) fn r(&self) -> i16 {
        self.r
    }

    pub(crate) fn skips_weight(&self) -> bool {
        self.only != Some(SkipSide::Activation)
    }

    pub(crate) fn skips_activation(&self) -> bool {
        self.only != Some(SkipSide::Weight)
    }
}
