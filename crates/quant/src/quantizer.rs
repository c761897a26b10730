//! Uniform symmetric and asymmetric quantizers (paper Eq. 1 and Eq. 2).

use std::fmt;

use panacea_tensor::{stats, Matrix};
use serde::{Deserialize, Serialize};

/// Errors produced by quantizer constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// The requested bit-width is outside the supported `2..=16` range.
    UnsupportedBits(u8),
    /// A scale factor was zero, negative, or non-finite.
    InvalidScale(String),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::UnsupportedBits(b) => write!(f, "unsupported bit-width {b}"),
            QuantError::InvalidScale(s) => write!(f, "invalid scale factor: {s}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// Quantization parameters shared by both schemes.
///
/// For symmetric quantization `zero_point == 0` and the integer range is
/// signed; for asymmetric quantization the range is unsigned and
/// `zero_point ∈ [0, 2^bits − 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Scale factor `s` mapping integers back to reals.
    pub scale: f32,
    /// Zero-point `zp` (0 for symmetric quantization).
    pub zero_point: i32,
    /// Bit-width `b`.
    pub bits: u8,
    /// Whether the integer range is signed (`true` for symmetric).
    pub signed: bool,
}

impl QuantParams {
    /// Smallest representable integer.
    pub fn qmin(&self) -> i32 {
        if self.signed {
            -(1 << (self.bits - 1))
        } else {
            0
        }
    }

    /// Largest representable integer.
    pub fn qmax(&self) -> i32 {
        if self.signed {
            (1 << (self.bits - 1)) - 1
        } else {
            (1 << self.bits) - 1
        }
    }
}

/// Common quantize/dequantize interface for both schemes.
///
/// The trait is object-safe so layers can hold `Box<dyn Quantizer>` when
/// mixing schemes (e.g. symmetric weights + asymmetric activations).
pub trait Quantizer {
    /// The parameters in effect.
    fn params(&self) -> QuantParams;

    /// Quantizes one real value to its clipped integer code.
    fn quantize(&self, x: f32) -> i32;

    /// Maps one integer code back to a real value.
    fn dequantize(&self, q: i32) -> f32;

    /// Quantizes a whole matrix element-wise.
    fn quantize_matrix(&self, m: &Matrix<f32>) -> Matrix<i32>
    where
        Self: Sized,
    {
        m.map(|&x| self.quantize(x))
    }

    /// Dequantizes a whole matrix element-wise.
    fn dequantize_matrix(&self, m: &Matrix<i32>) -> Matrix<f32>
    where
        Self: Sized,
    {
        m.map(|&q| self.dequantize(q))
    }
}

/// Round-half-away-from-zero, the `⌊·⌉` of the paper.
pub(crate) fn round_ties_away(x: f32) -> i32 {
    x.round() as i32
}

/// Uniform **symmetric** quantizer (Eq. 1):
/// `x_int = clip(⌊x/s⌉; −2^{b−1}, 2^{b−1}−1)` with
/// `s = 2·max(|x|)/(2^b − 1)`.
///
/// # Examples
///
/// ```
/// use panacea_quant::{Quantizer, SymmetricQuantizer};
///
/// let q = SymmetricQuantizer::calibrate(&[-1.0, 0.5, 1.0], 8);
/// assert_eq!(q.params().zero_point, 0);
/// assert_eq!(q.quantize(0.0), 0);
/// assert!(q.quantize(1.0) > 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SymmetricQuantizer {
    params: QuantParams,
}

impl SymmetricQuantizer {
    /// Builds a quantizer from an explicit scale.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] for `bits ∉ 2..=16` and
    /// [`QuantError::InvalidScale`] for non-positive or non-finite scales.
    pub fn from_scale(scale: f32, bits: u8) -> Result<Self, QuantError> {
        if !(2..=16).contains(&bits) {
            return Err(QuantError::UnsupportedBits(bits));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(QuantError::InvalidScale(format!("{scale}")));
        }
        Ok(SymmetricQuantizer {
            params: QuantParams {
                scale,
                zero_point: 0,
                bits,
                signed: true,
            },
        })
    }

    /// Calibrates the scale from data: `s = 2·max|x| / (2^b − 1)`.
    ///
    /// An all-zero (or empty) calibration tensor yields a degenerate scale
    /// of 1.0, so every value quantizes to 0 — the same convention PyTorch
    /// observers use.
    ///
    /// # Panics
    ///
    /// Panics if `bits ∉ 2..=16`.
    pub fn calibrate(data: &[f32], bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit-width {bits}");
        let max_abs = data.iter().fold(0f32, |acc, &v| acc.max(v.abs()));
        let denom = ((1u32 << bits) - 1) as f32;
        let scale = if max_abs > 0.0 {
            2.0 * max_abs / denom
        } else {
            1.0
        };
        SymmetricQuantizer {
            params: QuantParams {
                scale,
                zero_point: 0,
                bits,
                signed: true,
            },
        }
    }
}

impl Quantizer for SymmetricQuantizer {
    fn params(&self) -> QuantParams {
        self.params
    }

    fn quantize(&self, x: f32) -> i32 {
        round_ties_away(x / self.params.scale).clamp(self.params.qmin(), self.params.qmax())
    }

    fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.params.scale
    }
}

/// Uniform **asymmetric** quantizer (Eq. 2):
/// `x_uint = clip(⌊x/s'⌉ + zp; 0, 2^b − 1)` with
/// `s' = (max(x) − min(x))/(2^b − 1)` and
/// `zp = clip(⌊−min(x)/s'⌉; 0, 2^b − 1)`.
///
/// # Examples
///
/// ```
/// use panacea_quant::{AsymmetricQuantizer, Quantizer};
///
/// let q = AsymmetricQuantizer::calibrate(&[0.0, 1.0, 2.0, 4.0], 8);
/// assert_eq!(q.quantize(0.0), q.params().zero_point);
/// assert_eq!(q.quantize(4.0), 255);
/// assert_eq!(q.quantize(-100.0), 0); // clipped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsymmetricQuantizer {
    params: QuantParams,
}

impl AsymmetricQuantizer {
    /// Builds a quantizer from explicit `(scale, zero_point)`.
    ///
    /// The zero-point is clamped into `[0, 2^bits − 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] for `bits ∉ 2..=16` and
    /// [`QuantError::InvalidScale`] for non-positive or non-finite scales.
    pub fn from_params(scale: f32, zero_point: i32, bits: u8) -> Result<Self, QuantError> {
        if !(2..=16).contains(&bits) {
            return Err(QuantError::UnsupportedBits(bits));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(QuantError::InvalidScale(format!("{scale}")));
        }
        let qmax = (1i32 << bits) - 1;
        Ok(AsymmetricQuantizer {
            params: QuantParams {
                scale,
                zero_point: zero_point.clamp(0, qmax),
                bits,
                signed: false,
            },
        })
    }

    /// Calibrates `(s', zp)` from data via min/max.
    ///
    /// A constant (or empty) calibration tensor yields scale 1.0 and a
    /// zero-point mapping the constant exactly.
    ///
    /// # Panics
    ///
    /// Panics if `bits ∉ 2..=16`.
    pub fn calibrate(data: &[f32], bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit-width {bits}");
        let (lo, hi) = stats::min_max(data);
        // The representable range must include zero so that zp is exact.
        let lo = lo.min(0.0);
        let hi = hi.max(0.0);
        let qmax = (1i32 << bits) - 1;
        let scale = if hi > lo {
            (hi - lo) / qmax as f32
        } else {
            1.0
        };
        let zp = round_ties_away(-lo / scale).clamp(0, qmax);
        AsymmetricQuantizer {
            params: QuantParams {
                scale,
                zero_point: zp,
                bits,
                signed: false,
            },
        }
    }

    /// Returns a copy with a replaced zero-point (used by the ZPM), clamped
    /// to the representable range.
    pub fn with_zero_point(&self, zero_point: i32) -> Self {
        let mut p = self.params;
        p.zero_point = zero_point.clamp(0, p.qmax());
        AsymmetricQuantizer { params: p }
    }
}

impl Quantizer for AsymmetricQuantizer {
    fn params(&self) -> QuantParams {
        self.params
    }

    fn quantize(&self, x: f32) -> i32 {
        // `⌊x/s⌉` is pinned at `i32::MAX` for a huge `x`; summed in `i32`
        // it would wrap and clamp to 0 instead of `qmax`.
        let sum =
            i64::from(round_ties_away(x / self.params.scale)) + i64::from(self.params.zero_point);
        sum.clamp(0, i64::from(self.params.qmax())) as i32
    }

    fn dequantize(&self, q: i32) -> f32 {
        (q - self.params.zero_point) as f32 * self.params.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_tensor::dist::DistributionKind;

    #[test]
    fn symmetric_zero_maps_to_zero() {
        let q = SymmetricQuantizer::calibrate(&[-3.0, 3.0], 8);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.dequantize(0), 0.0);
    }

    #[test]
    fn symmetric_range_is_signed() {
        let q = SymmetricQuantizer::calibrate(&[-1.0, 1.0], 8);
        assert_eq!(q.params().qmin(), -128);
        assert_eq!(q.params().qmax(), 127);
        assert_eq!(q.quantize(-100.0), -128);
        assert_eq!(q.quantize(100.0), 127);
    }

    #[test]
    fn symmetric_scale_formula() {
        let q = SymmetricQuantizer::calibrate(&[-2.0, 1.0], 7);
        let expected = 2.0 * 2.0 / 127.0;
        assert!((q.params().scale - expected).abs() < 1e-7);
    }

    #[test]
    fn asymmetric_zero_point_represents_zero_exactly() {
        let q = AsymmetricQuantizer::calibrate(&[-1.5, 4.5], 8);
        let zp = q.params().zero_point;
        assert_eq!(q.quantize(0.0), zp);
        assert_eq!(q.dequantize(zp), 0.0);
    }

    #[test]
    fn asymmetric_covers_full_unsigned_range() {
        let q = AsymmetricQuantizer::calibrate(&[-1.0, 3.0], 8);
        assert_eq!(q.quantize(-1.0), 0);
        assert_eq!(q.quantize(3.0), 255);
    }

    #[test]
    fn asymmetric_saturates_far_outside_the_calibrated_range() {
        // `⌊x/s⌉` pins at `i32::MAX`; adding the zero-point used to wrap
        // (debug: panic, release: code 0 for the largest inputs).
        let q = AsymmetricQuantizer::from_params(1e-3, 200, 8).unwrap();
        for x in [1e30f32, f32::MAX, f32::INFINITY, 3e6] {
            assert_eq!(q.quantize(x), 255, "{x}");
            assert_eq!(q.quantize(-x), 0, "-{x}");
        }
    }

    #[test]
    fn asymmetric_positive_only_data_gets_small_zero_point() {
        let q = AsymmetricQuantizer::calibrate(&[0.1, 5.0], 8);
        assert_eq!(q.params().zero_point, 0);
    }

    #[test]
    fn constant_tensor_degenerates_gracefully() {
        let q = AsymmetricQuantizer::calibrate(&[2.0; 16], 8);
        let code = q.quantize(2.0);
        assert!((q.dequantize(code) - 2.0).abs() < 0.5 * q.params().scale + 1e-6);
        let s = SymmetricQuantizer::calibrate(&[0.0; 16], 8);
        assert_eq!(s.quantize(0.0), 0);
    }

    #[test]
    fn unsupported_bits_is_error() {
        assert!(matches!(
            SymmetricQuantizer::from_scale(1.0, 1),
            Err(QuantError::UnsupportedBits(1))
        ));
        assert!(matches!(
            AsymmetricQuantizer::from_params(1.0, 0, 17),
            Err(QuantError::UnsupportedBits(17))
        ));
    }

    #[test]
    fn invalid_scale_is_error() {
        assert!(matches!(
            SymmetricQuantizer::from_scale(0.0, 8),
            Err(QuantError::InvalidScale(_))
        ));
        assert!(matches!(
            AsymmetricQuantizer::from_params(f32::NAN, 0, 8),
            Err(QuantError::InvalidScale(_))
        ));
    }

    #[test]
    fn asymmetric_beats_symmetric_on_one_sided_data() {
        let mut rng = panacea_tensor::seeded_rng(3);
        let data = DistributionKind::AsymmetricGaussian {
            mean: 2.0,
            std: 0.5,
            skew: 0.1,
        }
        .sample_matrix(64, 64, &mut rng);
        let sym = SymmetricQuantizer::calibrate(data.as_slice(), 8);
        let asym = AsymmetricQuantizer::calibrate(data.as_slice(), 8);
        let err = |deq: Vec<f32>| -> f64 { panacea_tensor::stats::mse(data.as_slice(), &deq) };
        let e_sym = err(data
            .iter()
            .map(|&x| sym.dequantize(sym.quantize(x)))
            .collect());
        let e_asym = err(data
            .iter()
            .map(|&x| asym.dequantize(asym.quantize(x)))
            .collect());
        assert!(
            e_asym < e_sym,
            "asymmetric MSE {e_asym} should beat symmetric {e_sym} on one-sided data"
        );
    }

    #[test]
    fn quantize_matrix_round_trip_error_bounded_by_half_step() {
        let mut rng = panacea_tensor::seeded_rng(11);
        let data = DistributionKind::Uniform { lo: -2.0, hi: 6.0 }.sample_matrix(32, 32, &mut rng);
        let q = AsymmetricQuantizer::calibrate(data.as_slice(), 8);
        let qm = q.quantize_matrix(&data);
        let deq = q.dequantize_matrix(&qm);
        let half_step = 0.5 * q.params().scale + 1e-5;
        for (x, y) in data.iter().zip(deq.iter()) {
            assert!((x - y).abs() <= half_step, "|{x} - {y}| > {half_step}");
        }
    }

    #[test]
    fn with_zero_point_clamps() {
        let q = AsymmetricQuantizer::calibrate(&[0.0, 1.0], 8);
        assert_eq!(q.with_zero_point(400).params().zero_point, 255);
        assert_eq!(q.with_zero_point(-3).params().zero_point, 0);
    }
}
