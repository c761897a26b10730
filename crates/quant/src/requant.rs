//! Requantization of `i32` accumulators into the next layer's activation
//! format (performed by Panacea's post-processing unit, paper §III-D).
//!
//! A GEMM accumulator represents `acc · s_W · s_x`; the next layer wants
//! `clip(⌊acc · s_W s_x / s_out⌉ + zp_out)`. The PPU implements the
//! rescale as a fixed-point multiply — `(acc · m) >> shift` with a 32-bit
//! mantissa — exactly like production integer inference stacks; this module
//! provides both the float reference and the fixed-point path and tests
//! they agree.

use panacea_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::quantizer::{AsymmetricQuantizer, QuantError, Quantizer};

/// Requantizer from an `i32` accumulator domain (`scale = input_scale`)
/// into an asymmetric output format.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Requantizer {
    input_scale: f64,
    output: AsymmetricQuantizer,
    /// Fixed-point mantissa `m` (Q31).
    mantissa: i64,
    /// Right shift applied after the mantissa multiply.
    shift: u32,
}

/// One past the largest Q31 mantissa: `|acc| ≤ 2³¹` times a mantissa of
/// at most this, plus the rounding bias, stays inside `i64`.
const MANTISSA_END: f64 = (1u64 << 31) as f64;

impl Requantizer {
    /// Creates a requantizer given the accumulator scale
    /// (`s_W · s_x`) and the output quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScale`] if `input_scale` is not a
    /// positive finite number, or if the rescale ratio
    /// `input_scale / output scale` is 2³¹ or more. Such a ratio has no
    /// Q31 mantissa (`acc · m` would leave `i64`), and no use either: it
    /// sends every non-zero accumulator past the ends of any code range,
    /// so it is refused as the mis-calibration it is rather than
    /// saturated in a wider type on every call.
    pub fn new(input_scale: f64, output: AsymmetricQuantizer) -> Result<Self, QuantError> {
        if !(input_scale.is_finite() && input_scale > 0.0) {
            return Err(QuantError::InvalidScale(format!("{input_scale}")));
        }
        let ratio = input_scale / f64::from(output.params().scale);
        if !(0.0..MANTISSA_END).contains(&ratio) {
            return Err(QuantError::InvalidScale(format!(
                "rescale ratio {ratio} = {input_scale} / {} is not below 2^31",
                output.params().scale
            )));
        }
        // Normalize ratio = m · 2^{−shift} with m in [2^30, 2^31); a
        // ratio below 2^-32 keeps the largest shift and a short mantissa.
        let mut shift = 0u32;
        let mut r = ratio;
        while r < MANTISSA_END / 2.0 && shift < 62 {
            r *= 2.0;
            shift += 1;
        }
        Ok(Requantizer {
            input_scale,
            output,
            mantissa: r.round() as i64,
            shift,
        })
    }

    /// The output quantizer this requantizer targets.
    pub fn output(&self) -> &AsymmetricQuantizer {
        &self.output
    }

    /// Float-reference requantization.
    pub fn requantize_ref(&self, acc: i32) -> i32 {
        self.output
            .quantize((f64::from(acc) * self.input_scale) as f32)
    }

    /// Fixed-point requantization as the PPU hardware computes it:
    /// `clip(round_shift(acc · m, shift) + zp)`.
    pub fn requantize(&self, acc: i32) -> i32 {
        let prod = i64::from(acc) * self.mantissa;
        // Rounding right shift (round half away from zero).
        let rounded = if self.shift == 0 {
            prod
        } else {
            let bias = 1i64 << (self.shift - 1);
            if prod >= 0 {
                (prod + bias) >> self.shift
            } else {
                -((-prod + bias) >> self.shift)
            }
        };
        let p = self.output.params();
        (rounded + i64::from(p.zero_point)).clamp(0, i64::from(p.qmax())) as i32
    }

    /// Requantizes a whole accumulator matrix with the fixed-point path.
    pub fn requantize_matrix(&self, acc: &Matrix<i32>) -> Matrix<i32> {
        acc.map(|&v| self.requantize(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn mk(input_scale: f64, out_scale: f32, zp: i32) -> Requantizer {
        let out = AsymmetricQuantizer::from_params(out_scale, zp, 8).unwrap();
        Requantizer::new(input_scale, out).unwrap()
    }

    #[test]
    fn fixed_point_matches_float_reference_within_one_lsb() {
        let mut rng = panacea_tensor::seeded_rng(123);
        for _ in 0..20 {
            let input_scale = 10f64.powf(rng.gen_range(-6.0..-2.0));
            let out_scale = 10f32.powf(rng.gen_range(-3.0..0.0));
            let zp = rng.gen_range(0..256);
            let rq = mk(input_scale, out_scale, zp);
            for _ in 0..200 {
                let acc: i32 = rng.gen_range(-1_000_000..1_000_000);
                let a = rq.requantize(acc);
                let b = rq.requantize_ref(acc);
                assert!(
                    (a - b).abs() <= 1,
                    "acc={acc} fixed={a} ref={b} (scale {input_scale}/{out_scale})"
                );
            }
        }
    }

    #[test]
    fn zero_accumulator_maps_to_zero_point() {
        let rq = mk(1e-4, 0.05, 131);
        assert_eq!(rq.requantize(0), 131);
    }

    #[test]
    fn saturation_clamps_to_unsigned_range() {
        let rq = mk(1.0, 0.001, 128);
        assert_eq!(rq.requantize(i32::MAX / 4), 255);
        assert_eq!(rq.requantize(i32::MIN / 4), 0);
    }

    #[test]
    fn invalid_scale_rejected() {
        let out = AsymmetricQuantizer::from_params(0.1, 0, 8).unwrap();
        assert!(Requantizer::new(0.0, out).is_err());
        assert!(Requantizer::new(f64::NAN, out).is_err());
    }

    #[test]
    fn ratio_without_a_q31_mantissa_is_rejected() {
        // Was: debug panic "attempt to multiply with overflow"; release
        // code 0 for acc = 9_300_000 where the reference says 255.
        let unit = AsymmetricQuantizer::from_params(1.0, 0, 8).unwrap();
        let err = Requantizer::new(1e12, unit).unwrap_err();
        assert!(matches!(err, QuantError::InvalidScale(_)), "{err}");
        assert!(Requantizer::new(2147483648.0, unit).is_err());
        // An output scale so small that the ratio is not finite.
        let tiny = AsymmetricQuantizer::from_params(f32::MIN_POSITIVE, 0, 8).unwrap();
        assert!(Requantizer::new(1e300, tiny).is_err());
        // The largest admitted ratios saturate exactly like the reference.
        for scale in [2147483647.0, 2e9, 1073741824.0, 1073741823.5] {
            let rq = Requantizer::new(scale, unit).expect("below 2^31");
            for acc in [i32::MIN, -9_300_000, -1, 0, 1, 9_300_000, i32::MAX] {
                assert_eq!(
                    rq.requantize(acc),
                    rq.requantize_ref(acc),
                    "{scale} × {acc}"
                );
            }
        }
    }

    #[test]
    fn any_ratio_either_fails_construction_or_agrees_with_the_reference() {
        let mut rng = panacea_tensor::seeded_rng(2209);
        let (mut built, mut refused) = (0, 0);
        for _ in 0..400 {
            let input_scale = 10f64.powf(rng.gen_range(-14.0..14.0));
            let out_scale = 10f32.powf(rng.gen_range(-6.0..3.0));
            let bits = [8u8, 12, 16][rng.gen_range(0usize..3)];
            let zp = rng.gen_range(0..1i32 << bits);
            let out = AsymmetricQuantizer::from_params(out_scale, zp, bits).unwrap();
            let Ok(rq) = Requantizer::new(input_scale, out) else {
                assert!(input_scale / f64::from(out_scale) >= 2f64.powi(31));
                refused += 1;
                continue;
            };
            built += 1;
            let edges = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
            let random = std::iter::repeat_with(|| rng.gen_range(i32::MIN..i32::MAX)).take(50);
            for acc in edges.into_iter().chain(random.collect::<Vec<_>>()) {
                let (a, b) = (rq.requantize(acc), rq.requantize_ref(acc));
                assert!(
                    (a - b).abs() <= 1,
                    "acc={acc} fixed={a} ref={b} ({input_scale}/{out_scale}, a{bits})"
                );
            }
        }
        assert!(
            built > 100 && refused > 10,
            "{built} built, {refused} refused"
        );
    }

    #[test]
    fn matrix_requantization_is_elementwise() {
        let rq = mk(0.01, 0.02, 10);
        let acc = Matrix::from_vec(1, 3, vec![0, 100, -100]).unwrap();
        let out = rq.requantize_matrix(&acc);
        assert_eq!(out[(0, 0)], rq.requantize(0));
        assert_eq!(out[(0, 1)], rq.requantize(100));
        assert_eq!(out[(0, 2)], rq.requantize(-100));
    }
}
