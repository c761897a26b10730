//! A complete quantized linear layer — the unit of work Panacea executes.
//!
//! [`QuantizedLinear`] packages everything the paper's inference flow
//! (Fig. 6, right half) attaches to one GEMM: the SBR-sliced symmetric
//! weights, the calibrated asymmetric activation format (ZPM/DBS
//! applied), the bias with the `zp·W·1` term folded in offline (Eq. 3),
//! and optionally a requantizer producing the next layer's input codes
//! (the PPU loop of Fig. 11). `forward` runs the AQS-GEMM — compressed,
//! skipped, compensated, and bit-exact — over the packed weight `prepare`
//! built (slices in the tile's walking order plus their index, the
//! layer's only copy of the weights), so a call pays for nothing that
//! depends on the weights alone.

use panacea_bitslice::{SliceError, SlicedActivation, SlicedWeight};
use panacea_quant::requant::Requantizer;
use panacea_quant::{LayerQuantConfig, QuantError, Quantizer, SymmetricQuantizer};
use panacea_tensor::Matrix;

use crate::aqs::PackedWeight;
pub use crate::plan::accumulator_bound;
use crate::plan::KernelPlan;
use crate::workload::Workload;

/// Errors from layer preparation.
#[derive(Debug)]
pub enum PipelineError {
    /// Weight quantization/slicing failed.
    Slice(SliceError),
    /// Quantizer construction failed.
    Quant(QuantError),
    /// Bias length does not match the weight rows.
    BiasMismatch {
        /// Expected entries (weight rows).
        expected: usize,
        /// Provided entries.
        actual: usize,
    },
    /// The kernel has no plan for this format: weights must be `3n + 4`
    /// bits wide (`n ≤ 4`), activation codes 8, 12 or 16.
    UnsupportedFormat {
        /// The requested weight bit-width.
        w_bits: u8,
        /// The calibrated activation bit-width.
        act_bits: u8,
    },
    /// Some admissible input could drive an `i32` accumulator of this
    /// layer out of range.
    AccumulatorOverflow {
        /// The worst-case accumulator magnitude, see
        /// [`accumulator_bound`].
        bound: i64,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Slice(e) => write!(f, "slicing failed: {e}"),
            PipelineError::Quant(e) => write!(f, "quantization failed: {e}"),
            PipelineError::BiasMismatch { expected, actual } => {
                write!(f, "bias has {actual} entries, weight has {expected} rows")
            }
            PipelineError::UnsupportedFormat { w_bits, act_bits } => {
                write!(f, "no kernel plan for w{w_bits} × a{act_bits}")
            }
            PipelineError::AccumulatorOverflow { bound } => {
                write!(f, "accumulators can reach ±{bound}, beyond i32")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SliceError> for PipelineError {
    fn from(e: SliceError) -> Self {
        PipelineError::Slice(e)
    }
}

impl From<QuantError> for PipelineError {
    fn from(e: QuantError) -> Self {
        PipelineError::Quant(e)
    }
}

/// A prepared quantized linear layer (weights resident, bias folded).
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    /// Slices and index in the kernel's resident layout.
    weight: PackedWeight,
    /// Formats, `r` and the accumulator proof, derived from `act`.
    plan: KernelPlan,
    w_scale: f32,
    act: LayerQuantConfig,
    /// `b̂ + b'`: the bias with `−zp·(W·1)` folded in (Eq. 3) plus the
    /// compensation constant `r·c_HO·(W·1)` (Eq. 6), added in the
    /// kernel's single write of each output.
    row_const: Vec<i32>,
    requant: Option<Requantizer>,
}

impl QuantizedLinear {
    /// Prepares a layer from float weights + bias and a finalized
    /// activation calibration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if the bias length mismatches, the
    /// kernel has no plan for `w_bits` × `act`'s format, or the layer's
    /// worst-case accumulator ([`accumulator_bound`] plus the largest
    /// folded bias) does not fit `i32`.
    ///
    /// # Examples
    ///
    /// ```
    /// use panacea_core::pipeline::QuantizedLinear;
    /// use panacea_quant::ActivationCalibrator;
    /// use panacea_tensor::{dist::DistributionKind, seeded_rng};
    ///
    /// let mut rng = seeded_rng(2);
    /// let w = DistributionKind::Gaussian { mean: 0.0, std: 0.05 }.sample_matrix(8, 16, &mut rng);
    /// let x = DistributionKind::Gaussian { mean: 0.0, std: 0.5 }.sample_matrix(16, 8, &mut rng);
    /// let mut cal = ActivationCalibrator::new(8).with_zpm(true);
    /// cal.observe(&x);
    /// let layer = QuantizedLinear::prepare(&w, &[0.0; 8], 7, cal.finalize())?;
    /// let (out, _) = layer.forward_f32(&x);
    /// assert_eq!(out.shape(), (8, 8));
    /// # Ok::<(), panacea_core::pipeline::PipelineError>(())
    /// ```
    pub fn prepare(
        w_f: &Matrix<f32>,
        bias: &[f32],
        w_bits: u8,
        act: LayerQuantConfig,
    ) -> Result<Self, PipelineError> {
        if bias.len() != w_f.rows() {
            return Err(PipelineError::BiasMismatch {
                expected: w_f.rows(),
                actual: bias.len(),
            });
        }
        let plan = KernelPlan::for_layer(w_bits, &act, w_f.cols())?;
        let wq = SymmetricQuantizer::calibrate(w_f.as_slice(), w_bits);
        let n_lo = plan.w_planes() - 1;
        // The construction-time form; only its packing stays resident.
        let sliced = SlicedWeight::from_rows(w_f.rows(), w_f.cols(), n_lo, |r, row| {
            for (q, &v) in row.iter_mut().zip(w_f.row(r)) {
                *q = wq.quantize(v);
            }
        })?;
        let weight = PackedWeight::pack(&sliced);
        let acc_scale = f64::from(wq.params().scale) * f64::from(act.quantizer.params().scale);
        let zp = i64::from(act.quantizer.params().zero_point);
        let row_const = plan.row_consts(weight.row_sums(), |m, row_sum| {
            (f64::from(bias[m]) / acc_scale).round() as i64 - zp * row_sum
        })?;
        Ok(QuantizedLinear {
            weight,
            plan,
            w_scale: wq.params().scale,
            act,
            row_const,
            requant: None,
        })
    }

    /// Attaches a requantizer so [`forward_codes`](Self::forward_codes)
    /// can emit the next layer's 8-bit input codes directly.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Quant`] if the accumulator scale is
    /// degenerate.
    pub fn with_output(mut self, next: LayerQuantConfig) -> Result<Self, PipelineError> {
        let acc_scale = f64::from(self.w_scale) * f64::from(self.act.quantizer.params().scale);
        self.requant = Some(Requantizer::new(acc_scale, next.quantizer)?);
        Ok(self)
    }

    /// The activation configuration this layer expects at its input.
    pub fn input_config(&self) -> &LayerQuantConfig {
        &self.act
    }

    /// The accumulator scale `s_W · s_x`.
    pub fn accumulator_scale(&self) -> f64 {
        f64::from(self.w_scale) * f64::from(self.act.quantizer.params().scale)
    }

    /// Runs the layer on already-quantized input codes (`K × N`,
    /// unsigned, any `N`). Returns the biased integer accumulators
    /// (`≈ (Wx + b)/s_W s_x`) and the measured workload. The kernel
    /// multiplies only the `N` real columns; the [`Workload`] is the
    /// paper's PE array's, which pads `N` to its vector width.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or codes exceed the activation
    /// format.
    pub fn forward(&self, x_codes: &Matrix<i32>) -> (Matrix<i32>, Workload) {
        let x_lo = self.plan.x_scales().len() - 1;
        let sx = SlicedActivation::from_uint(x_codes, x_lo, self.act.dbs_type)
            .expect("input codes exceed the calibrated activation format");
        self.weight.gemm(&self.plan, sx.planes(), &self.row_const)
    }

    /// Quantizes a float input, runs the layer, and dequantizes the
    /// output — the float-in/float-out convenience path.
    pub fn forward_f32(&self, x_f: &Matrix<f32>) -> (Matrix<f32>, Workload) {
        let codes = self.act.quantizer.quantize_matrix(x_f);
        let (acc, wl) = self.forward(&codes);
        let s = self.accumulator_scale();
        (acc.map(|&v| (f64::from(v) * s) as f32), wl)
    }

    /// Runs the layer and requantizes into the next layer's input codes.
    ///
    /// # Panics
    ///
    /// Panics if no output format was attached via
    /// [`with_output`](Self::with_output).
    pub fn forward_codes(&self, x_codes: &Matrix<i32>) -> (Matrix<i32>, Workload) {
        let rq = self
            .requant
            .as_ref()
            .expect("attach an output format with with_output() before forward_codes()");
        let (acc, wl) = self.forward(x_codes);
        (rq.requantize_matrix(&acc), wl)
    }
}

/// The one batching contract of the serving stack: coalesce the
/// requests' columns into one wide matrix, run `f` exactly once over it
/// with each request's width in order, and split the result back per
/// request. `f` must return a matrix with one output column per input
/// column; AQS-GEMM is exact under any grouping of activation columns,
/// so for a column-exact `f` every part is bit-identical to running its
/// request alone. An empty batch returns `W::default()` without calling
/// `f`.
///
/// # Panics
///
/// Panics if the requests disagree on the row count, or if `f` changes
/// the column count.
pub fn run_coalesced<T: Clone, U: Clone, W: Default>(
    requests: &[&Matrix<T>],
    f: impl FnOnce(&Matrix<T>, &[usize]) -> (Matrix<U>, W),
) -> (Vec<Matrix<U>>, W) {
    if requests.is_empty() {
        return (Vec::new(), W::default());
    }
    let widths: Vec<usize> = requests.iter().map(|x| x.cols()).collect();
    let stacked = Matrix::hstack(requests).expect("batched requests must share the row count");
    let (out, stat) = f(&stacked, &widths);
    let parts = out
        .split_cols(&widths)
        .expect("batched op must keep one output column per input column");
    (parts, stat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_quant::dbs::DbsConfig;
    use panacea_quant::ActivationCalibrator;
    use panacea_tensor::dist::DistributionKind;
    use panacea_tensor::stats;
    use rand::Rng;

    fn calib(x: &Matrix<f32>, zpm: bool) -> LayerQuantConfig {
        let mut cal = ActivationCalibrator::new(8)
            .with_zpm(zpm)
            .with_dbs(DbsConfig::default());
        cal.observe(x);
        cal.finalize()
    }

    fn setup(seed: u64) -> (Matrix<f32>, Matrix<f32>, Vec<f32>) {
        let mut rng = panacea_tensor::seeded_rng(seed);
        let w = DistributionKind::Gaussian {
            mean: 0.0,
            std: 0.05,
        }
        .sample_matrix(16, 32, &mut rng);
        let x = DistributionKind::TransformerAct {
            core_mean: 0.1,
            core_std: 0.4,
            pos_scale: 8.0,
            neg_scale: 5.0,
            outlier_frac: 0.02,
        }
        .sample_matrix(32, 16, &mut rng);
        let bias: Vec<f32> = (0..16)
            .map(|_| {
                DistributionKind::Gaussian {
                    mean: 0.0,
                    std: 0.1,
                }
                .sample(&mut rng)
            })
            .collect();
        (w, x, bias)
    }

    #[test]
    fn forward_tracks_float_reference() {
        let (w, x, bias) = setup(60);
        let layer = QuantizedLinear::prepare(&w, &bias, 7, calib(&x, true)).expect("prepare");
        let (out, _) = layer.forward_f32(&x);
        let mut reference = w.gemm_f32(&x).expect("shapes");
        for m in 0..reference.rows() {
            for n in 0..reference.cols() {
                reference[(m, n)] += bias[m];
            }
        }
        let sqnr = stats::sqnr_db(reference.as_slice(), out.as_slice());
        assert!(sqnr > 15.0, "quantized layer too lossy: {sqnr} dB");
    }

    #[test]
    fn zero_point_folding_matches_direct_computation() {
        let (w, x, bias) = setup(61);
        // 12-bit codes: three activation planes, `r` their top slice.
        let mut cal12 = ActivationCalibrator::new(12).with_zpm(true);
        cal12.observe(&x);
        for cfg in [calib(&x, true), cal12.finalize()] {
            let layer = QuantizedLinear::prepare(&w, &bias, 7, cfg).expect("prepare");
            let codes = cfg.quantizer.quantize_matrix(&x);
            let (acc, _) = layer.forward(&codes);
            // Recompute: W_int (codes − zp) + b_int, using truncated codes.
            let wq = SymmetricQuantizer::calibrate(w.as_slice(), 7);
            let w_int = wq.quantize_matrix(&w);
            let zp = cfg.quantizer.params().zero_point;
            let trunc = codes.map(|&v| panacea_quant::dbs::dbs_truncate(v, cfg.dbs_type) - zp);
            let mut direct = w_int.gemm(&trunc).expect("shapes");
            let s = layer.accumulator_scale();
            for (m, &bv) in bias.iter().enumerate() {
                let b = (f64::from(bv) / s).round() as i32;
                for v in direct.row_mut(m) {
                    *v += b;
                }
            }
            // The only difference allowed is the DBS truncation constant,
            // which cancels because both paths use truncated codes.
            assert_eq!(acc, direct, "{}-bit codes", cfg.quantizer.params().bits);
        }
    }

    #[test]
    fn two_layer_chain_produces_valid_codes() {
        let (w1, x, bias1) = setup(62);
        let mut rng = panacea_tensor::seeded_rng(63);
        let w2 = DistributionKind::Gaussian {
            mean: 0.0,
            std: 0.05,
        }
        .sample_matrix(8, 16, &mut rng);
        // Calibrate layer-2 input from the float intermediate.
        let mut inter = w1.gemm_f32(&x).expect("shapes");
        for m in 0..inter.rows() {
            for n in 0..inter.cols() {
                inter[(m, n)] += bias1[m];
            }
        }
        let cfg1 = calib(&x, true);
        let cfg2 = calib(&inter, true);
        let layer1 = QuantizedLinear::prepare(&w1, &bias1, 7, cfg1)
            .expect("layer1")
            .with_output(cfg2)
            .expect("requant");
        let layer2 = QuantizedLinear::prepare(&w2, &[0.0; 8], 7, cfg2).expect("layer2");

        let codes1 = cfg1.quantizer.quantize_matrix(&x);
        let (codes2, _) = layer1.forward_codes(&codes1);
        assert!(codes2.iter().all(|&v| (0..=255).contains(&v)));
        let (out, _) = layer2.forward(&codes2);
        assert_eq!(out.shape(), (8, 16));
    }

    #[test]
    fn bias_mismatch_rejected() {
        let (w, x, _) = setup(64);
        let err = QuantizedLinear::prepare(&w, &[0.0; 3], 7, calib(&x, false)).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::BiasMismatch {
                expected: 16,
                actual: 3
            }
        ));
    }

    #[test]
    fn layer_whose_accumulators_can_leave_i32_is_rejected() {
        let mut rng = panacea_tensor::seeded_rng(69);
        let gauss = |std| DistributionKind::Gaussian { mean: 0.0, std };
        let w = gauss(0.05).sample_matrix(8, 64, &mut rng);
        let x = gauss(0.5).sample_matrix(64, 8, &mut rng);
        let mut wide = ActivationCalibrator::new(12);
        wide.observe(&x);
        // 16-bit weights × 12-bit codes: 64 · Σ8^i · 4095 ≈ 9.8e9 ≫ 2^31.
        let err = QuantizedLinear::prepare(&w, &[0.0; 8], 16, wide.finalize()).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::AccumulatorOverflow { bound } if bound > i64::from(i32::MAX)
        ));
        // The same weights against 8-bit codes fit (≈ 6.1e8) and prepare.
        assert!(accumulator_bound(64, 16, 8) < i64::from(i32::MAX));
        QuantizedLinear::prepare(&w, &[0.0; 8], 16, calib(&x, true)).expect("16-bit × 8-bit fits");
        // A bias alone is rejected too, once it is large enough.
        let err = QuantizedLinear::prepare(&w, &[1e9; 8], 7, calib(&x, true)).unwrap_err();
        assert!(matches!(err, PipelineError::AccumulatorOverflow { .. }));
    }

    #[test]
    fn formats_without_a_kernel_plan_are_rejected_by_prepare() {
        // Before the plan, w3 panicked in debug ("subtract with overflow")
        // and read "unsupported slice count 85" in release, w5 silently
        // became w4's plane count, and a6 prepared and then panicked in
        // every `forward`.
        let (w, x, bias) = setup(70);
        let act = |bits| {
            let mut cal = ActivationCalibrator::new(bits);
            cal.observe(&x);
            cal.finalize()
        };
        for (w_bits, act_bits) in [(3u8, 8u8), (5, 8), (7, 6), (19, 8), (7, 10)] {
            let err = QuantizedLinear::prepare(&w, &bias, w_bits, act(act_bits)).unwrap_err();
            assert!(
                matches!(err, PipelineError::UnsupportedFormat { w_bits: wb, act_bits: ab }
                    if (wb, ab) == (w_bits, act_bits)),
                "w{w_bits} a{act_bits}: {err}"
            );
        }
        // DBS types 2/3 re-weight the planes of 8-bit codes only.
        let wide_dbs = LayerQuantConfig {
            dbs_type: panacea_quant::dbs::DbsType::Type2,
            ..act(12)
        };
        let err = QuantizedLinear::prepare(&w, &bias, 7, wide_dbs).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Slice(SliceError::DbsUnsupported { k: 2 })
        ));
        // Every supported pair whose accumulators fit prepares and runs.
        for w_bits in [4u8, 7, 10, 13, 16] {
            let cfg = act(8);
            let layer = QuantizedLinear::prepare(&w, &bias, w_bits, cfg).expect("supported");
            let (out, _) = layer.forward(&cfg.quantizer.quantize_matrix(&x));
            assert_eq!(out.shape(), (16, 16));
        }
    }

    #[test]
    #[should_panic(expected = "attach an output format")]
    fn forward_codes_without_output_panics() {
        let (w, x, bias) = setup(65);
        let cfg = calib(&x, false);
        let layer = QuantizedLinear::prepare(&w, &bias, 7, cfg).expect("prepare");
        let codes = cfg.quantizer.quantize_matrix(&x);
        layer.forward_codes(&codes);
    }

    #[test]
    fn forward_batch_is_bit_exact_vs_single_requests() {
        let (w, x, bias) = setup(67);
        let cfg = calib(&x, true);
        let layer = QuantizedLinear::prepare(&w, &bias, 7, cfg).expect("prepare");
        let codes = cfg.quantizer.quantize_matrix(&x);
        // Slice the 16 columns into uneven requests (incl. width 1 and 5).
        let requests = codes.split_cols(&[1, 5, 3, 7]).expect("widths");
        let refs: Vec<&Matrix<i32>> = requests.iter().collect();
        let (batched, wl) = run_coalesced(&refs, |x, _| layer.forward(x));
        assert!(wl.mul > 0);
        for (req, got) in requests.iter().zip(&batched) {
            let (alone, _) = layer.forward(req);
            assert_eq!(got, &alone);
        }
    }

    #[test]
    fn forward_batch_across_the_lane_orientation_boundary_matches_solo() {
        // 18 columns: inside the batch the first 16 are a full tile, whose
        // HO weight plane runs lanes along N and the LO one lanes along
        // M, and the last 2 run lanes along M only, as does every request
        // alone, its last n-group partial unless its width is a multiple
        // of 4. M = 20 is a full panel plus a partial one,
        // K = 300 two `k` blocks.
        let mut rng = panacea_tensor::seeded_rng(71);
        let gauss = |std| DistributionKind::Gaussian { mean: 0.1, std };
        let w = gauss(0.05).sample_matrix(20, 300, &mut rng);
        let x = gauss(0.8).sample_matrix(300, 18, &mut rng);
        let bias: Vec<f32> = (0..20).map(|m| m as f32 * 0.01 - 0.1).collect();
        let cfg = calib(&x, true);
        let layer = QuantizedLinear::prepare(&w, &bias, 7, cfg).expect("prepare");
        let codes = cfg.quantizer.quantize_matrix(&x);
        let requests = codes.split_cols(&[1, 5, 3, 7, 2]).expect("widths");
        let refs: Vec<&Matrix<i32>> = requests.iter().collect();
        let (batched, _) = run_coalesced(&refs, |x, _| layer.forward(x));
        assert_eq!(batched.len(), requests.len());
        for (req, got) in requests.iter().zip(&batched) {
            let (alone, _) = layer.forward(req);
            assert_eq!(got, &alone, "width {}", req.cols());
        }
        // And both agree with the integer reference of the whole batch.
        let (whole, _) = layer.forward(&codes);
        assert_eq!(
            Matrix::hstack(&batched.iter().collect::<Vec<_>>()).expect("rows"),
            whole
        );
    }

    #[test]
    fn narrow_forward_equals_its_columns_of_a_wide_one() {
        // The kernel's absent lanes leak nothing: `forward` at N = 1..=9
        // equals the same columns of a 16-wide call whose other columns
        // are random codes. K = 300 crosses a block; M = 20 crosses a
        // panel, and M = 100 (seven panels, the last partial) leaves one
        // to three panels after the last whole walk of a narrow tile.
        let mut rng = panacea_tensor::seeded_rng(73);
        let gauss = |std| DistributionKind::Gaussian { mean: 0.1, std };
        for m in [20, 100] {
            let w = gauss(0.05).sample_matrix(m, 300, &mut rng);
            let x = gauss(0.8).sample_matrix(300, 16, &mut rng);
            let cfg = calib(&x, true);
            let layer = QuantizedLinear::prepare(&w, &vec![0.05; m], 7, cfg).expect("prepare");
            let max = cfg.max_code();
            for n in 1..=9 {
                let narrow = Matrix::from_fn(300, n, |_, _| rng.gen_range(0..=max));
                let wide = Matrix::from_fn(300, 16, |r, c| {
                    if c < n {
                        narrow[(r, c)]
                    } else {
                        rng.gen_range(0..=max)
                    }
                });
                let (got, _) = layer.forward(&narrow);
                let (all, _) = layer.forward(&wide);
                assert_eq!(got, all.submatrix(0, 0, m, n), "M = {m}, N = {n}");
            }
        }
    }

    #[test]
    fn output_format_the_requantizer_cannot_reach_is_a_quant_error() {
        // Accumulator scale ≈ (4e6/127)·(4e6/255) against an output scale
        // of ≈ 4e-9: a rescale ratio far beyond the Q31 mantissa. Before
        // the check, `forward_codes` overflowed `i64` (debug: panic,
        // release: wrong codes).
        let mut rng = panacea_tensor::seeded_rng(72);
        let gauss = |std| DistributionKind::Gaussian { mean: 0.0, std };
        let w = gauss(1e6).sample_matrix(8, 16, &mut rng);
        let x = gauss(1e6).sample_matrix(16, 8, &mut rng);
        let next = calib(&gauss(1e-6).sample_matrix(8, 8, &mut rng), true);
        let layer = QuantizedLinear::prepare(&w, &[0.0; 8], 7, calib(&x, true)).expect("prepare");
        let ratio = layer.accumulator_scale() / f64::from(next.quantizer.params().scale);
        assert!(ratio >= 2f64.powi(31), "fixture ratio {ratio}");
        let err = layer.clone().with_output(next).unwrap_err();
        assert!(
            matches!(err, PipelineError::Quant(QuantError::InvalidScale(_))),
            "{err}"
        );
        // A reachable format attaches, and its codes are the reference's.
        let inter = calib(&gauss(1e12).sample_matrix(8, 8, &mut rng), true);
        let chained = layer.with_output(inter).expect("reachable");
        let codes = chained.input_config().quantizer.quantize_matrix(&x);
        let (acc, _) = chained.forward(&codes);
        let (out, _) = chained.forward_codes(&codes);
        let rq = Requantizer::new(chained.accumulator_scale(), inter.quantizer).expect("same");
        for (&o, &a) in out.iter().zip(acc.iter()) {
            assert!((o - rq.requantize_ref(a)).abs() <= 1);
        }
    }

    #[test]
    fn forward_batch_of_nothing_is_empty() {
        let (w, x, bias) = setup(68);
        let layer = QuantizedLinear::prepare(&w, &bias, 7, calib(&x, true)).expect("prepare");
        let (outs, wl) = run_coalesced(&[], |x, _| layer.forward(x));
        assert!(outs.is_empty());
        assert_eq!(wl, Workload::default());
    }

    #[test]
    fn run_coalesced_calls_f_once_with_the_widths_in_order() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as i32);
        let b = Matrix::from_fn(3, 1, |r, _| 100 + r as i32);
        let c = Matrix::from_fn(3, 4, |r, c| -((r * 10 + c) as i32));
        let mut calls = 0;
        let (parts, wl) = run_coalesced(&[&a, &b, &c], |x, widths| {
            calls += 1;
            assert_eq!(widths, &[2, 1, 4]);
            assert_eq!(x.shape(), (3, 7));
            let wl = Workload {
                mul: x.cols() as u64,
                ..Workload::default()
            };
            (x.map(|&v| v + 1), wl)
        });
        assert_eq!(calls, 1);
        assert_eq!(wl.mul, 7);
        for (part, req) in parts.iter().zip([&a, &b, &c]) {
            assert_eq!(part, &req.map(|&v| v + 1));
        }

        let h = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.5);
        let g = Matrix::from_fn(2, 2, |r, c| (r * c) as f32 - 1.0);
        let mut seen = Vec::new();
        let (halves, count) = run_coalesced(&[&g, &h], |x, widths| {
            seen.push(widths.to_vec());
            (x.map(|&v| v * 2.0), widths.len())
        });
        assert_eq!(seen, [vec![2, 3]]);
        assert_eq!(count, 2);
        assert_eq!(halves, [g.map(|&v| v * 2.0), h.map(|&v| v * 2.0)]);
    }

    #[test]
    fn run_coalesced_of_nothing_returns_the_default_without_calling_f() {
        let (parts, wl): (Vec<Matrix<i32>>, Workload) = run_coalesced(&[], |_: &Matrix<i32>, _| {
            unreachable!("f ran on an empty batch")
        });
        assert!(parts.is_empty());
        assert_eq!(wl, Workload::default());
        let (parts, stat): (Vec<Matrix<f32>>, usize) = run_coalesced(&[], |_: &Matrix<f32>, _| {
            unreachable!("f ran on an empty batch")
        });
        assert!(parts.is_empty());
        assert_eq!(stat, 0);
    }

    #[test]
    fn works_with_4bit_weights() {
        let (w, x, bias) = setup(66);
        let layer = QuantizedLinear::prepare(&w, &bias, 4, calib(&x, true)).expect("prepare");
        let (out, wl) = layer.forward_f32(&x);
        assert_eq!(out.shape(), (16, 16));
        assert!(wl.mul > 0);
    }
}
