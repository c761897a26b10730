//! Multi-batch PTQ calibration for activations (paper Fig. 6, left half).
//!
//! The calibrator is fed activation batches (what the paper calls the
//! "calibration dataset", typically a small subset of the training set),
//! accumulates streaming min/max plus a value reservoir, and on
//! [`finalize`](ActivationCalibrator::finalize) produces a
//! [`LayerQuantConfig`]: the asymmetric quantizer (optionally zero-point
//! manipulated), the DBS type, the frequent HO slice `r`, and the achieved
//! skip-range coverage.

use panacea_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::dbs::{DbsConfig, DbsType};
use crate::quantizer::{AsymmetricQuantizer, Quantizer};
use crate::zpm;

/// Default cap on retained calibration samples; beyond it the reservoir
/// thins itself by striding, keeping calibration O(1) in memory.
const DEFAULT_RESERVOIR_CAP: usize = 1 << 18;

/// Streaming activation calibrator.
///
/// # Examples
///
/// ```
/// use panacea_quant::{ActivationCalibrator, Quantizer};
/// use panacea_tensor::dist::DistributionKind;
///
/// let mut rng = panacea_tensor::seeded_rng(5);
/// let mut cal = ActivationCalibrator::new(8).with_zpm(true);
/// for _ in 0..4 {
///     // Near-zero activation core with rare outliers pinning the range.
///     let batch = DistributionKind::Gaussian { mean: 0.0, std: 0.02 }
///         .sample_matrix(32, 32, &mut rng);
///     cal.observe(&batch);
/// }
/// cal.observe_slice(&[-1.5, 2.0]);
/// let cfg = cal.finalize();
/// assert!(cfg.coverage > 0.5);
/// assert_eq!(cfg.quantizer.params().bits, 8);
/// ```
#[derive(Debug, Clone)]
pub struct ActivationCalibrator {
    bits: u8,
    use_zpm: bool,
    dbs: Option<DbsConfig>,
    lo: f32,
    hi: f32,
    samples: Vec<f32>,
    cap: usize,
    stride: usize,
    phase: usize,
}

impl ActivationCalibrator {
    /// Creates a calibrator for `bits`-wide asymmetric activations with
    /// ZPM and DBS disabled (enable via [`with_zpm`](Self::with_zpm) /
    /// [`with_dbs`](Self::with_dbs)).
    ///
    /// # Panics
    ///
    /// Panics if `bits ∉ 2..=16`.
    pub fn new(bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit-width {bits}");
        ActivationCalibrator {
            bits,
            use_zpm: false,
            dbs: None,
            lo: f32::INFINITY,
            hi: f32::NEG_INFINITY,
            samples: Vec::new(),
            cap: DEFAULT_RESERVOIR_CAP,
            stride: 1,
            phase: 0,
        }
    }

    /// Enables or disables zero-point manipulation.
    pub fn with_zpm(mut self, on: bool) -> Self {
        self.use_zpm = on;
        self
    }

    /// Enables distribution-based slicing with the given configuration.
    pub fn with_dbs(mut self, cfg: DbsConfig) -> Self {
        self.dbs = Some(cfg);
        self
    }

    /// Feeds one activation batch into the calibrator.
    pub fn observe(&mut self, batch: &Matrix<f32>) {
        self.observe_slice(batch.as_slice());
    }

    /// Feeds a flat slice of activation values.
    pub fn observe_slice(&mut self, values: &[f32]) {
        for &v in values {
            self.lo = self.lo.min(v);
            self.hi = self.hi.max(v);
            // Strided reservoir: keep every `stride`-th sample; double the
            // stride (and thin retained samples) whenever the cap is hit.
            if self.phase == 0 {
                if self.samples.len() >= self.cap {
                    let mut keep = Vec::with_capacity(self.cap / 2 + 1);
                    keep.extend(self.samples.iter().copied().step_by(2));
                    self.samples = keep;
                    self.stride *= 2;
                }
                self.samples.push(v);
            }
            self.phase = (self.phase + 1) % self.stride;
        }
    }

    /// Builds the candidate configuration for one DBS type (applying
    /// type-based ZPM when enabled) and measures its coverage.
    fn candidate(&self, base: &AsymmetricQuantizer, dbs_type: DbsType) -> LayerQuantConfig {
        // `r` is the top 4-bit slice of the code: type-1's LO part grows
        // by the bits above 8 (8 LO bits at 12, 12 at 16). DBS types 2/3
        // exist only at 8 bits.
        let lo_bits = match dbs_type {
            DbsType::Type1 => self.bits.max(8) - 4,
            ty => ty.lo_bits(),
        };
        let measure = |quantizer: AsymmetricQuantizer, frequent: u8, skip_lo: i32, skip_hi: i32| {
            let total = self.samples.len().max(1);
            let inside = self
                .samples
                .iter()
                .filter(|&&v| {
                    let q = quantizer.quantize(v);
                    (skip_lo..=skip_hi).contains(&q)
                })
                .count();
            LayerQuantConfig {
                quantizer,
                dbs_type,
                frequent_ho_slice: frequent,
                skip_lo,
                skip_hi,
                coverage: inside as f64 / total as f64,
            }
        };
        let zp = base.params().zero_point;
        let r = zpm::frequent_slice_without_zpm(zp, lo_bits);
        let lo = i32::from(r) << lo_bits;
        let plain = measure(*base, r, lo, lo + (1 << lo_bits) - 1);
        if !self.use_zpm {
            return plain;
        }
        // Sparsity-aware ZPM: adopt the manipulated zero-point only when it
        // actually raises the skip-range coverage (its sole purpose).
        let (q, z) = zpm::apply_zpm(base, lo_bits);
        let manipulated = measure(q, z.frequent_ho_slice, z.skip_lo, z.skip_hi);
        if manipulated.coverage >= plain.coverage {
            manipulated
        } else {
            plain
        }
    }

    /// Finishes calibration and produces the layer configuration.
    ///
    /// The pipeline matches Fig. 6: base min/max calibration → distribution
    /// monitoring → DBS type selection → type-based ZPM. The type chosen is
    /// the *narrowest* LO slice whose (manipulated) skip range reaches the
    /// DBS target coverage — the robust formulation of the paper's
    /// `std × z` comparison (raw histogram std is inflated by outlier
    /// channels, while the skip range only needs to cover the bulk).
    pub fn finalize(&self) -> LayerQuantConfig {
        let base = AsymmetricQuantizer::calibrate(&self.samples, self.bits);
        match &self.dbs {
            Some(cfg) => {
                let mut best = self.candidate(&base, DbsType::Type1);
                for ty in [DbsType::Type2, DbsType::Type3] {
                    if best.coverage >= cfg.target_coverage {
                        break;
                    }
                    let cand = self.candidate(&base, ty);
                    if cand.coverage > best.coverage {
                        best = cand;
                    }
                }
                best
            }
            None => self.candidate(&base, DbsType::Type1),
        }
    }
}

/// Finalized per-layer activation quantization configuration, consumed by
/// the bit-slicing and AQS-GEMM layers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerQuantConfig {
    /// The (possibly zero-point-manipulated) asymmetric quantizer.
    pub quantizer: AsymmetricQuantizer,
    /// DBS distribution type chosen during calibration.
    pub dbs_type: DbsType,
    /// Frequent HO slice value `r` that AQS-GEMM compresses.
    pub frequent_ho_slice: u8,
    /// Inclusive start of the skip range in the quantized domain.
    pub skip_lo: i32,
    /// Inclusive end of the skip range.
    pub skip_hi: i32,
    /// Fraction of calibration values falling inside the skip range
    /// (slice-level sparsity before vector grouping).
    pub coverage: f64,
}

impl LayerQuantConfig {
    /// The largest code representable in this activation format
    /// (`2^bits − 1`).
    pub fn max_code(&self) -> i32 {
        (1i32 << self.quantizer.params().bits) - 1
    }

    /// Whether every entry of `codes` fits the calibrated unsigned format.
    ///
    /// The serving runtime uses this to reject malformed requests before
    /// they reach a worker, where an out-of-range code would panic the
    /// slicer mid-batch.
    pub fn codes_in_range(&self, codes: &Matrix<i32>) -> bool {
        let max = self.max_code();
        codes.iter().all(|&v| (0..=max).contains(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_tensor::dist::DistributionKind;

    /// Realistic narrow activation: a tight near-zero core (the mode) with
    /// rare large outliers pinning the quantization range — the regime of
    /// the paper's Fig. 8 where ZPM pays off.
    fn narrow_batches(cal: &mut ActivationCalibrator, seed: u64) {
        let mut rng = panacea_tensor::seeded_rng(seed);
        for _ in 0..4 {
            let b = DistributionKind::Gaussian {
                mean: 0.0,
                std: 0.02,
            }
            .sample_matrix(64, 64, &mut rng);
            cal.observe(&b);
        }
        cal.observe_slice(&[-2.0, 2.1]);
    }

    #[test]
    fn zpm_improves_coverage_on_narrow_distributions() {
        let mut base = ActivationCalibrator::new(8);
        narrow_batches(&mut base, 42);
        let mut zpm = ActivationCalibrator::new(8).with_zpm(true);
        narrow_batches(&mut zpm, 42);
        let c0 = base.finalize();
        let c1 = zpm.finalize();
        assert!(
            c1.coverage >= c0.coverage,
            "ZPM lowered coverage: {} -> {}",
            c0.coverage,
            c1.coverage
        );
        assert!(
            c1.coverage > 0.9,
            "narrow distribution should be highly coverable"
        );
    }

    #[test]
    fn dbs_widens_slices_for_wide_distributions() {
        let mut rng = panacea_tensor::seeded_rng(8);
        let mut cal = ActivationCalibrator::new(8)
            .with_zpm(true)
            .with_dbs(DbsConfig::default());
        for _ in 0..4 {
            // Full-range uniform: quantized std ≈ 74 ⇒ type-3.
            let b = DistributionKind::Uniform { lo: -4.0, hi: 4.0 }.sample_matrix(64, 64, &mut rng);
            cal.observe(&b);
        }
        let cfg = cal.finalize();
        assert_eq!(cfg.dbs_type, DbsType::Type3);
        assert_eq!(cfg.skip_hi - cfg.skip_lo + 1, 64);
    }

    #[test]
    fn dbs_keeps_narrow_distributions_type1() {
        let mut cal = ActivationCalibrator::new(8)
            .with_zpm(true)
            .with_dbs(DbsConfig::default());
        narrow_batches(&mut cal, 7);
        let cfg = cal.finalize();
        assert_eq!(cfg.dbs_type, DbsType::Type1);
    }

    #[test]
    fn frequent_slice_matches_zero_point_ho() {
        for bits in [8, 12, 16] {
            let mut cal = ActivationCalibrator::new(bits);
            narrow_batches(&mut cal, 9);
            let cfg = cal.finalize();
            let zp = cfg.quantizer.params().zero_point;
            assert_eq!(
                cfg.frequent_ho_slice,
                (zp >> (bits - 4)) as u8,
                "{bits}-bit"
            );
            assert_eq!(cfg.skip_hi - cfg.skip_lo + 1, 1 << (bits - 4), "{bits}-bit");
        }
    }

    #[test]
    fn reservoir_thins_but_keeps_statistics() {
        let mut rng = panacea_tensor::seeded_rng(10);
        let mut cal = ActivationCalibrator {
            cap: 256,
            ..ActivationCalibrator::new(8)
        };
        for _ in 0..8 {
            let b = DistributionKind::Gaussian {
                mean: 1.0,
                std: 0.2,
            }
            .sample_matrix(64, 64, &mut rng);
            cal.observe(&b);
        }
        assert!(
            cal.samples.len() <= 257,
            "reservoir exceeded cap: {}",
            cal.samples.len()
        );
        let cfg = cal.finalize();
        // zp should map ~1.0-mean data near mid-range despite thinning.
        let zp = cfg.quantizer.params().zero_point;
        assert!(zp < 128, "zp={zp} unexpected for positive-mean data");
    }

    #[test]
    fn empty_calibration_degenerates_gracefully() {
        let cal = ActivationCalibrator::new(8);
        let cfg = cal.finalize();
        assert_eq!(cfg.quantizer.params().zero_point, 0);
        assert_eq!(cfg.coverage, 0.0);
    }

    #[test]
    fn coverage_counts_final_zero_point_range() {
        // Mass concentrated at zero (the activation mode): nearly all
        // values must land in the skip range around the zero-point.
        let mut cal = ActivationCalibrator::new(8).with_zpm(true);
        let mut vals = vec![0.0f32; 510];
        vals.push(-0.5);
        vals.push(0.5);
        cal.observe_slice(&vals);
        let cfg = cal.finalize();
        assert!(cfg.coverage > 0.99, "coverage {}", cfg.coverage);
        let zp = cfg.quantizer.params().zero_point;
        assert!((cfg.skip_lo..=cfg.skip_hi).contains(&zp));
    }
}
