//! Summary statistics and error metrics.
//!
//! Used by the PTQ calibration (mean/std/histogram → DBS typing), the
//! sparsity analyses (fraction-in-range), and the quality-proxy evaluation
//! (MSE / SQNR between float reference and dequantized outputs).

use serde::{Deserialize, Serialize};

/// Arithmetic mean; `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(panacea_tensor::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(panacea_tensor::stats::mean(&[]), 0.0);
/// ```
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|&v| f64::from(v)).sum::<f64>() / xs.len() as f64) as f32
}

/// Population standard deviation; `0.0` for slices shorter than 2.
///
/// # Examples
///
/// ```
/// let s = panacea_tensor::stats::std_dev(&[1.0, 1.0, 1.0]);
/// assert_eq!(s, 0.0);
/// ```
pub fn std_dev(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = f64::from(mean(xs));
    let var = xs.iter().map(|&v| (f64::from(v) - m).powi(2)).sum::<f64>() / xs.len() as f64;
    (var.sqrt()) as f32
}

/// Minimum and maximum of a slice.
///
/// Returns `(0.0, 0.0)` for an empty slice, which matches the quantizer
/// convention that an empty calibration tensor quantizes to all-zero.
pub fn min_max(xs: &[f32]) -> (f32, f32) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in xs {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Fixed-bin histogram over integer values, as recorded by the DBS
/// distribution-monitoring step during calibration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    lo: i32,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with one bin per integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo`.
    pub fn new(lo: i32, hi: i32) -> Self {
        assert!(hi >= lo, "histogram range [{lo}, {hi}] is empty");
        Histogram {
            lo,
            counts: vec![0; (hi - lo + 1) as usize],
        }
    }

    /// Records one observation; out-of-range values clamp to the end bins,
    /// mirroring the saturating behaviour of the quantizer.
    pub fn record(&mut self, v: i32) {
        let idx = (v - self.lo).clamp(0, self.counts.len() as i32 - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Records every value of a slice.
    pub fn record_all(&mut self, vs: &[i32]) {
        for &v in vs {
            self.record(v);
        }
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count in the single bin for integer value `v` (0 if out of range).
    pub fn count(&self, v: i32) -> u64 {
        let idx = v - self.lo;
        if idx < 0 || idx as usize >= self.counts.len() {
            return 0;
        }
        self.counts[idx as usize]
    }

    /// Fraction of observations falling in `lo..=hi` (inclusive).
    ///
    /// This is exactly the paper's "values in the slice-skip range"
    /// statistic (Fig. 8).
    pub fn fraction_in(&self, lo: i32, hi: i32) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut acc = 0u64;
        for v in lo..=hi {
            acc += self.count(v);
        }
        acc as f64 / total as f64
    }

    /// Mean of the recorded integer distribution.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo as f64 + i as f64) * c as f64)
            .sum();
        sum / total as f64
    }

    /// Standard deviation of the recorded integer distribution.
    pub fn std_dev(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let m = self.mean();
        let var: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let d = self.lo as f64 + i as f64 - m;
                d * d * c as f64
            })
            .sum::<f64>()
            / total as f64;
        var.sqrt()
    }
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse operands differ in length");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2))
        .sum::<f64>()
        / a.len() as f64
}

/// Signal-to-quantization-noise ratio in dB: `10·log10(‖a‖² / ‖a−b‖²)`.
///
/// Returns `f64::INFINITY` when the error is exactly zero, which is the
/// expected outcome for the bit-exact AQS-GEMM path.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sqnr_db(reference: &[f32], approx: &[f32]) -> f64 {
    assert_eq!(
        reference.len(),
        approx.len(),
        "sqnr operands differ in length"
    );
    let sig: f64 = reference.iter().map(|&x| f64::from(x).powi(2)).sum();
    let err: f64 = reference
        .iter()
        .zip(approx)
        .map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2))
        .sum();
    if err == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (sig / err).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_constant() {
        let xs = [5.0; 10];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(std_dev(&xs), 0.0);
    }

    #[test]
    fn std_matches_known_value() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn min_max_on_mixed_signs() {
        assert_eq!(min_max(&[-3.0, 2.0, 0.5]), (-3.0, 2.0));
        assert_eq!(min_max(&[]), (0.0, 0.0));
    }

    #[test]
    fn histogram_counts_and_fraction() {
        let mut h = Histogram::new(0, 255);
        h.record_all(&[10, 10, 20, 300, -5]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(10), 2);
        assert_eq!(h.count(255), 1); // clamped 300
        assert_eq!(h.count(0), 1); // clamped -5
        assert!((h.fraction_in(10, 20) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn histogram_moments() {
        let mut h = Histogram::new(-10, 10);
        h.record_all(&[-2, 0, 2]);
        assert!((h.mean() - 0.0).abs() < 1e-12);
        assert!((h.std_dev() - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mse_and_sqnr() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(mse(&a, &b), 0.0);
        assert_eq!(sqnr_db(&a, &b), f64::INFINITY);
        let c = [1.0, 2.0, 4.0];
        assert!((mse(&a, &c) - 1.0 / 3.0).abs() < 1e-12);
        assert!(sqnr_db(&a, &c) > 10.0);
    }
}
