//! Order statistics with a minimum-sample rule: a percentile is only
//! reported when at least [`MIN_TAIL_SAMPLES`] samples lie on its far
//! side.

/// Samples that must lie beyond a percentile before it is reported
/// (so p90 needs 100 samples, p99 needs 1000, p25 needs 40).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); NaN for
/// no samples, so a missing measurement can never pass as a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// benchmark driver applies to repeated runs. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the benchmark bounds are compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// Whether percentile `p` of `n` samples has [`MIN_TAIL_SAMPLES`]
/// samples on its far side — beyond it for an upper percentile, below
/// it for a lower one.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    let tail_samples = n as f64 * (100.0 - p).min(p) / 100.0;
    tail_samples + 1e-9 >= MIN_TAIL_SAMPLES as f64
}

/// The highest whole percentile of `n` samples that is still supported;
/// `None` when even the median is not.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| percentile_supported(n, f64::from(p)))
}

/// Caller-observed latency of one phase. The gated figure is the lower
/// quartile: in the sandbox, seconds-long bursts of outside interference
/// slow ops by up to 1.7×, so the median and the tail measure the
/// neighbours, while the lower quartile stays with the program as long
/// as a quarter of the ops run undisturbed.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    pub samples: usize,
    /// `None` below 40 samples: the run is invalid.
    pub p25_ms: Option<f64>,
    pub p50_ms: f64,
    /// `None` below 100 samples.
    pub p90_ms: Option<f64>,
    /// The highest supported percentile and its value.
    pub tail: Option<(u32, f64)>,
}

impl LatencySummary {
    pub fn of(latencies_ms: &[f64]) -> Self {
        let mut v = latencies_ms.to_vec();
        v.sort_by(f64::total_cmp);
        let supported = |p: f64| percentile_supported(v.len(), p).then(|| percentile(&v, p));
        LatencySummary {
            samples: v.len(),
            p25_ms: supported(25.0),
            p50_ms: median(&v),
            p90_ms: supported(90.0),
            tail: highest_supported_percentile(v.len()).map(|p| (p, percentile(&v, f64::from(p)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_on_known_distributions() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(99), Some(89));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99));
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples_and_p25_below_forty() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        let s = LatencySummary::of(&few);
        assert_eq!((s.samples, s.p25_ms, s.p90_ms), (99, Some(25.0), None));
        let enough: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = LatencySummary::of(&enough);
        assert_eq!((s.samples, s.p50_ms, s.p90_ms), (100, 50.5, Some(90.0)));
        assert_eq!(s.tail, Some((90, 90.0)));
        let tiny: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(LatencySummary::of(&tiny).p25_ms, None);
        assert!(percentile_supported(40, 25.0) && !percentile_supported(39, 75.0));
    }
}
