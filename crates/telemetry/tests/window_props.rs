//! Property tests for a metric cell's sliding windows: rotation
//! boundaries, record-during-rotate determinism and empty-window
//! quantiles, driven through the deterministic explicit-elapsed hook
//! so no property depends on the wall clock — plus the coherence of
//! one capture: a summary row's window never exceeds its total while
//! a writer records.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use panacea_telemetry::{DimCell, Histogram, MetricRegistry, STAGE_REQUEST, WINDOW_SPAN};
use proptest::collection::vec;
use proptest::prelude::*;

const SEC: Duration = Duration::from_secs(1);

fn cell() -> Arc<DimCell> {
    MetricRegistry::default().cell("m", "infer", STAGE_REQUEST)
}

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A window of `w` seconds read in the last replayed second (one
    /// epoch is one second) sees exactly the samples of the last `w`
    /// epochs — rotation boundaries neither leak old samples in nor
    /// drop in-window ones. Each epoch is observed (rotated) before it
    /// records, as a production metrics poller keeps boundaries at
    /// epoch granularity.
    #[test]
    fn window_matches_exact_epoch_slice(
        per_epoch in vec(vec(0u64..1_000_000, 0..40), 1..12),
        w in 1u64..12,
    ) {
        let c = cell();
        for (e, samples) in per_epoch.iter().enumerate() {
            c.window_at(SEC, secs(e as u64));
            for &v in samples {
                c.record_count(v);
            }
        }
        let last = per_epoch.len() as u64 - 1;
        let got = c.window_at(secs(w), secs(last) + SEC / 2).latency;
        let reference = Histogram::with_shards(1);
        for samples in per_epoch.iter().skip(per_epoch.len().saturating_sub(w as usize)) {
            for &v in samples {
                reference.record(v);
            }
        }
        let expect = reference.snapshot();
        prop_assert_eq!(got.buckets, expect.buckets);
        prop_assert_eq!(got.count, expect.count);
        prop_assert_eq!(got.sum, expect.sum);
        // The windowed max is re-estimated from bucket bounds: exact
        // when the all-time max is in-window, bracketed otherwise.
        if expect.count > 0 {
            prop_assert!(got.max >= expect.max);
            prop_assert!(got.max <= expect.max + expect.max / 32 + 1);
        } else {
            prop_assert_eq!(got.max, 0);
        }
    }

    /// A cell's windowed outcome counts agree with an exact per-epoch
    /// replay, each from the same capture as the window's histogram.
    #[test]
    fn counter_windows_match_exact_epoch_slice(
        ok in vec(0u64..50, 1..12),
        errors in vec(0u64..50, 12..13),
        w in 1u64..12,
    ) {
        let c = cell();
        for (e, &n) in ok.iter().enumerate() {
            c.window_at(SEC, secs(e as u64));
            for _ in 0..n {
                c.record_ok();
            }
            for _ in 0..errors[e] {
                c.record_error();
                c.record_shed();
            }
        }
        let last = ok.len() as u64 - 1;
        let got = c.window_at(secs(w), secs(last) + SEC / 2);
        let first = ok.len().saturating_sub(w as usize);
        let errors = errors[first..ok.len()].iter().sum::<u64>();
        prop_assert_eq!(got.ok, ok[first..].iter().sum::<u64>());
        prop_assert_eq!((got.error, got.shed), (errors, errors));
        prop_assert_eq!(got.latency.count, 0);
        prop_assert_eq!(c.total().ok, ok.iter().sum::<u64>());
    }

    /// Concurrent recording racing window rotations never loses or
    /// duplicates a sample: once writers are joined, the cumulative
    /// view equals sequential recording.
    #[test]
    fn record_during_rotate_is_deterministic(
        samples in vec(0u64..10_000_000, 8..200),
        threads in 2usize..5,
    ) {
        let c = cell();
        let chunks: Vec<Vec<u64>> = samples
            .chunks(samples.len().div_ceil(threads))
            .map(<[u64]>::to_vec)
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(t, chunk)| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for (i, v) in chunk.into_iter().enumerate() {
                        c.record_count(v);
                        c.record_shed();
                        if i % 7 == 0 {
                            // Rotate mid-stream from racing threads.
                            c.window_at(SEC, secs((t * 13 + i) as u64));
                        }
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().unwrap();
        }
        let sequential = Histogram::with_shards(1);
        for &v in &samples {
            sequential.record(v);
        }
        // No sample was lost to rotation: the cumulative view is
        // bit-identical to sequential recording.
        let total = c.total();
        prop_assert_eq!(total.latency.buckets, sequential.snapshot().buckets);
        prop_assert_eq!(total.latency.count, samples.len() as u64);
        prop_assert_eq!(total.shed, samples.len() as u64);
    }

    /// Seconds with no samples serve all-zero windows whose quantiles
    /// are 0 — never stale data, never a panic.
    #[test]
    fn empty_windows_have_zero_quantiles(
        samples in vec(0u64..1_000_000, 1..50),
        idle_seconds in 1u64..100,
        w in 1u64..12,
    ) {
        let c = cell();
        for &v in &samples {
            c.record_count(v);
            c.record_ok();
        }
        // Observe now, then jump far past the ring: every in-window
        // second is idle.
        c.window_at(SEC, Duration::ZERO);
        let win = c.window_at(secs(w), WINDOW_SPAN + secs(idle_seconds));
        prop_assert!(win.latency.is_empty());
        prop_assert_eq!(win.latency.max, 0);
        prop_assert_eq!(win.outcomes(), 0);
        for q in [0.01, 0.5, 0.99, 1.0] {
            prop_assert_eq!(win.latency.quantile(q), 0);
        }
        // The cumulative view is untouched by idleness.
        prop_assert_eq!(c.total().latency.count, samples.len() as u64);
        prop_assert_eq!(c.total().ok, samples.len() as u64);
    }
}

/// A summary row's total and window come from one capture, so while
/// one thread records, no row ever reports more samples in its window
/// than since boot.
#[test]
fn summaries_never_show_a_window_wider_than_its_total() {
    const READS: usize = 2_000;
    let registry = MetricRegistry::default();
    let writer_cell = registry.cell("m", "infer", STAGE_REQUEST);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                writer_cell.record_latency(Duration::from_micros(100));
                writer_cell.record_ok();
            }
        })
    };
    let mut incoherent = 0;
    for _ in 0..READS {
        for row in registry.summaries(Duration::from_secs(10)) {
            if row.win_count > row.count {
                incoherent += 1;
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    assert_eq!(
        incoherent, 0,
        "{incoherent} of {READS} rows had win_count > count"
    );
}
