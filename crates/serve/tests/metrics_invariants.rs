//! Invariants of `serve::metrics`: the derived ratios never divide by
//! zero (empty runtime, zero elapsed compute) and snapshots taken while
//! requests are in flight are monotone — counters only grow.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use panacea_serve::{
    BatchPolicy, LayerSpec, MetricsSnapshot, ModelRegistry, PrepareOptions, PreparedModel,
    RequestCtx, Runtime, RuntimeConfig,
};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;

fn registry_with_model(seed: u64) -> Arc<ModelRegistry> {
    let mut rng = panacea_tensor::seeded_rng(seed);
    let w = DistributionKind::Gaussian {
        mean: 0.0,
        std: 0.05,
    }
    .sample_matrix(8, 16, &mut rng);
    let calib = DistributionKind::Gaussian {
        mean: 0.2,
        std: 0.5,
    }
    .sample_matrix(16, 16, &mut rng);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(
        PreparedModel::prepare(
            "m",
            &[LayerSpec::unbiased(w)],
            &calib,
            PrepareOptions::default(),
        )
        .expect("prepare"),
    );
    registry
}

#[test]
fn zero_batches_yield_zero_ratios_not_nan() {
    let s = MetricsSnapshot::default();
    assert_eq!(s.mean_batch_cols(), 0.0);
    assert_eq!(s.columns_per_second(), 0.0);
    assert_eq!(s.padding_overhead(), 0.0);
    assert!(s.mean_batch_cols().is_finite());
    assert!(s.columns_per_second().is_finite());
    assert!(s.padding_overhead().is_finite());
}

#[test]
fn zero_elapsed_time_with_served_columns_is_finite() {
    // A batch can complete faster than the clock's resolution; the
    // throughput ratio must degrade to 0, not to infinity or NaN.
    let s = MetricsSnapshot {
        requests: 4,
        batches: 2,
        columns: 16,
        compute_time: Duration::ZERO,
        ..MetricsSnapshot::default()
    };
    assert_eq!(s.columns_per_second(), 0.0);
    assert!((s.mean_batch_cols() - 8.0).abs() < 1e-12);
    assert!(s.padding_overhead().is_finite());
}

#[test]
fn fresh_runtime_reports_safe_metrics() {
    let registry = registry_with_model(1);
    let runtime = Runtime::start(registry, RuntimeConfig::default());
    let s = runtime.metrics();
    assert_eq!(s.requests, 0);
    assert_eq!(s.mean_batch_cols(), 0.0);
    assert_eq!(s.columns_per_second(), 0.0);
    assert_eq!(s.padding_overhead(), 0.0);
}

fn assert_monotone(prev: &MetricsSnapshot, next: &MetricsSnapshot) {
    assert!(next.requests >= prev.requests, "requests went backwards");
    assert!(next.batches >= prev.batches, "batches went backwards");
    assert!(next.columns >= prev.columns, "columns went backwards");
    assert!(
        next.padded_cols >= prev.padded_cols,
        "padded_cols went backwards"
    );
    assert!(
        next.compute_time >= prev.compute_time,
        "compute_time went backwards"
    );
    assert!(next.cancelled >= prev.cancelled, "cancelled went backwards");
    assert!(next.expired >= prev.expired, "expired went backwards");
    assert!(
        next.worker_panics >= prev.worker_panics,
        "worker_panics went backwards"
    );
}

#[test]
fn snapshots_are_monotone_under_concurrent_submits() {
    let registry = registry_with_model(2);
    let runtime = Arc::new(Runtime::start(
        Arc::clone(&registry),
        RuntimeConfig {
            workers: 3,
            policy: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_micros(200),
            },
        },
    ));
    let model = registry.get("m").expect("registered");

    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 24;
    let mut threads = Vec::new();
    for t in 0..SUBMITTERS {
        let runtime = Arc::clone(&runtime);
        let model = Arc::clone(&model);
        threads.push(thread::spawn(move || {
            for i in 0..PER_THREAD {
                let cols = 1 + (t + i) % 3;
                let codes = Matrix::from_fn(model.in_features(), cols, |r, c| {
                    ((r * 31 + c * 7 + t * 13 + i) % 200) as i32
                });
                runtime
                    .submit(Arc::clone(&model), codes, RequestCtx::default())
                    .expect("queued")
                    .wait()
                    .expect("served");
            }
        }));
    }

    // Reader thread: every observation must dominate the previous one.
    let reader = {
        let runtime = Arc::clone(&runtime);
        thread::spawn(move || {
            let mut prev = runtime.metrics();
            for _ in 0..200 {
                let next = runtime.metrics();
                assert_monotone(&prev, &next);
                prev = next;
                thread::yield_now();
            }
        })
    };

    for th in threads {
        th.join().expect("submitter");
    }
    reader.join().expect("reader");

    let s = runtime.metrics();
    assert_eq!(s.requests, (SUBMITTERS * PER_THREAD) as u64);
    assert!(s.batches >= 1);
    assert!(s.mean_batch_cols().is_finite());
    assert!(s.columns_per_second().is_finite());
    assert!(s.padding_overhead() >= 0.0 && s.padding_overhead() < 1.0);
}
