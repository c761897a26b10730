//! Invariants of a shard's counter block (`serve::metrics`): the ratios
//! its `ShardStats` snapshot carries never divide by zero (empty block,
//! fresh shard), and snapshots taken while requests and decode steps are
//! in flight are monotone — counters only grow.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use panacea_serve::testutil::{block_model, codes, hidden, registry};
use panacea_serve::{
    BatchPolicy, Metrics, QueueDepth, RequestCtx, Runtime, RuntimeConfig, SessionConfig,
    SessionManager, ShardCounters, ShardStats,
};

fn assert_safe_ratios(s: &ShardStats) {
    for (name, ratio) in [
        ("padding_overhead", s.padding_overhead),
        ("columns_per_second", s.columns_per_second),
        ("decode_batch_occupancy", s.decode_batch_occupancy),
    ] {
        assert!(ratio.is_finite(), "{name} is {ratio}");
    }
}

#[test]
fn zero_batches_yield_zero_ratios_not_nan() {
    let s = ShardCounters::default().snapshot(QueueDepth::default());
    assert_eq!(s.padding_overhead, 0.0);
    assert_eq!(s.columns_per_second, 0.0);
    assert_eq!(s.decode_batch_occupancy, 0.0);
    assert_safe_ratios(&s);
}

#[test]
fn fresh_runtime_reports_safe_metrics() {
    let metrics = Metrics::default();
    let runtime = Runtime::start_with_metrics(
        registry(&["m"], 1),
        RuntimeConfig::default(),
        metrics.clone(),
    );
    let sessions = SessionManager::with_metrics(SessionConfig::default(), metrics);
    for s in [runtime.metrics(), sessions.stats()] {
        assert_eq!(s, ShardStats::default());
        assert_safe_ratios(&s);
    }
}

/// Every counter of `next` dominates `prev`'s. The gauges
/// (`queued_cols`, `in_flight_cols`, `open_sessions`, `kv_bytes`) and the
/// ratios move both ways.
fn assert_monotone(prev: &ShardStats, next: &ShardStats) {
    let counters = |s: &ShardStats| {
        [
            ("requests", s.requests),
            ("batches", s.batches),
            ("columns", s.columns),
            ("padded_cols", s.padded_cols),
            ("cancelled", s.cancelled),
            ("decode_steps", s.decode_steps),
            ("decode_tokens", s.decode_tokens),
            ("decode_batches", s.decode_batches),
            ("decode_padded_cols", s.decode_padded_cols),
            ("worker_panics", s.worker_panics),
            ("evicted_poisoned", s.evicted_poisoned),
            ("expired", s.expired),
        ]
    };
    for ((name, before), (_, after)) in counters(prev).into_iter().zip(counters(next)) {
        assert!(
            after >= before,
            "{name} went backwards: {before} -> {after}"
        );
    }
}

/// One shard — a runtime and a session manager over one counter block —
/// under concurrent submits *and* concurrent decode steps, read by a
/// poller through both views.
#[test]
fn snapshots_are_monotone_under_concurrent_submits() {
    let registry = registry(&["m"], 2);
    let metrics = Metrics::default();
    let runtime = Arc::new(Runtime::start_with_metrics(
        Arc::clone(&registry),
        RuntimeConfig {
            workers: 3,
            policy: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_micros(200),
            },
        },
        metrics.clone(),
    ));
    let sessions = Arc::new(SessionManager::with_metrics(
        SessionConfig {
            max_decode_batch: 4,
            ..SessionConfig::default()
        },
        metrics,
    ));
    let model = registry.get("m").expect("registered");
    let block = Arc::new(block_model("blk", 3).0);

    const SUBMITTERS: usize = 4;
    const STEPPERS: usize = 3;
    const PER_THREAD: usize = 24;
    let mut threads = Vec::new();
    for t in 0..SUBMITTERS {
        let runtime = Arc::clone(&runtime);
        let model = Arc::clone(&model);
        threads.push(thread::spawn(move || {
            for i in 0..PER_THREAD {
                let x = codes(&model, 1 + (t + i) % 3, t * 100 + i);
                runtime
                    .submit(Arc::clone(&model), x, RequestCtx::default())
                    .expect("queued")
                    .wait()
                    .expect("served");
            }
        }));
    }
    for t in 0..STEPPERS {
        let sessions = Arc::clone(&sessions);
        let block = Arc::clone(&block);
        threads.push(thread::spawn(move || {
            let id = sessions.open(block).expect("opened");
            for i in 0..PER_THREAD {
                sessions
                    .step(id, &hidden(16, 1, t * 100 + i))
                    .expect("stepped");
            }
            sessions.close(id).expect("closed");
        }));
    }

    // Reader thread: every observation must dominate the previous one,
    // whichever view it comes through.
    let reader = {
        let runtime = Arc::clone(&runtime);
        let sessions = Arc::clone(&sessions);
        thread::spawn(move || {
            let mut prev = runtime.metrics();
            for i in 0..400 {
                let next = match i % 2 {
                    0 => sessions.stats(),
                    _ => runtime.metrics(),
                };
                assert_monotone(&prev, &next);
                assert_safe_ratios(&next);
                prev = next;
                thread::yield_now();
            }
        })
    };

    for th in threads {
        th.join().expect("submitter or stepper");
    }
    reader.join().expect("reader");

    let s = sessions.stats();
    assert_eq!(s.requests, (SUBMITTERS * PER_THREAD) as u64);
    assert_eq!(s.decode_steps, (STEPPERS * PER_THREAD) as u64);
    assert_eq!(s.decode_tokens, (STEPPERS * PER_THREAD) as u64);
    assert!(s.batches >= 1 && s.decode_batches >= 1);
    assert_eq!((s.open_sessions, s.kv_bytes), (0, 0));
    assert_safe_ratios(&s);
    assert!(s.padding_overhead >= 0.0 && s.padding_overhead < 1.0);
    assert!(s.decode_batch_occupancy >= 1.0);
}
