//! Regression tests for clean runtime shutdown.
//!
//! The runtime's contract: once `submit` returns `Ok`, the request is
//! answered even if shutdown begins immediately afterwards; shutdown
//! joins every worker (no detached threads); and post-shutdown submits
//! are refused rather than silently dropped.

use std::sync::Arc;
use std::time::Duration;

use panacea_serve::{
    testutil, BatchPolicy, ModelRegistry, RequestCtx, Runtime, RuntimeConfig, ServeError,
};
use panacea_tensor::Matrix;

fn registry() -> Arc<ModelRegistry> {
    testutil::registry(&["m"], 21)
}

fn codes(salt: usize) -> Matrix<i32> {
    Matrix::from_fn(16, 2, |r, c| ((r * 31 + c * 7 + salt * 13) % 200) as i32)
}

#[test]
fn shutdown_while_queued_drains_every_request() {
    let registry = registry();
    // One worker lingering a long time: requests pile up queued, so
    // shutdown races against a deliberately sleepy batcher.
    let mut runtime = Runtime::start(
        Arc::clone(&registry),
        RuntimeConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_secs(5),
            },
        },
    );
    let model = registry.get("m").expect("registered");
    let expected: Vec<Matrix<i32>> = (0..12).map(|i| model.forward_codes(&codes(i)).0).collect();
    let pending: Vec<_> = (0..12)
        .map(|i| {
            runtime
                .submit(Arc::clone(&model), codes(i), RequestCtx::default())
                .expect("accepted")
        })
        .collect();

    // Shut down immediately: the linger must be cut short, the queue
    // drained, and every accepted request answered bit-exactly.
    runtime.shutdown();
    for (p, expect) in pending.into_iter().zip(expected) {
        let out = p
            .wait()
            .expect("accepted request answered despite shutdown");
        assert_eq!(out.payload, expect.clone().into());
    }
    assert_eq!(runtime.metrics().requests, 12);
}

#[test]
fn drop_joins_workers_and_answers_queued_requests() {
    let registry = registry();
    let model = registry.get("m").expect("registered");
    let expected = model.forward_codes(&codes(3)).0;
    let pending;
    {
        let runtime = Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers: 3,
                policy: BatchPolicy {
                    max_batch: 8,
                    max_wait: Duration::from_secs(5),
                },
            },
        );
        pending = runtime
            .submit(model, codes(3), RequestCtx::default())
            .expect("accepted");
        // `runtime` dropped here: Drop must join all three workers, which
        // requires them to notice shutdown and drain the queue first.
    }
    let out = pending.wait().expect("drop drained the queue");
    assert_eq!(out.payload, expected.into());
}

#[test]
fn submits_after_shutdown_are_refused_not_lost() {
    let registry = registry();
    let model = registry.get("m").expect("registered");
    let mut runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
    runtime.shutdown();
    match runtime.submit(model, codes(0), RequestCtx::default()) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    // And metrics survive shutdown for post-mortem reporting.
    assert_eq!(runtime.metrics().requests, 0);
}

#[test]
fn shutdown_with_empty_queue_terminates_promptly() {
    let registry = registry();
    let mut runtime = Runtime::start(
        registry,
        RuntimeConfig {
            workers: 4,
            policy: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_secs(60),
            },
        },
    );
    // Workers are parked in the idle wait; shutdown must wake and join
    // them without any request ever arriving. (A hang here fails the
    // test by timeout.)
    runtime.shutdown();
}
