//! Fault-injection integration tests for the serve runtime.
//!
//! These live in their own test binary (process) on purpose: arming a
//! `faultline` plan is process-global, and the lib unit tests execute
//! batches concurrently — an armed panic site would bleed into them.
//! Here every test arms a plan (an empty one when it needs no faults),
//! so the arm guard's serialization lock keeps tests from observing each
//! other's scripts.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use panacea_block::KvCache;
use panacea_faultline::{Fault, FaultPlan, Scenario};
use panacea_serve::testutil::{block_model, codes as codes_for, hidden, registry as registry_with};
use panacea_serve::{
    BatchPolicy, RequestCtx, Runtime, RuntimeConfig, ServeError, SessionConfig, SessionManager,
};

#[test]
fn injected_panic_answers_internal_and_worker_survives() {
    let registry = registry_with(&["m"], 1);
    let runtime = Runtime::start(
        Arc::clone(&registry),
        RuntimeConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 16,
                max_wait: Duration::from_millis(20),
            },
        },
    );
    let model = registry.get("m").expect("registered");
    // Script the first two executes: whether the two requests coalesce
    // into one batch (one panic answers both) or dispatch separately
    // (each panics on its own), every caller sees `Internal`.
    let guard = FaultPlan::compile(
        0,
        &Scenario::new()
            .fire_at("serve.worker.execute", 0, Fault::Panic)
            .fire_at("serve.worker.execute", 1, Fault::Panic),
    )
    .arm();
    let p1 = runtime
        .submit(
            Arc::clone(&model),
            codes_for(&model, 2, 0),
            RequestCtx::default(),
        )
        .expect("queued");
    let p2 = runtime
        .submit(
            Arc::clone(&model),
            codes_for(&model, 3, 1),
            RequestCtx::default(),
        )
        .expect("queued");
    for p in [p1, p2] {
        match p.wait() {
            Err(ServeError::Internal { at }) => assert_eq!(at, "worker_execute"),
            other => panic!("expected Internal, got {other:?}"),
        }
    }
    let panics = runtime.metrics().worker_panics;
    assert!((1..=2).contains(&panics), "got {panics} panics");
    // Disarm, then prove the single worker thread survived the panic:
    // the next request is served normally. (Under an empty plan, so this
    // tail cannot consume the scripted positions of whichever test arms
    // next.)
    drop(guard);
    let _quiet = FaultPlan::compile(0, &Scenario::new()).arm();
    let codes = codes_for(&model, 4, 2);
    let (expect, _) = model.forward_codes(&codes);
    let out = runtime.infer("m", codes).expect("worker survived");
    assert_eq!(out.payload, expect.into());
}

#[test]
fn past_deadline_is_rejected_at_submission() {
    // Empty plan: no faults, but holds the arm serialization lock so a
    // concurrent test's script cannot fire into this runtime.
    let guard = FaultPlan::compile(0, &Scenario::new()).arm();
    let registry = registry_with(&["m"], 2);
    let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
    let model = registry.get("m").expect("registered");
    let expired = Instant::now() - Duration::from_millis(1);
    match runtime.submit(
        Arc::clone(&model),
        codes_for(&model, 1, 0),
        RequestCtx {
            deadline: Some(expired),
            ..RequestCtx::default()
        },
    ) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(runtime.metrics().requests, 0);
    drop(guard);
}

#[test]
fn queued_work_expires_while_the_worker_is_stalled() {
    // One worker, stalled 500ms by an injected delay on its first batch;
    // a second request with a 100ms deadline queued behind it must be
    // answered `DeadlineExceeded` when the worker resurfaces — not
    // executed uselessly late.
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at(
            "serve.worker.execute",
            0,
            Fault::Delay(Duration::from_millis(500)),
        ),
    )
    .arm();
    let registry = registry_with(&["a", "b"], 3);
    let runtime = Runtime::start(
        Arc::clone(&registry),
        RuntimeConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 16,
                max_wait: Duration::from_millis(1),
            },
        },
    );
    let a = registry.get("a").expect("registered");
    let b = registry.get("b").expect("registered");
    let pa = runtime
        .submit(Arc::clone(&a), codes_for(&a, 1, 0), RequestCtx::default())
        .expect("queued");
    let pb = runtime
        .submit(
            Arc::clone(&b),
            codes_for(&b, 1, 1),
            RequestCtx {
                deadline: Some(Instant::now() + Duration::from_millis(100)),
                ..RequestCtx::default()
            },
        )
        .expect("queued");
    assert!(pa.wait().is_ok(), "stalled batch still completes");
    match pb.wait() {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let m = runtime.metrics();
    assert_eq!(m.expired, 1);
    assert_eq!(m.requests, 1, "expired request never reached the GEMM");
    drop(guard);
}

#[test]
fn mid_step_panic_evicts_the_session_and_batchmates_stay_exact() {
    // Three sessions step concurrently; a panic is scripted into the
    // first fused pass (and, if that pass carried batchmates, into the
    // first solo retry). Exactly one session — the one whose own step
    // died — is evicted as poisoned; the others are answered from solo
    // retries (or their own later passes) with bits identical to solo
    // stepping, and no KV bytes leak.
    let guard = FaultPlan::compile(
        0,
        &Scenario::new()
            .fire_at("serve.decode.fused_pass", 0, Fault::Panic)
            .fire_at("serve.decode.solo_retry", 0, Fault::Panic),
    )
    .arm();
    let (model, _) = block_model("fault-block", 70);
    let model = Arc::new(model);
    let mgr = Arc::new(SessionManager::new(SessionConfig {
        max_decode_batch: 4,
        decode_max_wait: Duration::from_millis(100),
        ..SessionConfig::default()
    }));
    let ids: Vec<u64> = (0..3)
        .map(|_| mgr.open(Arc::clone(&model)).expect("opened"))
        .collect();
    let barrier = Arc::new(Barrier::new(3));
    let handles: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let mgr = Arc::clone(&mgr);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                (id, i, mgr.step(id, &hidden(16, 2, i)))
            })
        })
        .collect();
    let mut survivors = Vec::new();
    let mut evicted = Vec::new();
    for h in handles {
        let (id, i, r) = h.join().expect("stepper joined");
        match r {
            Ok((out, tokens)) => {
                assert_eq!(tokens, 2);
                survivors.push((id, i, out));
            }
            Err(ServeError::Internal { at }) => {
                assert!(
                    at == "decode_fused_pass" || at == "decode_solo_retry",
                    "unexpected site {at}"
                );
                evicted.push(id);
            }
            other => panic!("expected Ok or Internal, got {other:?}"),
        }
    }
    assert_eq!(evicted.len(), 1, "exactly one session rode the panic");
    assert_eq!(survivors.len(), 2);
    let stats = mgr.stats();
    assert_eq!(stats.evicted_poisoned, 1);
    assert!(stats.worker_panics >= 1, "got {}", stats.worker_panics);
    assert_eq!(stats.open_sessions, 2);
    // The poisoned session is gone: stepping it again errors cleanly.
    assert!(matches!(
        mgr.step(evicted[0], &hidden(16, 1, 9)),
        Err(ServeError::UnknownSession { .. })
    ));
    drop(guard);
    // Bit-exactness oracle: replay each survivor's input through solo
    // caller-thread stepping on a fresh manager (after disarm, under an empty
    // plan for the same reason as above).
    let _quiet = FaultPlan::compile(0, &Scenario::new()).arm();
    let solo = SessionManager::new(SessionConfig {
        max_decode_batch: 0,
        ..SessionConfig::default()
    });
    for (_, i, out) in &survivors {
        let sid = solo.open(Arc::clone(&model)).expect("opened");
        let (expect, _) = solo.step(sid, &hidden(16, 2, *i)).expect("solo step");
        assert_eq!(out, &expect, "survivor diverged from solo stepping");
    }
    // KV budget settles: eviction already settled the poisoned slot;
    // closing the survivors returns the footprint to zero — no leak.
    for (id, _, _) in &survivors {
        mgr.close(*id).expect("closed");
    }
    assert_eq!(mgr.stats().kv_bytes, 0);
}

#[test]
fn caller_thread_panic_evicts_the_session_and_a_fresh_one_steps_exactly() {
    // A chunk as wide as the fused-pass budget runs the one pass body on
    // its caller's thread. A panic there is isolated exactly like one in
    // the batching worker: the caller is answered `Internal`, the session
    // is evicted as poisoned with its bytes settled, and the manager
    // keeps serving.
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at("serve.decode.fused_pass", 0, Fault::Panic),
    )
    .arm();
    let (model, blocks) = block_model("caller-block", 72);
    let model = Arc::new(model);
    let mgr = SessionManager::new(SessionConfig {
        max_decode_batch: 4,
        ..SessionConfig::default()
    });
    let id = mgr.open(Arc::clone(&model)).expect("opened");
    match mgr.step(id, &hidden(16, 4, 0)) {
        Err(ServeError::Internal { at }) => assert_eq!(at, "decode_fused_pass"),
        other => panic!("expected Internal, got {other:?}"),
    }
    let stats = mgr.stats();
    assert_eq!(stats.evicted_poisoned, 1);
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(
        stats.decode_batches, 0,
        "a caller-thread pass counted as fused"
    );
    assert_eq!(stats.kv_bytes, 0, "the poisoned session's bytes leaked");
    assert!(matches!(
        mgr.step(id, &hidden(16, 1, 1)),
        Err(ServeError::UnknownSession { .. })
    ));
    drop(guard);
    let _quiet = FaultPlan::compile(0, &Scenario::new()).arm();
    let fresh = mgr.open(Arc::clone(&model)).expect("opened");
    let x = hidden(16, 4, 2);
    let (out, tokens) = mgr.step(fresh, &x).expect("stepped");
    assert_eq!(tokens, 4);
    let mut kv = KvCache::for_blocks(&blocks);
    let (expect, _) = panacea_block::decode_step(&blocks, &x, &mut kv);
    assert!(
        out.iter()
            .zip(expect.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "the manager diverged from decode_step after the panic"
    );
    mgr.close(fresh).expect("closed");
    assert_eq!(mgr.stats().kv_bytes, 0);
}

#[test]
fn queued_decode_step_expires_behind_a_stalled_pass() {
    // Session A's pass stalls 500ms on an injected delay; session B's
    // step, queued behind it with a 100ms deadline, must be answered
    // `DeadlineExceeded` at dequeue — never executed late.
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at(
            "serve.decode.fused_pass",
            0,
            Fault::Delay(Duration::from_millis(500)),
        ),
    )
    .arm();
    let (model, _) = block_model("stall-block", 71);
    let model = Arc::new(model);
    let mgr = Arc::new(SessionManager::new(SessionConfig {
        max_decode_batch: 4,
        decode_max_wait: Duration::ZERO,
        ..SessionConfig::default()
    }));
    let a = mgr.open(Arc::clone(&model)).expect("opened");
    let b = mgr.open(Arc::clone(&model)).expect("opened");
    let stalled = {
        let mgr = Arc::clone(&mgr);
        thread::spawn(move || mgr.step(a, &hidden(16, 1, 0)))
    };
    // Let A's pass dispatch (zero linger) and hit the delay, then queue
    // B behind it with a deadline the stall will blow through.
    thread::sleep(Duration::from_millis(50));
    let ctx = RequestCtx {
        deadline: Some(Instant::now() + Duration::from_millis(100)),
        ..RequestCtx::default()
    };
    match mgr.step_with(b, &hidden(16, 1, 1), ctx) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        stalled.join().expect("joined").is_ok(),
        "stalled step still completes"
    );
    let stats = mgr.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(
        stats.decode_steps, 1,
        "the expired step never reached the GEMM"
    );
    // B itself is healthy — only that one step expired.
    assert!(mgr.step(b, &hidden(16, 1, 2)).is_ok());
    drop(guard);
}
