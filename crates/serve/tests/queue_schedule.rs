//! Seeded schedule perturbation of the batching queue.
//!
//! `serve.queue.{push, wake, take}` sit at the queue's lock / condvar
//! hand-offs. For a few hundred seeds this suite scripts `Delay` faults
//! there (and stalls in the executors, so queues actually build) while
//! producers race pushes, cancellations, deadlines and shutdown, then
//! checks what must hold under *any* interleaving: every accepted job is
//! answered exactly once, nothing stays queued or in flight, and the
//! counters add up. Both job kinds go through the public API only. A
//! failure names its seed; replay it by calling `runtime_schedule` /
//! `decode_schedule` with that seed.
//!
//! Own test binary: arming a `faultline` plan is process-global.

use std::ops::Range;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use panacea_faultline::{Fault, FaultPlan, Scenario};
use panacea_serve::testutil::{block_model, hidden};
use panacea_serve::{
    BatchPolicy, LayerSpec, ModelRegistry, PrepareOptions, PreparedModel, QueueDepth, RequestCtx,
    Runtime, RuntimeConfig, ServeError, SessionConfig, SessionManager,
};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;

const SEEDS: Range<u64> = 0..200;
const PRODUCERS: u64 = 4;
const JOBS_PER_PRODUCER: u64 = 6;
/// Long enough that only a lost wakeup or a lost job can exceed it.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(20);

/// splitmix64 — the producers' seeded decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn micros(&mut self, range: Range<u64>) -> Duration {
        Duration::from_micros(range.start + self.next() % (range.end - range.start))
    }
}

/// Delays at the three queue hand-offs plus stalls in `executor`.
fn perturbation(seed: u64, executor: &str) -> FaultPlan {
    let mut rng = Rng(seed);
    let jobs = PRODUCERS * JOBS_PER_PRODUCER;
    let mut delay = || Fault::Delay(rng.micros(50..400));
    let scenario = Scenario::new()
        .fire_within("serve.queue.push", delay(), 6, jobs)
        .fire_within("serve.queue.take", delay(), 6, jobs)
        .fire_within("serve.queue.wake", delay(), 3, 6)
        .fire_within(executor, delay(), 4, jobs / 2);
    FaultPlan::compile(seed, &scenario)
}

/// A third of the requests carry no deadline, a third a generous one,
/// a third one tight enough to expire behind a stalled worker.
fn mixed_ctx(rng: &mut Rng) -> RequestCtx {
    let deadline = match rng.next() % 3 {
        0 => None,
        1 => Some(Instant::now() + Duration::from_secs(60)),
        _ => Some(Instant::now() + rng.micros(100..600)),
    };
    RequestCtx {
        deadline,
        ..RequestCtx::default()
    }
}

fn chain_registry() -> Arc<ModelRegistry> {
    let mut rng = panacea_tensor::seeded_rng(31);
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

/// What one seed's run purged, so the suite can tell it was not vacuous.
#[derive(Default)]
struct Purged {
    cancelled: u64,
    expired: u64,
    delays_fired: usize,
}

/// One seed against the stateless runtime: producers push requests with
/// mixed deadlines through a handle, drop some `Pending`s at once, and
/// shutdown races their last pushes.
fn runtime_schedule(seed: u64, workers: usize, registry: &Arc<ModelRegistry>) -> Purged {
    let tag = format!("seed {seed}, {workers} worker(s)");
    let guard = perturbation(seed, "serve.worker.execute").arm();
    let mut rng = Rng(seed ^ 0xA5A5);
    let mut runtime = Runtime::start(
        Arc::clone(registry),
        RuntimeConfig {
            workers,
            policy: BatchPolicy {
                max_batch: 4,
                max_wait: rng.micros(0..300),
            },
        },
    );
    let model = registry.get("m").expect("registered");
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = runtime.handle();
            let model = Arc::clone(&model);
            let mut rng = Rng(seed.wrapping_mul(PRODUCERS) + p);
            let tag = tag.clone();
            thread::spawn(move || {
                let (mut pushed, mut answered_expired) = (0u64, 0u64);
                let mut kept = Vec::new();
                for i in 0..JOBS_PER_PRODUCER {
                    let cols = 1 + (rng.next() % 3) as usize;
                    let codes =
                        Matrix::from_fn(16, cols, |r, c| ((r + c + i as usize) % 200) as i32);
                    match handle.submit(Arc::clone(&model), codes, mixed_ctx(&mut rng)) {
                        Ok(pending) => {
                            pushed += 1;
                            // Dropped at once: cancelled if still queued,
                            // executed and discarded otherwise.
                            if !rng.next().is_multiple_of(4) {
                                kept.push((pending, cols));
                            }
                        }
                        // Lost the race with shutdown, or the tight
                        // deadline passed before the push: never queued.
                        Err(ServeError::ShuttingDown | ServeError::DeadlineExceeded) => {}
                        Err(other) => panic!("{tag}: submit failed: {other:?}"),
                    }
                }
                for (pending, cols) in kept {
                    match pending.wait_timeout(ANSWER_TIMEOUT) {
                        Ok(Some(out)) => {
                            assert_eq!(out.payload.cols(), cols, "{tag}: someone else's answer")
                        }
                        Err(ServeError::DeadlineExceeded) => answered_expired += 1,
                        other => panic!("{tag}: accepted request not answered: {other:?}"),
                    }
                    // Exactly once: nothing more arrives (the sender is
                    // dropped with the job, right after the answer).
                    assert!(
                        matches!(pending.try_wait(), Ok(None) | Err(ServeError::WorkerLost)),
                        "{tag}: a request was answered twice"
                    );
                }
                (pushed, answered_expired)
            })
        })
        .collect();
    // Shutdown races the producers' last pushes.
    thread::sleep(rng.micros(0..800));
    runtime.shutdown();
    assert_eq!(
        runtime.queue_depth(),
        QueueDepth::default(),
        "{tag}: shutdown returned with work queued or in flight"
    );
    let (mut pushed, mut answered_expired) = (0, 0);
    for producer in producers {
        let (p, e) = producer
            .join()
            .unwrap_or_else(|_| panic!("{tag}: producer failed"));
        pushed += p;
        answered_expired += e;
    }
    let m = runtime.metrics();
    assert_eq!(
        m.expired + m.cancelled + m.requests,
        pushed,
        "{tag}: expired {} + cancelled {} + executed {} != pushed",
        m.expired,
        m.cancelled,
        m.requests
    );
    assert!(
        m.expired >= answered_expired,
        "{tag}: a caller saw DeadlineExceeded before the counter did"
    );
    assert_eq!(runtime.queue_depth(), QueueDepth::default(), "{tag}");
    Purged {
        cancelled: m.cancelled,
        expired: m.expired,
        delays_fired: guard.firings().len(),
    }
}

#[test]
fn runtime_queue_holds_its_invariants_under_perturbed_schedules() {
    let registry = chain_registry();
    for workers in [1, 3] {
        let mut total = Purged::default();
        for seed in SEEDS {
            let run = runtime_schedule(seed, workers, &registry);
            total.cancelled += run.cancelled;
            total.expired += run.expired;
            total.delays_fired += run.delays_fired;
        }
        // The suite must have exercised what it claims to.
        assert!(total.delays_fired > 0, "no delay ever fired");
        assert!(total.cancelled > 0, "no request was ever cancelled");
        assert!(total.expired > 0, "no request ever expired in the queue");
    }
}

/// One seed against the decode batcher: four sessions step concurrently
/// with mixed deadlines; a step's KV append must happen iff it was
/// answered `Ok`.
fn decode_schedule(seed: u64, model: &Arc<PreparedModel>) -> Purged {
    let tag = format!("seed {seed}");
    let guard = perturbation(seed, "serve.decode.fused_pass").arm();
    let mut rng = Rng(seed ^ 0x5A5A);
    let mgr = Arc::new(SessionManager::new(SessionConfig {
        max_decode_batch: 2 + (rng.next() % 3) as usize,
        decode_max_wait: rng.micros(0..300),
        ..SessionConfig::default()
    }));
    let steppers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let mgr = Arc::clone(&mgr);
            let id = mgr.open(Arc::clone(model)).expect("opened");
            let mut rng = Rng(seed.wrapping_mul(PRODUCERS) + p);
            let tag = tag.clone();
            thread::spawn(move || {
                let (mut stepped, mut expired) = (0u64, 0u64);
                for i in 0..JOBS_PER_PRODUCER {
                    match mgr.step_with(id, &hidden(16, 1, i as usize), mixed_ctx(&mut rng)) {
                        Ok((out, tokens, _)) => {
                            stepped += 1;
                            assert_eq!(out.shape(), (16, 1), "{tag}");
                            assert_eq!(tokens as u64, stepped, "{tag}: KV and answers disagree");
                        }
                        Err(ServeError::DeadlineExceeded) => expired += 1,
                        Err(other) => panic!("{tag}: step failed: {other:?}"),
                    }
                }
                // An expired step must not have touched the cache.
                assert_eq!(mgr.close(id).expect("closed") as u64, stepped, "{tag}");
                (stepped, expired)
            })
        })
        .collect();
    let (mut stepped, mut expired) = (0, 0);
    for stepper in steppers {
        let (s, e) = stepper
            .join()
            .unwrap_or_else(|_| panic!("{tag}: stepper failed"));
        stepped += s;
        expired += e;
    }
    let stats = mgr.stats();
    assert_eq!(stepped + expired, PRODUCERS * JOBS_PER_PRODUCER, "{tag}");
    assert_eq!(stats.steps, stepped, "{tag}");
    // Steps already late at entry are rejected before the queue.
    assert!(stats.expired_steps <= expired, "{tag}");
    assert_eq!(stats.kv_bytes, 0, "{tag}: KV bytes leaked");
    assert_eq!(stats.open_sessions, 0, "{tag}");
    let purged = Purged {
        cancelled: 0,
        expired: stats.expired_steps,
        delays_fired: guard.firings().len(),
    };
    // Dropping the last handle drains the queue and joins the worker; a
    // hang here fails the test by timeout.
    drop(Arc::into_inner(mgr).unwrap_or_else(|| panic!("{tag}: a stepper leaked the manager")));
    purged
}

#[test]
fn decode_queue_holds_its_invariants_under_perturbed_schedules() {
    let (model, _) = block_model("schedule-block", 72);
    let model = Arc::new(model);
    let mut total = Purged::default();
    for seed in SEEDS {
        let run = decode_schedule(seed, &model);
        total.expired += run.expired;
        total.delays_fired += run.delays_fired;
    }
    assert!(total.delays_fired > 0, "no delay ever fired");
    assert!(total.expired > 0, "no step ever expired in the queue");
}
