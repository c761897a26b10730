//! Fault-injection tests across the gateway: injected execute-path
//! panics answered over the wire, deadline enforcement end-to-end,
//! client-side retry with reconnect, and the `stats` counters agreeing
//! with the metric registry after panics on both serving paths.
//!
//! Own test binary (process) on purpose: arming a `faultline` plan is
//! process-global, so these tests must not share a process with suites
//! that traverse the same sites. Every test arms a plan (an empty one
//! when it needs no faults) so the arm guard's serialization lock keeps
//! the scripts from overlapping.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use panacea_faultline::{Fault, FaultPlan, Scenario};
use panacea_gateway::testutil::{block_model, codes, hidden, models};
use panacea_gateway::{
    ClientConfig, ErrorKind, Gateway, GatewayClient, GatewayConfig, GatewayError, GatewayServer,
    Payload, ShardStats,
};

fn serve() -> (GatewayServer, Arc<Gateway>) {
    let gateway = Arc::new(Gateway::new(models(&["m"], 11), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    (server, gateway)
}

#[test]
fn injected_execute_panic_is_answered_internal_and_the_server_survives() {
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at("gateway.execute", 0, Fault::Panic),
    )
    .arm();
    let (server, gateway) = serve();
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 2, 0);
    let expect = model.forward_codes(&x).0;

    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let err = client
        .infer_codes("m", x.clone())
        .expect_err("panicked request was answered with a result");
    assert!(
        matches!(
            err,
            GatewayError::Remote {
                kind: ErrorKind::Internal,
                ..
            }
        ),
        "expected an internal error, got {err:?}"
    );
    // Same connection, same payload: the retry is served bit-exactly,
    // so the panic touched neither the dispatch threads nor the model state.
    let reply = client.infer_codes("m", x).expect("post-panic infer");
    assert_eq!(reply.payload, expect.into());
    // The panic is pinned in the flight recorder for incident forensics.
    let events = gateway.events(64);
    assert!(
        events.events.iter().any(|e| e.kind == "worker_panic"),
        "no worker_panic event recorded"
    );
    drop(server);
    drop(guard);
}

#[test]
fn deadlines_cross_the_wire_and_release_the_client_in_time() {
    // The execute path stalls 400ms on the first request; a 100ms
    // client deadline must release the caller with `deadline_exceeded`
    // rather than holding it for the full stall (or forever).
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at(
            "gateway.execute",
            0,
            Fault::Delay(Duration::from_millis(400)),
        ),
    )
    .arm();
    let (server, gateway) = serve();
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 1, 1);
    let expect = model.forward_codes(&x).0;

    let mut client = GatewayClient::connect_with(
        server.local_addr(),
        ClientConfig {
            deadline: Some(Duration::from_millis(100)),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let started = Instant::now();
    let err = client
        .infer_codes("m", x.clone())
        .expect_err("expired request was answered with a result");
    let waited = started.elapsed();
    assert!(
        matches!(
            err,
            GatewayError::Remote {
                kind: ErrorKind::DeadlineExceeded,
                ..
            }
        ),
        "expected deadline_exceeded, got {err:?}"
    );
    assert!(
        waited < Duration::from_secs(2),
        "client was held {waited:?} past its 100ms deadline"
    );
    // Only request 0 was scripted: the next one clears its deadline.
    let reply = client.infer_codes("m", x).expect("post-stall infer");
    assert_eq!(reply.payload, expect.into());
    drop(server);
    drop(guard);
}

#[test]
fn client_retries_recover_from_a_transient_internal_error() {
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at("gateway.execute", 0, Fault::Panic),
    )
    .arm();
    let (server, gateway) = serve();
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 1, 2);
    let expect = model.forward_codes(&x).0;

    let mut client = GatewayClient::connect_with(
        server.local_addr(),
        ClientConfig {
            retries: 2,
            backoff: Duration::from_millis(5),
            seed: 42,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    // Attempt 0 hits the scripted panic (answered `internal`); the
    // retry runs unscripted and must return the bit-exact result.
    let reply = client.infer_codes("m", x).expect("retry did not recover");
    assert_eq!(reply.payload, expect.into());
    drop(server);
    drop(guard);
}

#[test]
fn client_reconnects_through_a_server_restart() {
    let guard = FaultPlan::compile(0, &Scenario::new()).arm();
    let gateway = Arc::new(Gateway::new(models(&["m"], 11), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 1, 3);
    let expect = model.forward_codes(&x).0;

    let mut client = GatewayClient::connect_with(
        addr,
        ClientConfig {
            retries: 4,
            backoff: Duration::from_millis(20),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    assert!(client.infer_codes("m", x.clone()).is_ok());
    // Restart the server on the same address: the old connection dies,
    // and the idempotent retry path must redial and recover.
    drop(server);
    let server = GatewayServer::bind(Arc::clone(&gateway), addr).expect("rebind");
    let reply = client
        .infer_codes("m", x)
        .expect("retry did not survive the restart");
    assert_eq!(reply.payload, expect.into());
    drop(server);
    drop(guard);
}

#[test]
fn stats_agree_with_the_registry_after_a_faulted_mixed_run() {
    // One runtime batch and one fused decode pass panic, at seeded
    // positions, while three clients mix chain inferences with
    // single-column decode steps (all narrower than the fused-pass
    // budget, so every pass runs on a shard's batching worker). Once
    // the run is quiescent, the shards' counters and the registry's
    // cells must count the same batches, passes and panics.
    let guard = FaultPlan::compile(
        5,
        &Scenario::new()
            .fire_within("serve.worker.execute", Fault::Panic, 1, 8)
            .fire_within("serve.decode.fused_pass", Fault::Panic, 1, 8),
    )
    .arm();
    let mut set = models(&["chain"], 31);
    set.push(block_model("blk", 32).0);
    let gateway = Arc::new(Gateway::new(set, GatewayConfig::default()));
    let clients: Vec<_> = (0..3u64)
        .map(|client| {
            let gateway = Arc::clone(&gateway);
            thread::spawn(move || {
                let chain = gateway.router().model("chain").expect("registered");
                let mut rng = 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(client + 1);
                let mut session = None;
                for op in 0..24usize {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let salt = client as usize * 100 + op;
                    if rng >> 63 == 0 {
                        let x = codes(&chain, 1 + (rng >> 8) as usize % 3, salt);
                        // A request in the panicking batch is answered
                        // `internal`; the counts below cover it.
                        let _ = gateway.infer("chain", Payload::Codes(x));
                        continue;
                    }
                    let id = match session {
                        Some(id) => id,
                        None => gateway.session_open("blk").expect("opened").session,
                    };
                    // A step alone in the panicking pass evicts its
                    // session; the next step opens a fresh one.
                    session = gateway.decode(id, &hidden(16, 1, salt)).ok().map(|_| id);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client");
    }
    assert_eq!(guard.firings().len(), 2, "both scripted panics fired");
    drop(guard);

    let stats = gateway.stats();
    let sum = |field: fn(&ShardStats) -> u64| stats.shards.iter().map(field).sum::<u64>();
    let cells = gateway.dims().cells();
    let samples = |verb: &str, stage: &str| -> u64 {
        cells
            .iter()
            .filter(|(k, _)| k.verb == verb && k.stage == stage)
            .map(|(_, cell)| cell.total().latency.count)
            .sum()
    };
    let worker_errors: u64 = cells
        .iter()
        .filter(|(k, _)| k.verb == "worker")
        .map(|(_, cell)| cell.total().error)
        .sum();
    assert_eq!(sum(|s| s.batches), samples("batch", "execute"));
    assert_eq!(sum(|s| s.decode_batches), samples("decode", "fused_pass"));
    assert_eq!(
        samples("decode", "fused_pass"),
        samples("decode", "occupancy"),
        "a panicked fused pass was counted as an occupancy sample"
    );
    assert_eq!(sum(|s| s.worker_panics), worker_errors);
    assert_eq!(sum(|s| s.worker_panics), 2);
}
