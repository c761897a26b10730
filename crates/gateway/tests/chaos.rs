//! The all-layers chaos storm: one scripted `faultline` plan panics the
//! runtime workers, the fused decode pass, its solo retry and the
//! transport dispatch, injects an error return and stalls on both sides
//! of the client deadline, and resets and short-writes connections
//! inside the reactor — while deadline-stamped infer and decode clients
//! drive load over TCP. Each layer's own suite owns its fault in
//! isolation; this test owns what only the whole storm shows: waits stay
//! bounded, every successful reply is bit-exact, every panic is counted
//! on the wire, health flips and pins the panics, and the same gateway
//! then recovers to serve exactly what a never-faulted one serves.
//!
//! Own test binary (process) on purpose: an armed `faultline` plan is
//! process-global.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use panacea_faultline::{Fault, FaultPlan, Scenario};
use panacea_gateway::testutil::{block_model, codes, hidden, models};
use panacea_gateway::{
    ClientConfig, ErrorKind, Gateway, GatewayClient, GatewayConfig, GatewayError, GatewayServer,
    ServerConfig, SloConfig, SloStatus, SloTarget,
};

const DEADLINE: Duration = Duration::from_millis(800);
const RETRIES: u32 = 3;
/// Long enough that the storm's errors are still inside it when health
/// is probed, short enough that they age out quickly afterwards.
const SLO_WINDOW: Duration = Duration::from_secs(2);
const CLIENTS: usize = 4;
const REQUESTS: usize = 24;

fn gateway(slo: SloConfig) -> Arc<Gateway> {
    let mut all = models(&["chain"], 21);
    all.push(block_model("block", 22).0);
    Arc::new(Gateway::new(
        all,
        GatewayConfig {
            slo,
            ..GatewayConfig::default()
        },
    ))
}

/// What a chaos client must absorb: injected faults surface as internal
/// errors, expired deadlines, sheds, evicted sessions or a killed
/// connection. Anything else is a real bug.
fn tolerable(e: &GatewayError) -> bool {
    match e {
        GatewayError::Remote { kind, .. } => matches!(
            kind,
            ErrorKind::Internal
                | ErrorKind::DeadlineExceeded
                | ErrorKind::Overloaded
                | ErrorKind::UnknownSession
        ),
        GatewayError::Io(_) | GatewayError::Protocol(_) => true,
        _ => false,
    }
}

/// Absorbs one failed call: redials a broken transport and reports
/// whether a decode session survived it (a rejected step leaves its KV
/// state intact; a panic or a lost connection may not).
fn absorb(client: &mut GatewayClient, e: &GatewayError) -> bool {
    assert!(tolerable(e), "chaos call failed hard: {e}");
    if matches!(e, GatewayError::Io(_) | GatewayError::Protocol(_)) {
        let _ = client.reconnect();
    }
    matches!(
        e,
        GatewayError::Remote {
            kind: ErrorKind::DeadlineExceeded | ErrorKind::Overloaded,
            ..
        }
    )
}

fn open_with_retry(client: &mut GatewayClient) -> u64 {
    for _ in 0..40 {
        match client.session_open("block") {
            Ok(open) => return open.session,
            Err(e) => {
                absorb(client, &e);
                thread::sleep(Duration::from_millis(25));
            }
        }
    }
    panic!("chaos decode client could not reopen a session");
}

/// One client's calls: `(succeeded, slowest call)`. Even clients infer
/// and check every reply against an in-process forward; odd clients
/// decode, reopening their session whenever a fault may have evicted it.
fn drive(addr: SocketAddr, gw: &Gateway, t: usize, start: &Barrier) -> (usize, Duration) {
    let config = ClientConfig {
        deadline: Some(DEADLINE),
        retries: RETRIES,
        backoff: Duration::from_millis(10),
        seed: t as u64,
    };
    let mut client = GatewayClient::connect_with(addr, config).expect("connect");
    let chain = gw.router().model("chain").expect("registered");
    let mut session = (t % 2 == 1).then(|| open_with_retry(&mut client));
    let (mut ok, mut slowest) = (0, Duration::ZERO);
    start.wait();
    for i in 0..REQUESTS {
        let begun = Instant::now();
        let failed = match session {
            None => {
                // Salts stay distinct mod 200 across clients, so the
                // request cache never answers (and dodges) a fault.
                let x = codes(&chain, 1, t * 60 + i);
                let expect = chain.forward_codes(&x).0;
                client.infer_codes("chain", x).map(|r| {
                    assert_eq!(r.payload, expect.into(), "infer diverged under chaos");
                })
            }
            Some(id) => client.decode(id, hidden(16, 1, t * 10_000 + i)).map(|_| ()),
        }
        .err();
        slowest = slowest.max(begun.elapsed());
        match failed {
            None => ok += 1,
            Some(e) => {
                if !absorb(&mut client, &e) && session.is_some() {
                    session = Some(open_with_retry(&mut client));
                }
            }
        }
    }
    if let Some(id) = session {
        let _ = client.session_close(id);
    }
    (ok, slowest)
}

#[test]
fn chaos_storm_stays_bounded_and_exact_and_the_gateway_recovers() {
    let scenario = Scenario::new()
        .fire_within("serve.worker.execute", Fault::Panic, 2, 24)
        .fire_at(
            "serve.worker.execute",
            30,
            Fault::Delay(Duration::from_millis(150)),
        )
        // The solo retry panics too, so a fused pass convicts (and
        // evicts) a poisoned session.
        .fire_within("serve.decode.fused_pass", Fault::Panic, 2, 16)
        .fire_at("serve.decode.solo_retry", 0, Fault::Panic)
        .fire_at("gateway.execute", 2, Fault::Panic)
        .fire_at("gateway.execute", 7, Fault::Error)
        .fire_at(
            "gateway.execute",
            12,
            Fault::Delay(DEADLINE + Duration::from_millis(400)),
        )
        .fire_at("netcore.read", 40, Fault::Reset)
        .fire_at("netcore.write", 60, Fault::ShortWrite)
        .fire_within("netcore.dispatch", Fault::Panic, 1, 40);
    let guard = FaultPlan::compile(0xC4A05, &scenario).arm();
    let gw = gateway(SloConfig {
        targets: vec![SloTarget {
            max_error_rate: Some(0.01),
            ..SloTarget::over("chaos-availability", SLO_WINDOW)
        }],
    });
    let mut server = GatewayServer::bind(Arc::clone(&gw), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let start = Arc::new(Barrier::new(CLIENTS));
    let outcomes: Vec<(usize, Duration)> = thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (gw, start) = (&gw, &start);
                s.spawn(move || drive(addr, gw, t, start))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });
    drop(guard);

    // Bounded waits: no call outlives `retries + 1` attempts of its
    // deadline plus the client's 1 s read-timeout slack, plus a second
    // for backoff and scheduling.
    let bound = (DEADLINE + Duration::from_secs(1)) * (RETRIES + 1) + Duration::from_secs(1);
    let slowest = outcomes.iter().map(|o| o.1).max().expect("clients ran");
    assert!(slowest <= bound, "a call took {slowest:?}, past {bound:?}");
    let ok: usize = outcomes.iter().map(|o| o.0).sum();
    assert!(
        ok >= CLIENTS * REQUESTS * 8 / 10,
        "the storm drowned the load: {ok}/{} calls ok",
        CLIENTS * REQUESTS
    );

    // Every layer's panics are counted on the wire, and every reactor
    // worker survived its own.
    let mut probe = GatewayClient::connect(addr).expect("connect probe");
    let health = probe.health().expect("health");
    let stats = probe.stats().expect("stats");
    let worker_panics: u64 = stats.shards.iter().map(|s| s.worker_panics).sum();
    let evicted_poisoned: u64 = stats.shards.iter().map(|s| s.evicted_poisoned).sum();
    // Two runtime-worker and two fused-pass panics are scripted; a
    // multi-session pass adds its poisoned solo retry.
    assert!(
        worker_panics >= 4,
        "runtime + batcher panics: {worker_panics}"
    );
    assert!(
        evicted_poisoned >= 1,
        "the poisoned session was never evicted"
    );
    assert!(
        stats.connections.worker_panics >= 1,
        "the transport never counted a caught handler panic"
    );
    assert_eq!(
        stats.connections.workers_alive as usize,
        ServerConfig::default().workers,
        "the reactor's worker pool did not recover to full strength"
    );

    // The errors flip the error-rate SLO, and the flip pins the panics.
    assert_ne!(health.status, SloStatus::Ok, "health stayed ok: {health:?}");
    let events = probe.events(128).expect("events");
    let pinned = events.pinned.expect("the flip pinned no incident");
    assert!(
        pinned.events.iter().any(|e| e.kind == "worker_panic"),
        "the pinned incident holds no worker_panic event"
    );

    // Recovery: disarmed, the same gateway answers bit-exactly, and
    // health returns to `ok` once the storm ages out of the window.
    let chain = gw.router().model("chain").expect("registered");
    let recovering = Instant::now();
    for poll in 0.. {
        let x = codes(&chain, 1, 1_000 + poll);
        let reply = probe
            .infer_codes("chain", x.clone())
            .expect("post-storm infer");
        assert_eq!(reply.payload, chain.forward_codes(&x).0.into());
        if probe.health().expect("health").status == SloStatus::Ok {
            break;
        }
        assert!(
            recovering.elapsed() < SLO_WINDOW + Duration::from_secs(15),
            "health never returned to ok"
        );
        thread::sleep(Duration::from_millis(100));
    }

    // A fresh session on the stormed gateway decodes exactly what a
    // never-faulted gateway built from the same seeds decodes.
    let reference = gateway(SloConfig::default());
    let want = reference.session_open("block").expect("reference open");
    let got = probe.session_open("block").expect("post-storm open");
    for i in 0..8 {
        let token = hidden(16, 1, 9_000_000 + i);
        let served = probe.decode(got.session, token.clone()).expect("decode");
        let expect = reference.decode(want.session, &token).expect("decode");
        assert_eq!(served.hidden, expect.hidden, "post-storm step {i} diverged");
    }
    server.shutdown();
}
