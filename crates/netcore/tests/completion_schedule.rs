//! Seeded schedule perturbation of the reactor's completion path.
//!
//! A dispatch thread finishes a request by queueing its completion and
//! then poking the wakeup pipe; `netcore.complete` sits between the two,
//! in the window where the loop may already have drained the pipe. For
//! 120 seeds this suite scripts `Delay` faults there and at
//! `netcore.dispatch` while four connections pipeline requests at an
//! echo service, and on a third of the seeds shuts the reactor down
//! mid-run. It then checks what must hold under any interleaving: each
//! connection's answers are a prefix of its requests, in order, none
//! twice; without a shutdown every request is answered; no wait
//! outlasts a bound; and `workers_alive` reads the configured count
//! while serving and zero after shutdown. A failure names its seed;
//! replay it by calling `schedule` with that seed.
//!
//! Own test binary: arming a `faultline` plan is process-global.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use panacea_faultline::{Fault, FaultPlan, Scenario};
use panacea_netcore::{ConnectionCounters, Reactor, ReactorConfig, Service};

const SEEDS: Range<u64> = 0..120;
const WORKERS: u64 = 2;
const CONNECTIONS: u64 = 4;
const LINES: u64 = 6;
/// Long enough that only a lost completion or wakeup can exceed it.
const TIMEOUT: Duration = Duration::from_secs(20);

/// splitmix64 — the seeded decisions.
fn micros(state: &mut u64, range: Range<u64>) -> Duration {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Duration::from_micros(range.start + (z ^ (z >> 31)) % (range.end - range.start))
}

/// Answers each line with itself.
struct Echo;

impl Service for Echo {
    fn serve(&self, line: &str) -> String {
        line.to_string()
    }

    fn bad_request(&self, detail: &str) -> String {
        format!("err:{detail}")
    }

    fn overloaded(&self, detail: &str) -> String {
        format!("overloaded:{detail}")
    }
}

/// Polls `condition` until it holds or `TIMEOUT` passes.
fn wait_until(mut condition: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + TIMEOUT;
    while !condition() {
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_micros(200));
    }
    true
}

/// A reset ends a stream like an EOF: a shutdown may close a socket with
/// unread bytes, or the listener before the connection was accepted.
fn is_reset(kind: ErrorKind) -> bool {
    use ErrorKind::*;
    matches!(
        kind,
        ConnectionRefused | ConnectionReset | ConnectionAborted | BrokenPipe
    )
}

/// Pipelines one connection's requests, then reads answers until the
/// server closes it. A timeout is an error.
fn client(addr: SocketAddr, conn: u64, answered: &AtomicUsize) -> Result<Vec<String>, String> {
    let stream = match TcpStream::connect(addr) {
        Err(e) if is_reset(e.kind()) => return Ok(Vec::new()),
        connected => connected.map_err(|e| format!("connect: {e}"))?,
    };
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    let lines: String = (0..LINES).map(|i| format!("c{conn}-r{i}\n")).collect();
    let mut reader = BufReader::new(stream);
    match reader.get_mut().write_all(lines.as_bytes()) {
        Err(e) if !is_reset(e.kind()) => return Err(format!("write: {e}")),
        _ => {}
    }
    let mut answers = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(answers),
            Ok(_) => answers.push(line.trim_end().to_string()),
            Err(e) if is_reset(e.kind()) => return Ok(answers),
            Err(e) => return Err(format!("read after {} answers: {e}", answers.len())),
        }
        answered.fetch_add(1, Ordering::SeqCst);
    }
}

/// One seed: four pipelining connections against a perturbed reactor,
/// shut down mid-run on a third of the seeds and after the last answer
/// otherwise. Returns how many delays fired and whether a connection was
/// cut short.
fn schedule(seed: u64) -> (usize, bool) {
    let mut rng = seed;
    let requests = CONNECTIONS * LINES;
    let mut delay = || Fault::Delay(micros(&mut rng, 50..400));
    let scenario = Scenario::new()
        .fire_within("netcore.dispatch", delay(), 6, requests)
        .fire_within("netcore.complete", delay(), 8, requests);
    let guard = FaultPlan::compile(seed, &scenario).arm();
    let mid_run_shutdown = seed.is_multiple_of(3);
    let tag = format!("seed {seed} (mid-run shutdown: {mid_run_shutdown})");
    let counters = ConnectionCounters::default();
    let config = ReactorConfig {
        workers: WORKERS as usize,
        ..ReactorConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut reactor =
        Reactor::spawn(listener, Arc::new(Echo), counters.clone(), config).expect("spawn reactor");
    let addr = reactor.local_addr();
    let answered = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|conn| {
            let answered = Arc::clone(&answered);
            thread::spawn(move || client(addr, conn, &answered))
        })
        .collect();

    let alive = || counters.snapshot().workers_alive;
    assert!(
        wait_until(|| alive() == WORKERS),
        "{tag}: {} alive",
        alive()
    );
    if mid_run_shutdown {
        thread::sleep(micros(&mut rng, 0..800));
    } else {
        let all = requests as usize;
        assert!(
            wait_until(|| answered.load(Ordering::SeqCst) == all),
            "{tag}: {} of {all} requests answered within {TIMEOUT:?}",
            answered.load(Ordering::SeqCst)
        );
        assert_eq!(alive(), WORKERS, "{tag}: a dispatch thread died");
    }
    reactor.shutdown();
    assert_eq!(alive(), 0, "{tag}: dispatch threads outlived the shutdown");

    let mut cut_short = false;
    for (conn, client) in (0..CONNECTIONS).zip(clients) {
        let answers = client
            .join()
            .unwrap_or_else(|_| panic!("{tag}: client {conn} panicked"))
            .unwrap_or_else(|e| panic!("{tag}: client {conn}: {e}"));
        let requests: Vec<String> = (0..LINES).map(|i| format!("c{conn}-r{i}")).collect();
        assert!(
            answers.len() <= requests.len() && answers[..] == requests[..answers.len()],
            "{tag}: connection {conn}'s answers {answers:?} are not a prefix of its requests"
        );
        assert!(
            mid_run_shutdown || answers.len() == requests.len(),
            "{tag}: connection {conn} got {} of {} answers",
            answers.len(),
            requests.len()
        );
        cut_short |= answers.len() < requests.len();
    }
    (guard.firings().len(), cut_short)
}

#[test]
fn completions_are_answered_once_in_order_under_perturbed_schedules() {
    let (mut delays_fired, mut cut_short) = (0, false);
    for seed in SEEDS {
        let (fired, cut) = schedule(seed);
        delays_fired += fired;
        cut_short |= cut;
    }
    // The suite must have exercised what it claims to.
    assert!(delays_fired > 0, "no delay ever fired");
    assert!(cut_short, "no shutdown ever cut a connection short");
}
