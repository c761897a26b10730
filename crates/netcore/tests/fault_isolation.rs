//! Fault-injection tests for the reactor transport: handler panics,
//! injected dispatch panics, short writes, and connection resets.
//!
//! Own test binary (process) on purpose: arming a `faultline` plan is
//! process-global, so these tests must not share a process with suites
//! that traverse the same sites. Every test arms a plan (an empty one
//! when it needs no faults) so the arm guard's serialization lock keeps
//! the scripts from overlapping.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use panacea_faultline::{Fault, FaultPlan, Scenario};
use panacea_netcore::{ConnectionCounters, Reactor, ReactorConfig, Service};

/// `ok:`-echo, except `boom` panics inside the handler.
struct ChaosService;

impl Service for ChaosService {
    fn serve(&self, line: &str) -> String {
        if line == "boom" {
            panic!("handler exploded");
        }
        if let Some(n) = line.strip_prefix("pad:") {
            let n: usize = n.parse().expect("pad size");
            return "x".repeat(n);
        }
        format!("ok:{line}")
    }

    fn bad_request(&self, detail: &str) -> String {
        format!("err:{detail}")
    }

    fn overloaded(&self, detail: &str) -> String {
        format!("overloaded:{detail}")
    }

    fn internal_error(&self, detail: &str) -> String {
        format!("internal:{detail}")
    }
}

fn start(workers: usize) -> (Reactor, std::net::SocketAddr, ConnectionCounters) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let counters = ConnectionCounters::default();
    let reactor = Reactor::spawn(
        listener,
        Arc::new(ChaosService),
        counters.clone(),
        ReactorConfig {
            workers,
            ..ReactorConfig::default()
        },
    )
    .expect("spawn reactor");
    let addr = reactor.local_addr();
    (reactor, addr, counters)
}

fn round_trip(reader: &mut BufReader<TcpStream>, request: &str) -> String {
    reader
        .get_mut()
        .write_all(format!("{request}\n").as_bytes())
        .expect("write request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim_end().to_string()
}

#[test]
fn panicking_handler_answers_internal_error_and_pool_survives() {
    let guard = FaultPlan::compile(0, &Scenario::new()).arm();
    let (mut reactor, addr, counters) = start(1);
    let mut client = BufReader::new(TcpStream::connect(addr).expect("connect"));
    // The handler panic is caught on its dispatch thread: the request
    // still completes (no hang), the connection stays open, and with only
    // one thread the follow-up proves it survived.
    assert_eq!(
        round_trip(&mut client, "boom"),
        "internal:request handler panicked"
    );
    assert_eq!(round_trip(&mut client, "ping"), "ok:ping");
    let snap = counters.snapshot();
    assert_eq!(snap.worker_panics, 1);
    assert_eq!(snap.workers_alive, 1, "the worker thread died");
    reactor.shutdown();
    drop(guard);
}

#[test]
fn injected_dispatch_panic_is_answered_not_hung() {
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at("netcore.dispatch", 0, Fault::Panic),
    )
    .arm();
    let (mut reactor, addr, counters) = start(2);
    let mut client = BufReader::new(TcpStream::connect(addr).expect("connect"));
    assert_eq!(
        round_trip(&mut client, "first"),
        "internal:request handler panicked"
    );
    // Only query 0 was scripted: the connection keeps serving.
    assert_eq!(round_trip(&mut client, "second"), "ok:second");
    assert_eq!(counters.snapshot().worker_panics, 1);
    reactor.shutdown();
    drop(guard);
}

#[test]
fn short_writes_still_deliver_the_complete_response() {
    // The first three write passes push a single byte each; POLLOUT
    // resumes the backlog and the client still reassembles the full
    // line.
    let guard = FaultPlan::compile(
        0,
        &Scenario::new()
            .fire_at("netcore.write", 0, Fault::ShortWrite)
            .fire_at("netcore.write", 1, Fault::ShortWrite)
            .fire_at("netcore.write", 2, Fault::ShortWrite),
    )
    .arm();
    let (mut reactor, addr, _counters) = start(1);
    let mut client = BufReader::new(TcpStream::connect(addr).expect("connect"));
    let response = round_trip(&mut client, "pad:4096");
    assert_eq!(response.len(), 4096);
    assert!(response.bytes().all(|b| b == b'x'));
    reactor.shutdown();
    drop(guard);
}

#[test]
fn read_reset_closes_the_connection_and_the_next_one_serves() {
    let guard =
        FaultPlan::compile(0, &Scenario::new().fire_at("netcore.read", 0, Fault::Reset)).arm();
    let (mut reactor, addr, _counters) = start(1);
    let mut doomed = BufReader::new(TcpStream::connect(addr).expect("connect"));
    doomed.get_mut().write_all(b"ping\n").expect("write");
    let mut line = String::new();
    // The injected reset closes the connection before the request is
    // read: the client sees EOF or ECONNRESET (the kernel RSTs a close
    // with unread bytes), never a stuck socket.
    doomed
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    match doomed.read_line(&mut line) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected a dropped connection, read {n} bytes"),
    }
    let mut fresh = BufReader::new(TcpStream::connect(addr).expect("reconnect"));
    assert_eq!(round_trip(&mut fresh, "again"), "ok:again");
    reactor.shutdown();
    drop(guard);
}

#[test]
fn accept_reset_drops_the_connection_and_the_next_one_serves() {
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at("netcore.accept", 0, Fault::Reset),
    )
    .arm();
    let (mut reactor, addr, counters) = start(1);
    let mut doomed = BufReader::new(TcpStream::connect(addr).expect("connect"));
    doomed
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut line = String::new();
    // Accepted then dropped on the floor: EOF, and it never counted as
    // an open connection.
    assert_eq!(doomed.read_line(&mut line).expect("eof"), 0);
    let mut fresh = BufReader::new(TcpStream::connect(addr).expect("reconnect"));
    assert_eq!(round_trip(&mut fresh, "again"), "ok:again");
    assert!(counters.snapshot().peak <= 1, "dropped conn counted open");
    reactor.shutdown();
    drop(guard);
}
