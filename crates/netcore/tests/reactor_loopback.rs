//! Loopback tests for the reactor: request/response round-trips (with
//! the dispatch thread count clamped to one), deterministic
//! write-backpressure eviction with an interleaved healthy connection,
//! connection-limit rejection, drain-on-shutdown (with more requests in
//! flight than dispatch threads), oversized-frame handling, and no
//! read-ahead past a held request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use panacea_netcore::{ConnectionCounters, EvictReason, Reactor, ReactorConfig, Service};

/// Line protocol for the tests: `ok:`-echo by default, `pad:<n>` for an
/// `n`-byte response, `sleep:<ms>` to hold a dispatch thread,
/// `hold:<i>:<padding>` to wait for [`TestService::release`] and answer
/// `held:<i>:<line length>`. Records every eviction for later assertion.
#[derive(Default)]
struct TestService {
    evictions: Mutex<Vec<String>>,
    released: Mutex<bool>,
    release: Condvar,
}

impl Service for TestService {
    fn serve(&self, line: &str) -> String {
        if let Some(n) = line.strip_prefix("pad:") {
            let n: usize = n.parse().expect("pad size");
            return "x".repeat(n);
        }
        if let Some(ms) = line.strip_prefix("sleep:") {
            let ms: u64 = ms.parse().expect("sleep ms");
            thread::sleep(Duration::from_millis(ms));
            return format!("slept:{ms}");
        }
        if let Some(rest) = line.strip_prefix("hold:") {
            let mut released = self.released.lock().expect("released");
            while !*released {
                released = self.release.wait(released).expect("released");
            }
            let index = rest.split(':').next().expect("hold index");
            return format!("held:{index}:{}", line.len());
        }
        format!("ok:{line}")
    }

    fn bad_request(&self, detail: &str) -> String {
        format!("err:{detail}")
    }

    fn overloaded(&self, detail: &str) -> String {
        format!("overloaded:{detail}")
    }

    fn conn_evict(&self, reason: EvictReason, _open_now: u64) {
        let mut evictions = self.evictions.lock().expect("evictions");
        evictions.push(format!("evict:{}", reason.as_str()));
    }
}

impl TestService {
    fn evictions(&self) -> Vec<String> {
        self.evictions.lock().expect("evictions").clone()
    }

    /// Lets every `hold:` request, held or still to come, answer.
    fn release(&self) {
        *self.released.lock().expect("released") = true;
        self.release.notify_all();
    }
}

fn start(
    config: ReactorConfig,
) -> (
    Reactor,
    std::net::SocketAddr,
    ConnectionCounters,
    Arc<TestService>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let counters = ConnectionCounters::default();
    let service = Arc::new(TestService::default());
    let reactor =
        Reactor::spawn(listener, service.clone(), counters.clone(), config).expect("spawn reactor");
    let addr = reactor.local_addr();
    (reactor, addr, counters, service)
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

fn wait_until(timeout: Duration, mut condition: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if condition() {
            return true;
        }
        thread::sleep(Duration::from_millis(10));
    }
    condition()
}

#[test]
fn many_connections_round_trip_and_counters_settle() {
    // `workers: 0` still serves, on one dispatch thread.
    for workers in [2, 0] {
        round_trip_and_settle(workers);
    }
}

fn round_trip_and_settle(workers: usize) {
    let (mut reactor, addr, counters, _observer) = start(ReactorConfig {
        workers,
        ..ReactorConfig::default()
    });
    assert_eq!(counters.snapshot().workers_alive, workers.max(1) as u64);

    let mut clients: Vec<BufReader<TcpStream>> = (0..3)
        .map(|_| BufReader::new(TcpStream::connect(addr).expect("connect")))
        .collect();
    for round in 0..20 {
        for (i, client) in clients.iter_mut().enumerate() {
            let req = format!("c{i}-r{round}");
            assert_eq!(round_trip(client, &req), format!("ok:{req}"));
        }
    }
    assert!(
        wait_until(Duration::from_secs(2), || counters.snapshot().open == 3),
        "all three connections should register as open"
    );
    assert!(counters.snapshot().peak >= 3);

    drop(clients);
    assert!(
        wait_until(Duration::from_secs(5), || counters.snapshot().open == 0),
        "closed clients should drain the open gauge, got {:?}",
        counters.snapshot()
    );
    assert_eq!(counters.snapshot().evicted, 0);
    reactor.shutdown();
}

/// The deterministic backpressure interleaving: connection A pipelines
/// large-response requests and never reads, so its write backlog stalls
/// and it is evicted as a slow consumer — while connection B keeps
/// getting served the whole time.
#[test]
fn slow_consumer_is_evicted_while_healthy_connection_is_served() {
    let (mut reactor, addr, counters, observer) = start(ReactorConfig {
        workers: 2,
        max_write_backlog: 64 * 1024,
        write_stall_timeout: Duration::from_millis(300),
        ..ReactorConfig::default()
    });

    // A: pipeline eight 1 MiB responses and never read a byte. Kernel
    // socket buffers absorb only the first couple, after which the
    // reactor-side backlog can make no progress.
    let mut slow = TcpStream::connect(addr).expect("connect slow");
    for _ in 0..8 {
        slow.write_all(b"pad:1048576\n").expect("pipeline request");
    }

    // B: keeps doing short round-trips throughout.
    let mut healthy = BufReader::new(TcpStream::connect(addr).expect("connect healthy"));
    let evicted = wait_until(Duration::from_secs(10), || {
        assert_eq!(round_trip(&mut healthy, "ping"), "ok:ping");
        observer
            .evictions()
            .contains(&"evict:slow_consumer".to_string())
    });
    assert!(evicted, "slow consumer was never evicted");
    assert_eq!(counters.snapshot().evicted, 1);

    // B is still healthy after A's eviction.
    assert_eq!(round_trip(&mut healthy, "after"), "ok:after");
    reactor.shutdown();
}

#[test]
fn over_limit_connection_gets_one_overload_line_then_eof() {
    let (mut reactor, addr, counters, observer) = start(ReactorConfig {
        max_connections: 1,
        workers: 1,
        ..ReactorConfig::default()
    });

    let mut first = BufReader::new(TcpStream::connect(addr).expect("connect first"));
    assert_eq!(round_trip(&mut first, "hold"), "ok:hold");

    let second = TcpStream::connect(addr).expect("connect second");
    let mut reader = BufReader::new(second);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read overload line");
    assert_eq!(
        line.trim_end(),
        "overloaded:connection limit 1 reached; retry later"
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to eof");
    assert!(rest.is_empty(), "nothing follows the overload line");

    assert!(observer
        .evictions()
        .contains(&"evict:max_connections".to_string()));
    assert_eq!(counters.snapshot().evicted, 1);
    // The first connection is untouched.
    assert_eq!(round_trip(&mut first, "still"), "ok:still");
    reactor.shutdown();
}

#[test]
fn shutdown_drains_the_in_flight_response() {
    // Three connections in flight on one dispatch thread: the drain
    // still answers every one.
    for connections in [1, 3] {
        drain_in_flight(connections);
    }
}

fn drain_in_flight(connections: usize) {
    let (mut reactor, addr, _counters, observer) = start(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    });

    let mut clients: Vec<BufReader<TcpStream>> = (0..connections)
        .map(|_| BufReader::new(TcpStream::connect(addr).expect("connect")))
        .collect();
    for client in &mut clients {
        client
            .get_mut()
            .write_all(b"sleep:200\n")
            .expect("write request");
    }
    // Let the requests reach the dispatch queue before shutdown starts.
    thread::sleep(Duration::from_millis(50));
    reactor.shutdown();

    for client in &mut clients {
        let mut line = String::new();
        client.read_line(&mut line).expect("read drained response");
        assert_eq!(line.trim_end(), "slept:200");
    }
    assert!(
        observer.evictions().contains(&"evict:shutdown".to_string()),
        "survivor should be evicted with reason shutdown, got {:?}",
        observer.evictions()
    );
}

#[test]
fn oversized_line_is_answered_then_connection_closes() {
    let (mut reactor, addr, _counters, _observer) = start(ReactorConfig {
        max_line_bytes: 256,
        workers: 1,
        ..ReactorConfig::default()
    });

    let mut client = BufReader::new(TcpStream::connect(addr).expect("connect"));
    let big = vec![b'a'; 300];
    client.get_mut().write_all(&big).expect("write oversize");
    client.get_mut().write_all(b"\n").expect("write newline");

    let mut line = String::new();
    client.read_line(&mut line).expect("read error line");
    assert_eq!(line.trim_end(), "err:request line exceeds 256 bytes");
    let mut rest = String::new();
    client.read_to_string(&mut rest).expect("read to eof");
    assert!(rest.is_empty(), "connection closes after the error line");
    reactor.shutdown();
}

#[test]
fn a_pipelining_peer_is_not_read_ahead_while_its_request_is_held() {
    const LINE: usize = 4 << 20;
    const LINES: usize = 16;
    let (mut reactor, addr, _counters, service) = start(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    });
    let line = |i: usize| {
        let mut line = format!("hold:{i:02}:").into_bytes();
        line.resize(LINE - 1, b'x');
        line.push(b'\n');
        line
    };
    // Pipeline without blocking until the writes stop making progress.
    // The service holds the first request, so the client gets rid of
    // that line plus only what the kernel's socket buffers absorb.
    let client = TcpStream::connect(addr).expect("connect");
    client.set_nonblocking(true).expect("nonblocking");
    let mut writer = client.try_clone().expect("clone");
    let (mut accepted, mut current, mut progress) = (0, (0, line(0)), Instant::now());
    while accepted < LINES * LINE && progress.elapsed() < Duration::from_millis(500) {
        if current.0 != accepted / LINE {
            current = (accepted / LINE, line(accepted / LINE));
        }
        match writer.write(&current.1[accepted % LINE..]) {
            Ok(n) => (accepted, progress) = (accepted + n, Instant::now()),
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5))
            }
            Err(err) => panic!("pipelined write failed: {err}"),
        }
    }
    service.release();
    assert!(
        accepted < 8 * LINE,
        "the reactor read ahead of a held request: {} lines accepted",
        accepted / LINE
    );

    // Released, every line is answered, in order.
    client.set_nonblocking(false).expect("blocking");
    let rest = thread::spawn(move || {
        writer
            .write_all(&current.1[accepted % LINE..])
            .expect("finish the line");
        for i in accepted / LINE + 1..LINES {
            writer.write_all(&line(i)).expect("pipeline the rest");
        }
    });
    let mut reader = BufReader::new(client);
    for i in 0..LINES {
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("answer");
        assert_eq!(answer.trim_end(), format!("held:{i:02}:{}", LINE - 1));
    }
    rest.join().expect("writer");
    reactor.shutdown();
}
