//! The reactor's resource story under many mostly-idle connections:
//! file descriptors scale with connections, threads stay O(workers),
//! and a mixed load riding on top of the idle mass is served in full.
//!
//! Own test binary (process) on purpose: it reads this process's
//! thread and descriptor counts from `/proc/self`, so no other test may
//! run beside it. 160 sessions hold ~330 descriptors, inside the
//! default 1 024 soft limit.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;

use panacea_gateway::testutil::{block_model, codes, hidden, models};
use panacea_gateway::{Gateway, GatewayClient, GatewayConfig, GatewayServer, ServerConfig};

const SESSIONS: usize = 160;
const ACTIVE_CLIENTS: usize = 8;
const ACTIVE_REQUESTS: usize = 8;

fn proc_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

fn proc_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

/// Half the clients infer on the chain, half step a decode session;
/// every call must be served.
fn mixed_load(addr: SocketAddr, gw: &Gateway) {
    let chain = gw.router().model("chain").expect("registered");
    let start = Barrier::new(ACTIVE_CLIENTS);
    thread::scope(|s| {
        for t in 0..ACTIVE_CLIENTS {
            let (chain, start) = (&chain, &start);
            s.spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                let session = (t % 2 == 1).then(|| client.session_open("block").expect("open"));
                start.wait();
                for i in 0..ACTIVE_REQUESTS {
                    let salt = t * 100 + i;
                    let served = match &session {
                        None => client.infer_codes("chain", codes(chain, 1, salt)).map(drop),
                        Some(open) => client.decode(open.session, hidden(16, 1, salt)).map(drop),
                    };
                    served.expect("active call served");
                }
            });
        }
    });
}

#[test]
fn idle_sessions_cost_descriptors_not_threads_and_load_is_served_over_them() {
    let mut all = models(&["chain"], 21);
    all.push(block_model("block", 22).0);
    let gw = Arc::new(Gateway::new(all, GatewayConfig::default()));
    let workers = ServerConfig::default().workers;
    let (threads_before, fds_before) = (proc_threads(), proc_fds());
    let mut server = GatewayServer::bind(Arc::clone(&gw), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Opened one by one from this thread, so thread growth is the
    // server's alone; each session decodes one token, then idles.
    let mut idle: Vec<(GatewayClient, u64)> = (0..SESSIONS)
        .map(|i| {
            let mut client = GatewayClient::connect(addr).expect("connect");
            let open = client.session_open("block").expect("open");
            client
                .decode(open.session, hidden(16, 1, 7_000 + i))
                .expect("first step");
            (client, open.session)
        })
        .collect();
    let grown = proc_threads() - threads_before;
    assert!(
        grown <= 2 * workers,
        "{SESSIONS} idle connections grew {grown} threads ({workers} workers)"
    );
    let fds = proc_fds() - fds_before;
    assert!(
        fds >= 2 * SESSIONS,
        "{fds} descriptors for {SESSIONS} sessions"
    );

    mixed_load(addr, &gw);

    let stats = GatewayClient::connect(addr)
        .expect("probe")
        .stats()
        .expect("stats");
    assert!(
        stats.connections.open as usize > SESSIONS,
        "{:?}",
        stats.connections
    );
    assert_eq!(stats.connections.evicted, 0, "idle sessions were evicted");
    assert_eq!(
        stats.sheds.total(),
        0,
        "the load was shed: {:?}",
        stats.sheds
    );
    for (client, session) in &mut idle {
        client
            .decode(*session, hidden(16, 1, 9_000))
            .expect("an idle session still decodes");
    }
    server.shutdown();
}
