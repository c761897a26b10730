//! Workspace-level gateway tests through the `panacea` facade: a TCP
//! round trip covering routing, caching and stats, and a hostile
//! request line answered without killing the server. The gateway's own
//! suites (`crates/gateway/tests/`) own the full contract.

use std::sync::Arc;

use panacea::gateway::testutil::models;
use panacea::gateway::{Gateway, GatewayClient, GatewayConfig, GatewayServer};
use panacea::tensor::Matrix;

#[test]
fn deep_nesting_request_line_is_rejected_not_fatal() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let gateway = Arc::new(Gateway::new(models(&["m"], 3), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");

    // The review-scenario payload: a line of a million '[' characters.
    // The parser must answer with a recursion-limit error instead of
    // overflowing the handler thread's stack and aborting the process.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let mut bomb = "[".repeat(1_000_000);
    bomb.push('\n');
    raw.write_all(bomb.as_bytes()).expect("send bomb");
    let mut reply = String::new();
    BufReader::new(&raw)
        .read_line(&mut reply)
        .expect("answered");
    assert!(
        reply.contains("\"ok\":false"),
        "bomb was not rejected: {reply}"
    );
    assert!(
        reply.contains("recursion limit"),
        "wrong rejection for the bomb: {reply}"
    );

    // The server must still serve real traffic afterwards.
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let model = gateway.router().model("m").expect("registered");
    let codes = Matrix::from_fn(model.in_features(), 1, |r, c| ((r * 5 + c) % 100) as i32);
    let (expect, _) = model.forward_codes(&codes);
    let reply = client.infer_codes("m", codes).expect("served after bomb");
    assert_eq!(reply.payload, expect.into());
}

#[test]
fn facade_gateway_round_trip_with_cache_and_stats() {
    let models = models(&["a", "b"], 1);
    let gateway = Arc::new(Gateway::new(models, GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    for name in ["a", "b"] {
        let model = gateway.router().model(name).expect("registered");
        let codes = Matrix::from_fn(model.in_features(), 2, |r, c| {
            ((r * 7 + c * 3) % 150) as i32
        });
        let (expect, _) = model.forward_codes(&codes);

        let cold = client.infer_codes(name, codes.clone()).expect("served");
        assert_eq!(
            cold.payload,
            expect.clone().into(),
            "gateway diverged for {name}"
        );
        assert!(!cold.cache_hit);

        let warm = client.infer_codes(name, codes).expect("served");
        assert!(warm.cache_hit, "repeat of {name} missed the cache");
        assert_eq!(
            warm.payload,
            expect.into(),
            "cache replay diverged for {name}"
        );
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.misses, 2);
    assert_eq!(stats.admission.admitted, 2);
    assert_eq!(stats.shards.iter().map(|s| s.requests).sum::<u64>(), 2);
}
