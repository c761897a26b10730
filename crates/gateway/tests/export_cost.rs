//! What a scrape costs the serving box: one Prometheus exposition plus
//! one JSONL metric line, rendered after mixed traffic has filled every
//! layer's cells, takes at most 3 ms — 3 % of a 100 ms scrape period.
//!
//! Own test binary (process) on purpose: a timing bound must not share
//! the CPU with other tests.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panacea_gateway::testutil::{block_model, codes, hidden, models};
use panacea_gateway::{Gateway, GatewayClient, GatewayConfig, GatewayServer};

const RENDERS: usize = 21;
const BUDGET: Duration = Duration::from_millis(3);

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing bound: run with --release")]
fn one_scrape_of_both_exporters_renders_within_3_ms() {
    let mut all = models(&["chain"], 21);
    all.push(block_model("block", 22).0);
    let gw = Arc::new(Gateway::new(all, GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gw), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let chain = gw.router().model("chain").expect("registered");
    let open = client.session_open("block").expect("open");
    for i in 0..64 {
        client
            .infer_codes("chain", codes(&chain, 1 + i % 3, i))
            .expect("infer");
        client
            .decode(open.session, hidden(16, 1 + i % 2, i))
            .expect("decode");
    }
    client.session_close(open.session).expect("close");

    let mut took: Vec<Duration> = (0..RENDERS)
        .map(|_| {
            let begun = Instant::now();
            black_box((gw.prometheus(), gw.metrics_jsonl()));
            begun.elapsed()
        })
        .collect();
    took.sort_unstable();
    let median = took[RENDERS / 2];
    assert!(
        median <= BUDGET,
        "a scrape took {median:?} (median of {RENDERS})"
    );

    // The bound holds for the full exposition, not a truncated one.
    let exposition = gw.prometheus();
    for needle in [
        "# TYPE panacea_dim_latency_ns histogram",
        "# TYPE panacea_dim_outcomes_total counter",
        "panacea_dim_latency_ns_bucket{model=\"block\",verb=\"block\",stage=\"qkv\",le=\"+Inf\"}",
        "panacea_dim_latency_ns_count{model=\"-\",verb=\"conn\",stage=\"dispatch\"}",
        "panacea_events_total",
    ] {
        assert!(exposition.contains(needle), "exposition lacks {needle:?}");
    }
    let line = gw.metrics_jsonl();
    assert!(!line.contains('\n'), "a JSONL metric line spans lines");
    let v: serde_json::Value = serde_json::from_str(&line).expect("JSONL line parses");
    assert!(v.get("unix_ms").and_then(|t| t.as_u64()).unwrap_or(0) > 0);
}
