//! End-to-end gateway tests over real localhost TCP: bit-exactness
//! against direct runtime execution, cache replay, explicit overload
//! rejections, stats round-trip, cross-thread trace propagation,
//! flight-recorder events with incident snapshots, clean server
//! shutdown, and the client's wrong-kind reply check.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use panacea_gateway::testutil::{codes, models};
use panacea_gateway::{
    AdmissionConfig, CacheConfig, Gateway, GatewayClient, GatewayConfig, GatewayError,
    GatewayServer, Payload,
};
use panacea_serve::{BatchPolicy, RuntimeConfig};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;

#[test]
fn concurrent_clients_get_bit_exact_answers_over_tcp() {
    let names = ["a", "b", "c", "d"];
    let gateway = Arc::new(Gateway::new(models(&names, 1), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut threads = Vec::new();
    for t in 0..6 {
        let gateway = Arc::clone(&gateway);
        threads.push(thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            for i in 0..4 {
                let name = names[(t + i) % names.len()];
                let model = gateway.router().model(name).expect("registered");
                let x = codes(&model, 1 + (t + i) % 3, t * 10 + i);
                let (expect, _) = model.forward_codes(&x);
                let reply = client.infer_codes(name, x).expect("served");
                assert_eq!(
                    reply.payload,
                    expect.into(),
                    "thread {t} request {i} diverged"
                );
                assert!(reply.shard < 2);
            }
        }));
    }
    for th in threads {
        th.join().expect("client thread");
    }
    let served: u64 = gateway
        .stats()
        .shards
        .iter()
        .map(|s| s.requests)
        .sum::<u64>()
        + gateway.stats().cache.hits;
    assert_eq!(served, 24);
}

#[test]
fn repeated_request_is_a_bit_exact_cache_hit() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 2), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 2, 0);
    let first = client.infer_codes("m", x.clone()).expect("served");
    assert!(!first.cache_hit);
    let second = client.infer_codes("m", x).expect("served");
    assert!(second.cache_hit, "identical payload missed the cache");
    assert_eq!(second.payload, first.payload);
    assert_eq!(second.scale, first.scale);
}

#[test]
fn f32_round_trip_matches_local_quantize_and_forward() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 3), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    let mut rng = panacea_tensor::seeded_rng(4);
    let input = DistributionKind::Gaussian {
        mean: 0.2,
        std: 0.5,
    }
    .sample_matrix(model.in_features(), 3, &mut rng);
    let (expect, _) = model.forward(&model.quantize(&input));
    let reply = client.infer_f32("m", input).expect("served");
    assert_eq!(reply.payload, expect, "wire f32 payload diverged");
}

#[test]
fn overload_burst_yields_explicit_rejections_not_unbounded_queueing() {
    // Two permits, lingering batcher: a synchronized 8-client burst must
    // see some Overloaded rejections while every accepted request still
    // completes correctly.
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 5),
        GatewayConfig {
            shards: 1,
            runtime: RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 4096,
                    max_wait: Duration::from_millis(100),
                },
            },
            cache: CacheConfig { max_bytes: 0 }, // force every request through admission
            admission: AdmissionConfig {
                max_in_flight: 2,
                max_queue_wait: Duration::from_secs(10),
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let model = gateway.router().model("m").expect("registered");

    let barrier = Arc::new(Barrier::new(8));
    let mut threads = Vec::new();
    for t in 0..8 {
        let barrier = Arc::clone(&barrier);
        let x = codes(&model, 1, t);
        let expect = model.forward_codes(&x).0;
        threads.push(thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            barrier.wait();
            match client.infer_codes("m", x) {
                Ok(reply) => {
                    assert_eq!(reply.payload, expect.into(), "admitted request diverged");
                    Ok(())
                }
                Err(e) => {
                    assert!(e.is_overloaded(), "unexpected failure: {e}");
                    Err(())
                }
            }
        }));
    }
    let outcomes: Vec<Result<(), ()>> = threads
        .into_iter()
        .map(|th| th.join().expect("client thread"))
        .collect();
    let rejected = outcomes.iter().filter(|o| o.is_err()).count();
    assert!(rejected > 0, "8-way burst over 2 permits saw no rejection");
    assert!(
        rejected < 8,
        "every request was rejected — nothing was served"
    );
    assert_eq!(gateway.stats().admission.rejected_capacity, rejected as u64);
}

#[test]
fn block_requests_round_trip_bit_exactly_over_tcp() {
    use panacea_gateway::testutil::{block_model, direct_forward, hidden};
    let (model, blocks) = block_model("decoder", 40);
    let gateway = Arc::new(Gateway::new(vec![model], GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    for (salt, tokens) in [(0usize, 1usize), (1, 4), (2, 3)] {
        let x = hidden(16, tokens, salt);
        let expect = direct_forward(&blocks, &x);
        let reply = client.infer_hidden("decoder", x).expect("served");
        let got = reply.payload.as_hidden().expect("hidden result");
        assert_eq!(got.shape(), (16, tokens));
        for (a, b) in expect.iter().zip(got.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "TCP block serving diverged from direct execution"
            );
        }
    }

    // Replay: the same sequence must be a bit-exact cache hit.
    let x = hidden(16, 2, 9);
    let cold = client.infer_hidden("decoder", x.clone()).expect("served");
    let warm = client.infer_hidden("decoder", x).expect("served");
    assert!(!cold.cache_hit && warm.cache_hit, "expected a cache replay");
    assert_eq!(cold.payload, warm.payload);

    // Non-finite payloads are rejected client-side before the wire.
    let mut nan = hidden(16, 1, 0);
    nan[(0, 0)] = f32::NAN;
    assert!(client.infer_hidden("decoder", nan).is_err());
}

#[test]
fn decode_sessions_work_over_tcp_with_affinity_and_eviction_errors() {
    use panacea_gateway::testutil::{block_model, hidden};
    let (model, blocks) = block_model("decoder", 41);
    let gateway = Arc::new(Gateway::new(vec![model], GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let open = client.session_open("decoder").expect("opened");
    let prefix = hidden(16, 4, 11);
    // Prefill in one call, then one single-token step.
    let prefill = client
        .decode(open.session, prefix.submatrix(0, 0, 16, 3))
        .expect("prefill");
    assert_eq!(prefill.tokens, 3);
    assert_eq!(prefill.shard, open.shard, "decode left the pinned shard");
    let step = client
        .decode(open.session, prefix.submatrix(0, 3, 16, 1))
        .expect("step");
    assert_eq!(step.tokens, 4);
    assert_eq!(step.shard, open.shard);

    // Oracle: full causal recompute of the whole prefix, last column.
    let mut expect = prefix.clone();
    for b in &blocks {
        expect = b.forward_segments_causal(&expect, &[4]).0;
    }
    for r in 0..16 {
        assert_eq!(
            step.hidden[(r, 0)].to_bits(),
            expect[(r, 3)].to_bits(),
            "TCP decode diverged from causal recompute"
        );
    }

    // Stats over the wire see the session, its KV bytes, and the
    // continuous-batching counters (two steps rode fused passes; a solo
    // client's occupancy is exactly 1 step per pass).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards[open.shard].open_sessions, 1);
    assert_eq!(stats.shards[open.shard].kv_bytes, 2 * 2 * 16 * 4 * 4);
    assert_eq!(stats.shards[open.shard].decode_steps, 2);
    assert_eq!(stats.shards[open.shard].decode_batches, 2);
    assert_eq!(stats.shards[open.shard].decode_batch_occupancy, 1.0);
    // The PE array would pad the 3-column prefill and the single-token
    // step to 4 columns each.
    assert_eq!(stats.shards[open.shard].decode_padded_cols, 1 + 3);

    // Close, then decode/close again: unknown_session on the wire.
    let closed = client.session_close(open.session).expect("closed");
    assert_eq!(closed.tokens, 4);
    for attempt in [
        client.decode(open.session, hidden(16, 1, 0)).unwrap_err(),
        client.session_close(open.session).unwrap_err(),
    ] {
        match attempt {
            panacea_gateway::GatewayError::Remote { kind, .. } => {
                assert_eq!(kind, panacea_gateway::ErrorKind::UnknownSession)
            }
            other => panic!("expected a remote unknown_session error, got {other}"),
        }
    }
}

#[test]
fn stats_expose_padding_and_cancellation_counters_over_the_wire() {
    // The PE array would pad a 3-column request with one column; the
    // counters must be visible to a remote client, not just in-process.
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 9),
        GatewayConfig {
            shards: 1,
            cache: CacheConfig { max_bytes: 0 },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let model = gateway.router().model("m").expect("registered");
    client
        .infer_codes("m", codes(&model, 3, 0))
        .expect("served");
    let stats = client.stats().expect("stats");
    let shard = &stats.shards[0];
    assert_eq!(shard.padded_cols, 1, "padded column not reported");
    assert!(
        (shard.padding_overhead - 0.25).abs() < 1e-12,
        "padding_overhead wrong: {}",
        shard.padding_overhead
    );
    assert_eq!(shard.cancelled, 0);
}

#[test]
fn stats_verb_round_trips_over_the_wire() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 6), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 2, 0);
    client.infer_codes("m", x.clone()).expect("served");
    client.infer_codes("m", x).expect("served");

    // The worker decrements its in-flight counter *after* answering, so
    // wait for the shards to go quiescent before comparing two
    // point-in-time snapshots for exact equality.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let router = gateway.router();
    while (0..router.num_shards()).any(|s| router.shard(s).queue_depth().load() > 0) {
        assert!(
            std::time::Instant::now() < deadline,
            "shards never went quiescent"
        );
        thread::yield_now();
    }
    let stats = client.stats().expect("stats");
    let mut local = gateway.stats();
    // Each snapshot stamps its own strictly-increasing sequence number
    // and uptime; normalize them before the exact-equality comparison.
    assert!(local.seq > stats.seq, "snapshot seq did not increase");
    assert!(local.uptime_ms >= stats.uptime_ms, "uptime went backwards");
    local.seq = stats.seq;
    local.uptime_ms = stats.uptime_ms;
    assert_eq!(stats, local, "wire stats diverged from source");
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1);
    assert!((stats.cache.hit_rate() - 0.5).abs() < 1e-12);
    assert_eq!(stats.admission.admitted, 1);
    assert_eq!(stats.shards.iter().map(|s| s.requests).sum::<u64>(), 1);
}

#[test]
fn metrics_verb_reports_stage_quantiles_over_the_wire() {
    use panacea_gateway::testutil::{block_model, hidden};
    let (model, _) = block_model("decoder", 50);
    let mut set = models(&["chain"], 51);
    set.push(model);
    let gateway = Arc::new(Gateway::new(set, GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    // Traffic on both surfaces: stateless chain inference plus a decode
    // session, so serving-stage and decode-stage histograms both fill.
    let chain = gateway.router().model("chain").expect("registered");
    for salt in 0..3 {
        client
            .infer_codes("chain", codes(&chain, 1, salt))
            .expect("served");
    }
    let open = client.session_open("decoder").expect("opened");
    client.decode(open.session, hidden(16, 2, 1)).expect("step");
    client.session_close(open.session).expect("closed");

    let first = client.metrics().expect("metrics");
    let second = client.metrics().expect("metrics");
    assert!(second.seq > first.seq, "metrics seq did not increase");
    assert!(second.uptime_ms >= first.uptime_ms);

    let cell = |model: &str, verb: &str, stage: &str| {
        first
            .cells
            .iter()
            .find(|c| c.model == model && c.verb == verb && c.stage == stage)
            .unwrap_or_else(|| panic!("cell ({model}, {verb}, {stage}) missing"))
            .clone()
    };
    // Gateway stages: every wire request was parsed, routed, executed.
    for name in ["parse", "route", "execute"] {
        let s = cell("-", "gateway", name);
        assert!(s.count > 0, "gateway stage {name:?} recorded nothing");
        assert!(
            s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max,
            "quantiles out of order for {name:?}: {s:?}"
        );
        assert!(s.sum > 0 && s.max > 0);
        // The traffic is seconds old: the window still holds all of it.
        assert_eq!(s.win_count, s.count);
    }
    // The cache admits the chain requests, so probes were timed too.
    assert!(cell("-", "gateway", "cache_probe").count > 0);
    assert!(cell("-", "gateway", "admission_wait").count > 0);
    // The transport's stages share the store.
    assert!(cell("-", "conn", "dispatch").count > 0);

    // Batch stages, keyed by the model they served: one queue wait per
    // chain request, and every batch formed, executed and split back.
    assert_eq!(cell("chain", "batch", "queue_wait").count, 3);
    let batches = cell("chain", "batch", "execute").count;
    assert!(
        (1..=3).contains(&batches),
        "{batches} batches for 3 requests"
    );
    for name in ["batch_form", "split_back"] {
        let s = cell("chain", "batch", name);
        assert_eq!(s.count, batches, "batch stage {name:?} missed a batch");
        assert!(s.p50 <= s.max, "p50 exceeds max for {name:?}");
    }
    // The decode session: one step riding one fused pass, with an
    // occupancy of exactly 1 for a solo client — a raw count the wire
    // carries unscaled.
    for name in ["step", "linger", "fused_pass"] {
        assert_eq!(cell("decoder", "decode", name).count, 1, "{name:?}");
    }
    let occupancy = cell("decoder", "decode", "occupancy");
    assert_eq!((occupancy.count, occupancy.max, occupancy.p50), (1, 1, 1));

    // Block sub-layer stages: that pass's time per sub-layer, under the
    // model that ran it — and none for the chain, which runs no block.
    for name in ["qkv", "attn", "proj", "fc1", "fc2"] {
        let s = cell("decoder", "block", name);
        assert_eq!(s.count, 1, "block stage {name:?}");
        assert!(s.sum > 0, "block stage {name:?} timed nothing");
    }
    assert!(!first
        .cells
        .iter()
        .any(|c| c.model == "chain" && c.verb == "block"));
}

#[test]
fn block_stage_cells_are_isolated_per_gateway() {
    use panacea_gateway::testutil::{block_model, hidden};
    let gateway_with_decoder = |seed| {
        let (model, _) = block_model("decoder", seed);
        Gateway::new(vec![model], GatewayConfig::default())
    };
    let (a, b) = (gateway_with_decoder(52), gateway_with_decoder(52));
    // Both resolve their block cells (a session open does), but only A
    // runs any block: a stateless infer plus a decode step.
    let open_a = a.session_open("decoder").expect("opened");
    let open_b = b.session_open("decoder").expect("opened");
    a.infer(
        "decoder",
        panacea_gateway::Payload::Hidden(hidden(16, 3, 0)),
    )
    .expect("served");
    a.decode(open_a.session, &hidden(16, 2, 1)).expect("step");
    b.session_close(open_b.session).expect("closed");

    let block_counts = |g: &Gateway| -> Vec<u64> {
        let cells = g.metrics().cells;
        cells
            .iter()
            .filter(|c| c.verb == "block")
            .map(|c| c.count)
            .collect()
    };
    assert_eq!(block_counts(&a), [2; 5], "A: one sample per pass per stage");
    assert_eq!(block_counts(&b), [0; 5], "A's block traffic leaked into B");
}

#[test]
fn metrics_verb_prometheus_and_jsonl_are_views_of_one_store() {
    use panacea_gateway::protocol::{decode_response, encode_response, Request, Response};
    use panacea_gateway::testutil::{block_model, hidden};
    use std::collections::BTreeMap;
    type Counts = BTreeMap<(String, String, String), u64>;

    let (model, _) = block_model("decoder", 53);
    let mut set = models(&["chain"], 54);
    set.push(model);
    let gateway = Gateway::new(set, GatewayConfig::default());
    // Mixed traffic, driven in-process so nothing records once it
    // returns: 4 distinct chain infers (one a cache replay) and a
    // 3-step decode session.
    let chain = gateway.router().model("chain").expect("registered");
    for salt in [0, 1, 2, 2] {
        gateway
            .infer("chain", codes(&chain, 1, salt).into())
            .expect("served");
    }
    let open = gateway.session_open("decoder").expect("opened");
    for i in 0..3 {
        gateway
            .decode(open.session, &hidden(16, 1, i))
            .expect("step");
    }
    gateway.session_close(open.session).expect("closed");

    // View 1: the metrics verb, through the wire codec.
    let line = encode_response(&gateway.handle(Request::Metrics));
    let Response::Metrics(metrics) = decode_response(&line).expect("decodes") else {
        panic!("metrics verb answered something else: {line}");
    };
    let verb: Counts = metrics
        .cells
        .iter()
        .map(|c| ((c.model.clone(), c.verb.clone(), c.stage.clone()), c.count))
        .collect();
    // View 2: the Prometheus exposition's `_count` series, parsed back.
    let label = |line: &str, name: &str| {
        let rest = &line[line.find(&format!("{name}=\"")).expect("label") + name.len() + 2..];
        rest[..rest.find('"').expect("label closes")].to_string()
    };
    let prom: Counts = gateway
        .prometheus()
        .lines()
        .filter(|l| l.starts_with("panacea_dim_latency_ns_count{"))
        .map(|l| {
            let count = l.rsplit_once(' ').expect("value").1.parse().expect("count");
            (
                (label(l, "model"), label(l, "verb"), label(l, "stage")),
                count,
            )
        })
        .collect();
    // View 3: the JSONL metric line.
    let jsonl: serde_json::Value =
        serde_json::from_str(&gateway.metrics_jsonl()).expect("JSONL line parses");
    let text = |c: &serde_json::Value, k: &str| c.get(k).and_then(|v| v.as_str()).unwrap().into();
    let jsonl: Counts = jsonl
        .get("cells")
        .and_then(|c| c.as_array())
        .expect("cells array")
        .iter()
        .map(|c| {
            let count = c.get("count").and_then(|v| v.as_u64()).expect("count");
            ((text(c, "model"), text(c, "verb"), text(c, "stage")), count)
        })
        .collect();
    assert!(!verb.is_empty());
    assert_eq!(verb, prom, "metrics verb and Prometheus disagree");
    assert_eq!(verb, jsonl, "metrics verb and JSONL disagree");

    // One store means one sample per event: the cells agree with the
    // typed counters that count the same events.
    let stats = gateway.stats();
    let count = |m: &str, v: &str, s: &str| verb[&(m.to_string(), v.to_string(), s.to_string())];
    let total =
        |f: fn(&panacea_gateway::ShardStats) -> u64| stats.shards.iter().map(f).sum::<u64>();
    assert_eq!(count("chain", "batch", "execute"), total(|s| s.batches));
    assert_eq!(
        count("chain", "batch", "queue_wait"),
        3,
        "the replay never queued"
    );
    assert_eq!(count("decoder", "decode", "step"), 3);
    assert_eq!(
        count("decoder", "decode", "fused_pass"),
        total(|s| s.decode_batches)
    );
    assert_eq!(
        count("decoder", "block", "qkv"),
        total(|s| s.decode_batches)
    );
    assert_eq!(count("chain", "infer", "request"), 4);
}

#[test]
fn slow_requests_are_pinned_and_retrievable_via_trace_verb() {
    use panacea_gateway::TraceConfig;
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 10),
        GatewayConfig {
            // Zero threshold: every request counts as slow, so the test
            // needs no artificial delay to pin a trace.
            trace: TraceConfig {
                slow_threshold: Duration::ZERO,
                ..TraceConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    client
        .infer_codes("m", codes(&model, 2, 4))
        .expect("served");

    let reply = client.trace(8).expect("trace");
    assert!(!reply.traces.is_empty(), "slow request was not pinned");
    let trace = reply
        .traces
        .iter()
        .find(|t| t.verb == "infer")
        .expect("no infer trace pinned");

    // The span list is a complete tree: a root covering the request,
    // every other span parented within the trace, offsets and durations
    // inside the root's window.
    assert!(!trace.spans.is_empty());
    let root = &trace.spans[0];
    assert_eq!(root.id, 0);
    assert_eq!(root.parent, None);
    assert_eq!(root.stage, "infer");
    assert_eq!(root.dur_us, trace.total_us);
    let stages: Vec<&str> = trace.spans.iter().map(|s| s.stage.as_str()).collect();
    for expect in ["route", "cache_probe", "admission_wait", "execute"] {
        assert!(
            stages.contains(&expect),
            "stage {expect:?} missing: {stages:?}"
        );
    }
    for span in &trace.spans[1..] {
        let parent = span.parent.expect("non-root span lost its parent");
        assert!(parent < span.id, "parent does not precede child");
        assert!(span.start_us <= trace.total_us);
        assert!(span.dur_us <= trace.total_us);
    }

    // The limit is honored: more traffic, then ask for just one trace.
    client
        .infer_codes("m", codes(&model, 1, 5))
        .expect("served");
    let limited = client.trace(1).expect("trace");
    assert_eq!(limited.traces.len(), 1);
    // Newest first: the second request's trace outranks the first's.
    assert!(limited.traces[0].id > trace.id);
}

#[test]
fn health_verb_reports_ok_and_dims_appear_in_metrics_after_traffic() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 11), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    for salt in 0..3 {
        client
            .infer_codes("m", codes(&model, 1, salt))
            .expect("served");
    }

    // Default SLO budgets are generous: light successful traffic is ok.
    let health = client.health().expect("health");
    assert_eq!(health.status, panacea_gateway::SloStatus::Ok);
    assert!(!health.targets.is_empty(), "default SLO config has targets");
    let latency = health
        .targets
        .iter()
        .find(|t| t.name == "latency")
        .expect("latency target");
    assert!(latency.samples > 0, "latency target saw no traffic");
    assert!(latency.burn_rate < 1.0, "{:?}", latency);

    // The same traffic shows up as a (model, verb, stage) dimension in
    // the metrics verb's windowed summaries.
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.window_ms > 0);
    let dim = metrics
        .cells
        .iter()
        .find(|d| d.model == "m" && d.verb == "infer" && d.stage == "request")
        .expect("no (m, infer, request) dimension recorded");
    assert_eq!(dim.ok, 3);
    assert_eq!(dim.error, 0);
    assert_eq!(dim.shed, 0);
    assert!(dim.count >= 3, "latency samples missing: {dim:?}");
}

#[test]
fn server_cells_time_the_same_requests_the_clients_time() {
    use panacea_gateway::testutil::{block_model, hidden};
    const REQUESTS: usize = 12;
    let (model, _) = block_model("block", 60);
    let mut set = models(&["chain"], 61);
    set.push(model);
    let gateway = Arc::new(Gateway::new(set, GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Two infer clients and two decode clients, every round trip timed.
    let start = Arc::new(Barrier::new(4));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let (gateway, start) = (Arc::clone(&gateway), Arc::clone(&start));
            thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                let chain = gateway.router().model("chain").expect("registered");
                let session = (t % 2 == 1).then(|| client.session_open("block").expect("open"));
                start.wait();
                (0..REQUESTS)
                    .map(|i| {
                        let begun = Instant::now();
                        let served = match &session {
                            None => client
                                .infer_codes("chain", codes(&chain, 1, t * 20 + i))
                                .map(drop),
                            Some(open) => client.decode(open.session, hidden(16, 1, i)).map(drop),
                        };
                        served.expect("served");
                        begun.elapsed()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut client_times = [Vec::new(), Vec::new()];
    for (t, th) in threads.into_iter().enumerate() {
        client_times[t % 2].extend(th.join().expect("client thread"));
    }

    // The cells time each request inside the gateway, after its line is
    // parsed and before its reply is encoded, so their p99 sits inside
    // the client's: histogram buckets round up by ≤ 1/32, and the two
    // p99s are different single samples, hence the slack. The exact
    // count and a p50 floor show the cells time these very requests —
    // and one stalled round trip cannot move a p50.
    let metrics = GatewayClient::connect(addr)
        .expect("connect")
        .metrics()
        .expect("metrics");
    for (times, (model, verb, stage)) in client_times
        .iter_mut()
        .zip([("chain", "infer", "request"), ("block", "decode", "step")])
    {
        times.sort_unstable();
        let client_ns = |q: f64| {
            let rank = (q * times.len() as f64).ceil() as usize;
            times[rank.clamp(1, times.len()) - 1].as_nanos() as f64
        };
        let cell = metrics
            .cells
            .iter()
            .find(|c| (c.model.as_str(), c.verb.as_str(), c.stage.as_str()) == (model, verb, stage))
            .unwrap_or_else(|| panic!("no ({model}, {verb}, {stage}) cell"));
        // The request cell counts outcomes; the step cell records only
        // steps that succeeded.
        let ok = if stage == "request" {
            cell.ok
        } else {
            cell.win_count
        };
        assert_eq!(ok, 2 * REQUESTS as u64, "{verb}: {cell:?}");
        assert!(
            cell.win_p99 as f64 <= client_ns(0.99) * 1.10 + 1e6,
            "{verb}: server p99 {} ns above client p99 {} ns",
            cell.win_p99,
            client_ns(0.99)
        );
        assert!(
            cell.win_p50 as f64 >= client_ns(0.50) * 0.02,
            "{verb}: server p50 {} ns implausibly below client p50 {} ns",
            cell.win_p50,
            client_ns(0.50)
        );
    }
}

#[test]
fn sheds_flip_health_and_are_broken_down_by_reason_in_stats() {
    use panacea_gateway::{SloConfig, SloTarget};
    // One permit, lingering batcher, no cache: a synchronized burst must
    // shed most of itself. The SLO allows zero sheds, so any shed at all
    // burns critically.
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 12),
        GatewayConfig {
            shards: 1,
            runtime: RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 4096,
                    max_wait: Duration::from_millis(100),
                },
            },
            cache: CacheConfig { max_bytes: 0 },
            admission: AdmissionConfig {
                max_in_flight: 1,
                max_queue_wait: Duration::from_secs(10),
            },
            slo: SloConfig {
                targets: vec![SloTarget {
                    max_shed_rate: Some(0.0),
                    ..SloTarget::over("no-sheds", Duration::from_secs(10))
                }],
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let model = gateway.router().model("m").expect("registered");

    let barrier = Arc::new(Barrier::new(6));
    let mut threads = Vec::new();
    for t in 0..6 {
        let barrier = Arc::clone(&barrier);
        let x = codes(&model, 1, t);
        threads.push(thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            barrier.wait();
            match client.infer_codes("m", x) {
                Ok(_) => false,
                Err(e) => {
                    assert!(e.is_overloaded(), "unexpected failure: {e}");
                    true
                }
            }
        }));
    }
    let rejected = threads
        .into_iter()
        .map(|th| th.join().expect("client thread"))
        .filter(|&r| r)
        .count();
    assert!(rejected > 0, "6-way burst over 1 permit saw no shed");

    let mut client = GatewayClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.sheds.in_flight, rejected as u64,
        "per-reason shed counter disagrees with observed rejections"
    );
    assert_eq!(stats.sheds.queue_wait, 0);
    assert_eq!(stats.sheds.kv_budget, 0);
    assert_eq!(stats.sheds.total(), stats.admission.rejected_capacity);

    // Zero shed budget + real sheds: the health verdict burns critical.
    let health = client.health().expect("health");
    assert_eq!(health.status, panacea_gateway::SloStatus::Critical);
    let target = &health.targets[0];
    assert_eq!(target.name, "no-sheds");
    assert!(target.shed_rate > 0.0);
    assert!(target.burn_rate > 1.0, "{target:?}");
}

#[test]
fn recent_trace_ring_returns_fast_requests_the_slow_ring_skips() {
    use panacea_gateway::TraceConfig;
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 13),
        GatewayConfig {
            // Nothing is "slow" under a 60s threshold, so the slow ring
            // stays empty while the recent ring records everything.
            trace: TraceConfig {
                slow_threshold: Duration::from_secs(60),
                ..TraceConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    client
        .infer_codes("m", codes(&model, 1, 9))
        .expect("served");

    let slow = client.trace(8).expect("trace");
    assert!(slow.traces.is_empty(), "fast request pinned as slow");
    let recent = client.trace_recent(8).expect("trace recent");
    assert!(!recent.traces.is_empty(), "recent ring recorded nothing");
    assert_eq!(recent.traces[0].verb, "infer");
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    let gateway = Arc::new(Gateway::new(models(&["m"], 7), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"this is not json\n").expect("write");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("bad_request"), "got {line:?}");

    // The same connection still serves valid requests afterwards.
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 1, 0);
    let expect = model.forward_codes(&x).0;
    let req = panacea_gateway::protocol::encode_request(&panacea_gateway::Request::Infer {
        model: "m".to_string(),
        payload: panacea_gateway::Payload::Codes(x),
        deadline_ms: None,
    });
    raw.write_all(req.as_bytes()).expect("write");
    raw.write_all(b"\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let resp = panacea_gateway::protocol::decode_response(&line).expect("decode");
    match resp {
        panacea_gateway::Response::Infer(reply) => assert_eq!(reply.payload, expect.into()),
        other => panic!("expected an inference, got {other:?}"),
    }
}

#[test]
fn decode_traces_stitch_cross_thread_spans_over_tcp() {
    use panacea_gateway::testutil::{block_model, hidden};
    use panacea_gateway::TraceConfig;
    let (model, _) = block_model("decoder", 70);
    let gateway = Arc::new(Gateway::new(
        vec![model],
        GatewayConfig {
            // Zero threshold pins every request, so the decode's trace
            // is retrievable without artificial delays.
            trace: TraceConfig {
                slow_threshold: Duration::ZERO,
                ..TraceConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let open = client.session_open("decoder").expect("opened");
    client.decode(open.session, hidden(16, 2, 1)).expect("step");
    client.session_close(open.session).expect("closed");

    // The decode executed on the shard's decode-batch worker thread,
    // yet its TCP-fetched trace must be one stitched span tree: the
    // request root, the gateway's execute span, and under it the
    // worker-side queue_wait and decode_pass spans.
    let reply = client.trace(8).expect("trace");
    let trace = reply
        .traces
        .iter()
        .find(|t| t.verb == "decode")
        .expect("decode trace not pinned");
    assert!(trace.unix_ms > 0, "wall-clock anchor missing");
    let root = &trace.spans[0];
    assert_eq!(root.id, 0);
    assert_eq!(root.parent, None);
    assert_eq!(root.stage, "decode");
    let execute = trace
        .spans
        .iter()
        .find(|s| s.stage == "execute")
        .expect("execute span missing");
    assert_eq!(execute.parent, Some(0), "execute not under the root");
    for stage in ["queue_wait", "decode_pass"] {
        let span = trace
            .spans
            .iter()
            .find(|s| s.stage == stage)
            .unwrap_or_else(|| panic!("cross-thread stage {stage:?} missing from the trace"));
        assert_eq!(
            span.parent,
            Some(execute.id),
            "{stage:?} not parented under the gateway's execute span"
        );
        assert!(span.start_us <= trace.total_us);
        assert!(span.dur_us <= trace.total_us);
    }
    // A solo session's fused pass served only this request: no links.
    let pass = trace
        .spans
        .iter()
        .find(|s| s.stage == "decode_pass")
        .expect("checked above");
    assert!(pass.links.is_empty(), "solo pass linked {:?}", pass.links);

    // The session's lifecycle and the pass itself landed in the flight
    // recorder, retrievable over the same wire.
    let events = client.events(64).expect("events");
    for kind in [
        "model_register",
        "session_open",
        "batch_formed",
        "session_close",
    ] {
        assert!(
            events.events.iter().any(|e| e.kind == kind),
            "event kind {kind:?} missing from the ring"
        );
    }
    assert!(events.events.iter().all(|e| e.unix_ms > 0));
    assert!(events.pinned.is_none(), "healthy run pinned an incident");
}

#[test]
fn fused_decode_passes_link_every_participating_trace() {
    use panacea_gateway::testutil::{block_model, hidden};
    use panacea_gateway::{SessionConfig, TraceConfig};
    // One shard and a generous linger window so two concurrent steps
    // fuse into one decode pass; zero slow threshold pins both traces.
    let (model, _) = block_model("decoder", 71);
    let gateway = Arc::new(Gateway::new(
        vec![model],
        GatewayConfig {
            shards: 1,
            session: SessionConfig {
                decode_max_wait: Duration::from_millis(500),
                ..SessionConfig::default()
            },
            trace: TraceConfig {
                slow_threshold: Duration::ZERO,
                ..TraceConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Scheduling can still slip a step past the linger window, so retry
    // the whole two-client round until a pass actually fused.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let mut client = GatewayClient::connect(addr).expect("connect");
                    let open = client.session_open("decoder").expect("opened");
                    barrier.wait();
                    client.decode(open.session, hidden(16, 1, t)).expect("step");
                    client.session_close(open.session).expect("closed");
                })
            })
            .collect();
        for th in threads {
            th.join().expect("client thread");
        }
        let mut client = GatewayClient::connect(addr).expect("connect");
        let reply = client.trace(16).expect("trace");
        let decodes: Vec<_> = reply.traces.iter().filter(|t| t.verb == "decode").collect();
        let linked: Vec<_> = decodes
            .iter()
            .filter_map(|t| {
                t.spans
                    .iter()
                    .find(|s| s.stage == "decode_pass" && !s.links.is_empty())
                    .map(|s| (t.id, s.links.clone()))
            })
            .collect();
        if linked.len() == 2 {
            // Each trace's pass span links exactly the *other*
            // participant, never itself.
            let (a, a_links) = &linked[0];
            let (b, b_links) = &linked[1];
            assert_eq!(a_links, &vec![*b], "trace {a} links wrong set");
            assert_eq!(b_links, &vec![*a], "trace {b} links wrong set");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "steps never fused into one pass; last round's traces: {decodes:?}"
        );
    }
}

#[test]
fn health_flip_pins_an_incident_retrievable_after_recovery() {
    use panacea_gateway::{SloConfig, SloStatus, SloTarget};
    // Zero shed budget over a short window: one shed burns critical,
    // and once the shed ages out of the window health recovers — but
    // the pinned snapshot must still tell the story.
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 14),
        GatewayConfig {
            shards: 1,
            cache: CacheConfig { max_bytes: 0 },
            admission: AdmissionConfig {
                max_in_flight: 1,
                max_queue_wait: Duration::from_secs(10),
            },
            slo: SloConfig {
                targets: vec![SloTarget {
                    max_shed_rate: Some(0.0),
                    ..SloTarget::over("no-sheds", Duration::from_millis(300))
                }],
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let model = gateway.router().model("m").expect("registered");

    // Deliberate overload: hold the only permit, then send a request.
    let permit = gateway.admission().try_admit().expect("permit");
    let shed = client.infer_codes("m", codes(&model, 1, 0));
    assert!(shed
        .expect_err("request served past the held permit")
        .is_overloaded());
    drop(permit);

    // The next health evaluation notices the flip and pins a snapshot.
    let health = client.health().expect("health");
    assert_eq!(health.status, SloStatus::Critical);

    // Wait out the SLO window: the shed ages out and health recovers
    // (an empty window is ok — no traffic is not an outage).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let health = client.health().expect("health");
        if health.status == SloStatus::Ok {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "health never recovered: {health:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // The incident survives recovery: pinned snapshot frozen at the
    // flip, with the shed, the transition, and the dims that burned.
    let reply = client.events(64).expect("events");
    let pinned = reply.pinned.expect("no incident snapshot pinned");
    assert_eq!(pinned.status, SloStatus::Critical);
    assert!(pinned.unix_ms > 0);
    assert!(
        pinned.events.iter().any(|e| e.kind == "shed"
            && e.severity == "warn"
            && e.detail.contains("reason=in_flight")),
        "shed event missing from the snapshot: {:?}",
        pinned.events
    );
    assert!(
        pinned
            .events
            .iter()
            .any(|e| e.kind == "health_transition" && e.detail.contains("to=critical")),
        "flip transition missing from the snapshot"
    );
    assert!(
        pinned.cells.iter().any(|d| d.shed > 0),
        "frozen dims lost the shed: {:?}",
        pinned.cells
    );
    // The live ring additionally recorded the recovery transition.
    assert!(
        reply.events.iter().any(|e| e.kind == "health_transition"
            && e.severity == "info"
            && e.detail.contains("to=ok")),
        "recovery transition missing from the ring: {:?}",
        reply.events
    );
}

#[test]
fn server_shutdown_joins_threads_and_refuses_new_connections() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 8), GatewayConfig::default()));
    let mut server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // An idle connected client must not block shutdown.
    let _idle = GatewayClient::connect(addr).expect("connect");
    server.shutdown();
    server.shutdown(); // idempotent

    // After shutdown the port no longer answers the protocol: either the
    // connection is refused outright or it closes without a response.
    if let Ok(mut client) = GatewayClient::connect(addr) {
        let model = gateway.router().model("m").expect("registered");
        assert!(client.infer_codes("m", codes(&model, 1, 0)).is_err());
    }
}

#[test]
fn connection_gauges_and_lifecycle_events_flow_over_the_wire() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 21), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut observer_client = GatewayClient::connect(addr).expect("connect");
    let mut transient = GatewayClient::connect(addr).expect("connect");
    assert!(transient.stats().is_ok(), "transient client must serve");

    let stats = observer_client.stats().expect("stats");
    assert!(
        stats.connections.open >= 2,
        "both live connections should be counted open: {:?}",
        stats.connections
    );
    assert!(stats.connections.peak >= 2);
    assert_eq!(stats.connections.evicted, 0);

    // Dropping one client drains the gauge (the close is asynchronous,
    // so poll briefly) and leaves a close event in the recorder.
    drop(transient);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let s = observer_client.stats().expect("stats");
        if s.connections.open <= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "open gauge never drained: {:?}",
            s.connections
        );
        thread::sleep(Duration::from_millis(10));
    }
    let events = observer_client.events(64).expect("events");
    for kind in ["conn_open", "conn_close"] {
        assert!(
            events.events.iter().any(|e| e.kind == kind),
            "event kind {kind:?} missing from the ring: {:?}",
            events.events
        );
    }
}

#[test]
fn over_limit_connection_is_counted_evicted_with_reason() {
    use panacea_gateway::ServerConfig;
    let gateway = Arc::new(Gateway::new(models(&["m"], 22), GatewayConfig::default()));
    let server = GatewayServer::bind_with(
        Arc::clone(&gateway),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let mut first = GatewayClient::connect(server.local_addr()).expect("connect");
    assert!(first.stats().is_ok(), "in-limit connection must serve");
    let mut second = GatewayClient::connect(server.local_addr()).expect("connect");
    let err = second.stats().expect_err("over-limit connection served");
    assert!(err.is_overloaded(), "wrong rejection: {err}");

    let stats = first.stats().expect("stats");
    assert_eq!(stats.connections.evicted, 1, "{:?}", stats.connections);
    let events = first.events(64).expect("events");
    assert!(
        events.events.iter().any(|e| e.kind == "conn_evict"
            && e.severity == "warn"
            && e.detail.contains("reason=max_connections")),
        "max_connections eviction missing from the ring: {:?}",
        events.events
    );
}

#[test]
fn reactor_evicts_slow_consumers_and_drain_evicts_survivors() {
    use panacea_gateway::ServerConfig;
    use std::io::Write;
    use std::net::TcpStream;
    // A tiny write backlog and a short stall timeout so a non-reading
    // client is evicted quickly. netcore's `reactor_loopback` suite owns
    // the eviction and the drain themselves; this checks that they
    // surface as flight-recorder events on the gateway.
    let gateway = Arc::new(Gateway::new(models(&["m"], 23), GatewayConfig::default()));
    let mut server = GatewayServer::bind_with(
        Arc::clone(&gateway),
        "127.0.0.1:0",
        ServerConfig {
            max_write_backlog: 16 * 1024,
            write_stall_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // The slow consumer pipelines stats requests forever and never
    // reads a byte: once the kernel socket buffers on both sides fill,
    // its write backlog stalls past the timeout. The writer thread dies
    // when the eviction resets the connection.
    let slow = TcpStream::connect(addr).expect("connect slow");
    let slow_writer = thread::spawn(move || {
        let mut slow = slow;
        while slow.write_all(b"{\"verb\":\"stats\"}\n").is_ok() {}
    });

    // A healthy client keeps being served throughout and watches for
    // the eviction over the events verb.
    let mut healthy = GatewayClient::connect(addr).expect("connect healthy");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let events = healthy.events(64).expect("events");
        if events
            .events
            .iter()
            .any(|e| e.kind == "conn_evict" && e.detail.contains("reason=slow_consumer"))
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slow consumer never evicted: {:?}",
            events.events
        );
        thread::sleep(Duration::from_millis(25));
    }
    slow_writer.join().expect("slow writer");

    // Shutdown drains, then evicts the surviving idle connection with
    // reason=shutdown — visible in-process after the server is gone.
    server.shutdown();
    assert!(
        gateway
            .events(64)
            .events
            .iter()
            .any(|e| e.kind == "conn_evict" && e.detail.contains("reason=shutdown")),
        "shutdown eviction missing from the ring"
    );
}

/// Each client method with a reply check of its own, by its verb, with
/// the reply dropped (the shorthands share these checks).
type Call = fn(&mut GatewayClient) -> Result<(), GatewayError>;

const CALLS: [(&str, Call); 10] = [
    ("infer", |c| {
        c.infer("m", Payload::Codes(Matrix::zeros(4, 1))).map(drop)
    }),
    ("infer", |c| c.infer_f32("m", Matrix::zeros(4, 1)).map(drop)),
    ("session_open", |c| c.session_open("m").map(drop)),
    ("decode", |c| c.decode(1, Matrix::zeros(4, 1)).map(drop)),
    ("session_close", |c| c.session_close(1).map(drop)),
    ("stats", |c| c.stats().map(drop)),
    ("metrics", |c| c.metrics().map(drop)),
    ("trace", |c| c.trace(1).map(drop)),
    ("health", |c| c.health().map(drop)),
    ("events", |c| c.events(1).map(drop)),
];

#[test]
fn a_reply_of_the_wrong_kind_is_a_protocol_error_naming_the_verb_and_the_kind() {
    // Two fixed replies, so every method meets one it did not ask for.
    for (kind, line) in [
        (
            "session_close",
            "{\"ok\":true,\"kind\":\"session_close\",\"session\":1,\"tokens\":0}\n",
        ),
        (
            "session_open",
            "{\"ok\":true,\"kind\":\"session_open\",\"session\":1,\"shard\":0}\n",
        ),
    ] {
        // Answers every line of one connection with the same reply.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for _ in BufReader::new(stream).lines().map_while(Result::ok) {
                writer.write_all(line.as_bytes()).expect("answer");
            }
        });
        let mut client = GatewayClient::connect(addr).expect("connect");
        for (verb, call) in CALLS.iter().filter(|(verb, _)| *verb != kind) {
            match call(&mut client) {
                Err(GatewayError::Protocol(message)) => assert!(
                    message.contains(&format!("the {verb} request"))
                        && message.contains(&format!("{kind:?}")),
                    "{verb} under a {kind} reply: {message}"
                ),
                other => panic!("{verb} under a {kind} reply: {other:?}"),
            }
        }
        drop(client);
        server.join().expect("fixed-reply server");
    }
}
