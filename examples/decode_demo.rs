//! Stateful decode-session demo: multi-client autoregressive decode
//! through a localhost TCP gateway, with three gates:
//!
//! 1. **cached-vs-recompute agreement** — every KV-cached decode step
//!    served by the gateway is bit-identical to a full causal recompute
//!    (`forward_segments_causal`) of the session's whole prefix;
//! 2. **cross-client determinism** — concurrent sessions fed the same
//!    token stream produce bit-identical generations;
//! 3. **continuous batching** — 8 concurrent sessions' single-token
//!    steps fuse into shared GEMM passes (batch occupancy > 1),
//!    and their outputs stay bit-identical to the batching-disabled
//!    serial path (the speed-up itself is `decode_bench`'s gate);
//! 4. **session lifecycle** — stats report the sessions and their KV
//!    bytes while open, closing frees them, and a closed session errors
//!    with `unknown_session`.
//!
//! It also prints decode throughput (tokens/s) at prefix lengths
//! {16, 64, 256} for both the KV-cached path (per-token cost ~flat in
//! the prefix) and the full recompute an O(tokens²) stateless loop
//! would pay per token (grows linearly), and finally the metric cells
//! the run filled plus its most recent trace.
//!
//! Run with: `cargo run --release --example decode_demo`

use std::sync::{Arc, Barrier};
use std::time::Instant;

use panacea::block::{zoo_hidden_states, zoo_transformer, BlockBuilder, QuantizedBlock};
use panacea::gateway::{Gateway, GatewayClient, GatewayConfig, GatewayServer, ServerConfig};
use panacea::models::engine::TransformerConfig;
use panacea::models::zoo::Benchmark;
use panacea::serve::PreparedModel;
use panacea::tensor::{ops, Matrix};

const D_MODEL: usize = 32;
const CLIENTS: usize = 3;
const GEN_TOKENS: usize = 8;

fn prefix_tokens(len: usize) -> Matrix<f32> {
    Matrix::from_fn(D_MODEL, len, |r, c| {
        (((r * 29 + c * 11) % 89) as f32 - 44.0) / 22.0
    })
}

/// The demo's "sampler": the next input token is the LayerNorm of the
/// previous output column — deterministic, finite, and magnitude-stable,
/// standing in for embed(argmax(logits)) in a stack with no LM head.
fn next_token(out: &Matrix<f32>) -> Matrix<f32> {
    let last = out.submatrix(0, out.cols() - 1, D_MODEL, 1);
    ops::layer_norm(&last)
}

/// Full causal recompute oracle: the entire prefix through the stack,
/// returning the last token's output column.
fn recompute_last(blocks: &[QuantizedBlock], inputs: &Matrix<f32>) -> Matrix<f32> {
    let mut h = inputs.clone();
    for b in blocks {
        h = b.forward_segments_causal(&h, &[h.cols()]).0;
    }
    h.submatrix(0, h.cols() - 1, D_MODEL, 1)
}

fn main() {
    // 1. A 2-block decoder with GPT-2 zoo-distribution weights.
    let cfg = TransformerConfig {
        d_model: D_MODEL,
        n_heads: 4,
        d_ff: 64,
        n_layers: 2,
    };
    let oracle = zoo_transformer(Benchmark::Gpt2, cfg, 17);
    let calibration = zoo_hidden_states(Benchmark::Gpt2, D_MODEL, 48, 18);
    let blocks = BlockBuilder::default()
        .prepare(&oracle, &calibration)
        .expect("prepare blocks");
    let model = Arc::new(PreparedModel::from_blocks("decoder", blocks.clone()).expect("servable"));
    let gateway = Arc::new(Gateway::from_shared(
        vec![Arc::clone(&model)],
        GatewayConfig::default(),
    ));
    // Fused-decode occupancy is bounded by the in-flight request cap —
    // the server's worker pool. The batching phase below drives 8
    // concurrent sessions and gates their fusion, so provision at least
    // that many execution workers.
    let server = GatewayServer::bind_with(
        Arc::clone(&gateway),
        "127.0.0.1:0",
        ServerConfig {
            workers: BATCH_SESSIONS,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    println!(
        "decode gateway on {addr} ({} blocks, d_model={D_MODEL}, {} clients)",
        blocks.len(),
        CLIENTS
    );
    println!(
        "\n{:>7}  {:>16}  {:>18}  {:>8}",
        "prefix", "cached tok/s", "recompute tok/s", "speedup"
    );

    for prefix_len in [16usize, 64, 256] {
        let prefix = prefix_tokens(prefix_len);

        // 2. Concurrent clients, each with its own session, decoding
        //    the same stream: prefill the prefix, then generate
        //    GEN_TOKENS autoregressively.
        let mut threads = Vec::new();
        for _ in 0..CLIENTS {
            let prefix = prefix.clone();
            threads.push(std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                let open = client.session_open("decoder").expect("opened");
                let mut outs: Vec<Matrix<f32>> = Vec::new();
                let prefill = client
                    .decode(open.session, prefix.clone())
                    .expect("prefill");
                assert_eq!(prefill.tokens, prefix.cols());
                assert_eq!(
                    prefill.shard, open.shard,
                    "decode step left the session's pinned shard"
                );
                let gen_started = Instant::now();
                let mut token = next_token(&prefill.hidden);
                for _ in 0..GEN_TOKENS {
                    let step = client.decode(open.session, token.clone()).expect("step");
                    token = next_token(&step.hidden);
                    outs.push(step.hidden);
                }
                let gen_elapsed = gen_started.elapsed();
                let closed = client.session_close(open.session).expect("closed");
                assert_eq!(closed.tokens, prefix.cols() + GEN_TOKENS);
                (outs, gen_elapsed)
            }));
        }
        let results: Vec<(Vec<Matrix<f32>>, std::time::Duration)> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect();

        // 3. Gate: cross-client determinism — same stream, same bits.
        for (c, (outs, _)) in results.iter().enumerate().skip(1) {
            assert_eq!(
                outs, &results[0].0,
                "client {c} diverged from client 0 on an identical stream"
            );
        }

        // 4. Gate: cached decode vs full causal recompute, every step,
        //    and time the recompute — the cost a stateless O(tokens²)
        //    serving loop would pay for the same generation.
        let mut inputs = prefix.clone();
        let mut outs0 = Vec::new();
        {
            // Reproduce the prefill output's last column to seed the
            // sampler exactly as the clients did.
            let mut h = inputs.clone();
            for b in &blocks {
                h = b.forward_segments_causal(&h, &[h.cols()]).0;
            }
            outs0.push(h);
        }
        let recompute_started = Instant::now();
        for (step, out) in results[0].0.iter().enumerate() {
            let token = next_token(outs0.last().expect("seeded"));
            inputs = Matrix::hstack(&[&inputs, &token]).expect("same rows");
            let expect = recompute_last(&blocks, &inputs);
            for r in 0..D_MODEL {
                assert_eq!(
                    out[(r, 0)].to_bits(),
                    expect[(r, 0)].to_bits(),
                    "cached decode diverged from full recompute at step {step}, row {r}"
                );
            }
            outs0.push(out.clone());
        }
        let recompute_elapsed = recompute_started.elapsed();

        let cached_tps = (CLIENTS * GEN_TOKENS) as f64
            / results
                .iter()
                .map(|(_, d)| d.as_secs_f64())
                .fold(0.0, f64::max);
        let recompute_tps = GEN_TOKENS as f64 / recompute_elapsed.as_secs_f64();
        println!(
            "{:>7}  {:>16.1}  {:>18.1}  {:>7.1}x",
            prefix_len,
            cached_tps,
            recompute_tps,
            cached_tps / recompute_tps
        );
    }

    // 5. Continuous batching: the same generation work executed two
    //    ways — serial per-session stepping with batching disabled (the
    //    pre-batching behavior), then 8 concurrent clients through the
    //    batching gateway. Gates: bit-identical outputs and fused-pass
    //    occupancy > 1; the aggregate tokens/s of both are printed
    //    (`decode_bench` gates the speedup).
    const BATCH_SESSIONS: usize = 8;
    const BATCH_PREFIX: usize = 16;
    const BATCH_GEN: usize = 24;
    let serial_gateway = Arc::new(Gateway::from_shared(
        vec![Arc::clone(&model)],
        GatewayConfig {
            session: panacea::serve::SessionConfig {
                max_decode_batch: 1, // steps execute inline, one per GEMM pass
                ..Default::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let serial_server =
        GatewayServer::bind(Arc::clone(&serial_gateway), "127.0.0.1:0").expect("bind");
    let serial_outs = {
        let mut client = GatewayClient::connect(serial_server.local_addr()).expect("connect");
        let prefix = prefix_tokens(BATCH_PREFIX);
        let mut sessions = Vec::new();
        for _ in 0..BATCH_SESSIONS {
            let open = client.session_open("decoder").expect("opened");
            let prefill = client
                .decode(open.session, prefix.clone())
                .expect("prefill");
            sessions.push((open.session, next_token(&prefill.hidden)));
        }
        let started = Instant::now();
        let mut outs: Vec<Matrix<f32>> = Vec::new();
        for _ in 0..BATCH_GEN {
            for (session, token) in &mut sessions {
                let step = client.decode(*session, token.clone()).expect("step");
                *token = next_token(&step.hidden);
                outs.push(step.hidden);
            }
        }
        let elapsed = started.elapsed();
        for (session, _) in &sessions {
            client.session_close(*session).expect("closed");
        }
        let serial_tps = (BATCH_SESSIONS * BATCH_GEN) as f64 / elapsed.as_secs_f64();
        (outs, serial_tps)
    };
    let (serial_outs, serial_tps) = serial_outs;

    let stats_before = GatewayClient::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let barrier = Arc::new(Barrier::new(BATCH_SESSIONS));
    let mut threads = Vec::new();
    for _ in 0..BATCH_SESSIONS {
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            let prefix = prefix_tokens(BATCH_PREFIX);
            let open = client.session_open("decoder").expect("opened");
            let prefill = client
                .decode(open.session, prefix.clone())
                .expect("prefill");
            let mut token = next_token(&prefill.hidden);
            barrier.wait();
            let started = Instant::now();
            let mut outs: Vec<Matrix<f32>> = Vec::new();
            for _ in 0..BATCH_GEN {
                let step = client.decode(open.session, token.clone()).expect("step");
                token = next_token(&step.hidden);
                outs.push(step.hidden);
            }
            let elapsed = started.elapsed();
            client.session_close(open.session).expect("closed");
            (outs, elapsed)
        }));
    }
    let results: Vec<(Vec<Matrix<f32>>, std::time::Duration)> = threads
        .into_iter()
        .map(|t| t.join().expect("batch client"))
        .collect();
    let batched_tps = (BATCH_SESSIONS * BATCH_GEN) as f64
        / results
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .fold(0.0, f64::max);

    // Gate: every batched client's generation is bit-identical to the
    // serial (batching-disabled) path — every session decodes the same
    // stream, so every output sequence must match bit for bit (to_bits,
    // so a signed-zero swap could never slip through f32 equality).
    for (c, (outs, _)) in results.iter().enumerate() {
        for (step, out) in outs.iter().enumerate() {
            let expect = &serial_outs[step * BATCH_SESSIONS];
            for r in 0..D_MODEL {
                assert_eq!(
                    out[(r, 0)].to_bits(),
                    expect[(r, 0)].to_bits(),
                    "batched client {c} step {step} row {r} diverged from serial stepping"
                );
            }
        }
    }

    // Gate: the fused passes actually coalesced concurrent sessions.
    let stats_after = GatewayClient::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let steps_delta: u64 = stats_after
        .shards
        .iter()
        .zip(&stats_before.shards)
        .map(|(a, b)| a.decode_steps - b.decode_steps)
        .sum();
    let batches_delta: u64 = stats_after
        .shards
        .iter()
        .zip(&stats_before.shards)
        .map(|(a, b)| a.decode_batches - b.decode_batches)
        .sum();
    assert!(batches_delta > 0, "no fused decode pass ran");
    let occupancy = steps_delta as f64 / batches_delta as f64;
    assert!(
        occupancy > 1.0,
        "concurrent sessions never shared a fused pass (occupancy {occupancy:.2})"
    );

    let speedup = batched_tps / serial_tps;
    println!(
        "\ncontinuous batching @ {BATCH_SESSIONS} sessions: serial {serial_tps:.1} tok/s, \
         batched {batched_tps:.1} tok/s ({speedup:.2}x, occupancy {occupancy:.2})"
    );

    // 6. Lifecycle gates: a closed session errors explicitly, and the
    //    gateway is clean (no sessions, no KV bytes) after the run.
    let mut client = GatewayClient::connect(addr).expect("connect");
    let open = client.session_open("decoder").expect("opened");
    client.decode(open.session, prefix_tokens(2)).expect("step");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards[open.shard].open_sessions, 1);
    assert!(stats.shards[open.shard].kv_bytes > 0);
    client.session_close(open.session).expect("closed");
    match client.decode(open.session, prefix_tokens(1)) {
        Err(panacea::gateway::GatewayError::Remote { kind, .. }) => {
            assert_eq!(kind, panacea::gateway::ErrorKind::UnknownSession)
        }
        other => panic!("closed session served a step: {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.iter().map(|s| s.open_sessions).sum::<u64>(), 0);
    assert_eq!(stats.shards.iter().map(|s| s.kv_bytes).sum::<u64>(), 0);
    let steps: u64 = stats.shards.iter().map(|s| s.decode_steps).sum();
    println!("\n{steps} decode steps served; all decode gates passed ✓");

    // 7. Observability, print-only (`gateway/tests/loopback.rs` owns
    //    the gates): the metric cells and the most recent span tree.
    let metrics = client.metrics().expect("metrics");
    println!(
        "\nmetric cells (metrics verb, snapshot #{}, uptime {}ms; ns, `occupancy` a count):",
        metrics.seq, metrics.uptime_ms
    );
    println!(
        "{:>8}  {:>13}  {:>14}  {:>8}  {:>12}  {:>12}",
        "model", "verb", "stage", "count", "p50", "p99"
    );
    for c in metrics.cells.iter().filter(|c| c.count > 0) {
        println!(
            "{:>8}  {:>13}  {:>14}  {:>8}  {:>12}  {:>12}",
            c.model, c.verb, c.stage, c.count, c.p50, c.p99
        );
    }
    for trace in &client.trace_recent(1).expect("trace").traces {
        println!(
            "\nmost recent trace #{} ({}, {}µs total):",
            trace.id, trace.verb, trace.total_us
        );
        for span in &trace.spans {
            let end = span.start_us + span.dur_us;
            println!("  {} [{}µs..{end}µs]", span.stage, span.start_us);
        }
    }
}
