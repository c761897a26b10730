//! Gateway walkthrough: a 2-shard TCP gateway serving six linear chains
//! and a 2-block quantized transformer. It prints the routing, how many
//! concurrent clients' replies equal the model run in-process, a cache
//! replay, a hidden-state request, the blocks' SQNR against the float
//! oracle, and per-shard stats. Nothing here is a gate: the guarantees
//! are owned by `crates/gateway/tests/loopback.rs`,
//! `router.rs::many_models_spread_over_shards` and `block/tests/sqnr.rs`.
//!
//! Run with: `cargo run --release --example gateway_demo`

use std::sync::Arc;
use std::thread;

use panacea::block::{sqnr_report, zoo_hidden_states, zoo_transformer, BlockBuilder};
use panacea::gateway::{Gateway, GatewayClient, GatewayConfig, GatewayServer};
use panacea::models::{engine::TransformerConfig, zoo::Benchmark};
use panacea::serve::{LayerSpec, PrepareOptions, PreparedModel};
use panacea::tensor::{dist::DistributionKind, seeded_rng, Matrix};

const CHAINS: [&str; 6] = ["embed", "qkv", "out", "up", "down", "head"];

fn codes(cols: usize, salt: usize) -> Matrix<i32> {
    Matrix::from_fn(64, cols, |r, c| ((r * 31 + c * 7 + salt * 13) % 180) as i32)
}

fn main() {
    // Each chain is 64 → 32 → 8; the decoder is GPT-2-distributed.
    let mut rng = seeded_rng(7);
    let gaussian = DistributionKind::Gaussian {
        mean: 0.0,
        std: 0.2,
    };
    let mut sample = |rows, cols| gaussian.sample_matrix(rows, cols, &mut rng);
    let mut models: Vec<PreparedModel> = CHAINS
        .iter()
        .map(|name| {
            let layers = [sample(32, 64), sample(8, 32)].map(LayerSpec::unbiased);
            let calib = sample(64, 24);
            PreparedModel::prepare(*name, &layers, &calib, PrepareOptions::default())
                .expect("prepare")
        })
        .collect();
    let cfg = TransformerConfig::default();
    let oracle = zoo_transformer(Benchmark::Gpt2, cfg, 7);
    let calibration = zoo_hidden_states(Benchmark::Gpt2, cfg.d_model, 48, 8);
    let blocks = BlockBuilder::default()
        .prepare(&oracle, &calibration)
        .expect("blocks");
    let eval = zoo_hidden_states(Benchmark::Gpt2, cfg.d_model, 32, 9);
    for r in sqnr_report(&blocks, &oracle, &eval) {
        println!("block {}: {:.1} dB SQNR", r.block, r.sqnr_db);
    }
    models.push(PreparedModel::from_blocks("decoder", blocks).expect("servable"));

    let gateway = Arc::new(Gateway::new(models, GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    for name in CHAINS.iter().chain(&["decoder"]) {
        println!("{name:>9} → shard {}", gateway.router().route(name));
    }

    // Six clients, eight requests each, over whichever chains they pick.
    let equal: usize = thread::scope(|s| {
        let gateway = &gateway;
        let clients: Vec<_> = (0..6)
            .map(|t| {
                s.spawn(move || {
                    let mut client = GatewayClient::connect(addr).expect("connect");
                    let mut same = |i: usize| {
                        let (name, x) = (CHAINS[(t + i) % 6], codes(1 + i % 3, t * 100 + i));
                        let model = gateway.router().model(name).expect("registered");
                        let direct = model.forward_codes(&x).0;
                        client.infer_codes(name, x).expect("served").payload == direct.into()
                    };
                    (0..8).filter(|&i| same(i)).count()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client")).sum()
    });
    println!("\n6 clients × 8 requests: {equal}/48 equal to the in-process forward");

    let mut client = GatewayClient::connect(addr).expect("connect");
    for attempt in ["cold", "warm"] {
        let reply = client.infer_codes("head", codes(2, 9_999)).expect("served");
        let (took, hit) = (reply.latency, reply.cache_hit);
        println!("{attempt}: {took:?}, cache hit {hit}");
    }
    let x = zoo_hidden_states(Benchmark::Gpt2, cfg.d_model, 4, 10);
    let reply = client.infer_hidden("decoder", x).expect("served");
    println!("decoder: 4 tokens in {:?}", reply.latency);

    let stats = client.stats().expect("stats");
    for (i, s) in stats.shards.iter().enumerate() {
        println!("shard {i}: {} requests, {} batches", s.requests, s.batches);
    }
    let cache = &stats.cache;
    println!("cache: {} hits, {} misses", cache.hits, cache.misses);
}
