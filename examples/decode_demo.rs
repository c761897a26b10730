//! Decode walkthrough: KV-cached autoregressive decode over a localhost
//! gateway. At prefix lengths {16, 64, 256}, three clients each prefill
//! a session and generate 8 tokens one at a time. It prints cached
//! tokens/s beside the per-token cost of recomputing the whole growing
//! sequence, how many cached steps equal that recompute, and the decode
//! cells the traffic filled. Nothing here is a gate: the guarantees are
//! owned by `crates/block/tests/decode_exactness.rs`, `serve/src/session.rs`
//! and `crates/gateway/tests/loopback.rs`.
//!
//! Run with: `cargo run --release --example decode_demo`

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use panacea::block::{zoo_hidden_states, zoo_transformer, BlockBuilder, QuantizedBlock};
use panacea::gateway::{Gateway, GatewayClient, GatewayConfig, GatewayServer};
use panacea::models::{engine::TransformerConfig, zoo::Benchmark};
use panacea::serve::PreparedModel;
use panacea::tensor::{ops, Matrix};

const CLIENTS: usize = 3;
const GEN_TOKENS: usize = 8;

/// The walkthrough's sampler: the next input is the LayerNorm of the
/// last output column, standing in for embed(argmax(logits)).
fn next_token(out: &Matrix<f32>) -> Matrix<f32> {
    ops::layer_norm(&out.submatrix(0, out.cols() - 1, out.rows(), 1))
}

/// The whole sequence through every block, causally: the last column.
fn recompute_last(blocks: &[QuantizedBlock], inputs: &Matrix<f32>) -> Matrix<f32> {
    let mut h = inputs.clone();
    for b in blocks {
        h = b.forward_segments_causal(&h, &[h.cols()]).0;
    }
    h.submatrix(0, h.cols() - 1, h.rows(), 1)
}

/// One client's session: prefill, generate, close; steps and their time.
fn generate(client: &mut GatewayClient, prefix: &Matrix<f32>) -> (Vec<Matrix<f32>>, Duration) {
    let open = client.session_open("decoder").expect("open").session;
    let prefill = client.decode(open, prefix.clone()).expect("prefill");
    let started = Instant::now();
    let mut token = next_token(&prefill.hidden);
    let outs: Vec<Matrix<f32>> = (0..GEN_TOKENS)
        .map(|_| {
            let step = client.decode(open, token.clone()).expect("step");
            token = next_token(&step.hidden);
            step.hidden
        })
        .collect();
    let took = started.elapsed();
    client.session_close(open).expect("close");
    (outs, took)
}

fn main() {
    let cfg = TransformerConfig::default();
    let oracle = zoo_transformer(Benchmark::Gpt2, cfg, 17);
    let calibration = zoo_hidden_states(Benchmark::Gpt2, cfg.d_model, 48, 18);
    let builder = BlockBuilder::default();
    let blocks = builder.prepare(&oracle, &calibration).expect("blocks");
    let model = PreparedModel::from_blocks("decoder", blocks.clone()).expect("servable");
    let gateway = Arc::new(Gateway::new(vec![model], GatewayConfig::default()));
    let server = GatewayServer::bind(gateway, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    println!("prefix  cached tok/s  recompute tok/s  cached steps = recompute");
    for len in [16usize, 64, 256] {
        let prefix = zoo_hidden_states(Benchmark::Gpt2, cfg.d_model, len, 19);
        let runs: Vec<_> = thread::scope(|s| {
            let run = || generate(&mut GatewayClient::connect(addr).expect("connect"), &prefix);
            let clients: Vec<_> = (0..CLIENTS).map(|_| s.spawn(run)).collect();
            clients.into_iter().map(|c| c.join().expect("c")).collect()
        });
        let slowest = runs.iter().map(|r| r.1).max().expect("clients ran");

        // Client 0's generation, recomputed from scratch at every step.
        let (mut inputs, started) = (prefix.clone(), Instant::now());
        let mut out = recompute_last(&blocks, &inputs);
        let mut equal = 0;
        for served in &runs[0].0 {
            inputs = Matrix::hstack(&[&inputs, &next_token(&out)]).expect("same rows");
            out = recompute_last(&blocks, &inputs);
            equal += (*served == out) as usize;
        }
        let cached = (CLIENTS * GEN_TOKENS) as f64 / slowest.as_secs_f64();
        let recompute = GEN_TOKENS as f64 / started.elapsed().as_secs_f64();
        println!("{len:>6}  {cached:>12.0}  {recompute:>15.0}  {equal}/{GEN_TOKENS}");
    }

    let mut client = GatewayClient::connect(addr).expect("connect");
    let cells = client.metrics().expect("metrics").cells;
    println!("\ndecode cells (ns; occupancy is a count):");
    for c in cells.iter().filter(|c| c.verb == "decode" && c.count > 0) {
        let (stage, n, p50, p99) = (&c.stage, c.count, c.p50, c.p99);
        println!("  {stage:>10}  n={n:<4} p50 {p50:>9}  p99 {p99:>9}");
    }
}
