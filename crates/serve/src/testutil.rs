//! Shared fixtures for serving tests across the workspace: small
//! prepared chain models and block stacks, deterministic request codes
//! and hidden states.
//! `#[doc(hidden)]` public so the serve integration tests and the
//! gateway suites reuse one fixture instead of re-implementing it per
//! crate; not part of the supported API. This crate is the
//! fixture's home because it already depends on both `panacea-block`
//! and `panacea-models` — downstream crates (e.g. the gateway) reuse it
//! without growing their own production dependency graphs.

use std::sync::Arc;

use panacea_block::{zoo_hidden_states, zoo_transformer, BlockBuilder, QuantizedBlock};
use panacea_models::engine::TransformerConfig;
use panacea_models::zoo::Benchmark;
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;

use crate::{LayerSpec, ModelRegistry, PrepareOptions, PreparedModel};

/// Prepares one 8×16 single-layer chain model per name, each calibrated
/// on its own Gaussian sample drawn from one seeded RNG.
pub fn models(names: &[&str], seed: u64) -> Vec<PreparedModel> {
    let mut rng = panacea_tensor::seeded_rng(seed);
    let gaussian = |mean, std| DistributionKind::Gaussian { mean, std };
    names
        .iter()
        .map(|name| {
            let w = gaussian(0.0, 0.05).sample_matrix(8, 16, &mut rng);
            let calib = gaussian(0.2, 0.5).sample_matrix(16, 16, &mut rng);
            let layers = [LayerSpec::unbiased(w)];
            PreparedModel::prepare(*name, &layers, &calib, PrepareOptions::default())
                .expect("prepare")
        })
        .collect()
}

/// A registry holding [`models`]`(names, seed)`.
pub fn registry(names: &[&str], seed: u64) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    for model in models(names, seed) {
        registry.insert(model);
    }
    registry
}

/// Deterministic in-range request codes for a chain model.
pub fn codes(model: &PreparedModel, cols: usize, salt: usize) -> Matrix<i32> {
    Matrix::from_fn(model.in_features(), cols, |r, c| {
        ((r * 31 + c * 7 + salt * 13) % 200) as i32
    })
}

/// Prepares a quantized block stack with zoo-distribution weights at an
/// explicit geometry — the parameterized core the other fixtures wrap.
pub fn block_stack(bench: Benchmark, cfg: TransformerConfig, seed: u64) -> Vec<QuantizedBlock> {
    let oracle = zoo_transformer(bench, cfg, seed);
    let calib = zoo_hidden_states(bench, cfg.d_model, 24, seed + 1);
    BlockBuilder::default()
        .prepare(&oracle, &calib)
        .expect("prepare blocks")
}

/// Prepares a small 2-block transformer-block model (width 16, 2 heads)
/// plus the raw block stack for direct-execution oracles.
pub fn block_model(name: &str, seed: u64) -> (PreparedModel, Vec<QuantizedBlock>) {
    let cfg = TransformerConfig {
        d_model: 16,
        n_heads: 2,
        d_ff: 32,
        n_layers: 2,
    };
    let blocks = block_stack(Benchmark::BertBase, cfg, seed);
    (
        PreparedModel::from_blocks(name, blocks.clone()).expect("from_blocks"),
        blocks,
    )
}

/// Deterministic finite hidden states for a block model.
pub fn hidden(d_model: usize, cols: usize, salt: usize) -> Matrix<f32> {
    Matrix::from_fn(d_model, cols, |r, c| {
        (((r * 31 + c * 7 + salt * 13) % 97) as f32 - 48.0) / 24.0
    })
}

/// Runs hidden states through a block stack directly — the oracle that
/// served responses are asserted bit-identical against.
pub fn direct_forward(blocks: &[QuantizedBlock], x: &Matrix<f32>) -> Matrix<f32> {
    let mut h = x.clone();
    for b in blocks {
        h = b.forward(&h).0;
    }
    h
}
