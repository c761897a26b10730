//! Property test: `run_coalesced` over `QuantizedBlock::forward_segments`
//! — the stack → run → split path the serving batcher runs — is
//! bit-exact with sequential `forward` per request. Coalescing
//! independent sequences into one wide GEMM pass is an optimization,
//! never an approximation.

use panacea_block::{
    zoo_hidden_states, zoo_transformer, BlockBuilder, BlockWorkload, QuantizedBlock,
};
use panacea_core::pipeline::run_coalesced;
use panacea_models::engine::TransformerConfig;
use panacea_models::zoo::Benchmark;
use panacea_tensor::Matrix;
use proptest::prelude::*;

fn prepared_block(seed: u64) -> QuantizedBlock {
    let cfg = TransformerConfig {
        d_model: 16,
        n_heads: 2,
        d_ff: 32,
        n_layers: 1,
    };
    let oracle = zoo_transformer(Benchmark::DeitBase, cfg, seed);
    let calib = zoo_hidden_states(Benchmark::DeitBase, 16, 24, seed + 100);
    BlockBuilder::default()
        .prepare(&oracle, &calib)
        .expect("prepare")
        .pop()
        .expect("one block")
}

/// Runs the requests as one batch, each its own attention segment.
fn forward_batch(
    block: &QuantizedBlock,
    requests: &[&Matrix<f32>],
) -> (Vec<Matrix<f32>>, BlockWorkload) {
    run_coalesced(requests, |x, widths| block.forward_segments(x, widths))
}

/// Deterministic hidden states spanning the calibrated range.
fn hidden(d: usize, cols: usize, salt: usize) -> Matrix<f32> {
    Matrix::from_fn(d, cols, |r, c| {
        let v = ((r * 31 + c * 7 + salt * 13) % 97) as f32;
        (v - 48.0) / 24.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any mix of sequence lengths in a batch — including widths whose
    /// last n-group is partial in a different place than in the solo
    /// runs — splits back to the exact solo results.
    #[test]
    fn batched_block_forward_matches_sequential(
        seed in 0u64..3,
        widths in proptest::collection::vec(1usize..6, 1..6),
    ) {
        let block = prepared_block(seed);
        let requests: Vec<Matrix<f32>> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| hidden(16, w, i))
            .collect();
        let refs: Vec<&Matrix<f32>> = requests.iter().collect();
        let (batched, wl) = forward_batch(&block, &refs);
        prop_assert!(wl.total().mul > 0);
        prop_assert_eq!(batched.len(), requests.len());
        for (req, got) in requests.iter().zip(&batched) {
            let (alone, _) = block.forward(req);
            prop_assert_eq!(got, &alone, "batched sequence diverged from solo forward");
        }
    }

    /// The segment API is insensitive to how the same columns are grouped
    /// *around* a sequence: a sequence keeps its exact output whether it
    /// rides first, last, or alone.
    #[test]
    fn sequence_output_is_position_independent(cols in 1usize..5) {
        let block = prepared_block(3);
        let probe = hidden(16, cols, 9);
        let other = hidden(16, 3, 4);
        let (solo, _) = block.forward(&probe);
        let (first, _) = forward_batch(&block, &[&probe, &other]);
        let (last, _) = forward_batch(&block, &[&other, &probe]);
        prop_assert_eq!(&first[0], &solo);
        prop_assert_eq!(&last[1], &solo);
    }
}

#[test]
fn empty_batch_is_empty() {
    let block = prepared_block(0);
    let (outs, wl) = forward_batch(&block, &[]);
    assert!(outs.is_empty());
    assert_eq!(wl.total().mul, 0);
}

/// Sub-layer durations leave the crate as data, scoped to the closure
/// that ran the pass: all five stages timed, nothing carried over from
/// (or into) work outside the scope.
#[test]
fn stage_times_cover_exactly_the_scoped_pass() {
    use panacea_block::with_stage_times;
    use std::time::Duration;
    let block = prepared_block(0);
    let x = hidden(16, 4, 0);
    block.forward(&x); // unscoped work on this thread must not leak in
    let ((out, _), times) = with_stage_times(|| block.forward(&x));
    assert_eq!(out, block.forward(&x).0);
    assert!(times.iter().all(|t| *t > Duration::ZERO), "{times:?}");
    let ((), idle) = with_stage_times(|| ());
    assert_eq!(idle, [Duration::ZERO; 5]);
}
