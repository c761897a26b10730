//! What fusing decode steps buys: eight sessions advanced by one token
//! each in a single `decode_step_batch` pass beat eight serial
//! `decode_step`s by at least 1.25×.
//!
//! A solo step multiplies only its one column (its walk of `k` carrying
//! up to four weight panels), so fusion buys the shared weight stream and
//! the per-pass overhead, not MACs: a median of 1.43–1.79× on a 2-core
//! x86-64 host (printed under `--nocapture`). A fused pass that steps its
//! sessions one by one reads ≈ 1.0×. That the fused pass is
//! bit-identical to solo stepping is owned by `panacea-block`'s
//! `tests/batch_decode_exactness.rs`.
//!
//! Own test binary (process) on purpose: a timing bound must not share
//! the CPU with other tests.

use std::hint::black_box;
use std::time::Instant;

use panacea_block::{decode_step, decode_step_batch, KvCache, QuantizedBlock};
use panacea_models::engine::TransformerConfig;
use panacea_models::zoo::Benchmark;
use panacea_serve::testutil::block_stack;
use panacea_tensor::Matrix;

const D_MODEL: usize = 32;
const PREFIX: usize = 32;
const SESSIONS: usize = 8;
/// Tokens each session decodes per trial and arm.
const ROUNDS: usize = 48;
const TRIALS: usize = 7;
const MIN_SPEEDUP: f64 = 1.25;

fn token(session: usize) -> Matrix<f32> {
    Matrix::from_fn(D_MODEL, 1, |r, _| {
        (((r * 29 + session * 11 + 3) % 89) as f32 - 44.0) / 22.0
    })
}

/// One KV cache per session, each holding its own `PREFIX`-token prompt.
fn prefilled(blocks: &[QuantizedBlock]) -> Vec<KvCache> {
    (0..SESSIONS)
        .map(|s| {
            let prompt = Matrix::from_fn(D_MODEL, PREFIX, |r, c| {
                (((r * 29 + c * 11 + s * 7) % 89) as f32 - 44.0) / 22.0
            });
            let mut kv = KvCache::for_blocks(blocks);
            decode_step(blocks, &prompt, &mut kv);
            kv
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing bound: run with --release")]
fn eight_sessions_in_one_fused_pass_beat_eight_serial_steps_by_1_25x() {
    let cfg = TransformerConfig {
        d_model: D_MODEL,
        n_heads: 4,
        d_ff: 64,
        n_layers: 2,
    };
    let blocks = block_stack(Benchmark::Gpt2, cfg, 17);
    let tokens: Vec<Matrix<f32>> = (0..SESSIONS).map(token).collect();
    let stacked = Matrix::hstack(&tokens.iter().collect::<Vec<_>>()).expect("one height");
    let segments = [1; SESSIONS];
    let prompts = prefilled(&blocks);

    // Each trial times both arms back to back from the same prompts, so
    // drift on a shared host taxes both alike.
    let mut speedups: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let mut kvs = prompts.clone();
            let begun = Instant::now();
            for _ in 0..ROUNDS {
                for (t, kv) in tokens.iter().zip(&mut kvs) {
                    black_box(decode_step(&blocks, t, kv));
                }
            }
            let serial = begun.elapsed();
            let mut kvs = prompts.clone();
            let begun = Instant::now();
            for _ in 0..ROUNDS {
                let mut refs: Vec<&mut KvCache> = kvs.iter_mut().collect();
                black_box(decode_step_batch(&blocks, &stacked, &segments, &mut refs));
            }
            serial.as_secs_f64() / begun.elapsed().as_secs_f64()
        })
        .collect();
    speedups.sort_by(f64::total_cmp);
    let median = speedups[TRIALS / 2];
    println!("fused ÷ serial: median {median:.2}x of {speedups:.2?}");
    assert!(
        median >= MIN_SPEEDUP,
        "{SESSIONS} fused sessions ran only {median:.2}x faster than serial steps \
         (median of {TRIALS} trials: {speedups:.2?})"
    );
}
