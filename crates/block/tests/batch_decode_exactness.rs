//! Property tests: continuous-batching decode (`decode_step_batch`) is
//! **bit-exact** per session versus stepping each session alone
//! (`decode_step`) *and* versus a full causal recompute
//! (`forward_segments_causal`) — across sessions with heterogeneous
//! prefix lengths, arbitrary chunkings, and arbitrary interleavings
//! (sessions joining and leaving rounds as their streams run dry). The
//! KV caches a fused pass leaves behind must also be bit-identical to
//! the solo-stepped caches, token for token.
//!
//! This is the contract that lets a serving layer coalesce concurrent
//! sessions' single-token steps into one GEMM pass per layer: batching
//! changes throughput, never a session's bits.

use panacea_block::{
    decode_step, decode_step_batch, zoo_hidden_states, zoo_transformer, BlockBuilder, KvCache,
    QuantizedBlock,
};
use panacea_models::engine::TransformerConfig;
use panacea_models::zoo::Benchmark;
use panacea_tensor::Matrix;
use proptest::prelude::*;

const D: usize = 16;

fn stack(seed: u64, n_layers: usize) -> Vec<QuantizedBlock> {
    stack_of(D, 32, seed, n_layers)
}

fn stack_of(d_model: usize, d_ff: usize, seed: u64, n_layers: usize) -> Vec<QuantizedBlock> {
    let cfg = TransformerConfig {
        d_model,
        n_heads: 2,
        d_ff,
        n_layers,
    };
    let oracle = zoo_transformer(Benchmark::Gpt2, cfg, seed);
    let calib = zoo_hidden_states(Benchmark::Gpt2, d_model, 24, seed + 1);
    BlockBuilder::default()
        .prepare(&oracle, &calib)
        .expect("prepare blocks")
}

fn tokens(total: usize, salt: usize) -> Matrix<f32> {
    tokens_of(D, total, salt)
}

fn tokens_of(d_model: usize, total: usize, salt: usize) -> Matrix<f32> {
    Matrix::from_fn(d_model, total, |r, c| {
        (((r * 31 + c * 7 + salt * 13) % 97) as f32 - 48.0) / 24.0
    })
}

/// The kernel splits a full 16-column tile between its lane
/// orientations — the HO weight plane lanes along N, the LO ones lanes
/// along M — and runs a narrower tile lanes along M only, so the number
/// of fused sessions decides which inner loops a session's column runs
/// through: 1–3 sessions fill part of one n-group, 5 part of two, 9 part
/// of three (all lanes along M, the last n-group partial), and 17 put
/// the first sixteen in a full tile and the last in a narrow one —
/// while every solo step is one n-group. `d_model` 24 / `d_ff` 40 make every
/// layer's `M` end inside a 16-row weight panel. Fused ≡ solo ≡ causal
/// recompute, outputs and caches, bit for bit.
#[test]
fn fused_session_counts_on_both_sides_of_the_tile_width_match_solo_and_recompute() {
    const DM: usize = 24;
    let blocks = stack_of(DM, 40, 7, 2);
    for n_sessions in [1usize, 2, 3, 5, 9, 17] {
        let depths: Vec<usize> = (0..n_sessions).map(|s| (s * 5 + n_sessions) % 7).collect();
        let streams: Vec<Matrix<f32>> = depths
            .iter()
            .enumerate()
            .map(|(s, &depth)| tokens_of(DM, depth + 2, 300 + 10 * n_sessions + s))
            .collect();
        let recompute: Vec<Matrix<f32>> = streams
            .iter()
            .map(|stream| {
                let mut h = stream.clone();
                for b in &blocks {
                    h = b.forward_segments_causal(&h, &[h.cols()]).0;
                }
                h
            })
            .collect();

        // Prefill each session to its depth, then clone the caches so
        // the solo and the fused candidates start from the same words.
        let mut solo_kvs: Vec<KvCache> = streams
            .iter()
            .zip(&depths)
            .map(|(stream, &depth)| {
                let mut kv = KvCache::for_blocks(&blocks);
                if depth > 0 {
                    decode_step(&blocks, &stream.submatrix(0, 0, DM, depth), &mut kv);
                }
                kv
            })
            .collect();
        let mut fused_kvs = solo_kvs.clone();

        // Two consecutive single-token rounds.
        for round in 0..2 {
            let steps: Vec<Matrix<f32>> = streams
                .iter()
                .zip(&depths)
                .map(|(stream, &depth)| stream.submatrix(0, depth + round, DM, 1))
                .collect();
            let solo: Vec<Matrix<f32>> = steps
                .iter()
                .zip(&mut solo_kvs)
                .map(|(tok, kv)| decode_step(&blocks, tok, kv).0)
                .collect();
            let stacked = Matrix::hstack(&steps.iter().collect::<Vec<_>>()).expect("same rows");
            let mut kv_refs: Vec<&mut KvCache> = fused_kvs.iter_mut().collect();
            let (fused, _) =
                decode_step_batch(&blocks, &stacked, &vec![1; n_sessions], &mut kv_refs);
            for s in 0..n_sessions {
                for r in 0..DM {
                    let got = fused[(r, s)].to_bits();
                    let what = format!("{n_sessions} sessions, session {s}, round {round}");
                    assert_eq!(got, solo[s][(r, 0)].to_bits(), "vs solo: {what}");
                    let want = recompute[s][(r, depths[s] + round)];
                    assert_eq!(got, want.to_bits(), "vs recompute: {what}");
                }
            }
        }
        for (s, (fused, solo)) in fused_kvs.iter().zip(&solo_kvs).enumerate() {
            assert_eq!(fused.tokens(), depths[s] + 2);
            for b in 0..blocks.len() {
                assert_eq!(fused.block(b).keys(), solo.block(b).keys());
                assert_eq!(fused.block(b).values(), solo.block(b).values());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sessions with heterogeneous streams, fed through fused batch
    /// passes in whatever per-session chunking the generator picks
    /// (sessions drop out of later rounds when their chunks run dry, so
    /// round composition varies), match solo stepping and the causal
    /// recompute bit for bit — outputs *and* cache contents.
    #[test]
    fn batched_decode_matches_solo_and_full_recompute(
        seed in 0u64..3,
        // Per-session chunk decompositions: 2–4 sessions, each with
        // 1–4 chunks of 1–3 tokens — heterogeneous totals by design.
        chunkings in proptest::collection::vec(
            proptest::collection::vec(1usize..4, 1..5),
            2..5,
        ),
    ) {
        let blocks = stack(seed, 2);
        let n_sessions = chunkings.len();
        let totals: Vec<usize> = chunkings.iter().map(|c| c.iter().sum()).collect();
        let streams: Vec<Matrix<f32>> = totals
            .iter()
            .enumerate()
            .map(|(s, &t)| tokens(t, seed as usize * 10 + s))
            .collect();

        // Oracle A: full causal recompute of each session's stream.
        let recompute: Vec<Matrix<f32>> = streams
            .iter()
            .map(|stream| {
                let mut h = stream.clone();
                for b in &blocks {
                    h = b.forward_segments_causal(&h, &[h.cols()]).0;
                }
                h
            })
            .collect();

        // Oracle B: solo stepping, chunk by chunk, on its own cache.
        let mut solo_kvs: Vec<KvCache> =
            (0..n_sessions).map(|_| KvCache::for_blocks(&blocks)).collect();
        for (s, chunks) in chunkings.iter().enumerate() {
            let mut col = 0;
            for &w in chunks {
                let chunk = streams[s].submatrix(0, col, D, w);
                decode_step(&blocks, &chunk, &mut solo_kvs[s]);
                col += w;
            }
        }

        // Candidate: the same chunks fed through fused batch passes.
        // Round r takes chunk r from every session that still has one,
        // so later rounds shrink as short sessions finish.
        let mut batch_kvs: Vec<KvCache> =
            (0..n_sessions).map(|_| KvCache::for_blocks(&blocks)).collect();
        let mut consumed = vec![0usize; n_sessions];
        let max_rounds = chunkings.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..max_rounds {
            let mut participants = Vec::new();
            let mut parts = Vec::new();
            let mut segments = Vec::new();
            for (s, chunks) in chunkings.iter().enumerate() {
                if let Some(&w) = chunks.get(round) {
                    parts.push(streams[s].submatrix(0, consumed[s], D, w));
                    segments.push(w);
                    participants.push(s);
                }
            }
            let refs: Vec<&Matrix<f32>> = parts.iter().collect();
            let stacked = Matrix::hstack(&refs).expect("same width");
            let (out, wl) = {
                let mut kv_refs: Vec<&mut KvCache> = Vec::new();
                // Split the cache vec so each participant borrows
                // mutably exactly once, in participant order.
                let mut rest: &mut [KvCache] = &mut batch_kvs;
                let mut base = 0;
                for &s in &participants {
                    let (_, tail) = rest.split_at_mut(s - base);
                    let (kv, tail) = tail.split_first_mut().expect("participant in range");
                    kv_refs.push(kv);
                    rest = tail;
                    base = s + 1;
                }
                decode_step_batch(&blocks, &stacked, &segments, &mut kv_refs)
            };
            prop_assert!(wl.total().mul > 0, "fused pass did no GEMM work");

            // Every participant's output columns match both oracles.
            let mut col = 0;
            for (i, &s) in participants.iter().enumerate() {
                for c in 0..segments[i] {
                    for r in 0..D {
                        prop_assert_eq!(
                            out[(r, col + c)].to_bits(),
                            recompute[s][(r, consumed[s] + c)].to_bits(),
                            "session {} token {} diverged from full recompute",
                            s, consumed[s] + c
                        );
                    }
                }
                col += segments[i];
                consumed[s] += segments[i];
            }
        }

        // The fused passes left every cache bit-identical to solo
        // stepping: same token counts, same K/V words.
        for s in 0..n_sessions {
            prop_assert_eq!(batch_kvs[s].tokens(), totals[s]);
            for b in 0..blocks.len() {
                prop_assert_eq!(
                    batch_kvs[s].block(b).keys(),
                    solo_kvs[s].block(b).keys(),
                    "session {} block {} keys diverged",
                    s, b
                );
                prop_assert_eq!(
                    batch_kvs[s].block(b).values(),
                    solo_kvs[s].block(b).values(),
                    "session {} block {} values diverged",
                    s, b
                );
            }
        }
    }

    /// A fused pass over N single-token steps equals N solo passes even
    /// when the sessions sit at very different prefix depths — the
    /// steady-state shape continuous batching serves.
    #[test]
    fn single_token_fused_steps_at_heterogeneous_depths_match_solo(
        seed in 0u64..2,
        depths in proptest::collection::vec(0usize..6, 2..5),
    ) {
        let blocks = stack(20 + seed, 1);
        let n = depths.len();

        // Prefill each session to its own depth (solo path — already
        // proven exact), keeping a second identical cache for the
        // batched candidate.
        let mut solo_kvs = Vec::new();
        for (s, &depth) in depths.iter().enumerate() {
            let mut kv = KvCache::for_blocks(&blocks);
            if depth > 0 {
                let prefix = tokens(depth, 100 + s);
                decode_step(&blocks, &prefix, &mut kv);
            }
            solo_kvs.push(kv);
        }
        let mut batch_kvs: Vec<KvCache> = solo_kvs.clone();

        // One new token per session.
        let steps: Vec<Matrix<f32>> =
            (0..n).map(|s| tokens(1, 200 + s)).collect();
        let solo_outs: Vec<Matrix<f32>> = steps
            .iter()
            .zip(&mut solo_kvs)
            .map(|(tok, kv)| decode_step(&blocks, tok, kv).0)
            .collect();

        let refs: Vec<&Matrix<f32>> = steps.iter().collect();
        let stacked = Matrix::hstack(&refs).expect("same width");
        let segments = vec![1usize; n];
        let (fused, _) = {
            let mut kv_refs: Vec<&mut KvCache> = batch_kvs.iter_mut().collect();
            decode_step_batch(&blocks, &stacked, &segments, &mut kv_refs)
        };

        for s in 0..n {
            for r in 0..D {
                prop_assert_eq!(
                    fused[(r, s)].to_bits(),
                    solo_outs[s][(r, 0)].to_bits(),
                    "session {} diverged at depth {}",
                    s, depths[s]
                );
            }
            prop_assert_eq!(batch_kvs[s].tokens(), depths[s] + 1);
            for b in 0..blocks.len() {
                prop_assert_eq!(batch_kvs[s].block(b).keys(), solo_kvs[s].block(b).keys());
                prop_assert_eq!(batch_kvs[s].block(b).values(), solo_kvs[s].block(b).values());
            }
        }
    }
}
