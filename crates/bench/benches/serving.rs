//! Criterion benchmarks of the serving stack: throughput of the batched
//! AQS pipeline versus batch width, transformer-block forward versus
//! batch depth, end-to-end runtime dispatch versus worker count, and the
//! gateway's per-request overheads — shard routing decisions and
//! request-cache hits/misses.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use panacea_block::{decode_step, decode_step_batch, KvCache, QuantizedBlock};
use panacea_gateway::{CacheConfig, CachedOutput, RequestCache, ShardRouter};
use panacea_models::engine::TransformerConfig;
use panacea_models::zoo::Benchmark;
use panacea_serve::{
    BatchPolicy, LayerSpec, ModelRegistry, Payload, PrepareOptions, PreparedModel, Runtime,
    RuntimeConfig,
};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;
use rand::Rng;

const K: usize = 128;
const M: usize = 64;

fn prepared_model(seed: u64) -> PreparedModel {
    let mut rng = panacea_tensor::seeded_rng(seed);
    let w = DistributionKind::Gaussian {
        mean: 0.0,
        std: 0.05,
    }
    .sample_matrix(M, K, &mut rng);
    let calib = DistributionKind::TransformerAct {
        core_mean: 0.1,
        core_std: 0.4,
        pos_scale: 8.0,
        neg_scale: 5.0,
        outlier_frac: 0.02,
    }
    .sample_matrix(K, 64, &mut rng);
    PreparedModel::prepare(
        "bench",
        &[LayerSpec::unbiased(w)],
        &calib,
        PrepareOptions::default(),
    )
    .expect("prepare")
}

fn request(model: &PreparedModel, cols: usize, rng: &mut impl Rng) -> Matrix<i32> {
    Matrix::from_fn(model.in_features(), cols, |_, _| rng.gen_range(0i32..256))
}

/// One coalesced forward pass over `batch` columns — the raw kernel-side
/// gain of batching, independent of queueing.
fn bench_batch_width(c: &mut Criterion) {
    let model = prepared_model(1);
    let mut rng = panacea_tensor::seeded_rng(2);
    let mut group = c.benchmark_group("serving_batch_width");
    for batch in [1usize, 8, 32] {
        let codes = request(&model, batch, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("forward_cols", batch),
            &codes,
            |b, codes| b.iter(|| model.forward_codes(codes)),
        );
    }
    group.finish();
}

fn prepared_block(seed: u64) -> QuantizedBlock {
    let cfg = TransformerConfig {
        d_model: 32,
        n_heads: 4,
        d_ff: 64,
        n_layers: 1,
    };
    panacea_serve::testutil::block_stack(Benchmark::BertBase, cfg, seed)
        .pop()
        .expect("one block")
}

/// One quantized transformer-block forward (4 AQS GEMMs + f32 attention
/// glue) as the coalesced batch widens: how much of the per-tile setup
/// the block engine amortizes over the `N` dimension, per sub-layer mix.
fn bench_block_forward(c: &mut Criterion) {
    let block = prepared_block(8);
    let mut group = c.benchmark_group("block_forward");
    for batch in [1usize, 8, 32] {
        // `batch` independent 4-token sequences coalesced per the
        // serving contract: GEMMs run wide, attention per sequence.
        let seqs: Vec<Matrix<f32>> = (0..batch)
            .map(|i| {
                Matrix::from_fn(32, 4, |r, c| {
                    (((r * 29 + c * 11 + i * 17) % 89) as f32 - 44.0) / 22.0
                })
            })
            .collect();
        let refs: Vec<&Matrix<f32>> = seqs.iter().collect();
        group.bench_with_input(BenchmarkId::new("sequences", batch), &refs, |b, refs| {
            b.iter(|| block.forward_batch(refs))
        });
    }
    group.finish();
}

/// Full runtime round trip: submit a burst of requests, wait for all
/// responses — queueing, coalescing, dispatch, and split included.
fn bench_runtime_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_runtime");
    for workers in [1usize, 2, 4] {
        let registry = Arc::new(ModelRegistry::new());
        let model = registry.insert(prepared_model(3));
        let runtime = Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers,
                policy: BatchPolicy {
                    max_batch: 32,
                    max_wait: Duration::from_micros(200),
                },
            },
        );
        let mut rng = panacea_tensor::seeded_rng(4);
        let burst: Vec<Matrix<i32>> = (0..16).map(|_| request(&model, 2, &mut rng)).collect();
        group.bench_with_input(
            BenchmarkId::new("burst16x2", workers),
            &burst,
            |b, burst| {
                b.iter(|| {
                    let pending: Vec<_> = burst
                        .iter()
                        .map(|codes| {
                            runtime
                                .submit_to(Arc::clone(&model), codes.clone())
                                .expect("queued")
                        })
                        .collect();
                    pending
                        .into_iter()
                        .map(|p| p.wait().expect("served").payload)
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

/// Cost of one routing decision (rendezvous scores + a queue-depth
/// probe per candidate) as the shard count grows.
fn bench_router_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("gateway_router");
    for shards in [2usize, 4, 8] {
        let router = ShardRouter::new(vec![prepared_model(5)], shards, RuntimeConfig::default());
        group.bench_with_input(BenchmarkId::new("route", shards), &router, |b, router| {
            b.iter(|| router.route("bench"))
        });
    }
    group.finish();
}

/// Request-cache probe cost on both paths: a bit-exact hit (digest +
/// full key comparison + LRU bump) and a clean miss.
fn bench_request_cache(c: &mut Criterion) {
    let model = prepared_model(6);
    let mut rng = panacea_tensor::seeded_rng(7);
    let cache = RequestCache::new(CacheConfig {
        capacity: 512,
        shards: 8,
        ..CacheConfig::default()
    });
    let hit_codes = Payload::Codes(request(&model, 4, &mut rng));
    let (out, _) = model.forward(&hit_codes);
    cache.insert(
        model.instance_id(),
        hit_codes.clone(),
        CachedOutput {
            payload: out,
            scale: model.output_scale(),
        },
    );
    let miss_codes = Payload::Codes(request(&model, 4, &mut rng));

    let mut group = c.benchmark_group("gateway_cache");
    group.bench_function("hit", |b| {
        b.iter(|| cache.get(model.instance_id(), &hit_codes).expect("hit"))
    });
    group.bench_function("miss", |b| {
        b.iter(|| cache.get(model.instance_id(), &miss_codes))
    });
    group.finish();
}

/// One KV-cached decode step versus a full-prefix causal recompute, at
/// several prefix lengths. The cached step's per-token cost should stay
/// roughly flat in the prefix (only attention grows, linearly), while
/// the recompute re-runs every GEMM over the whole prefix and grows
/// linearly per token — the O(tokens) vs O(tokens²) gap across a
/// generation.
fn bench_decode_step(c: &mut Criterion) {
    let block = prepared_block(9);
    let token = Matrix::from_fn(32, 1, |r, _| (((r * 29 + 3) % 89) as f32 - 44.0) / 22.0);
    let mut group = c.benchmark_group("decode_step");
    for prefix_len in [16usize, 64, 256] {
        let prefix = Matrix::from_fn(32, prefix_len, |r, c| {
            (((r * 29 + c * 11) % 89) as f32 - 44.0) / 22.0
        });
        let blocks = std::slice::from_ref(&block);
        let mut prefilled = KvCache::for_blocks(blocks);
        decode_step(blocks, &prefix, &mut prefilled);
        group.bench_with_input(
            BenchmarkId::new("kv_cached", prefix_len),
            &prefilled,
            |b, prefilled| {
                // The clone is O(prefix) memcpy — negligible next to
                // the step's GEMMs, and it keeps every iteration
                // stepping from the same prefix length.
                b.iter(|| {
                    let mut kv = prefilled.clone();
                    decode_step(blocks, &token, &mut kv)
                })
            },
        );
        let with_new = Matrix::hstack(&[&prefix, &token]).expect("same rows");
        group.bench_with_input(
            BenchmarkId::new("full_recompute", prefix_len),
            &with_new,
            |b, with_new| b.iter(|| block.forward_segments_causal(with_new, &[with_new.cols()])),
        );
    }
    group.finish();
}

/// Continuous-batching decode: N sessions each advancing by one token,
/// executed as N serial solo steps versus one fused pass
/// (`decode_step_batch`). Both do identical per-session math bit for
/// bit; the fused pass walks each weight once for all sessions instead
/// of once per width-1 step — the per-shard decode throughput lever the
/// serving batcher pulls.
fn bench_decode_batch(c: &mut Criterion) {
    let block = prepared_block(10);
    let blocks = std::slice::from_ref(&block);
    let mut group = c.benchmark_group("decode_batch");
    for sessions in [1usize, 4, 8, 16] {
        let prefilled: Vec<KvCache> = (0..sessions)
            .map(|s| {
                let prefix = Matrix::from_fn(32, 32, |r, c| {
                    (((r * 29 + c * 11 + s * 7) % 89) as f32 - 44.0) / 22.0
                });
                let mut kv = KvCache::for_blocks(blocks);
                decode_step(blocks, &prefix, &mut kv);
                kv
            })
            .collect();
        let tokens: Vec<Matrix<f32>> = (0..sessions)
            .map(|s| {
                Matrix::from_fn(32, 1, |r, _| {
                    (((r * 29 + s * 11 + 3) % 89) as f32 - 44.0) / 22.0
                })
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("serial_solo_steps", sessions),
            &prefilled,
            |b, prefilled| {
                b.iter(|| {
                    let mut kvs = prefilled.clone();
                    for (t, kv) in tokens.iter().zip(&mut kvs) {
                        decode_step(blocks, t, kv);
                    }
                })
            },
        );
        let refs: Vec<&Matrix<f32>> = tokens.iter().collect();
        let stacked = Matrix::hstack(&refs).expect("same rows");
        let segments = vec![1usize; sessions];
        group.bench_with_input(
            BenchmarkId::new("fused_pass", sessions),
            &prefilled,
            |b, prefilled| {
                b.iter(|| {
                    let mut kvs = prefilled.clone();
                    let mut kv_refs: Vec<&mut KvCache> = kvs.iter_mut().collect();
                    decode_step_batch(blocks, &stacked, &segments, &mut kv_refs)
                })
            },
        );
    }
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_batch_width, bench_block_forward, bench_runtime_dispatch, bench_router_route, bench_request_cache, bench_decode_step, bench_decode_batch
}
criterion_main!(benches);
