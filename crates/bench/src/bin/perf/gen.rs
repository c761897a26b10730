//! Seeded input generation. Everything the program under test receives
//! derives from `--seed` through the harness-owned [`SplitMix64`]: the
//! public zoo builders are handed seeds drawn from it, and the
//! ρ-controlled GEMM operands are built value by value.

use panacea_block::{zoo_hidden_states, zoo_transformer};
use panacea_models::engine::{TinyTransformer, TransformerConfig};
use panacea_models::zoo::Benchmark;
use panacea_tensor::Matrix;

/// The zoo model whose weight/activation distributions every workload
/// samples from.
pub const ZOO: Benchmark = Benchmark::BertBase;

/// Length of the slice-vectors AQS-GEMM compresses (4×1 along M for
/// weights, 1×4 along N for activations).
const VECTOR_LEN: usize = 4;

/// Largest magnitude of a 7-bit SBR weight whose HO slice is zero.
const W_HO_ZERO_MAX: i32 = 7;
/// Largest magnitude the ρ generator emits for a 7-bit weight.
const W_MAX: i32 = 63;

/// splitmix64 (Steele, Lea & Flood): tiny, fast, and good enough to
/// derive independent streams by hashing a tag into the state.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `tag` (workload, client index, …) so
    /// adding a consumer never shifts another consumer's values.
    pub fn stream(seed: u64, tag: &str) -> Self {
        let mut s = SplitMix64(seed ^ 0x5045_5246_0000_0000);
        for b in tag.bytes() {
            s.0 = s.0.wrapping_add(u64::from(b));
            s.next_u64();
        }
        SplitMix64(s.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        let span = (i64::from(hi) - i64::from(lo) + 1) as u64;
        lo + (self.next_u64() % span) as i32
    }
}

/// FNV-1a over the bit patterns — the harness's own content hash, so
/// bit-exactness checks do not depend on the program's hashing.
pub fn content_hash<T: Copy + Into<HashWord>>(m: &Matrix<T>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(m.rows() as u64);
    eat(m.cols() as u64);
    for &v in m.iter() {
        eat(v.into().0);
    }
    h
}

/// Bit pattern of a matrix element, for [`content_hash`].
pub struct HashWord(u64);

impl From<f32> for HashWord {
    fn from(v: f32) -> Self {
        HashWord(u64::from(v.to_bits()))
    }
}

impl From<i32> for HashWord {
    fn from(v: i32) -> Self {
        HashWord(u64::from(v as u32))
    }
}

/// Whether two f32 matrices are bit-identical (shape and every bit
/// pattern; `==` would call `-0.0` and `0.0` equal and NaN unequal).
pub fn bit_eq(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.shape() == b.shape()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A float oracle with zoo-distributed weights at `cfg`.
pub fn transformer(cfg: TransformerConfig, rng: &mut SplitMix64) -> TinyTransformer {
    zoo_transformer(ZOO, cfg, rng.next_u64())
}

/// Fresh `d_model × tokens` zoo-distributed hidden states.
pub fn hidden(d_model: usize, tokens: usize, rng: &mut SplitMix64) -> Matrix<f32> {
    zoo_hidden_states(ZOO, d_model, tokens, rng.next_u64())
}

/// An `m × k` float weight matrix holding integers in `[-63, 63]` whose
/// 4×1 slice-vectors (4 consecutive rows, one column) have an all-zero
/// HO slice with probability `rho`. Entry `(0, 0)` is 63.5, which pins
/// the symmetric 7-bit scale `2·max|w|/127` at exactly 1 so that
/// quantizing the matrix reproduces these integers.
pub fn rho_weight(m: usize, k: usize, rho: f64, rng: &mut SplitMix64) -> Matrix<f32> {
    assert_eq!(m % VECTOR_LEN, 0, "M must be a multiple of {VECTOR_LEN}");
    let mut w = Matrix::<f32>::zeros(m, k);
    for mg in 0..m / VECTOR_LEN {
        for col in 0..k {
            let compress = rng.next_f64() < rho;
            let mut vec = [0i32; VECTOR_LEN];
            for v in &mut vec {
                *v = if compress {
                    rng.range_i32(-W_HO_ZERO_MAX, W_HO_ZERO_MAX)
                } else {
                    rng.range_i32(-W_MAX, W_MAX)
                };
            }
            if !compress && vec.iter().all(|v| v.abs() <= W_HO_ZERO_MAX + 1) {
                vec[0] = W_MAX;
            }
            for (i, &v) in vec.iter().enumerate() {
                w[(mg * VECTOR_LEN + i, col)] = v as f32;
            }
        }
    }
    w[(0, 0)] = W_MAX as f32 + 0.5;
    w
}

/// A `k × n` matrix of 8-bit activation codes whose 1×4 slice-vectors
/// (one row, 4 consecutive columns) carry HO slice `r` in all four
/// lanes — and are therefore compressed — with probability `rho`.
pub fn rho_codes(k: usize, n: usize, rho: f64, r: u8, rng: &mut SplitMix64) -> Matrix<i32> {
    assert_eq!(n % VECTOR_LEN, 0, "N must be a multiple of {VECTOR_LEN}");
    let r = i32::from(r);
    let mut x = Matrix::<i32>::zeros(k, n);
    for row in 0..k {
        for ng in 0..n / VECTOR_LEN {
            let compress = rng.next_f64() < rho;
            let mut vec = [0i32; VECTOR_LEN];
            for v in &mut vec {
                *v = if compress {
                    (r << 4) + rng.range_i32(0, 15)
                } else {
                    rng.range_i32(0, 255)
                };
            }
            if !compress && vec.iter().all(|v| v >> 4 == r) {
                vec[0] = ((r + 1) % 16) << 4;
            }
            for (i, &v) in vec.iter().enumerate() {
                x[(row, ng * VECTOR_LEN + i)] = v;
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_bitslice::{SlicedActivation, SlicedWeight};
    use panacea_core::aqs_tile_stats;
    use panacea_quant::dbs::DbsType;

    #[test]
    fn same_seed_same_content_different_seed_different_content() {
        let cfg = TransformerConfig {
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
        };
        let weights = |seed| {
            let mut rng = SplitMix64::stream(seed, "t");
            let t = transformer(cfg, &mut rng);
            let h = hidden(16, 8, &mut rng);
            (content_hash(&t.blocks()[0].w_qkv), content_hash(&h))
        };
        assert_eq!(weights(1), weights(1));
        assert_ne!(weights(1).0, weights(2).0);
        assert_ne!(weights(1).1, weights(2).1);

        let codes = |seed| {
            content_hash(&rho_codes(
                8,
                8,
                0.5,
                8,
                &mut SplitMix64::stream(seed, "codes"),
            ))
        };
        assert_eq!(codes(3), codes(3));
        assert_ne!(codes(3), codes(4));
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let a = SplitMix64::stream(1, "client0").next_u64();
        let b = SplitMix64::stream(1, "client1").next_u64();
        assert_ne!(a, b);
        assert_eq!(a, SplitMix64::stream(1, "client0").next_u64());
    }

    #[test]
    fn achieved_rho_is_within_two_points_of_target() {
        for (i, &rho) in [0.0, 0.5, 0.95].iter().enumerate() {
            let mut rng = SplitMix64::stream(10 + i as u64, "rho");
            let w = rho_weight(64, 96, rho, &mut rng).map(|&v| (v as i32).min(W_MAX));
            let x = rho_codes(96, 64, rho, 8, &mut rng);
            let sw = SlicedWeight::from_int(&w, 1).unwrap();
            let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
            let stats = aqs_tile_stats(&sw, &sx, 8);
            assert!((stats.rho_w - rho).abs() <= 0.02, "rho_w {}", stats.rho_w);
            assert!((stats.rho_x - rho).abs() <= 0.02, "rho_x {}", stats.rho_x);
        }
    }
}
