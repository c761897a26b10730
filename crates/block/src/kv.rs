//! Per-sequence key/value state for autoregressive decode.
//!
//! A stateless block stack recomputes attention over the whole prefix
//! for every new token — O(tokens²) across a generation. A [`KvCache`]
//! instead keeps each block's keys and values for every token already
//! decoded, so [`QuantizedBlock::forward_decode_batch`] only runs the
//! GEMMs on the *new* columns and attends them over the cached prefix:
//! one step costs O(tokens), and stepping is **bit-identical** to a full
//! causal recompute ([`QuantizedBlock::forward_segments_causal`]).
//!
//! The cache is decoder-semantics by construction: token `i` attends
//! only to `j ≤ i`, so an already-decoded token's hidden states (and
//! hence its cached K/V at every block) never change when later tokens
//! arrive. Bidirectional (encoder-style) stacks cannot be KV-cached —
//! use the stateless [`QuantizedBlock::forward_segments`] path for
//! those.
//!
//! # Pages
//!
//! Each block's K/V live in fixed 16-token pages (after
//! PagedAttention, Kwon et al., SOSP '23), laid out the way attention
//! reads them:
//!
//! * a **K page is feature-major**, `[d_model][16]`: head `h`'s
//!   features are the contiguous rows `h·d_h ..`, so a page's 16 scores
//!   are 16 lanes stepped over `d_h`;
//! * a **V page is token-major**, `[16][d_model]`: a head's
//!   context is `d_h` contiguous lanes stepped over tokens.
//!
//! The layout does not depend on the head count. Resident memory grows
//! by exactly one page per 16 tokens per block, and nothing already
//! cached is ever copied to make room.
//!
//! # Why paged attention is bit-identical to the reference
//!
//! [`BlockKvState`]'s attention kernel computes what
//! [`panacea_tensor::ops::multi_head_attention_decode`] computes, in the
//! same order. Each score is `Σ_f q_f·k_f` from `0.0` in ascending `f`,
//! times the scale; `softmax_in_place` runs on the same row; each
//! context feature is `Σ_j a_j·v_j` in ascending `j`. SIMD lanes run
//! only across independent outputs — tokens for scores, features for
//! context — so no sum is reassociated, and Rust never contracts to FMA.
//! Score lanes of the last page past a token's span are computed and
//! discarded.

use panacea_tensor::{ops, Matrix};

use crate::engine::{BlockWorkload, QuantizedBlock};

/// Tokens per K/V page.
const PAGE_TOKENS: usize = 16;

/// One page of 16 tokens' keys and values.
#[derive(Debug, Clone)]
struct Page {
    /// Feature-major: feature `f` of slot `s` at `f·PAGE_TOKENS + s`.
    k: Box<[f32]>,
    /// Token-major: feature `f` of slot `s` at `s·d_model + f`.
    v: Box<[f32]>,
}

impl Page {
    fn new(d_model: usize) -> Self {
        let zeroed = || vec![0.0; PAGE_TOKENS * d_model].into_boxed_slice();
        Page {
            k: zeroed(),
            v: zeroed(),
        }
    }
}

/// One block's cached attention state: keys and values of every
/// resident token in 16-token pages (see the
/// [module docs](self) for the layout and why attending from it is
/// bit-identical to the reference nest). Appending a token writes one
/// page slot, and a new page is allocated every 16 tokens.
#[derive(Debug, Clone)]
pub struct BlockKvState {
    d_model: usize,
    tokens: usize,
    pages: Vec<Page>,
}

impl BlockKvState {
    fn new(d_model: usize) -> Self {
        BlockKvState {
            d_model,
            tokens: 0,
            pages: Vec::new(),
        }
    }

    /// The feature width every cached token has.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Cached keys as a token-major copy (`tokens × d_model`
    /// flattened) — for inspection and tests; attention reads the pages.
    pub fn keys(&self) -> Vec<f32> {
        let d = self.d_model;
        (0..self.tokens)
            .flat_map(|t| {
                let (page, slot) = (&self.pages[t / PAGE_TOKENS], t % PAGE_TOKENS);
                (0..d).map(move |f| page.k[f * PAGE_TOKENS + slot])
            })
            .collect()
    }

    /// Cached values as a token-major copy (`tokens × d_model`
    /// flattened).
    pub fn values(&self) -> Vec<f32> {
        let cells = self.tokens * self.d_model;
        self.pages
            .iter()
            .flat_map(|p| p.v.iter())
            .take(cells)
            .copied()
            .collect()
    }

    /// Tokens resident in this block's cache.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Discards every cached token past the first `tokens`, keeping the
    /// prefix intact — a no-op when the cache already holds that few.
    /// Pages wholly past the prefix are freed. The kept partial page's
    /// later slots keep stale values that nothing reads: the accessors
    /// stop at the resident count, attention discards those lanes, and
    /// the next append overwrites them.
    pub fn truncate_tokens(&mut self, tokens: usize) {
        if tokens < self.tokens {
            self.tokens = tokens;
            self.pages.truncate(tokens.div_ceil(PAGE_TOKENS));
        }
    }

    /// Appends the K and V rows of freshly decoded tokens, read from a
    /// stacked QKV tensor (`3·d_model × t_new`, rows ordered Q, K, V) —
    /// O(d_model · t_new), independent of the prefix length.
    ///
    /// # Panics
    ///
    /// Panics if `qkv.rows() != 3·d_model` or `cols` exceeds the
    /// tensor's width.
    pub(crate) fn append_from_qkv(&mut self, qkv: &Matrix<f32>, cols: usize) {
        let d = self.d_model;
        assert_eq!(qkv.rows(), 3 * d, "QKV width disagrees with the cache");
        assert!(cols <= qkv.cols(), "append exceeds the QKV width");
        let first = self.tokens;
        self.tokens += cols;
        self.pages
            .resize_with(self.tokens.div_ceil(PAGE_TOKENS), || Page::new(d));
        for c in 0..cols {
            let t = first + c;
            let (page, slot) = (&mut self.pages[t / PAGE_TOKENS], t % PAGE_TOKENS);
            for f in 0..d {
                page.k[f * PAGE_TOKENS + slot] = qkv[(d + f, c)];
                page.v[slot * d + f] = qkv[(2 * d + f, c)];
            }
        }
    }

    /// Causal multi-head attention for the last `qkv_new.cols()`
    /// resident tokens, which must be `qkv_new`'s own columns, already
    /// appended by [`append_from_qkv`](Self::append_from_qkv): new token
    /// `i` attends over the `t_prev + i + 1` tokens up to and including
    /// itself, read from the pages. Returns the `d_model × t_new`
    /// context, bit-identical to
    /// [`ops::multi_head_attention_decode`] over the same tokens.
    ///
    /// # Panics
    ///
    /// Panics if `n_heads` is zero or does not divide `d_model`,
    /// `qkv_new.rows() != 3·d_model`, or `qkv_new` has more columns
    /// than the cache has tokens.
    pub(crate) fn attend(&self, qkv_new: &Matrix<f32>, n_heads: usize) -> Matrix<f32> {
        let d = self.d_model;
        assert!(
            n_heads > 0 && d.is_multiple_of(n_heads),
            "{n_heads} heads do not divide d_model {d}"
        );
        assert_eq!(qkv_new.rows(), 3 * d, "QKV width disagrees with the cache");
        let t_new = qkv_new.cols();
        assert!(
            t_new <= self.tokens,
            "attend the new tokens after appending them"
        );
        let t_prev = self.tokens - t_new;
        let dh = d / n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = Matrix::<f32>::zeros(d, t_new);
        // One score row per head, each as wide as the pages.
        let width = self.pages.len() * PAGE_TOKENS;
        let mut scores = vec![0f32; n_heads * width];
        let mut q = vec![0f32; d];
        let mut acc = vec![0f32; d];
        for i in 0..t_new {
            let span = t_prev + i + 1;
            let pages = &self.pages[..span.div_ceil(PAGE_TOKENS)];
            for (f, x) in q.iter_mut().enumerate() {
                *x = qkv_new[(f, i)];
            }
            // Scores: each K page is read once, head by head. A page's
            // 16 tokens are 16 lanes, each summed over the head's
            // features in ascending order.
            for (p, page) in pages.iter().enumerate() {
                let heads = q
                    .chunks_exact(dh)
                    .zip(page.k.chunks_exact(dh * PAGE_TOKENS));
                for (h, (qh, kh)) in heads.enumerate() {
                    let mut dot = [0f32; PAGE_TOKENS];
                    for (&qf, kf) in qh.iter().zip(kh.chunks_exact(PAGE_TOKENS)) {
                        for (lane, &kx) in dot.iter_mut().zip(kf) {
                            *lane += qf * kx;
                        }
                    }
                    let out = &mut scores[h * width + p * PAGE_TOKENS..][..PAGE_TOKENS];
                    for (o, lane) in out.iter_mut().zip(dot) {
                        *o = lane * scale;
                    }
                }
            }
            for row in scores.chunks_exact_mut(width) {
                ops::softmax_in_place(&mut row[..span]);
            }
            // Context: each V row is read once. A head's features are
            // lanes, each summed over the span's tokens in ascending
            // order.
            acc.fill(0.0);
            let rows = pages.iter().flat_map(|page| page.v.chunks_exact(d));
            for (j, v) in rows.take(span).enumerate() {
                let heads = acc.chunks_exact_mut(dh).zip(v.chunks_exact(dh));
                for (h, (acc_h, v_h)) in heads.enumerate() {
                    let a = scores[h * width + j];
                    for (x, &vx) in acc_h.iter_mut().zip(v_h) {
                        *x += a * vx;
                    }
                }
            }
            for (f, &x) in acc.iter().enumerate() {
                ctx[(f, i)] = x;
            }
        }
        ctx
    }
}

/// Per-sequence decode state: one [`BlockKvState`] per block of the
/// stack, plus the token count they all share. Created by
/// [`KvCache::for_blocks`], grown exclusively by
/// [`QuantizedBlock::forward_decode_batch`] (via [`decode_step`] and
/// [`decode_step_batch`]).
#[derive(Debug, Clone)]
pub struct KvCache {
    d_model: usize,
    states: Vec<BlockKvState>,
}

impl KvCache {
    /// An empty cache for a stack of `n_blocks` blocks of width
    /// `d_model`.
    pub fn new(d_model: usize, n_blocks: usize) -> Self {
        KvCache {
            d_model,
            states: (0..n_blocks).map(|_| BlockKvState::new(d_model)).collect(),
        }
    }

    /// An empty cache shaped for `blocks`.
    ///
    /// # Panics
    ///
    /// Panics if the blocks disagree on `d_model` (a stack that cannot
    /// execute at all).
    pub fn for_blocks(blocks: &[QuantizedBlock]) -> Self {
        let d_model = blocks.first().map_or(0, QuantizedBlock::d_model);
        assert!(
            blocks.iter().all(|b| b.d_model() == d_model),
            "block stack disagrees on d_model"
        );
        KvCache::new(d_model, blocks.len())
    }

    /// The model width every cached K/V column has.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Number of per-block states (the stack depth this cache serves).
    pub fn num_blocks(&self) -> usize {
        self.states.len()
    }

    /// Tokens decoded into this cache so far.
    pub fn tokens(&self) -> usize {
        self.states.first().map_or(0, BlockKvState::tokens)
    }

    /// Bytes of f32 K/V state the resident tokens occupy — the figure a
    /// serving layer's session byte budget charges, token by token. The
    /// allocation exceeds it by less than one page per block: the
    /// unfilled slots of each block's last page.
    pub fn resident_bytes(&self) -> usize {
        self.tokens() * self.bytes_per_token()
    }

    /// Bytes one decoded token adds to a cache of this shape — known
    /// before a step runs, so budgets can be enforced up front.
    pub fn bytes_per_token(&self) -> usize {
        self.num_blocks() * 2 * self.d_model * std::mem::size_of::<f32>()
    }

    /// One block's cached state.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.num_blocks()`.
    pub fn block(&self, block: usize) -> &BlockKvState {
        &self.states[block]
    }

    pub(crate) fn block_mut(&mut self, block: usize) -> &mut BlockKvState {
        &mut self.states[block]
    }

    /// Rolls the whole cache back to its first `tokens` tokens. This is
    /// the panic-isolation primitive: a fused decode pass that dies
    /// partway may have appended K/V to some blocks but not others, so
    /// the serving layer snapshots [`tokens`](Self::tokens) before the
    /// pass and truncates back on the way out — restoring a consistent
    /// prefix a solo retry can step from.
    pub fn truncate_tokens(&mut self, tokens: usize) {
        for state in &mut self.states {
            state.truncate_tokens(tokens);
        }
    }
}

/// Runs `h_new` (`d_model × t_new`, the freshly appended tokens of one
/// sequence) through a whole block stack with KV-cached incremental
/// attention, returning the new tokens' output hidden states and the
/// summed workload. The cache must have been built for this stack
/// ([`KvCache::for_blocks`]) and is advanced by `t_new` tokens.
///
/// Stepping tokens through this function — in any chunking — is
/// bit-identical to one full causal pass
/// ([`QuantizedBlock::forward_segments_causal`]) over the concatenated
/// sequence.
///
/// # Panics
///
/// Panics if the cache shape disagrees with `blocks` or `h_new` with
/// `d_model` (serving layers validate first).
pub fn decode_step(
    blocks: &[QuantizedBlock],
    h_new: &Matrix<f32>,
    kv: &mut KvCache,
) -> (Matrix<f32>, BlockWorkload) {
    decode_step_batch(blocks, h_new, &[h_new.cols()], &mut [kv])
}

/// Continuous-batching decode across a whole block stack: many sessions'
/// freshly appended token columns (stacked in `h_new`, `segments[i]`
/// columns per session, in order) run through **one** GEMM pass per
/// block via [`QuantizedBlock::forward_decode_batch`], while attention
/// and the K/V append stay per session against `kvs[i]`. Every cache is
/// advanced by its own segment's token count.
///
/// Each session's output columns are **bit-identical** to stepping that
/// session alone through [`decode_step`] — coalescing shares one walk of
/// each weight across the sessions without changing a single bit. See
/// the batch-decode exactness property tests.
///
/// # Panics
///
/// Panics if `segments`/`kvs` disagree in length, any segment is zero or
/// the segments do not sum to `h_new.cols()`, or any cache disagrees
/// with `blocks` on depth or width (serving layers validate first).
pub fn decode_step_batch(
    blocks: &[QuantizedBlock],
    h_new: &Matrix<f32>,
    segments: &[usize],
    kvs: &mut [&mut KvCache],
) -> (Matrix<f32>, BlockWorkload) {
    assert_eq!(
        segments.len(),
        kvs.len(),
        "one KV cache per coalesced session"
    );
    for kv in kvs.iter() {
        assert_eq!(
            kv.num_blocks(),
            blocks.len(),
            "KV cache built for a different stack depth"
        );
    }
    let mut h = h_new.clone();
    let mut wl = BlockWorkload::default();
    for (bi, block) in blocks.iter().enumerate() {
        let mut states: Vec<&mut BlockKvState> =
            kvs.iter_mut().map(|kv| kv.block_mut(bi)).collect();
        let (next, w) = block.forward_decode_batch(&h, segments, &mut states);
        wl = wl.merged(&w);
        h = next;
    }
    (h, wl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A `3·d × cols` QKV tensor of deterministic cells with magnitudes
    /// log-uniform over seven decades below `qk_max` (Q and K rows) or
    /// `1e4` (V rows), either sign.
    fn qkv(d: usize, cols: usize, seed: u64, qk_max: f32) -> Matrix<f32> {
        Matrix::from_fn(3 * d, cols, |r, c| {
            let mut z = seed ^ ((r as u64) << 32 | c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let max = if r < 2 * d { qk_max } else { 1e4 };
            let decades = (z >> 11) as f32 / (1u64 << 53) as f32 * 7.0;
            let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
            sign * max * 10f32.powf(-decades)
        })
    }

    /// A one-block state holding `cols` tokens of `x`.
    fn state_of(x: &Matrix<f32>) -> BlockKvState {
        let mut state = BlockKvState::new(x.rows() / 3);
        state.append_from_qkv(x, x.cols());
        state
    }

    fn assert_bits_eq(got: &Matrix<f32>, want: &Matrix<f32>, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i} ({g} vs {w})");
        }
    }

    #[test]
    fn empty_cache_has_zero_footprint() {
        let kv = KvCache::new(16, 2);
        assert_eq!(kv.tokens(), 0);
        assert_eq!(kv.resident_bytes(), 0);
        assert_eq!(kv.num_blocks(), 2);
        assert_eq!(kv.bytes_per_token(), 2 * 2 * 16 * 4);
    }

    #[test]
    fn append_grows_tokens_and_bytes_token_major() {
        let mut kv = KvCache::new(8, 3);
        // Q rows 0..8 = 1.0, K rows 8..16 = 2.0, V rows 16..24 = 3.0.
        let qkv = Matrix::from_fn(24, 2, |r, _| (r / 8) as f32 + 1.0);
        for b in 0..3 {
            kv.block_mut(b).append_from_qkv(&qkv, 2);
        }
        assert_eq!(kv.tokens(), 2);
        assert_eq!(kv.resident_bytes(), 2 * kv.bytes_per_token());
        assert_eq!(kv.block(1).keys().len(), 16);
        assert!(kv.block(1).keys().iter().all(|&x| x == 2.0));
        assert!(kv.block(1).values().iter().all(|&x| x == 3.0));
        assert_eq!(kv.block(1).d_model(), 8);
    }

    #[test]
    fn truncate_rolls_back_to_a_consistent_prefix() {
        let mut kv = KvCache::new(8, 3);
        let qkv = Matrix::from_fn(24, 3, |r, c| (r / 8) as f32 + c as f32);
        for b in 0..3 {
            kv.block_mut(b).append_from_qkv(&qkv, 3);
        }
        // Simulate a half-applied step: one block got an extra token.
        kv.block_mut(1).append_from_qkv(&qkv, 1);
        kv.truncate_tokens(3);
        assert_eq!(kv.tokens(), 3);
        for b in 0..3 {
            assert_eq!(kv.block(b).tokens(), 3, "block {b} rolled back");
        }
        assert_eq!(kv.resident_bytes(), 3 * kv.bytes_per_token());
        // Truncating past the resident count is a no-op.
        kv.truncate_tokens(10);
        assert_eq!(kv.tokens(), 3);
        kv.truncate_tokens(0);
        assert_eq!(kv.tokens(), 0);
        assert_eq!(kv.resident_bytes(), 0);
    }

    #[test]
    fn accessors_read_the_pages_token_major() {
        let d = 8;
        let x = qkv(d, 2 * PAGE_TOKENS + 3, 1, 1.0);
        let state = state_of(&x);
        assert_eq!(state.pages.len(), 3);
        let (keys, values) = (state.keys(), state.values());
        for t in 0..x.cols() {
            for f in 0..d {
                assert_eq!(keys[t * d + f], x[(d + f, t)], "key {t}/{f}");
                assert_eq!(values[t * d + f], x[(2 * d + f, t)], "value {t}/{f}");
            }
        }
    }

    #[test]
    fn page_kernel_is_bit_identical_to_the_reference_nest() {
        for (d, heads) in [(16, 2), (32, 4), (768, 12)] {
            for prefix in [0, 1, 15, 16, 17, 31, 32, 33, 257] {
                for new in [1, 2, 3, 17] {
                    // Wide Q·K saturates the softmax; unit Q·K keeps it
                    // soft, so the context sums mix many ±1e4 values.
                    for qk_max in [1e4, 1.0] {
                        let seed = (d * 1_000 + prefix * 10 + new) as u64;
                        let x = qkv(d, prefix + new, seed, qk_max);
                        let new_qkv = x.submatrix(0, prefix, 3 * d, new);
                        let mut state = state_of(&x.submatrix(0, 0, 3 * d, prefix));
                        let (k, v) = (state.keys(), state.values());
                        let want = ops::multi_head_attention_decode(&new_qkv, &k, &v, heads);
                        state.append_from_qkv(&new_qkv, new);
                        let got = state.attend(&new_qkv, heads);
                        let what = format!("d {d}, {heads} heads, {prefix} + {new}, {qk_max}");
                        assert_bits_eq(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn truncate_then_reappend_matches_a_cache_never_rolled_back() {
        let (d, heads) = (32, 4);
        let stream = qkv(d, 40, 7, 1.0);
        // A rolled-back step wrote different tokens past the cut.
        let other = qkv(d, 37, 8, 1.0);
        for cut in [20, 16] {
            let mut kept = state_of(&stream.submatrix(0, 0, 3 * d, cut));
            let mut rolled = state_of(&Matrix::from_fn(3 * d, 37, |r, c| {
                if c < cut {
                    stream[(r, c)]
                } else {
                    other[(r, c)]
                }
            }));
            let pages = rolled.pages.len();
            rolled.truncate_tokens(cut);
            assert_eq!(rolled.tokens(), cut);
            assert_eq!(rolled.pages.len(), cut.div_ceil(PAGE_TOKENS), "cut {cut}");
            assert!(rolled.pages.len() < pages, "cut {cut} freed no page");
            assert_eq!(rolled.keys(), kept.keys(), "cut {cut}");
            assert_eq!(rolled.values(), kept.values(), "cut {cut}");
            for t in cut..40 {
                let token = stream.submatrix(0, t, 3 * d, 1);
                rolled.append_from_qkv(&token, 1);
                kept.append_from_qkv(&token, 1);
                let what = format!("cut {cut}, token {t}");
                assert_bits_eq(
                    &rolled.attend(&token, heads),
                    &kept.attend(&token, heads),
                    &what,
                );
            }
            assert_eq!(rolled.keys(), kept.keys(), "cut {cut}");
            assert_eq!(rolled.values(), kept.values(), "cut {cut}");
            assert_eq!(rolled.pages.len(), kept.pages.len(), "cut {cut}");
        }
    }

    /// Single-token attention at the paper-scale width, page kernel
    /// against the reference nest, min of 20 calls per context length.
    /// Timing only; run with `cargo test --release -p panacea-block
    /// --lib -- --ignored --nocapture page_kernel_speed`.
    #[test]
    #[ignore = "timing report, not a check"]
    fn page_kernel_speed_vs_reference_nest() {
        let (d, heads) = (768, 12);
        for context in [32, 1_000, 2_800] {
            let x = qkv(d, context, 3, 1.0);
            let token = x.submatrix(0, context - 1, 3 * d, 1);
            let state = state_of(&x);
            let (k, v) = {
                let mut prefix = state.clone();
                prefix.truncate_tokens(context - 1);
                (prefix.keys(), prefix.values())
            };
            let min_ms = |f: &dyn Fn() -> Matrix<f32>| {
                (0..20)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(f());
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .fold(f64::INFINITY, f64::min)
            };
            let paged = min_ms(&|| state.attend(&token, heads));
            let nest = min_ms(&|| ops::multi_head_attention_decode(&token, &k, &v, heads));
            println!(
                "context {context}: page kernel {paged:.3} ms, reference nest {nest:.3} ms ({:.1}×)",
                nest / paged
            );
        }
    }
}
