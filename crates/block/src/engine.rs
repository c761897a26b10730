//! The block executor: four prepared AQS GEMMs plus the shared f32 glue.

use std::time::Instant;

use panacea_core::pipeline::QuantizedLinear;
use panacea_core::Workload;
use panacea_quant::Quantizer;
use panacea_tensor::{ops, Matrix};

use crate::stage_timing::{stage_end, Stage};

/// Per-sub-layer AQS workload of one block execution — which of the four
/// weight GEMMs the multiplies and slice traffic went to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockWorkload {
    /// Stacked QKV projection.
    pub qkv: Workload,
    /// Attention output projection.
    pub attn_proj: Workload,
    /// First MLP projection (includes its requantization boundary).
    pub fc1: Workload,
    /// Second MLP projection.
    pub fc2: Workload,
}

impl BlockWorkload {
    /// Sum over the four sub-layers — the scalar figure the serving
    /// metrics aggregate.
    pub fn total(&self) -> Workload {
        self.qkv
            .merged(&self.attn_proj)
            .merged(&self.fc1)
            .merged(&self.fc2)
    }

    /// Element-wise sum of two block workloads.
    pub fn merged(&self, other: &BlockWorkload) -> BlockWorkload {
        BlockWorkload {
            qkv: self.qkv.merged(&other.qkv),
            attn_proj: self.attn_proj.merged(&other.attn_proj),
            fc1: self.fc1.merged(&other.fc1),
            fc2: self.fc2.merged(&other.fc2),
        }
    }
}

/// One prepared pre-norm transformer block.
///
/// Built by [`BlockBuilder`](crate::BlockBuilder); immutable afterwards,
/// so it can be shared across serving workers exactly like a prepared
/// linear chain. Hidden states are `d_model × tokens` f32 matrices.
#[derive(Debug, Clone)]
pub struct QuantizedBlock {
    pub(crate) d_model: usize,
    pub(crate) n_heads: usize,
    pub(crate) d_ff: usize,
    /// QKV projection; accumulators are dequantized for attention.
    pub(crate) qkv: QuantizedLinear,
    /// Attention output projection.
    pub(crate) proj: QuantizedLinear,
    /// First MLP GEMM, requantizing into the pre-GELU 8-bit format.
    pub(crate) fc1: QuantizedLinear,
    /// Second MLP GEMM, consuming the LUT-activated codes.
    pub(crate) fc2: QuantizedLinear,
    /// Coded-domain GELU: pre-GELU code → fc2 input code.
    pub(crate) gelu_lut: Vec<i32>,
}

impl QuantizedBlock {
    /// Model width (`d_model`).
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Attention heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// MLP hidden width.
    pub fn d_ff(&self) -> usize {
        self.d_ff
    }

    /// Runs the block on one sequence of hidden states
    /// (`d_model × tokens`), returning the next hidden states and the
    /// per-sub-layer workload.
    ///
    /// # Panics
    ///
    /// Panics if `h.rows() != d_model` or `h` has zero columns.
    pub fn forward(&self, h: &Matrix<f32>) -> (Matrix<f32>, BlockWorkload) {
        self.forward_segments(h, &[h.cols()])
    }

    /// The general entry point: `x` packs independent sequences
    /// column-wise, `segments` lists their token counts in order. Columns
    /// beyond the segment sum are treated as padding — they flow through
    /// the GEMMs (columns are independent, so they cannot perturb real
    /// outputs) but are not attended. Batching independent sequences is
    /// [`run_coalesced`](panacea_core::pipeline::run_coalesced) over this
    /// method: each part is bit-identical to that sequence alone through
    /// [`forward`](Self::forward).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != d_model`, `x` has zero columns, or the
    /// segments sum past `x.cols()`.
    pub fn forward_segments(
        &self,
        x: &Matrix<f32>,
        segments: &[usize],
    ) -> (Matrix<f32>, BlockWorkload) {
        self.forward_segments_impl(x, segments, false)
    }

    /// [`forward_segments`](Self::forward_segments) with **causal**
    /// attention: within each segment, token `i` attends only to tokens
    /// `j ≤ i`. This is the decoder-semantics full-prefix pass — the
    /// recompute oracle KV-cached decode
    /// ([`forward_decode_batch`](Self::forward_decode_batch)) is
    /// bit-identical to.
    ///
    /// # Panics
    ///
    /// Same conditions as [`forward_segments`](Self::forward_segments).
    pub fn forward_segments_causal(
        &self,
        x: &Matrix<f32>,
        segments: &[usize],
    ) -> (Matrix<f32>, BlockWorkload) {
        self.forward_segments_impl(x, segments, true)
    }

    fn forward_segments_impl(
        &self,
        x: &Matrix<f32>,
        segments: &[usize],
        causal: bool,
    ) -> (Matrix<f32>, BlockWorkload) {
        assert_eq!(x.rows(), self.d_model, "hidden-state width mismatch");
        let n = x.cols();
        assert!(n > 0, "block forward needs at least one token column");
        let used: usize = segments.iter().sum();
        assert!(used <= n, "segments describe more columns than provided");
        self.forward_with(x, segments, |_, seg| {
            if causal {
                ops::multi_head_attention_causal(seg, self.n_heads)
            } else {
                ops::multi_head_attention(seg, self.n_heads)
            }
        })
    }

    /// The one block body behind the stateless, causal and KV-cached
    /// entry points: LN → QKV, `attend(i, qkv_i)` per non-empty segment
    /// `i`, proj + residual, the MLP half — every step over `x`'s own
    /// columns, however many. Callers check their own input contracts
    /// first.
    fn forward_with(
        &self,
        x: &Matrix<f32>,
        segments: &[usize],
        mut attend: impl FnMut(usize, &Matrix<f32>) -> Matrix<f32>,
    ) -> (Matrix<f32>, BlockWorkload) {
        // Attention sub-layer.
        let t = Instant::now();
        let ln1 = ops::layer_norm(x);
        let (qkv_f, wl_qkv) = self.run_dequant(&self.qkv, &ln1);
        stage_end(Stage::Qkv, t);
        let t = Instant::now();
        let mut ctx = Matrix::<f32>::zeros(self.d_model, x.cols());
        let mut col = 0;
        for (i, &len) in segments.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let seg = qkv_f.submatrix(0, col, qkv_f.rows(), len);
            let seg_ctx = attend(i, &seg);
            for r in 0..self.d_model {
                for c in 0..len {
                    ctx[(r, col + c)] = seg_ctx[(r, c)];
                }
            }
            col += len;
        }
        stage_end(Stage::Attn, t);
        let t = Instant::now();
        let (attn_out, wl_proj) = self.run_dequant(&self.proj, &ctx);
        let h = ops::add(x, &attn_out);
        stage_end(Stage::Proj, t);

        let (out, wl_fc1, wl_fc2) = self.mlp_sublayer(&h);
        (
            out,
            BlockWorkload {
                qkv: wl_qkv,
                attn_proj: wl_proj,
                fc1: wl_fc1,
                fc2: wl_fc2,
            },
        )
    }

    /// Continuous-batching decode: many sessions' freshly appended token
    /// columns, stacked side by side in `h_new` (`d_model × Σsegments`),
    /// run through **one** QKV / proj / fc1 / fc2 GEMM pass, while
    /// attention runs per session against that session's own cache
    /// state: the segment's K/V are appended to its pages first, then
    /// its tokens attend causally from the pages. `segments[i]` columns
    /// belong to `states[i]`, in order. Only the new columns pass through
    /// the GEMMs, so a step costs O(prefix) instead of the O(prefix²) a
    /// full recompute pays across a generation.
    ///
    /// Stepping a session's tokens through this method — in any chunking,
    /// alone or beside other sessions — is **bit-identical** per column to
    /// one causal full pass
    /// ([`forward_segments_causal`](Self::forward_segments_causal)) over
    /// the concatenated sequence: every coalesced stage of the pipeline is
    /// column-exact, attention only reads its own segment plus its own
    /// cached prefix, and the paged attention kernel accumulates in the
    /// same order as the full causal pass (see [`crate::kv`]). Coalescing
    /// changes the GEMM width, never the bits. This is the
    /// kernel-level contract the serving layer's decode batcher is built
    /// on: N concurrent single-token steps cost one `N`-wide GEMM pass per
    /// layer, one walk of each weight, instead of N width-1 passes.
    ///
    /// # Panics
    ///
    /// Panics if `h_new.rows() != d_model`, `segments` and `states`
    /// disagree in length, any segment is zero, the segments do not sum
    /// to `h_new.cols()`, or any state was built for a different width.
    pub fn forward_decode_batch(
        &self,
        h_new: &Matrix<f32>,
        segments: &[usize],
        states: &mut [&mut crate::kv::BlockKvState],
    ) -> (Matrix<f32>, BlockWorkload) {
        assert_eq!(h_new.rows(), self.d_model, "hidden-state width mismatch");
        let n = h_new.cols();
        assert!(n > 0, "decode step needs at least one token column");
        assert_eq!(
            segments.len(),
            states.len(),
            "one KV state per coalesced session"
        );
        assert!(
            segments.iter().all(|&s| s > 0),
            "decode segments must be non-empty"
        );
        assert_eq!(
            segments.iter().sum::<usize>(),
            n,
            "segments must cover every stacked column"
        );
        for state in states.iter() {
            assert_eq!(
                state.d_model(),
                self.d_model,
                "KV cache width disagrees with the block"
            );
        }

        // Attention is incremental per session: append the new columns'
        // K/V to the session's pages, then attend them from the pages.
        self.forward_with(h_new, segments, |i, seg_qkv| {
            let state = &mut *states[i];
            state.append_from_qkv(seg_qkv, seg_qkv.cols());
            state.attend(seg_qkv, self.n_heads)
        })
    }

    /// The MLP half of the block, shared by the stateless and decode
    /// paths: fc1 requantizes straight into the pre-GELU 8-bit format,
    /// the LUT applies GELU code→code, and fc2 consumes the codes — no
    /// f32 round-trip between the two GEMMs. Returns the post-residual
    /// hidden states plus the two GEMM workloads.
    fn mlp_sublayer(&self, h: &Matrix<f32>) -> (Matrix<f32>, Workload, Workload) {
        let t = Instant::now();
        let ln2 = ops::layer_norm(h);
        let fc1_codes = self.fc1.input_config().quantizer.quantize_matrix(&ln2);
        let (mid_codes, wl_fc1) = self.fc1.forward_codes(&fc1_codes);
        stage_end(Stage::Fc1, t);
        let t = Instant::now();
        let fc2_codes = mid_codes.map(|&c| self.gelu_lut[c as usize]);
        let (fc2_acc, wl_fc2) = self.fc2.forward(&fc2_codes);
        let s_fc2 = self.fc2.accumulator_scale();
        let mlp_out = fc2_acc.map(|&v| (f64::from(v) * s_fc2) as f32);
        let out = ops::add(h, &mlp_out);
        stage_end(Stage::Fc2, t);
        (out, wl_fc1, wl_fc2)
    }

    /// Quantize → AQS-GEMM → dequantize for the sub-layers whose output
    /// feeds f32 structural math (attention, residual).
    fn run_dequant(&self, layer: &QuantizedLinear, x: &Matrix<f32>) -> (Matrix<f32>, Workload) {
        let codes = layer.input_config().quantizer.quantize_matrix(x);
        let (acc, wl) = layer.forward(&codes);
        let s = layer.accumulator_scale();
        (acc.map(|&v| (f64::from(v) * s) as f32), wl)
    }
}
