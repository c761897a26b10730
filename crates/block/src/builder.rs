//! Block preparation: one calibration pass over the float oracle turns
//! each block's four weight GEMMs into prepared AQS layers, glued by a
//! requantizer and a coded-domain GELU table.

use panacea_bitslice::VECTOR_LEN;
use panacea_core::pipeline::QuantizedLinear;
use panacea_models::engine::{BlockWeights, TinyTransformer, TransformerConfig};
use panacea_models::zoo::{Benchmark, LayerKind};
use panacea_quant::dbs::DbsConfig;
use panacea_quant::{ActivationCalibrator, LayerQuantConfig, Quantizer};
use panacea_tensor::dist::{gelu, DistributionKind};
use panacea_tensor::{stats, Matrix};

use crate::engine::QuantizedBlock;
use crate::BlockError;

/// Quantization knobs for block preparation (mirrors the serving layer's
/// `PrepareOptions`; redeclared here because this crate sits below it).
#[derive(Debug, Clone, Copy)]
pub struct BlockBuilder {
    /// Weight bit-width (SBR format family, e.g. 4 or 7).
    pub w_bits: u8,
    /// Apply zero-point manipulation during calibration.
    pub zpm: bool,
    /// Apply distribution-based bit-slicing during calibration.
    pub dbs: bool,
}

impl Default for BlockBuilder {
    fn default() -> Self {
        BlockBuilder {
            w_bits: 7,
            zpm: true,
            dbs: true,
        }
    }
}

impl BlockBuilder {
    /// Prepares every block of `oracle` in one pass.
    ///
    /// `calibration` is a `d_model × tokens` hidden-state sample for the
    /// first block. The oracle's capturing forward supplies the float
    /// input of all four weight GEMMs of every block (post-LN1, attention
    /// context, post-LN2, post-GELU) in a single traversal, so each
    /// sub-layer's activation format is calibrated on the real tensor it
    /// will see, and block `i+1` is calibrated on block `i`'s float
    /// intermediates — the same PTQ convention as the linear-chain
    /// preparation in `panacea-serve`.
    ///
    /// # Errors
    ///
    /// [`BlockError::Geometry`] when `d_model`/`d_ff` are not multiples
    /// of the PE vector width or the calibration sample has the wrong
    /// feature count, and [`BlockError::Pipeline`] when a weight GEMM
    /// cannot be quantized/sliced at `w_bits`.
    pub fn prepare(
        &self,
        oracle: &TinyTransformer,
        calibration: &Matrix<f32>,
    ) -> Result<Vec<QuantizedBlock>, BlockError> {
        let cfg = oracle.config();
        for (what, dim) in [("d_model", cfg.d_model), ("d_ff", cfg.d_ff)] {
            if dim % VECTOR_LEN != 0 {
                return Err(BlockError::Geometry(format!(
                    "{what} = {dim} must be a multiple of the PE vector width {VECTOR_LEN}"
                )));
            }
        }
        if calibration.rows() != cfg.d_model {
            return Err(BlockError::Geometry(format!(
                "calibration sample has {} features, model width is {}",
                calibration.rows(),
                cfg.d_model
            )));
        }
        if calibration.cols() == 0 {
            return Err(BlockError::Geometry(
                "calibration sample has zero token columns".to_string(),
            ));
        }

        // Of each captured `(weight, input)` pair only the input is kept:
        // the weight is a copy of the oracle's own, and releasing the
        // copies before the first plane is allocated lets the prepared
        // layers take their place instead of being stacked on top.
        let inputs: Vec<Matrix<f32>> = oracle
            .captured_layers(calibration)
            .into_iter()
            .map(|capture| capture.input)
            .collect();
        debug_assert_eq!(inputs.len(), 4 * cfg.n_layers);
        oracle
            .blocks()
            .iter()
            .zip(inputs.chunks_exact(4))
            .map(|(weights, inputs)| self.prepare_block(cfg, weights, inputs))
            .collect()
    }

    /// Prepares one block from its weights and the four captured GEMM
    /// inputs (ordered qkv, attn_proj, fc1, fc2).
    fn prepare_block(
        &self,
        cfg: TransformerConfig,
        weights: &BlockWeights,
        inputs: &[Matrix<f32>],
    ) -> Result<QuantizedBlock, BlockError> {
        let [qkv_in, proj_in, fc1_in, fc2_in] = inputs else {
            unreachable!("four captures per block");
        };

        let cfg_qkv = self.calibrate(qkv_in);
        let cfg_ctx = self.calibrate(proj_in);
        let cfg_fc1 = self.calibrate(fc1_in);
        // The pre-GELU fc1 output is the one sub-layer tensor the
        // capturing forward does not expose (it captures GEMM *inputs*);
        // reconstruct it with one float GEMM.
        let pre_gelu = weights.w_fc1.gemm_f32(fc1_in)?;
        let cfg_mid = self.calibrate(&pre_gelu);
        let cfg_fc2 = self.calibrate(fc2_in);

        let zeros = |m: usize| vec![0.0f32; m];
        let qkv = QuantizedLinear::prepare(
            &weights.w_qkv,
            &zeros(3 * cfg.d_model),
            self.w_bits,
            cfg_qkv,
        )?;
        let proj =
            QuantizedLinear::prepare(&weights.w_proj, &zeros(cfg.d_model), self.w_bits, cfg_ctx)?;
        let fc1 = QuantizedLinear::prepare(&weights.w_fc1, &zeros(cfg.d_ff), self.w_bits, cfg_fc1)?
            .with_output(cfg_mid)?;
        let fc2 =
            QuantizedLinear::prepare(&weights.w_fc2, &zeros(cfg.d_model), self.w_bits, cfg_fc2)?;

        // Coded-domain GELU: every representable pre-GELU code maps to an
        // fc2 input code, so fc1 → GELU → fc2 is a pure code pipeline.
        let gelu_lut: Vec<i32> = (0..=cfg_mid.max_code())
            .map(|c| {
                cfg_fc2
                    .quantizer
                    .quantize(gelu(cfg_mid.quantizer.dequantize(c)))
            })
            .collect();
        // `mlp_sublayer` indexes the table with fc1's requantized codes,
        // which the requantizer clamps into `0..=qmax`.
        assert_eq!(
            gelu_lut.len(),
            cfg_mid.quantizer.params().qmax() as usize + 1,
            "the GELU table must cover every code fc1 can emit"
        );

        Ok(QuantizedBlock {
            d_model: cfg.d_model,
            n_heads: cfg.n_heads,
            d_ff: cfg.d_ff,
            qkv,
            proj,
            fc1,
            fc2,
            gelu_lut,
        })
    }

    fn calibrate(&self, x: &Matrix<f32>) -> LayerQuantConfig {
        let mut cal = ActivationCalibrator::new(8).with_zpm(self.zpm);
        if self.dbs {
            cal = cal.with_dbs(DbsConfig::default());
        }
        cal.observe(x);
        cal.finalize()
    }
}

/// One block's fidelity figure from [`sqnr_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSqnr {
    /// Block index.
    pub block: usize,
    /// SQNR (dB) of the quantized chain's hidden states after this block
    /// versus the float oracle's — cascaded, so quantization error
    /// accumulated in earlier blocks is charged here too.
    pub sqnr_db: f64,
}

/// Runs `x` through the quantized blocks and the float oracle in
/// lockstep, reporting the hidden-state SQNR after every block. This is
/// the per-block accuracy audit for a prepared block chain: the float
/// path is exactly [`TinyTransformer::forward`] (same `tensor::ops`
/// math), so the gap is purely quantization.
///
/// # Panics
///
/// Panics if the block count or widths disagree with the oracle.
pub fn sqnr_report(
    blocks: &[QuantizedBlock],
    oracle: &TinyTransformer,
    x: &Matrix<f32>,
) -> Vec<BlockSqnr> {
    assert_eq!(
        blocks.len(),
        oracle.config().n_layers,
        "block count disagrees with the oracle"
    );
    let mut h_float = x.clone();
    let mut h_quant = x.clone();
    let mut report = Vec::with_capacity(blocks.len());
    for (bi, block) in blocks.iter().enumerate() {
        h_float = oracle.forward_block(bi, &h_float);
        h_quant = block.forward(&h_quant).0;
        report.push(BlockSqnr {
            block: bi,
            sqnr_db: stats::sqnr_db(h_float.as_slice(), h_quant.as_slice()),
        });
    }
    report
}

/// Builds a float oracle whose weights follow a zoo benchmark's
/// per-kind weight distributions at the given (typically scaled-down)
/// geometry — so block experiments run on the outlier structure the
/// paper's benchmark models actually have, not i.i.d. Gaussians.
///
/// # Panics
///
/// Panics if `cfg.d_model` is not divisible by `cfg.n_heads`.
pub fn zoo_transformer(bench: Benchmark, cfg: TransformerConfig, seed: u64) -> TinyTransformer {
    use panacea_models::engine::BlockWeights;
    let spec = bench.spec();
    let dist_for = |kinds: &[LayerKind]| {
        spec.layers
            .iter()
            .find(|l| kinds.contains(&l.kind))
            .map(|l| l.weight_dist)
            .unwrap_or(DistributionKind::Gaussian {
                mean: 0.0,
                std: 0.02,
            })
    };
    let d_qkv = dist_for(&[LayerKind::Qkv]);
    let d_proj = dist_for(&[LayerKind::AttnProj]);
    let d_fc1 = dist_for(&[LayerKind::MlpFc1, LayerKind::GateUp]);
    let d_fc2 = dist_for(&[LayerKind::MlpFc2, LayerKind::DownProj]);
    let mut rng = panacea_tensor::seeded_rng(seed);
    let blocks = (0..cfg.n_layers)
        .map(|_| BlockWeights {
            w_qkv: d_qkv.sample_matrix(3 * cfg.d_model, cfg.d_model, &mut rng),
            w_proj: d_proj.sample_matrix(cfg.d_model, cfg.d_model, &mut rng),
            w_fc1: d_fc1.sample_matrix(cfg.d_ff, cfg.d_model, &mut rng),
            w_fc2: d_fc2.sample_matrix(cfg.d_model, cfg.d_ff, &mut rng),
        })
        .collect();
    TinyTransformer::from_weights(cfg, blocks)
}

/// Samples `d_model × tokens` block-input hidden states from the
/// benchmark's QKV-layer activation distribution — the zoo's model of
/// what hidden states entering a block look like (tight core, asymmetric
/// outlier channels).
pub fn zoo_hidden_states(
    bench: Benchmark,
    d_model: usize,
    tokens: usize,
    seed: u64,
) -> Matrix<f32> {
    let spec = bench.spec();
    let dist = spec
        .layers
        .iter()
        .find(|l| l.kind == LayerKind::Qkv)
        .map(|l| l.act_dist)
        .unwrap_or(DistributionKind::Gaussian {
            mean: 0.0,
            std: 1.0,
        });
    let mut rng = panacea_tensor::seeded_rng(seed);
    dist.sample_matrix(d_model, tokens, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TransformerConfig {
        TransformerConfig {
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 2,
        }
    }

    fn setup() -> (TinyTransformer, Matrix<f32>, Vec<QuantizedBlock>) {
        let oracle = zoo_transformer(Benchmark::BertBase, small_cfg(), 1);
        let calib = zoo_hidden_states(Benchmark::BertBase, 16, 24, 2);
        let blocks = BlockBuilder::default()
            .prepare(&oracle, &calib)
            .expect("prepare");
        (oracle, calib, blocks)
    }

    #[test]
    fn prepare_builds_one_quantized_block_per_oracle_block() {
        let (oracle, _, blocks) = setup();
        assert_eq!(blocks.len(), oracle.config().n_layers);
        for b in &blocks {
            assert_eq!(b.d_model(), 16);
            assert_eq!(b.n_heads(), 2);
            assert_eq!(b.d_ff(), 32);
        }
    }

    #[test]
    fn forward_preserves_shape_and_counts_work_per_sublayer() {
        let (_, calib, blocks) = setup();
        let (out, wl) = blocks[0].forward(&calib);
        assert_eq!(out.shape(), calib.shape());
        for (name, w) in [
            ("qkv", wl.qkv),
            ("attn_proj", wl.attn_proj),
            ("fc1", wl.fc1),
            ("fc2", wl.fc2),
        ] {
            assert!(w.mul > 0, "{name} sub-layer did no work");
        }
        assert_eq!(
            wl.total().mul,
            wl.qkv.mul + wl.attn_proj.mul + wl.fc1.mul + wl.fc2.mul
        );
    }

    #[test]
    fn forward_is_deterministic() {
        let (_, calib, blocks) = setup();
        let (a, _) = blocks[1].forward(&calib);
        let (b, _) = blocks[1].forward(&calib);
        assert_eq!(a, b);
    }

    #[test]
    fn unaligned_geometry_is_rejected() {
        let cfg = TransformerConfig {
            d_model: 18,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
        };
        let oracle = TinyTransformer::new_random(cfg, 3);
        let calib = Matrix::<f32>::zeros(18, 8);
        assert!(matches!(
            BlockBuilder::default().prepare(&oracle, &calib),
            Err(BlockError::Geometry(_))
        ));
    }

    #[test]
    fn wrong_calibration_width_is_rejected() {
        let oracle = TinyTransformer::new_random(small_cfg(), 4);
        assert!(matches!(
            BlockBuilder::default().prepare(&oracle, &Matrix::<f32>::zeros(12, 8)),
            Err(BlockError::Geometry(_))
        ));
        assert!(matches!(
            BlockBuilder::default().prepare(&oracle, &Matrix::<f32>::zeros(16, 0)),
            Err(BlockError::Geometry(_))
        ));
    }

    #[test]
    fn sqnr_report_covers_every_block_with_finite_figures() {
        let (oracle, calib, blocks) = setup();
        let report = sqnr_report(&blocks, &oracle, &calib);
        assert_eq!(report.len(), 2);
        for r in &report {
            assert!(r.sqnr_db.is_finite(), "block {} SQNR not finite", r.block);
        }
    }

    #[test]
    fn gelu_lut_matches_pointwise_quantization() {
        let (_, _, blocks) = setup();
        let b = &blocks[0];
        // Spot-check: LUT entries are valid fc2 input codes.
        let max = b.fc2.input_config().max_code();
        assert!(b.gelu_lut.iter().all(|&c| (0..=max).contains(&c)));
    }

    #[test]
    fn fc1_codes_at_both_clamp_ends_index_the_gelu_lut() {
        let (_, _, blocks) = setup();
        for b in &blocks {
            // All-zero and all-max input codes saturate fc1's requantizer
            // at both ends on this fixture.
            let max = b.fc1.input_config().max_code();
            let mids: Vec<i32> = [0, max]
                .into_iter()
                .flat_map(|code| {
                    let x = Matrix::from_fn(b.d_model, 3, |_, _| code);
                    b.fc1.forward_codes(&x).0.into_vec()
                })
                .collect();
            let top = b.gelu_lut.len() as i32 - 1;
            assert_eq!(mids.iter().min(), Some(&0), "low clamp not reached");
            assert_eq!(mids.iter().max(), Some(&top), "high clamp not reached");
            for &c in &mids {
                let lut = usize::try_from(c).ok().and_then(|i| b.gelu_lut.get(i));
                assert!(lut.is_some(), "fc1 code {c} outside the GELU table");
            }
        }
    }

    #[test]
    fn one_column_at_f32_max_runs_to_finite_output() {
        let (_, _, blocks) = setup();
        for v in [f32::MAX, -f32::MAX] {
            let h = Matrix::from_fn(16, 1, |_, _| v);
            for b in &blocks {
                let (out, _) = b.forward(&h);
                assert!(out.iter().all(|o| o.is_finite()), "forward at {v}");
            }
            let mut kv = crate::KvCache::for_blocks(&blocks);
            let (out, _) = crate::decode_step(&blocks, &h, &mut kv);
            assert!(out.iter().all(|o| o.is_finite()), "decode_step at {v}");
        }
    }
}
