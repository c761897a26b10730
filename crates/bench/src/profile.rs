//! Per-layer sparsity profiling — the bridge between the model zoo and
//! the accelerator simulator.
//!
//! For each [`LayerSpec`] we sample a representative weight tile and
//! activation tile from the layer's distributions, run the PTQ calibration
//! (optionally with ZPM and DBS), bit-slice both operands, and read the HO
//! *vector* sparsities `ρ_w` and `ρ_x` from the kernel's closed-form
//! [`TileStats`](panacea_core::TileStats) — [`aqs_tile_stats`] for
//! Panacea, [`sibia_tile_stats`] for Sibia — plus quality SQNRs. The
//! simulator then scales the measured tile statistics to the full layer —
//! the same methodology the paper uses ("we count the number of cycles and
//! the number of activated modules during inference … considering
//! bit-slice sparsity in real benchmarks").

use panacea_bitslice::{SlicedActivation, SlicedWeight};
use panacea_core::aqs_tile_stats;
use panacea_core::sibia::sibia_tile_stats;
use panacea_models::proxy::{self, ActScheme};
use panacea_models::zoo::{LayerSpec, ModelSpec};
use panacea_quant::dbs::DbsConfig;
use panacea_quant::{
    ActivationCalibrator, DbsType, LayerQuantConfig, Quantizer, SymmetricQuantizer,
};

/// Profiling options (which of the paper's optimizations are active).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileOptions {
    /// Enable zero-point manipulation.
    pub zpm: bool,
    /// Enable distribution-based slicing.
    pub dbs: Option<DbsConfig>,
    /// Tile cap along M (multiple of 4).
    pub sample_m: usize,
    /// Tile cap along K.
    pub sample_k: usize,
    /// Tile cap along N (multiple of 4).
    pub sample_n: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            zpm: true,
            dbs: Some(DbsConfig::default()),
            sample_m: 128,
            sample_k: 192,
            sample_n: 128,
            seed: 0xBEEF,
        }
    }
}

impl ProfileOptions {
    /// The paper's baseline configuration: no ZPM, no DBS.
    pub fn baseline() -> Self {
        ProfileOptions {
            zpm: false,
            dbs: None,
            ..ProfileOptions::default()
        }
    }
}

/// Measured per-layer statistics.
#[derive(Debug, Clone)]
pub struct LayerProfile {
    /// The layer this profile describes.
    pub spec: LayerSpec,
    /// Weight HO vector sparsity (SBR all-zero 4×1 vectors).
    pub rho_w: f64,
    /// Activation HO vector sparsity under AQS-GEMM (all-`r` 1×4 vectors).
    pub rho_x: f64,
    /// Activation HO vector sparsity counting only all-*zero* vectors —
    /// what a zero-skip-only engine (Sibia semantics, Fig. 18(b)) sees on
    /// the same asymmetric data.
    pub rho_x_zero_only: f64,
    /// Activation HO vector sparsity Sibia achieves with its own
    /// *symmetric* 7-bit activations.
    pub rho_x_sibia: f64,
    /// Selected DBS type.
    pub dbs_type: DbsType,
    /// Slice-level skip-range coverage from calibration.
    pub coverage: f64,
    /// Final activation quantization configuration.
    pub quant: LayerQuantConfig,
    /// Layer-output SQNR with plain asymmetric activations (no DBS
    /// truncation) — the algorithm-level comparison of Fig. 5(b).
    pub sqnr_asym_db: f64,
    /// Layer-output SQNR including the DBS type-2/3 LSB truncation —
    /// the small extra cost the paper quotes as ≈ 0.6 %p on DeiT-base.
    pub sqnr_dbs_db: f64,
    /// Layer-output SQNR with symmetric activations at the same width.
    pub sqnr_sym_db: f64,
}

/// Profiles one layer by tile sampling.
///
/// # Panics
///
/// Panics if the options' tile caps are not multiples of 4.
pub fn profile_layer(spec: &LayerSpec, opts: &ProfileOptions) -> LayerProfile {
    assert_eq!(opts.sample_m % 4, 0, "sample_m must be a multiple of 4");
    assert_eq!(opts.sample_n % 4, 0, "sample_n must be a multiple of 4");
    let m = spec.m.min(opts.sample_m);
    let k = spec.k.min(opts.sample_k);
    let n = spec.n.min(opts.sample_n);
    let mut rng = panacea_tensor::seeded_rng(opts.seed ^ hash_name(&spec.name));

    // --- Weights: sample, symmetric-quantize, SBR-slice.
    let w_f = spec.weight_dist.sample_matrix(m, k, &mut rng);
    let wq = SymmetricQuantizer::calibrate(w_f.as_slice(), spec.weight_bits);
    let w_int = wq.quantize_matrix(&w_f);
    let n_lo = usize::from((spec.weight_bits - 4) / 3);
    let sw = SlicedWeight::from_int(&w_int, n_lo).expect("weight fits declared width");

    // --- Activations: calibration batch + evaluation tile.
    let act_bits = 4 * (spec.act_lo_slices as u8 + 1);
    let cal_batch = spec.act_dist.sample_matrix(k, n, &mut rng);
    let mut cal = ActivationCalibrator::new(act_bits).with_zpm(opts.zpm);
    if let Some(cfg) = opts.dbs {
        // DBS is defined for 8-bit activations only.
        if spec.act_lo_slices == 1 {
            cal = cal.with_dbs(cfg);
        }
    }
    cal.observe(&cal_batch);
    let quant = cal.finalize();
    let x_f = spec.act_dist.sample_matrix(k, n, &mut rng);
    let x_q = quant.quantizer.quantize_matrix(&x_f);
    let sx = SlicedActivation::from_uint(&x_q, spec.act_lo_slices, quant.dbs_type)
        .expect("quantized activations fit declared width");
    let aqs = aqs_tile_stats(&sw, &sx, quant.frequent_ho_slice);
    let rho_x_zero_only = aqs_tile_stats(&sw, &sx, 0).rho_x;

    // --- Sibia reference: symmetric 7-bit activations, SBR slicing.
    // Sibia's symmetric activations use the (3k+4)-bit format with the
    // same slice count as the asymmetric path: 7-bit for k = 1.
    let sym_bits = 3 * spec.act_lo_slices as u8 + 4;
    let xq_sym = SymmetricQuantizer::calibrate(x_f.as_slice(), sym_bits);
    let x_sym = xq_sym.quantize_matrix(&x_f);
    let sx_sym = SlicedWeight::from_int(&x_sym, usize::from((sym_bits - 4) / 3))
        .expect("symmetric activations fit");
    let rho_x_sibia = sibia_tile_stats(&sw, &sx_sym).rho_x;

    // --- Quality proxies.
    let sqnr_asym_db = proxy::layer_output_sqnr(
        &w_f,
        &x_f,
        ActScheme::Asymmetric,
        spec.weight_bits,
        act_bits,
    );
    let sqnr_dbs_db = if quant.dbs_type == DbsType::Type1 {
        sqnr_asym_db
    } else {
        proxy::layer_output_sqnr(
            &w_f,
            &x_f,
            ActScheme::AsymmetricDbs(quant.dbs_type),
            spec.weight_bits,
            act_bits,
        )
    };
    // Sibia's symmetric activations live in the (3k+4)-bit format — 7-bit
    // for the standard 8-bit-equivalent configuration.
    let sqnr_sym_db =
        proxy::layer_output_sqnr(&w_f, &x_f, ActScheme::Symmetric, spec.weight_bits, sym_bits);

    LayerProfile {
        spec: spec.clone(),
        rho_w: aqs.rho_w,
        rho_x: aqs.rho_x,
        rho_x_zero_only,
        rho_x_sibia,
        dbs_type: quant.dbs_type,
        coverage: quant.coverage,
        quant,
        sqnr_asym_db,
        sqnr_dbs_db,
        sqnr_sym_db,
    }
}

/// Profiles every layer of a model.
pub fn profile_model(model: &ModelSpec, opts: &ProfileOptions) -> Vec<LayerProfile> {
    model
        .layers
        .iter()
        .map(|l| profile_layer(l, opts))
        .collect()
}

/// Cheap deterministic string hash (FNV-1a) to derive per-layer seeds.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use panacea_models::zoo::{Benchmark, LayerKind};

    fn quick_opts() -> ProfileOptions {
        ProfileOptions {
            sample_m: 64,
            sample_k: 96,
            sample_n: 64,
            ..ProfileOptions::default()
        }
    }

    #[test]
    fn profiles_are_deterministic() {
        let spec = &Benchmark::DeitBase.spec().layers[0];
        let a = profile_layer(spec, &quick_opts());
        let b = profile_layer(spec, &quick_opts());
        assert_eq!(a.rho_x, b.rho_x);
        assert_eq!(a.rho_w, b.rho_w);
    }

    #[test]
    fn sparsities_are_probabilities() {
        for p in profile_model(&Benchmark::DeitBase.spec(), &quick_opts()) {
            for v in [
                p.rho_w,
                p.rho_x,
                p.rho_x_zero_only,
                p.rho_x_sibia,
                p.coverage,
            ] {
                assert!((0.0..=1.0).contains(&v), "{} -> {v}", p.spec.name);
            }
        }
    }

    #[test]
    fn aqs_beats_zero_skip_only_on_asymmetric_layers() {
        // On asymmetric (non-near-zero-centred) quantized data, counting
        // all-r vectors must find at least as much sparsity as counting
        // all-zero vectors — usually far more (Fig. 18(b) / Fig. 14(a)).
        let spec = &Benchmark::DeitBase.spec().layers[0]; // qkv, post-LN
        let p = profile_layer(spec, &quick_opts());
        assert!(
            p.rho_x >= p.rho_x_zero_only,
            "rho_x={} < zero-only={}",
            p.rho_x,
            p.rho_x_zero_only
        );
        assert!(
            p.rho_x > 0.2,
            "expected nontrivial AQS sparsity, got {}",
            p.rho_x
        );
    }

    #[test]
    fn zpm_and_dbs_do_not_reduce_sparsity() {
        let spec = &Benchmark::Opt2_7b.spec().layers[0];
        let base = profile_layer(
            spec,
            &ProfileOptions {
                zpm: false,
                dbs: None,
                ..quick_opts()
            },
        );
        let opt = profile_layer(spec, &quick_opts());
        assert!(
            opt.rho_x + 1e-9 >= base.rho_x,
            "optimized {} < baseline {}",
            opt.rho_x,
            base.rho_x
        );
    }

    #[test]
    fn asym_quality_beats_sym_on_transformer_layers() {
        let model = Benchmark::BertBase.spec();
        let profiles = profile_model(&model, &quick_opts());
        // On aggregate, asymmetric activations preserve more signal.
        let asym: f64 = profiles.iter().map(|p| p.sqnr_asym_db).sum();
        let sym: f64 = profiles.iter().map(|p| p.sqnr_sym_db).sum();
        assert!(asym > sym, "asym {asym} should beat sym {sym}");
    }

    #[test]
    fn gelu_layers_have_high_zero_sparsity_even_without_r() {
        // The paper's Fig. 14(a) note: MLP.FC2 inputs (post-GELU) give the
        // legacy zero-skip engines their only sparse layer.
        let model = Benchmark::DeitBase.spec();
        let fc2 = model
            .layers
            .iter()
            .find(|l| l.kind == LayerKind::MlpFc2)
            .unwrap();
        let p = profile_layer(
            fc2,
            &ProfileOptions {
                zpm: false,
                dbs: None,
                ..quick_opts()
            },
        );
        assert!(
            p.rho_x_zero_only > 0.05,
            "post-GELU should produce some all-zero vectors, got {}",
            p.rho_x_zero_only
        );
    }

    #[test]
    fn mixed_precision_layers_profile_without_dbs() {
        let model = Benchmark::Llama1b.spec();
        let down = model
            .layers
            .iter()
            .find(|l| l.kind == LayerKind::DownProj)
            .unwrap();
        let p = profile_layer(down, &quick_opts());
        assert_eq!(p.dbs_type, DbsType::Type1, "12-bit inputs must stay type-1");
        // `r` is the 12-bit code's top 4-bit slice, and it is frequent.
        let r = p.quant.frequent_ho_slice;
        assert!(r < 16, "r = {r} is not a 4-bit HO slice");
        assert!(p.rho_x > 0.0, "rho_x = {}", p.rho_x);
    }
}
