//! Cross-crate integration tests: the full PTQ → bit-slice → AQS-GEMM
//! pipeline, the Eq. 3 zero-point folding, and the simulator orderings the
//! paper's evaluation depends on.

use panacea::bitslice::{SlicedActivation, SlicedWeight};
use panacea::core::aqs::aqs_gemm;
use panacea::core::pipeline::accumulator_bound;
use panacea::core::sibia::{choose_skip_side, sibia_gemm};
use panacea::models::zoo::Benchmark;
use panacea::quant::dbs::{dbs_truncate, DbsConfig};
use panacea::quant::integer::{asym_integer_gemm, fold_zero_point_bias};
use panacea::quant::{ActivationCalibrator, Quantizer, SymmetricQuantizer};
use panacea::sim::arch::PanaceaConfig;
use panacea::sim::panacea::PanaceaSim;
use panacea::sim::simulate_model;
use panacea::sim::workload::LayerWork;
use panacea::tensor::{dist::DistributionKind, seeded_rng, Matrix};
use panacea_bench::profile::{profile_model, ProfileOptions};
use panacea_bench::{to_layer_work, EngineKind};

/// Full pipeline on realistic data: calibrate, quantize, slice, AQS-GEMM,
/// fold the zero-point into the bias — every step must compose exactly.
#[test]
fn full_pipeline_is_bit_exact() {
    let mut rng = seeded_rng(1);
    let w_f = DistributionKind::OutlierChannels {
        core_std: 0.02,
        outlier_scale: 5.0,
        outlier_frac: 0.02,
    }
    .sample_matrix(32, 64, &mut rng);
    let x_f = DistributionKind::TransformerAct {
        core_mean: 0.1,
        core_std: 0.4,
        pos_scale: 12.0,
        neg_scale: 7.0,
        outlier_frac: 0.02,
    }
    .sample_matrix(64, 32, &mut rng);

    let wq = SymmetricQuantizer::calibrate(w_f.as_slice(), 7);
    let w_int = wq.quantize_matrix(&w_f);
    let mut cal = ActivationCalibrator::new(8)
        .with_zpm(true)
        .with_dbs(DbsConfig::default());
    cal.observe(&x_f);
    let cfg = cal.finalize();
    let x_int = cfg.quantizer.quantize_matrix(&x_f);
    let x_eff = x_int.map(|&v| dbs_truncate(v, cfg.dbs_type));

    let sw = SlicedWeight::from_int(&w_int, 1).expect("weights");
    let sx = SlicedActivation::from_uint(&x_int, 1, cfg.dbs_type).expect("acts");
    let (acc, _) = aqs_gemm(&sw, &sx, cfg.frequent_ho_slice);
    // 1. The sliced path equals the dense product of the effective operands.
    assert_eq!(acc, w_int.gemm(&x_eff).expect("shapes"));

    // 2. Eq. 3: folding zp·W·1 into the bias equals centring activations.
    let zp = cfg.quantizer.params().zero_point;
    let bias = vec![0i32; w_int.rows()];
    let bhat = fold_zero_point_bias(&w_int, zp, &bias);
    let folded = asym_integer_gemm(&w_int, &x_eff, &bhat).expect("shapes");
    let centered = w_int.gemm(&x_eff.map(|&v| v - zp)).expect("shapes");
    assert_eq!(folded, centered);
}

/// AQS-GEMM and Sibia agree with each other on data both can represent
/// (zero-centred symmetric values, r = 0).
#[test]
fn aqs_and_sibia_agree_on_symmetric_data() {
    let mut rng = seeded_rng(2);
    let w = Matrix::from_fn(8, 16, |_, _| rand::Rng::gen_range(&mut rng, -60i32..=60));
    let x = Matrix::from_fn(16, 8, |_, _| rand::Rng::gen_range(&mut rng, 0i32..=63));
    let sw = SlicedWeight::from_int(&w, 1).expect("weights");
    let sx_aqs = SlicedActivation::from_uint(&x, 1, panacea::quant::DbsType::Type1).expect("acts");
    let sx_sibia = SlicedWeight::from_int(&x, 1).expect("acts as SBR");
    let reference = w.gemm(&x).expect("shapes");
    let (a, _) = aqs_gemm(&sw, &sx_aqs, 0);
    let side = choose_skip_side(&sw, &sx_sibia);
    let (b, _) = sibia_gemm(&sw, &sx_sibia, side);
    assert_eq!(a, reference);
    assert_eq!(b, reference);
}

/// Profiling every benchmark model produces valid simulator inputs, and
/// the simulator reproduces the paper's headline ordering on all of them.
#[test]
fn all_benchmarks_profile_and_simulate() {
    let opts = ProfileOptions {
        sample_m: 64,
        sample_k: 96,
        sample_n: 64,
        ..ProfileOptions::default()
    };
    let pan = PanaceaSim::new(PanaceaConfig::default());
    for b in Benchmark::all() {
        let model = b.spec();
        let profiles = profile_model(&model, &opts);
        let layers: Vec<LayerWork> = profiles
            .iter()
            .map(|p| to_layer_work(p, EngineKind::Panacea))
            .collect();
        for l in &layers {
            l.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        }
        let perf = simulate_model(&pan, &layers, 400.0);
        assert!(perf.tops > 0.0, "{}", model.name);
        assert!(perf.tops_per_w > 0.0, "{}", model.name);
    }
}

/// The central evaluation claim: on a sparse asymmetric workload Panacea
/// beats the zero-skip-only configuration of itself (Fig. 18(b) shape).
#[test]
fn aqs_outperforms_zero_skip_only_end_to_end() {
    let opts = ProfileOptions {
        sample_m: 64,
        sample_k: 96,
        sample_n: 64,
        ..ProfileOptions::default()
    };
    let model = Benchmark::Opt2_7b.spec();
    let profiles = profile_model(&model, &opts);
    let pan = PanaceaSim::new(PanaceaConfig::default());
    let mk =
        |engine| -> Vec<LayerWork> { profiles.iter().map(|p| to_layer_work(p, engine)).collect() };
    let full = simulate_model(&pan, &mk(EngineKind::Panacea), 400.0);
    let zero = simulate_model(&pan, &mk(EngineKind::PanaceaZeroSkipOnly), 400.0);
    assert!(
        full.tops > zero.tops,
        "AQS {} must beat zero-skip-only {}",
        full.tops,
        zero.tops
    );
    assert!(full.tops_per_w > zero.tops_per_w);
}

/// Requantized outputs of one layer are valid inputs for the next layer's
/// sliced path (the PPU loop of Fig. 11).
#[test]
fn requantized_outputs_feed_next_layer() {
    let mut rng = seeded_rng(5);
    let w = Matrix::from_fn(16, 16, |_, _| rand::Rng::gen_range(&mut rng, -50i32..=50));
    let x = Matrix::from_fn(16, 16, |_, _| rand::Rng::gen_range(&mut rng, 0i32..=255));
    let sw = SlicedWeight::from_int(&w, 1).expect("weights");
    let sx = SlicedActivation::from_uint(&x, 1, panacea::quant::DbsType::Type1).expect("acts");
    let (acc, _) = aqs_gemm(&sw, &sx, 3);

    let out_q = panacea::quant::AsymmetricQuantizer::from_params(0.1, 117, 8).expect("params");
    let rq = panacea::quant::requant::Requantizer::new(1e-4, out_q).expect("requantizer");
    let next_input = rq.requantize_matrix(&acc);
    assert!(next_input.iter().all(|&v| (0..=255).contains(&v)));
    // And it slices cleanly for the next layer.
    let sliced = SlicedActivation::from_uint(&next_input, 1, panacea::quant::DbsType::Type1);
    assert!(sliced.is_ok());
}

#[test]
fn every_zoo_layer_keeps_its_accumulators_inside_i32() {
    // `QuantizedLinear::prepare` rejects a layer whose worst case leaves
    // i32; at the default w7/a8 no benchmark layer comes near. The folded
    // bias of a bias-free layer is at most another K·max|w|·max code.
    for bench in Benchmark::all() {
        for layer in bench.spec().layers {
            let worst = 2 * accumulator_bound(layer.k, 7, 8);
            assert!(
                worst < i64::from(i32::MAX),
                "{bench:?} {}: K = {} can reach {worst}",
                layer.name,
                layer.k
            );
        }
    }
}
