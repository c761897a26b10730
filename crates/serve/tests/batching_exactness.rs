//! Property test: a batch of requests served through `panacea-serve` is
//! bit-exact versus running each request alone through `core::pipeline`.
//!
//! This is the serving runtime's core contract — dynamic batching is an
//! optimization, never an approximation.

use std::sync::Arc;

use panacea_core::pipeline::QuantizedLinear;
use panacea_quant::dbs::DbsConfig;
use panacea_quant::ActivationCalibrator;
use panacea_serve::{
    BatchPolicy, LayerSpec, ModelRegistry, PrepareOptions, PreparedModel, Runtime, RuntimeConfig,
};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;
use proptest::prelude::*;

/// A small single-layer model family parameterized by seed, plus the raw
/// pieces needed to rebuild the same layer directly via `core::pipeline`.
fn build(seed: u64, m: usize, k: usize) -> (Arc<PreparedModel>, QuantizedLinear) {
    let mut rng = panacea_tensor::seeded_rng(seed);
    let w = DistributionKind::Gaussian {
        mean: 0.0,
        std: 0.05,
    }
    .sample_matrix(m, k, &mut rng);
    let calib = DistributionKind::TransformerAct {
        core_mean: 0.1,
        core_std: 0.4,
        pos_scale: 8.0,
        neg_scale: 5.0,
        outlier_frac: 0.02,
    }
    .sample_matrix(k, 32, &mut rng);

    // The reference layer, built by hand exactly as PreparedModel does it.
    let mut cal = ActivationCalibrator::new(8)
        .with_zpm(true)
        .with_dbs(DbsConfig::default());
    cal.observe(&calib);
    let cfg = cal.finalize();
    let reference = QuantizedLinear::prepare(&w, &vec![0.0; m], 7, cfg).expect("reference layer");

    let model = PreparedModel::prepare(
        "prop",
        &[LayerSpec::unbiased(w)],
        &calib,
        PrepareOptions::default(),
    )
    .expect("prepared model");
    (Arc::new(model), reference)
}

fn request_strategy(k: usize) -> impl Strategy<Value = Matrix<i32>> {
    (1usize..7).prop_map(move |cols| {
        Matrix::from_fn(k, cols, |r, c| ((r * 37 + c * 11 + cols * 5) % 256) as i32)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever mix of widths rides a batch, every response is
    /// bit-identical to the solo `core::pipeline` execution.
    #[test]
    fn batched_serving_matches_solo_pipeline(
        seed in 0u64..4,
        widths in proptest::collection::vec(1usize..6, 1..10),
    ) {
        let (model, reference) = build(seed, 8, 16);
        let registry = Arc::new(ModelRegistry::new());
        let shared = registry.insert((*model).clone());
        let runtime = Runtime::start(
            Arc::clone(&registry),
            RuntimeConfig {
                workers: 2,
                policy: BatchPolicy {
                    max_batch: 16,
                    max_wait: std::time::Duration::from_millis(5),
                },
            },
        );

        let requests: Vec<Matrix<i32>> = widths
            .iter()
            .enumerate()
            .map(|(i, &cols)| {
                Matrix::from_fn(16, cols, |r, c| ((r * 31 + c * 7 + i * 13) % 256) as i32)
            })
            .collect();

        // Enqueue everything first so the batcher actually coalesces.
        let pending: Vec<_> = requests
            .iter()
            .map(|codes| {
                runtime
                    .submit_to(Arc::clone(&shared), codes.clone())
                    .expect("queued")
            })
            .collect();

        for (codes, p) in requests.iter().zip(pending) {
            let out = p.wait().expect("served");
            // Solo reference through core::pipeline directly.
            let (solo, _) = reference.forward(codes);
            prop_assert_eq!(out.payload.as_codes().expect("chain output"), &solo);
        }
    }

    /// The float convenience path agrees with the runtime's output
    /// dequantization for arbitrary request widths.
    #[test]
    fn runtime_output_scale_matches_model(width in request_strategy(16)) {
        let (model, _) = build(9, 8, 16);
        let registry = Arc::new(ModelRegistry::new());
        let shared = registry.insert((*model).clone());
        let runtime = Runtime::start(Arc::clone(&registry), RuntimeConfig::default());
        let out = runtime
            .submit_to(Arc::clone(&shared), width.clone())
            .expect("queued")
            .wait()
            .expect("served");
        let (direct, _) = shared.forward_codes(&width);
        prop_assert_eq!(out.payload.as_codes().expect("chain output"), &direct);
        prop_assert!((out.scale - shared.output_scale()).abs() < 1e-18);
    }
}
