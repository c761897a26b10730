//! End-to-end quantized inference through a small transformer: run the
//! float forward pass, calibrate every weight GEMM from captured
//! activations, re-execute each layer with the AQS-GEMM integer path
//! (zero-point folded into the bias, Eq. 3), and report per-layer sparsity
//! and quality.
//!
//! Run with: `cargo run --example llm_inference`

use panacea::bitslice::{SlicedActivation, SlicedWeight};
use panacea::core::aqs::{aqs_gemm, aqs_tile_stats};
use panacea::models::engine::{TinyTransformer, TransformerConfig};
use panacea::quant::dbs::DbsConfig;
use panacea::quant::{ActivationCalibrator, Quantizer, SymmetricQuantizer};
use panacea::tensor::{dist::DistributionKind, seeded_rng, stats, Matrix};

fn main() {
    // A miniature GPT-style model and a batch of token embeddings.
    let cfg = TransformerConfig {
        d_model: 64,
        n_heads: 4,
        d_ff: 128,
        n_layers: 2,
    };
    let model = TinyTransformer::new_random(cfg, 7);
    let mut rng = seeded_rng(11);
    let x = DistributionKind::Gaussian {
        mean: 0.0,
        std: 1.0,
    }
    .sample_matrix(64, 16, &mut rng);

    // Capture every weight GEMM's (weight, input) during the float pass.
    let mut captures = Vec::new();
    model.forward_captured(&x, &mut captures);
    println!("captured {} weight GEMMs\n", captures.len());
    println!(
        "{:<16} {:>6} {:>8} {:>8} {:>9} {:>10}",
        "layer", "DBS", "rho_w", "rho_x", "SQNR dB", "muls saved"
    );

    for cap in &captures {
        // Calibrate this layer (in a real flow the calibration batch is a
        // separate dataset; the structure is identical).
        let wq = SymmetricQuantizer::calibrate(cap.weight.as_slice(), 7);
        let w_int = wq.quantize_matrix(&cap.weight);
        let mut cal = ActivationCalibrator::new(8)
            .with_zpm(true)
            .with_dbs(DbsConfig::default());
        cal.observe(&cap.input);
        let qcfg = cal.finalize();
        let x_int = qcfg.quantizer.quantize_matrix(&cap.input);

        let sw = SlicedWeight::from_int(&w_int, 1).expect("weights fit");
        let sx = SlicedActivation::from_uint(&x_int, 1, qcfg.dbs_type).expect("activations fit");
        let (acc, wl) = aqs_gemm(&sw, &sx, qcfg.frequent_ho_slice);
        let stats = aqs_tile_stats(&sw, &sx, qcfg.frequent_ho_slice);

        // Integer accumulators represent s_w·s_x·(W·(x − zp)); the zp·W·1
        // term folds into the bias (Eq. 3) — reconstruct the float output.
        let zp = qcfg.quantizer.params().zero_point;
        let row_sums: Vec<i64> = (0..w_int.rows())
            .map(|m| w_int.row(m).iter().map(|&v| i64::from(v)).sum())
            .collect();
        let scale = f64::from(wq.params().scale) * f64::from(qcfg.quantizer.params().scale);
        let deq = Matrix::from_fn(acc.rows(), acc.cols(), |m, n| {
            ((f64::from(acc[(m, n)]) - zp as f64 * row_sums[m] as f64) * scale) as f32
        });
        let reference = cap.weight.gemm_f32(&cap.input).expect("shapes");
        let sqnr = stats::sqnr_db(reference.as_slice(), deq.as_slice());

        let dense_mul = 4 * w_int.rows() as u64 * w_int.cols() as u64 * x_int.cols() as u64;
        println!(
            "{:<16} {:>6} {:>7.1}% {:>7.1}% {:>9.1} {:>9.1}%",
            cap.name,
            format!("{}", qcfg.dbs_type),
            stats.rho_w * 100.0,
            stats.rho_x * 100.0,
            sqnr,
            (1.0 - wl.total_mul() as f64 / dense_mul as f64) * 100.0,
        );
    }
    println!("\nEvery layer ran through the compressed AQS-GEMM path with exact integer results.");
}
