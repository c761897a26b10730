//! Quickstart: quantize a layer asymmetrically, bit-slice it, run the
//! AQS-GEMM with compression + compensation, and verify the result is
//! bit-exact against the dense integer reference.
//!
//! Run with: `cargo run --example quickstart`

use panacea::bitslice::{SlicedActivation, SlicedWeight};
use panacea::core::aqs::{aqs_gemm, aqs_tile_stats};
use panacea::quant::dbs::DbsConfig;
use panacea::quant::{ActivationCalibrator, Quantizer, SymmetricQuantizer};
use panacea::tensor::{dist::DistributionKind, seeded_rng};

fn main() {
    let mut rng = seeded_rng(42);

    // 1. A synthetic layer: near-zero weights, outlier-structured
    //    activations (the regime that motivates the paper).
    let w_f = DistributionKind::OutlierChannels {
        core_std: 0.02,
        outlier_scale: 5.0,
        outlier_frac: 0.01,
    }
    .sample_matrix(64, 128, &mut rng);
    let x_f = DistributionKind::TransformerAct {
        core_mean: 0.1,
        core_std: 0.5,
        pos_scale: 10.0,
        neg_scale: 6.0,
        outlier_frac: 0.01,
    }
    .sample_matrix(128, 64, &mut rng);

    // 2. PTQ: symmetric 7-bit weights, asymmetric 8-bit activations with
    //    zero-point manipulation and distribution-based slicing.
    let wq = SymmetricQuantizer::calibrate(w_f.as_slice(), 7);
    let w_int = wq.quantize_matrix(&w_f);
    let mut cal = ActivationCalibrator::new(8)
        .with_zpm(true)
        .with_dbs(DbsConfig::default());
    cal.observe(&x_f);
    let cfg = cal.finalize();
    let x_int = cfg.quantizer.quantize_matrix(&x_f);
    println!(
        "calibrated: zp = {}, DBS {} (l = {}), frequent HO slice r = {:04b}, coverage {:.1}%",
        cfg.quantizer.params().zero_point,
        cfg.dbs_type,
        cfg.dbs_type.lo_bits(),
        cfg.frequent_ho_slice,
        cfg.coverage * 100.0
    );

    // 3. Bit-slice both operands.
    let sw = SlicedWeight::from_int(&w_int, 1).expect("7-bit weights");
    let sx = SlicedActivation::from_uint(&x_int, 1, cfg.dbs_type).expect("8-bit activations");
    let stats = aqs_tile_stats(&sw, &sx, cfg.frequent_ho_slice);
    println!(
        "HO vector sparsity: weights {:.1}%, activations {:.1}%",
        stats.rho_w * 100.0,
        stats.rho_x * 100.0
    );

    // 4. AQS-GEMM: compress, skip, compensate — and stay exact.
    let (out, workload) = aqs_gemm(&sw, &sx, cfg.frequent_ho_slice);
    let reference = sw.reconstruct().gemm(&sx.reconstruct()).expect("shapes");
    println!(
        "AQS-GEMM equals the dense reference: {} — {} multiplies (+{} compensation), {} 4-bit slices moved",
        out == reference,
        workload.mul,
        workload.comp_mul,
        workload.ema_slices
    );
    let dense_mul = 4 * w_int.rows() as u64 * w_int.cols() as u64 * x_int.cols() as u64;
    println!(
        "vs dense bit-slice GEMM: {dense_mul} multiplies → {:.1}% skipped",
        (1.0 - workload.total_mul() as f64 / dense_mul as f64) * 100.0
    );
}
