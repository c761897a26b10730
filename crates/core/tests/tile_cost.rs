//! Release-only timing gate of the AQS tile at BERT-base scale: one
//! 768 × 768 w7 × a8 [`QuantizedLinear`] (resident weights) per
//! vector-level sparsity ρ ∈ {0, 0.5, 0.95} — each 4×1 weight HO vector
//! and each 1×4 activation HO vector compressed with probability ρ —
//! timed per `forward` call at N ∈ {1, 2, 4, 8, 12, 16} columns, min
//! over alternated rounds.
//!
//! It asserts that a call costs more the more columns it has,
//! t(1) < t(4) < t(16) at every ρ (a narrow tile that lost its lanes
//! along M, or whose loop LLVM vectorised along `k`, fails here); that a
//! one-column call costs under [`NARROW_SHARE`] of a four-column one at
//! every ρ (a walk of one panel per `k`, three tile rows idle, read
//! 0.58–0.73 of it on a 2-core AVX-512 VM, never under 0.66 at ρ 0; the
//! four-panel walk 0.28–0.51); and that at N = 16 time falls as ρ rises: the paper's
//! Table-I claim held in the kernel itself. Under `--nocapture` it
//! prints the N × ρ table the `aqs` module doc quotes, and the
//! t(1) / t(4) ratios:
//!
//! ```text
//! cargo test --release -p panacea-core --test tile_cost -- --nocapture
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use panacea_core::pipeline::QuantizedLinear;
use panacea_quant::ActivationCalibrator;
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;
use rand::Rng;

const D: usize = 768;
const NS: [usize; 6] = [1, 2, 4, 8, 12, 16];
const RHOS: [f64; 3] = [0.0, 0.5, 0.95];
const ROUNDS: usize = 40;
const CALLS: usize = 8;
/// Bound on t(N=1) / t(N=4) at each ρ.
const NARROW_SHARE: f64 = 0.6;

/// A `D × D` float weight holding integers in `[-63, 63]` whose 4×1
/// vectors have an all-zero HO slice with probability `rho`. Entry
/// `(0, 0)` is 63.5, which pins the 7-bit scale `2·max|w|/127` at 1, so
/// the layer quantizes it back to these integers.
fn weight(rho: f64, rng: &mut impl Rng) -> Matrix<f32> {
    let mut w = Matrix::<f32>::zeros(D, D);
    for mg in 0..D / 4 {
        for k in 0..D {
            let compress = rng.gen::<f64>() < rho;
            for mm in 0..4 {
                let v = match (compress, mm) {
                    (true, _) => rng.gen_range(-7..=7),
                    // 63 has a non-zero HO slice: the vector is live.
                    (false, 0) => 63,
                    (false, _) => rng.gen_range(-63..=63),
                };
                w[(mg * 4 + mm, k)] = v as f32;
            }
        }
    }
    w[(0, 0)] = 63.5;
    w
}

/// `D × 16` 8-bit codes whose 1×4 vectors all carry HO slice `r` (and
/// are compressed) with probability `rho`.
fn codes(rho: f64, r: u8, rng: &mut impl Rng) -> Matrix<i32> {
    let r = i32::from(r);
    let mut x = Matrix::<i32>::zeros(D, 16);
    for k in 0..D {
        for ng in 0..4 {
            let compress = rng.gen::<f64>() < rho;
            for nn in 0..4 {
                let ho = match (compress, nn) {
                    (true, _) => r,
                    (false, 0) => (r + 1) % 16,
                    (false, _) => rng.gen_range(0..16),
                };
                x[(k, ng * 4 + nn)] = (ho << 4) + rng.gen_range(0..16);
            }
        }
    }
    x
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn tile_time_grows_with_columns_and_falls_with_sparsity() {
    let mut rng = panacea_tensor::seeded_rng(39);
    let hidden = DistributionKind::Gaussian {
        mean: 0.1,
        std: 0.8,
    }
    .sample_matrix(D, 64, &mut rng);
    let mut cal = ActivationCalibrator::new(8).with_zpm(true);
    cal.observe(&hidden);
    let act = cal.finalize();
    let r = act.frequent_ho_slice;
    // Per ρ: the layer and, per N, the first N columns of one input.
    let cases: Vec<(QuantizedLinear, Vec<Matrix<i32>>)> = RHOS
        .iter()
        .map(|&rho| {
            let layer = QuantizedLinear::prepare(&weight(rho, &mut rng), &[0.0; D], 7, act)
                .expect("a w7 × a8 layer");
            let x = codes(rho, r, &mut rng);
            let inputs = NS.iter().map(|&n| x.submatrix(0, 0, D, n)).collect();
            (layer, inputs)
        })
        .collect();

    let mut best = [[Duration::MAX; RHOS.len()]; NS.len()];
    for round in 0..ROUNDS {
        let mut order: Vec<(usize, usize)> = (0..NS.len())
            .flat_map(|ni| (0..RHOS.len()).map(move |ri| (ni, ri)))
            .collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for (ni, ri) in order {
            let (layer, inputs) = &cases[ri];
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(layer.forward(black_box(&inputs[ni])));
            }
            best[ni][ri] = best[ni][ri].min(t.elapsed() / CALLS as u32);
        }
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("ms per call, {D} × {D} w7 × a8, min of {ROUNDS} rounds × {CALLS} calls");
    println!("| N  | ρ 0   | ρ 0.5 | ρ 0.95 |");
    for (n, row) in NS.iter().zip(&best) {
        let [a, b, c] = row.map(ms);
        println!("| {n:<2} | {a:.3} | {b:.3} | {c:.3}  |");
    }
    let at = |n: usize| best[NS.iter().position(|&m| m == n).expect("a timed width")];
    let shares: Vec<f64> = (0..RHOS.len())
        .map(|ri| at(1)[ri].as_secs_f64() / at(4)[ri].as_secs_f64())
        .collect();
    println!("t(N=1) / t(N=4) per ρ: {shares:.2?}");
    for (ri, rho) in RHOS.iter().enumerate() {
        let (t1, t4, t16) = (at(1)[ri], at(4)[ri], at(16)[ri]);
        assert!(
            t1 < t4 && t4 < t16,
            "ρ {rho}: t(N=1) {t1:?}, t(N=4) {t4:?}, t(N=16) {t16:?} do not grow with N"
        );
    }
    for (rho, share) in RHOS.iter().zip(&shares) {
        assert!(
            *share < NARROW_SHARE,
            "ρ {rho}: t(N=1) is {share:.2} of t(N=4), not under {NARROW_SHARE}"
        );
    }
    let [dense, half, sparse] = at(16);
    assert!(
        dense > half && half > sparse,
        "N = 16: t(ρ 0) {dense:?}, t(ρ 0.5) {half:?}, t(ρ 0.95) {sparse:?} do not fall as ρ rises"
    );
}
