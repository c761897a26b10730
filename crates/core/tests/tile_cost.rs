//! Release-only timing gate of the AQS tile at BERT-base scale: one
//! 768 × 768 w7 × a8 [`QuantizedLinear`] (resident weights) per
//! vector-level sparsity ρ ∈ {0, 0.5, 0.95} — each 4×1 weight HO vector
//! and each 1×4 activation HO vector compressed with probability ρ —
//! timed per `forward` call at N ∈ {1, 2, 4, 8, 12, 16} columns, in
//! alternated rounds.
//!
//! Every gate is a ratio of two cells timed in the same round, and holds
//! for the median of that ratio over the rounds: a slow host slows both
//! cells of a round alike, where a min over rounds of each cell filters
//! bursts but not load that lasts a whole run. It asserts that a call
//! costs more the more columns it has, t(1) < t(4) < t(16) at every ρ (a
//! narrow tile that lost its lanes along M, or whose loop LLVM vectorised
//! along `k`, fails here); that a one-column call costs under
//! [`NARROW_SHARE`] of a four-column one at every ρ (a walk of one panel
//! per `k`, three tile rows idle, fails it); and that at N = 16 time falls
//! as ρ rises: the paper's Table-I claim held in the kernel itself. Where
//! the static LO×LO pair runs on the dot product (AVX-512 VNNI + VBMI
//! builds) it also asserts t(N=16, ρ 0.95) < `SPARSE_SHARE` × t(N=16,
//! ρ 0): the pair that sparsity cannot remove is what is left at ρ 0.95,
//! so a LO×LO that fell back to the `i16` tile fails here. Under
//! `--nocapture` it prints the N × ρ table the `aqs` module doc quotes
//! (min of the rounds), the median ratios, and a past-L2 row — a
//! 3072 × 768 layer, fc1's shape, whose packed weight no longer fits a
//! 2 MiB L2, at N = 1 and 16, per 768² — which it does not gate:
//!
//! ```text
//! cargo test --release -p panacea-core --test tile_cost -- --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

use panacea_core::pipeline::QuantizedLinear;
use panacea_quant::ActivationCalibrator;
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;
use rand::Rng;

const D: usize = 768;
const NS: [usize; 6] = [1, 2, 4, 8, 12, 16];
const RHOS: [f64; 3] = [0.0, 0.5, 0.95];
const ROUNDS: usize = 40;
/// Rows of the past-L2 layer: fc1's `4 · d_model`.
const PAST_L2: usize = 4 * D;
const CALLS: usize = 8;
/// Bound on t(N=1) / t(N=4) at each ρ.
const NARROW_SHARE: f64 = 0.6;
/// Bound on t(N=16, ρ 0.95) / t(N=16, ρ 0) where LO×LO runs on the dot
/// product.
#[cfg(all(target_feature = "avx512vnni", target_feature = "avx512vbmi"))]
const SPARSE_SHARE: f64 = 0.28;

/// An `m × D` float weight holding integers in `[-63, 63]` whose 4×1
/// vectors have an all-zero HO slice with probability `rho`. Entry
/// `(0, 0)` is 63.5, which pins the 7-bit scale `2·max|w|/127` at 1, so
/// the layer quantizes it back to these integers.
fn weight(m: usize, rho: f64, rng: &mut impl Rng) -> Matrix<f32> {
    let mut w = Matrix::<f32>::zeros(m, D);
    for mg in 0..m / 4 {
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
    // Per ρ: the layer, the fc1-shaped one and, per N, the first N
    // columns of one input.
    let prepare = |m: usize, rho: f64, rng: &mut _| {
        QuantizedLinear::prepare(&weight(m, rho, rng), &vec![0.0; m], 7, act)
            .expect("a w7 × a8 layer")
    };
    let cases: Vec<(QuantizedLinear, QuantizedLinear, Vec<Matrix<i32>>)> = RHOS
        .iter()
        .map(|&rho| {
            let layer = prepare(D, rho, &mut rng);
            let wide = prepare(PAST_L2, rho, &mut rng);
            let x = codes(rho, r, &mut rng);
            let inputs = NS.iter().map(|&n| x.submatrix(0, 0, D, n)).collect();
            (layer, wide, inputs)
        })
        .collect();

    // Per round, per cell: ms per call, and per 768² for the fc1 shape.
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut past_l2 = Vec::with_capacity(ROUNDS / 4);
    // One untimed call first: a cell's weights are not the last cell's,
    // and a cold first call would weigh on a short cell most.
    let time = |layer: &QuantizedLinear, x: &Matrix<i32>, calls: usize| {
        black_box(layer.forward(black_box(x)));
        let t = Instant::now();
        for _ in 0..calls {
            black_box(layer.forward(black_box(x)));
        }
        t.elapsed().as_secs_f64() * 1e3 / calls as f64
    };
    for round in 0..ROUNDS {
        let mut order: Vec<(usize, usize)> = (0..NS.len())
            .flat_map(|ni| (0..RHOS.len()).map(move |ri| (ni, ri)))
            .collect();
        if round % 2 == 1 {
            order.reverse();
        }
        let mut cells = [[0.0; RHOS.len()]; NS.len()];
        for (ni, ri) in order {
            cells[ni][ri] = time(&cases[ri].0, &cases[ri].2[ni], CALLS);
        }
        rounds.push(cells);
    }
    // Apart from the gated rounds, whose weights it would evict from L2.
    for _ in 0..ROUNDS / 4 {
        let per_768 = (PAST_L2 / D) as f64;
        past_l2.push([0, NS.len() - 1].map(|ni| {
            std::array::from_fn::<f64, 3, _>(|ri| {
                time(&cases[ri].1, &cases[ri].2[ni], CALLS / 2) / per_768
            })
        }));
    }

    let min = |cell: &dyn Fn(&[[f64; 3]; 6]) -> f64| {
        rounds.iter().map(cell).fold(f64::INFINITY, f64::min)
    };
    let median = |ratio: &dyn Fn(&[[f64; 3]; 6]) -> f64| {
        let mut ratios: Vec<f64> = rounds.iter().map(ratio).collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };
    println!("ms per call, {D} × {D} w7 × a8, min of {ROUNDS} rounds × {CALLS} calls");
    println!("| N  | ρ 0   | ρ 0.5 | ρ 0.95 |");
    for (ni, n) in NS.iter().enumerate() {
        let [a, b, c] = [0, 1, 2].map(|ri| min(&|cells| cells[ni][ri]));
        println!("| {n:<2} | {a:.3} | {b:.3} | {c:.3}  |");
    }
    for (i, n) in [1, 16].iter().enumerate() {
        let [a, b, c] = [0, 1, 2].map(|ri| {
            past_l2
                .iter()
                .map(|cells| cells[i][ri])
                .fold(f64::INFINITY, f64::min)
        });
        println!("| {n:<2} | {a:.3} | {b:.3} | {c:.3}  | {PAST_L2} × {D}, per {D}²");
    }
    let at = |n: usize| NS.iter().position(|&m| m == n).expect("a timed width");
    let ratio = |(n, ri): (usize, usize), (m, rj): (usize, usize)| {
        median(&|cells| cells[at(n)][ri] / cells[at(m)][rj])
    };
    let shares: Vec<f64> = (0..RHOS.len()).map(|ri| ratio((1, ri), (4, ri))).collect();
    println!("t(N=1) / t(N=4) per ρ, median over rounds: {shares:.2?}");
    for (ri, rho) in RHOS.iter().enumerate() {
        let (one_four, four_sixteen) = (ratio((1, ri), (4, ri)), ratio((4, ri), (16, ri)));
        assert!(
            one_four < 1.0 && four_sixteen < 1.0,
            "ρ {rho}: t(N=1) / t(N=4) {one_four:.2}, t(N=4) / t(N=16) {four_sixteen:.2}: \
             time does not grow with N"
        );
    }
    for (rho, share) in RHOS.iter().zip(&shares) {
        assert!(
            *share < NARROW_SHARE,
            "ρ {rho}: t(N=1) is {share:.2} of t(N=4), not under {NARROW_SHARE}"
        );
    }
    let (half, sparse) = (ratio((16, 1), (16, 0)), ratio((16, 2), (16, 1)));
    let sparse_share = ratio((16, 2), (16, 0));
    println!("t(N=16, ρ 0.95) / t(N=16, ρ 0), median over rounds: {sparse_share:.2}");
    assert!(
        half < 1.0 && sparse < 1.0,
        "N = 16: t(ρ 0.5) / t(ρ 0) {half:.2}, t(ρ 0.95) / t(ρ 0.5) {sparse:.2}: \
         time does not fall as ρ rises"
    );
    #[cfg(all(target_feature = "avx512vnni", target_feature = "avx512vbmi"))]
    assert!(
        sparse_share < SPARSE_SHARE,
        "N = 16: t(ρ 0.95) is {sparse_share:.2} of t(ρ 0), not under {SPARSE_SHARE}: \
         is LO×LO off the dot product?"
    );
}
