//! The seed's AQS-GEMM loop nest, kept verbatim as the oracle the kernel
//! in `panacea_core::aqs` is tested against: it tests a mask per outer
//! product, counts every one it executes or skips, and computes the
//! Eq. 6 compensation literally — compensators accumulate the loaded
//! weight slices over the *uncompressed* activation positions, one outer
//! product with the all-`r` vector recreates `r·(ΣW)·Jᵁ`, and
//! `b' = r·(ΣW)·1` completes `r·(ΣW)·Jᶜ = b' − r·(ΣW)·Jᵁ`. The seed's
//! Sibia nest is [`sibia`].

pub mod sibia;

use panacea_bitslice::{SlicedActivation, SlicedWeight, VECTOR_LEN};
use panacea_core::aqs::TileStats;
use panacea_core::Workload;
use panacea_tensor::Matrix;

/// The [`Workload`] the seed's `aqs_gemm` derived from the counted
/// statistics.
pub fn workload(stats: &TileStats) -> Workload {
    let executed = stats.dwo_outer_products + stats.swo_outer_products;
    Workload {
        mul: executed * 16,
        add: executed * 16,
        ema_slices: stats.w_slices_loaded + stats.x_slices_loaded,
        comp_mul: stats.comp_muls,
        comp_add: stats.comp_adds,
    }
}

/// Extracts the 4×1 weight slice-vector at (`mg`, `k`) of a plane.
#[inline]
fn w_vec(plane: &Matrix<i8>, mg: usize, k: usize) -> [i8; VECTOR_LEN] {
    let base = mg * VECTOR_LEN;
    [
        plane[(base, k)],
        plane[(base + 1, k)],
        plane[(base + 2, k)],
        plane[(base + 3, k)],
    ]
}

/// Extracts the 1×4 activation slice-vector at (`k`, `ng`) of a plane.
#[inline]
fn x_vec(plane: &Matrix<u8>, k: usize, ng: usize) -> [u8; VECTOR_LEN] {
    let base = ng * VECTOR_LEN;
    [
        plane[(k, base)],
        plane[(k, base + 1)],
        plane[(k, base + 2)],
        plane[(k, base + 3)],
    ]
}

// The kernel walks (plane, group, k) coordinates across several parallel
// lookup tables; index loops keep it aligned with the paper's notation.
#[allow(clippy::needless_range_loop)]
pub fn aqs_gemm_with_stats(
    w: &SlicedWeight,
    x: &SlicedActivation,
    r: u8,
) -> (Matrix<i32>, TileStats) {
    let m = w.plane(0).rows();
    let k_dim = w.plane(0).cols();
    let n = x.plane(0).cols();
    assert_eq!(k_dim, x.plane(0).rows(), "inner dimensions differ");
    assert_eq!(
        m % VECTOR_LEN,
        0,
        "M = {m} must be a multiple of {VECTOR_LEN}"
    );
    assert_eq!(
        n % VECTOR_LEN,
        0,
        "N = {n} must be a multiple of {VECTOR_LEN}"
    );
    let n_w_planes = w.num_planes();
    let n_x_planes = x.num_planes();
    let w_ho = n_w_planes - 1;
    let x_ho = n_x_planes - 1;
    let m_groups = m / VECTOR_LEN;
    let n_groups = n / VECTOR_LEN;

    // Pre-compute compressibility of HO vectors.
    let mut w_comp = vec![vec![false; k_dim]; m_groups];
    let mut w_comp_count = 0u64;
    for (mg, row) in w_comp.iter_mut().enumerate() {
        for (k, flag) in row.iter_mut().enumerate() {
            let v = w_vec(w.plane(w_ho), mg, k);
            *flag = v.iter().all(|&s| s == 0);
            w_comp_count += u64::from(*flag);
        }
    }
    let mut x_comp = vec![vec![false; n_groups]; k_dim];
    let mut x_comp_count = 0u64;
    for (k, row) in x_comp.iter_mut().enumerate() {
        for (ng, flag) in row.iter_mut().enumerate() {
            let v = x_vec(x.plane(x_ho), k, ng);
            *flag = v.iter().all(|&s| s == r);
            x_comp_count += u64::from(*flag);
        }
    }

    let mut out = Matrix::<i32>::zeros(m, n);
    let mut stats = TileStats {
        rho_w: w_comp_count as f64 / (m_groups * k_dim).max(1) as f64,
        rho_x: x_comp_count as f64 / (k_dim * n_groups).max(1) as f64,
        ..TileStats::default()
    };

    // EMA accounting: LO planes always move; HO planes move only their
    // uncompressed vectors (weights once per tile, activations once per
    // tile — the dataflow reuse factors are modeled in the simulator).
    stats.w_slices_loaded = (m_groups * k_dim) as u64 * 4 * (n_w_planes as u64 - 1)
        + ((m_groups * k_dim) as u64 - w_comp_count) * 4;
    stats.x_slices_loaded = (k_dim * n_groups) as u64 * 4 * (n_x_planes as u64 - 1)
        + ((k_dim * n_groups) as u64 - x_comp_count) * 4;

    // Bit-slice GEMMs over all plane pairs.
    for i in 0..n_w_planes {
        let wp = w.plane(i);
        let w_scale = w.plane_weight(i);
        for j in 0..n_x_planes {
            let xp = x.plane(j);
            let scale = w_scale * x.plane_weight(j);
            let is_ho_pair = i == w_ho || j == x_ho;
            for mg in 0..m_groups {
                for kk in 0..k_dim {
                    let skip_w = i == w_ho && w_comp[mg][kk];
                    let wv = w_vec(wp, mg, kk);
                    for ng in 0..n_groups {
                        let skip_x = j == x_ho && x_comp[kk][ng];
                        if skip_w || skip_x {
                            stats.skipped_outer_products += 1;
                            continue;
                        }
                        if is_ho_pair {
                            stats.dwo_outer_products += 1;
                        } else {
                            stats.swo_outer_products += 1;
                        }
                        let xv = x_vec(xp, kk, ng);
                        for mm in 0..VECTOR_LEN {
                            let wval = i32::from(wv[mm]) * scale;
                            if wval == 0 {
                                continue;
                            }
                            for nn in 0..VECTOR_LEN {
                                out[(mg * VECTOR_LEN + mm, ng * VECTOR_LEN + nn)] +=
                                    wval * i32::from(xv[nn]);
                            }
                        }
                    }
                }
            }
        }
    }

    // Compensation (Eq. 6). r_eff is the value a compressed HO slice
    // contributes per activation position.
    let r_eff = i32::from(r) * x.plane_weight(x_ho);
    if r_eff != 0 {
        // Offline-precomputed b'[m] = r_eff · Σ_k W_int[m][k]; not counted
        // in the runtime workload (added to the layer bias in advance).
        let w_int = w.reconstruct();
        let b_prime: Vec<i64> = (0..m)
            .map(|mm| {
                w_int
                    .row(mm)
                    .iter()
                    .map(|&v| i64::from(v) * i64::from(r_eff))
                    .sum::<i64>()
            })
            .collect();
        for ng in 0..n_groups {
            for mg in 0..m_groups {
                // CS: accumulate loaded weight slices over *uncompressed*
                // activation positions (Eq. 6 reuses them; no extra EMA).
                let mut acc = [0i64; VECTOR_LEN];
                for kk in 0..k_dim {
                    if x_comp[kk][ng] {
                        continue;
                    }
                    for i in 0..n_w_planes {
                        if i == w_ho && w_comp[mg][kk] {
                            continue; // compressed weight vectors were never loaded
                        }
                        let wv = w_vec(w.plane(i), mg, kk);
                        let pw = i64::from(w.plane_weight(i));
                        for (slot, &s) in acc.iter_mut().zip(wv.iter()) {
                            *slot += i64::from(s) * pw;
                            stats.comp_adds += 1;
                        }
                    }
                }
                // One outer product with the all-r vector per 4×4 tile:
                // comp = b' − r_eff·acc, identical for the 4 columns.
                stats.comp_muls += 16;
                for mm in 0..VECTOR_LEN {
                    let row = mg * VECTOR_LEN + mm;
                    let comp = b_prime[row] - i64::from(r_eff) * acc[mm];
                    for nn in 0..VECTOR_LEN {
                        out[(row, ng * VECTOR_LEN + nn)] =
                            (i64::from(out[(row, ng * VECTOR_LEN + nn)]) + comp) as i32;
                    }
                }
            }
        }
    }

    (out, stats)
}
