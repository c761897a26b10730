//! The seed's Sibia loop nest, kept verbatim as the oracle the Sibia plan
//! of the one tile (`panacea_core::sibia`) is tested against: per-vector
//! `bool` tables, a flag test per outer product, and a *counted*
//! workload.

use panacea_bitslice::{SlicedWeight, VECTOR_LEN};
use panacea_core::sibia::SkipSide;
use panacea_core::Workload;
use panacea_tensor::Matrix;

#[inline]
fn col_vec(plane: &Matrix<i8>, mg: usize, k: usize) -> [i8; VECTOR_LEN] {
    let b = mg * VECTOR_LEN;
    [
        plane[(b, k)],
        plane[(b + 1, k)],
        plane[(b + 2, k)],
        plane[(b + 3, k)],
    ]
}

#[inline]
fn row_vec(plane: &Matrix<i8>, k: usize, ng: usize) -> [i8; VECTOR_LEN] {
    let b = ng * VECTOR_LEN;
    [
        plane[(k, b)],
        plane[(k, b + 1)],
        plane[(k, b + 2)],
        plane[(k, b + 3)],
    ]
}

/// The seed's `sibia_gemm`: a flag test and a counter per outer product.
pub fn sibia_gemm(w: &SlicedWeight, x: &SlicedWeight, side: SkipSide) -> (Matrix<i32>, Workload) {
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
    let w_ho = w.num_planes() - 1;
    let x_ho = x.num_planes() - 1;
    let m_groups = m / VECTOR_LEN;
    let n_groups = n / VECTOR_LEN;

    let w_comp: Vec<Vec<bool>> = (0..m_groups)
        .map(|mg| {
            (0..k_dim)
                .map(|k| col_vec(w.plane(w_ho), mg, k).iter().all(|&s| s == 0))
                .collect()
        })
        .collect();
    let x_comp: Vec<Vec<bool>> = (0..k_dim)
        .map(|k| {
            (0..n_groups)
                .map(|ng| row_vec(x.plane(x_ho), k, ng).iter().all(|&s| s == 0))
                .collect()
        })
        .collect();

    let mut out = Matrix::<i32>::zeros(m, n);
    let mut executed = 0u64;
    for i in 0..w.num_planes() {
        for j in 0..x.num_planes() {
            let scale = w.plane_weight(i) * x.plane_weight(j);
            for mg in 0..m_groups {
                for kk in 0..k_dim {
                    let wv = col_vec(w.plane(i), mg, kk);
                    for ng in 0..n_groups {
                        let skip = match side {
                            SkipSide::Weight => i == w_ho && w_comp[mg][kk],
                            SkipSide::Activation => j == x_ho && x_comp[kk][ng],
                        };
                        if skip {
                            continue;
                        }
                        executed += 1;
                        let xv = row_vec(x.plane(j), kk, ng);
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
    let bits_w = u64::from(w.bits());
    let bits_x = u64::from(x.bits());
    let ema = ((m * k_dim) as u64 * bits_w + (k_dim * n) as u64 * bits_x).div_ceil(4);
    (
        out,
        Workload {
            mul: executed * 16,
            add: executed * 16,
            ema_slices: ema,
            comp_mul: 0,
            comp_add: 0,
        },
    )
}
