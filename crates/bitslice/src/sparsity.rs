//! Slice-level sparsity: the share of individual 4-bit activation slices
//! that equal the frequent value `r` (Figs. 5 and 10). The vector-level
//! `ρ_x` of Table I — the fraction of whole 1×4 vectors that do, which
//! AQS-GEMM skips — is the kernel's closed-form `TileStats::rho_x` in
//! `panacea-core`.

use panacea_tensor::Matrix;

/// Fraction of `r`-valued slices in an activation plane.
pub fn act_slice_sparsity(plane: &Matrix<u8>, r: u8) -> f64 {
    if plane.is_empty() {
        return 0.0;
    }
    plane.iter().filter(|&&s| s == r).count() as f64 / plane.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn act_sparsity_counts_r_not_zero() {
        let p = Matrix::from_fn(2, 8, |_, _| 10u8);
        assert_eq!(act_slice_sparsity(&p, 10), 1.0);
        assert_eq!(act_slice_sparsity(&p, 0), 0.0);
    }

    #[test]
    fn empty_planes_report_zero() {
        assert_eq!(act_slice_sparsity(&Matrix::<u8>::zeros(0, 0), 5), 0.0);
    }
}
