//! Hardware workload accounting and the closed-form expressions of the
//! paper's Table I.
//!
//! Counters measure three quantities for a GEMM kernel:
//!
//! * `mul` — 4b×4b multiplications (dense-GEMM baselines count an 8b×8b
//!   multiply as four 4b×4b ones, the paper's iso-resource convention);
//! * `add` — accumulator additions;
//! * `ema_slices` — 4-bit slices moved from memory into the compute core.
//!
//! Table I formalizes these for a `4 × K × 4` micro-tile with two slices
//! per operand, as a function of the HO *vector* sparsities `ρ_w`, `ρ_x`.

use panacea_bitslice::VECTOR_LEN;
use serde::{Deserialize, Serialize};

/// Operation and memory-access counts for one GEMM invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    /// Number of 4b×4b multiplications in the bit-slice GEMMs.
    pub mul: u64,
    /// Number of partial-sum additions in the bit-slice GEMMs.
    pub add: u64,
    /// Number of 4-bit slices loaded into the core (EMA proxy).
    pub ema_slices: u64,
    /// Extra multiplications spent on the compensation term.
    pub comp_mul: u64,
    /// Extra additions spent on the compensation term (the CS units).
    pub comp_add: u64,
}

impl Workload {
    /// Total multiplications including compensation.
    pub fn total_mul(&self) -> u64 {
        self.mul + self.comp_mul
    }

    /// Total additions including compensation.
    pub fn total_add(&self) -> u64 {
        self.add + self.comp_add
    }

    /// Element-wise sum of two workloads.
    pub fn merged(&self, other: &Workload) -> Workload {
        Workload {
            mul: self.mul + other.mul,
            add: self.add + other.add,
            ema_slices: self.ema_slices + other.ema_slices,
            comp_mul: self.comp_mul + other.comp_mul,
            comp_add: self.comp_add + other.comp_add,
        }
    }
}

/// Columns the paper's PE array would pad `cols` activation columns with
/// to fill its last 1×4 vector. A [`Workload`] counts them; the host
/// kernel does not multiply them.
pub fn pe_padded_cols(cols: usize) -> usize {
    cols.next_multiple_of(VECTOR_LEN) - cols
}

/// Closed-form Table-I expressions (expectation under independent
/// compression events) for the `4 × K × 4`, two-slices-per-operand
/// micro-tile.
pub mod table1 {
    /// Panacea bit-slice GEMM multiplications: `16·K·(2−ρx)(2−ρw)`.
    pub fn panacea_mul(k: u64, rho_x: f64, rho_w: f64) -> f64 {
        16.0 * k as f64 * (2.0 - rho_x) * (2.0 - rho_w)
    }

    /// Panacea compensation multiplications: a single 4×4 outer product
    /// per output tile.
    pub fn panacea_comp_mul() -> f64 {
        16.0
    }

    /// Panacea compensation additions under the Eq. 6 formulation:
    /// `8·K·(1−ρx)` (the CS accumulates both weight slices of the 4 rows
    /// for every *uncompressed* activation position).
    pub fn panacea_comp_add(k: u64, rho_x: f64) -> f64 {
        8.0 * k as f64 * (1.0 - rho_x)
    }

    /// Naive Eq. 5 compensation additions: `8·K·ρx` — and it would also
    /// incur `8·K·ρx` extra EMA, which Eq. 6 eliminates.
    pub fn naive_comp_add(k: u64, rho_x: f64) -> f64 {
        8.0 * k as f64 * rho_x
    }

    /// Panacea 4-bit EMA: `4·K·(4−ρw−ρx)` (only uncompressed HO vectors
    /// plus the dense LO planes are moved).
    pub fn panacea_ema(k: u64, rho_x: f64, rho_w: f64) -> f64 {
        4.0 * k as f64 * (4.0 - rho_w - rho_x)
    }

    /// Sibia multiplications: `32·K·(2−max(ρx, ρw))` — only one operand's
    /// HO sparsity can be exploited.
    pub fn sibia_mul(k: u64, rho_x: f64, rho_w: f64) -> f64 {
        32.0 * k as f64 * (2.0 - rho_x.max(rho_w))
    }

    /// Sibia 4-bit EMA: `14·K` — it moves the dense (uncompressed) slice
    /// format regardless of sparsity: 8K weight + 8K activation slices
    /// minus the RLE savings it applies to the single skippable operand,
    /// which the paper rounds to `14K`.
    pub fn sibia_ema(k: u64) -> f64 {
        14.0 * k as f64
    }

    /// Dense 8-bit GEMM in 4b×4b-equivalents: `64·K` multiplications for
    /// the 4×K×4 tile (16 8b×8b MACs per k, each worth four 4b×4b).
    pub fn dense_mul(k: u64) -> f64 {
        64.0 * k as f64
    }

    /// Dense 4-bit EMA: 8K weight + 8K activation slices.
    pub fn dense_ema(k: u64) -> f64 {
        16.0 * k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_adds_fields() {
        let a = Workload {
            mul: 1,
            add: 2,
            ema_slices: 3,
            comp_mul: 4,
            comp_add: 5,
        };
        let b = Workload {
            mul: 10,
            add: 20,
            ema_slices: 30,
            comp_mul: 40,
            comp_add: 50,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            Workload {
                mul: 11,
                add: 22,
                ema_slices: 33,
                comp_mul: 44,
                comp_add: 55
            }
        );
        assert_eq!(m.total_mul(), 55);
        assert_eq!(m.total_add(), 77);
    }

    #[test]
    fn table1_dense_limits() {
        // With no sparsity Panacea's work equals the dense bit-slice total.
        assert_eq!(table1::panacea_mul(100, 0.0, 0.0), 6400.0);
        assert_eq!(table1::dense_mul(100), 6400.0);
        assert_eq!(table1::sibia_mul(100, 0.0, 0.0), 6400.0);
    }

    #[test]
    fn table1_full_sparsity_limits() {
        // Full HO sparsity on both sides leaves only the LO×LO quarter.
        assert_eq!(table1::panacea_mul(10, 1.0, 1.0), 160.0);
        // Sibia can only halve the work.
        assert_eq!(table1::sibia_mul(10, 1.0, 1.0), 320.0);
    }

    #[test]
    fn panacea_beats_sibia_when_both_sparsities_high() {
        let k = 64;
        for &(rx, rw) in &[(0.9, 0.5), (0.95, 0.95), (0.5, 0.5)] {
            assert!(
                table1::panacea_mul(k, rx, rw) <= table1::sibia_mul(k, rx, rw) + 1e-9,
                "rx={rx} rw={rw}"
            );
        }
    }

    #[test]
    fn eq6_beats_eq5_compensation_at_high_sparsity() {
        // The Eq. 6 reformulation wins exactly when sparsity is high.
        assert!(table1::panacea_comp_add(100, 0.9) < table1::naive_comp_add(100, 0.9));
        assert!(table1::panacea_comp_add(100, 0.1) > table1::naive_comp_add(100, 0.1));
    }

    #[test]
    fn ema_decreases_with_sparsity() {
        assert!(table1::panacea_ema(10, 0.9, 0.9) < table1::panacea_ema(10, 0.0, 0.0));
        assert_eq!(table1::panacea_ema(10, 0.0, 0.0), table1::dense_ema(10));
    }
}
