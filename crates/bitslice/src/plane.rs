//! Whole-tensor slice planes.
//!
//! A sliced tensor is stored as a stack of 4-bit *planes*, one per slice
//! position, least-significant first. Weights use SBR planes
//! ([`SlicedWeight`], positional weight `8^i`); activations use
//! straightforward planes ([`SlicedActivation`], positional weight `16^i`,
//! or the DBS-adjusted weights `2^{l−4}` / `2^l` for 8-bit values).

use std::fmt;

use panacea_quant::dbs::{dbs_truncate, DbsType};
use panacea_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::slicing::{sbr_peel_lo, MAX_SBR_LO_SLICES};

/// Errors from slice-plane constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceError {
    /// A value does not fit the declared bit-width.
    ValueOutOfRange {
        /// The offending value.
        value: i32,
        /// The declared total bit-width.
        bits: u8,
    },
    /// DBS types other than type-1 are only defined for 8-bit activations.
    DbsUnsupported {
        /// The number of LO slices requested.
        k: usize,
    },
    /// The requested slice count is outside the supported range.
    UnsupportedSliceCount(usize),
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceError::ValueOutOfRange { value, bits } => {
                write!(f, "value {value} does not fit in {bits} bits")
            }
            SliceError::DbsUnsupported { k } => {
                write!(
                    f,
                    "DBS types 2/3 require 8-bit activations (k = 1), got k = {k}"
                )
            }
            SliceError::UnsupportedSliceCount(n) => write!(f, "unsupported slice count {n}"),
        }
    }
}

impl std::error::Error for SliceError {}

/// SBR slice planes of a symmetrically-quantized weight matrix.
///
/// # Examples
///
/// ```
/// use panacea_bitslice::SlicedWeight;
/// use panacea_tensor::Matrix;
///
/// let w = Matrix::from_vec(2, 2, vec![-3, 40, 0, -64]).unwrap();
/// let sw = SlicedWeight::from_int(&w, 1)?;
/// assert_eq!(sw.num_planes(), 2);
/// assert_eq!(sw.reconstruct(), w);
/// // Near-zero entries have zero HO slices.
/// assert_eq!(sw.ho()[(0, 0)], 0);
/// # Ok::<(), panacea_bitslice::SliceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlicedWeight {
    planes: Vec<Matrix<i8>>,
    n: usize,
}

impl SlicedWeight {
    /// Slices a `(3n+4)`-bit signed weight matrix with SBR.
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::ValueOutOfRange`] if any entry exceeds the
    /// `(3n+4)`-bit signed range, or
    /// [`SliceError::UnsupportedSliceCount`] if `n > 4`.
    pub fn from_int(w: &Matrix<i32>, n: usize) -> Result<Self, SliceError> {
        Self::from_rows(w.rows(), w.cols(), n, |r, row| {
            row.copy_from_slice(w.row(r))
        })
    }

    /// [`from_int`](Self::from_int) for a matrix that is produced a row
    /// at a time — `fill(r, row)` writes row `r` — so that the integers
    /// (four bytes each, against one per slice) never exist as a whole.
    ///
    /// # Errors
    ///
    /// As [`from_int`](Self::from_int).
    pub fn from_rows(
        rows: usize,
        cols: usize,
        n: usize,
        mut fill: impl FnMut(usize, &mut [i32]),
    ) -> Result<Self, SliceError> {
        if n > MAX_SBR_LO_SLICES {
            return Err(SliceError::UnsupportedSliceCount(n));
        }
        let bits = 3 * n as u8 + 4;
        let lo = -(1i32 << (bits - 1));
        let hi = (1i32 << (bits - 1)) - 1;
        // The SBR recurrence of `sbr_slices`, run plane by plane over one
        // row at a time: `rest` holds what is left above the planes
        // written so far and ends up as the HO plane.
        let mut planes = vec![Matrix::<i8>::zeros(rows, cols); n + 1];
        let mut rest = vec![0i32; cols];
        for r in 0..rows {
            fill(r, &mut rest);
            if let Some(&v) = rest.iter().find(|&&v| !(lo..=hi).contains(&v)) {
                return Err(SliceError::ValueOutOfRange { value: v, bits });
            }
            for plane in &mut planes[..n] {
                for (slot, v) in plane.row_mut(r).iter_mut().zip(&mut rest) {
                    *slot = sbr_peel_lo(v);
                }
            }
            for (slot, &v) in planes[n].row_mut(r).iter_mut().zip(&rest) {
                *slot = v as i8;
            }
        }
        Ok(SlicedWeight { planes, n })
    }

    /// Number of planes (`n + 1`).
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// Total bit-width represented (`3n + 4`).
    pub fn bits(&self) -> u8 {
        3 * self.n as u8 + 4
    }

    /// Plane `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_planes()`.
    pub fn plane(&self, i: usize) -> &Matrix<i8> {
        &self.planes[i]
    }

    /// The high-order plane.
    pub fn ho(&self) -> &Matrix<i8> {
        self.planes
            .last()
            .expect("SlicedWeight always has at least one plane")
    }

    /// Positional weight of plane `i` (`8^i`).
    pub fn plane_weight(&self, i: usize) -> i32 {
        8i32.pow(i as u32)
    }

    /// Exact inverse: `Σ planes[i]·8^i`.
    pub fn reconstruct(&self) -> Matrix<i32> {
        let (rows, cols) = self.planes[0].shape();
        Matrix::from_fn(rows, cols, |r, c| {
            self.planes
                .iter()
                .enumerate()
                .map(|(i, p)| i32::from(p[(r, c)]) * self.plane_weight(i))
                .sum()
        })
    }
}

/// Straightforward (DBS-aware) slice planes of an asymmetrically-quantized
/// unsigned activation matrix.
///
/// # Examples
///
/// ```
/// use panacea_bitslice::SlicedActivation;
/// use panacea_quant::dbs::DbsType;
/// use panacea_tensor::Matrix;
///
/// let x = Matrix::from_vec(1, 4, vec![0, 170, 255, 16]).unwrap();
/// let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1)?;
/// assert_eq!(sx.reconstruct(), x);
/// assert_eq!(sx.ho()[(0, 1)], 10); // 170 = 0xAA
/// # Ok::<(), panacea_bitslice::SliceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlicedActivation {
    planes: Vec<Matrix<u8>>,
    k: usize,
    dbs_type: DbsType,
}

impl SlicedActivation {
    /// Slices a `(4k+4)`-bit unsigned activation matrix.
    ///
    /// For `k = 1` (8-bit) the DBS type controls the logical LO width;
    /// type-2/3 slicing is *lossy* by `2^{l−4}−1` LSBs per value, exactly
    /// as the hardware computes (Fig. 10). For `k ≥ 2` only type-1 is
    /// defined (the paper's mixed-precision layers use plain slicing).
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::ValueOutOfRange`] for entries outside
    /// `[0, 2^{4k+4})`, [`SliceError::DbsUnsupported`] for non-type-1 DBS
    /// with `k ≠ 1`, or [`SliceError::UnsupportedSliceCount`] for `k > 7`.
    pub fn from_uint(x: &Matrix<i32>, k: usize, dbs_type: DbsType) -> Result<Self, SliceError> {
        if k > 7 {
            return Err(SliceError::UnsupportedSliceCount(k));
        }
        if dbs_type != DbsType::Type1 && k != 1 {
            return Err(SliceError::DbsUnsupported { k });
        }
        let bits = 4 * (k as u8 + 1);
        let hi = (1i64 << bits) - 1;
        let out_of_range = |&v: &i32| v < 0 || i64::from(v) > hi;
        // A fold with no early exit, so the scan vectorises; the value is
        // looked up only on the error path.
        if x.iter().fold(false, |bad, v| bad | out_of_range(v)) {
            let &v = x
                .iter()
                .find(|v| out_of_range(v))
                .expect("a value out of range");
            return Err(SliceError::ValueOutOfRange { value: v, bits });
        }
        // `dbs_slices` for 8-bit values, `straightforward_slices`
        // otherwise, written a plane at a time.
        let mut planes = vec![Matrix::<u8>::zeros(x.rows(), x.cols()); k + 1];
        if k == 1 {
            let l = u32::from(dbs_type.lo_bits());
            for (slot, &v) in planes[0].iter_mut().zip(x.iter()) {
                *slot = ((v & ((1 << l) - 1)) >> (l - 4)) as u8;
            }
            for (slot, &v) in planes[1].iter_mut().zip(x.iter()) {
                *slot = (v >> l) as u8;
            }
        } else {
            for (i, plane) in planes.iter_mut().enumerate() {
                for (slot, &v) in plane.iter_mut().zip(x.iter()) {
                    *slot = ((v >> (4 * i)) & 0xF) as u8;
                }
            }
        }
        Ok(SlicedActivation {
            planes,
            k,
            dbs_type,
        })
    }

    /// Number of planes (`k + 1`).
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// The DBS type this activation was sliced under.
    pub fn dbs_type(&self) -> DbsType {
        self.dbs_type
    }

    /// Plane `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_planes()`.
    pub fn plane(&self, i: usize) -> &Matrix<u8> {
        &self.planes[i]
    }

    /// The high-order plane.
    pub fn ho(&self) -> &Matrix<u8> {
        self.planes
            .last()
            .expect("SlicedActivation always has at least one plane")
    }

    /// Positional weight of plane `i`: `16^i` in general; for 8-bit values
    /// under DBS the LO plane weighs `2^{l−4}` and the HO plane `2^l`.
    pub fn plane_weight(&self, i: usize) -> i32 {
        activation_plane_weight(self.k, self.dbs_type, i)
    }

    /// Reconstructs the represented values: bit-exact for type-1, the
    /// DBS-truncated value for types 2/3.
    pub fn reconstruct(&self) -> Matrix<i32> {
        let (rows, cols) = self.planes[0].shape();
        Matrix::from_fn(rows, cols, |r, c| {
            self.planes
                .iter()
                .enumerate()
                .map(|(i, p)| i32::from(p[(r, c)]) * self.plane_weight(i))
                .sum()
        })
    }
}

/// Positional weight of plane `i` of a `(4k+4)`-bit activation sliced
/// under `dbs_type` — [`SlicedActivation::plane_weight`] for a format
/// rather than an instance, for what is precomputed per layer.
pub fn activation_plane_weight(k: usize, dbs_type: DbsType, i: usize) -> i32 {
    if k == 1 {
        let l = u32::from(dbs_type.lo_bits());
        match i {
            0 => 1 << (l - 4),
            _ => 1 << l,
        }
    } else {
        16i32.pow(i as u32)
    }
}

/// The value a DBS-sliced activation plane stack actually represents —
/// the reference for the lossy type-2/3 paths.
pub fn dbs_effective_value(v: i32, ty: DbsType) -> i32 {
    dbs_truncate(v, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicing::{sbr_slices, straightforward_slices};
    use panacea_quant::dbs::dbs_slices;
    use proptest::prelude::*;

    #[test]
    fn weight_round_trip_n1() {
        let w = Matrix::from_fn(8, 8, |r, c| (r as i32 * 8 + c as i32) - 32);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        assert_eq!(sw.reconstruct(), w);
        assert_eq!(sw.bits(), 7);
    }

    #[test]
    fn weight_rejects_out_of_range() {
        let w = Matrix::from_vec(1, 1, vec![64]).unwrap();
        assert_eq!(
            SlicedWeight::from_int(&w, 1).unwrap_err(),
            SliceError::ValueOutOfRange { value: 64, bits: 7 }
        );
    }

    #[test]
    fn weight_rejects_too_many_slices() {
        let w = Matrix::<i32>::zeros(1, 1);
        assert!(matches!(
            SlicedWeight::from_int(&w, 9),
            Err(SliceError::UnsupportedSliceCount(9))
        ));
    }

    #[test]
    fn activation_round_trip_type1() {
        let x = Matrix::from_fn(4, 4, |r, c| (r * 64 + c * 16) as i32);
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        assert_eq!(sx.reconstruct(), x);
    }

    #[test]
    fn activation_k2_is_12_bit() {
        let x = Matrix::from_vec(1, 2, vec![4095, 0]).unwrap();
        let sx = SlicedActivation::from_uint(&x, 2, DbsType::Type1).unwrap();
        assert_eq!(sx.num_planes(), 3);
        assert_eq!(sx.reconstruct(), x);
        assert!(SlicedActivation::from_uint(
            &Matrix::from_vec(1, 1, vec![4096]).unwrap(),
            2,
            DbsType::Type1
        )
        .is_err());
    }

    #[test]
    fn activation_dbs_types_truncate() {
        let x = Matrix::from_vec(1, 3, vec![0b0101_0101, 255, 3]).unwrap();
        for ty in [DbsType::Type2, DbsType::Type3] {
            let sx = SlicedActivation::from_uint(&x, 1, ty).unwrap();
            let rec = sx.reconstruct();
            for i in 0..3 {
                assert_eq!(rec[(0, i)], dbs_effective_value(x[(0, i)], ty), "ty={ty}");
            }
        }
    }

    #[test]
    fn dbs_requires_8bit() {
        let x = Matrix::<i32>::zeros(1, 1);
        assert!(matches!(
            SlicedActivation::from_uint(&x, 2, DbsType::Type2),
            Err(SliceError::DbsUnsupported { k: 2 })
        ));
    }

    #[test]
    fn negative_activation_rejected() {
        let x = Matrix::from_vec(1, 1, vec![-1]).unwrap();
        assert!(matches!(
            SlicedActivation::from_uint(&x, 1, DbsType::Type1),
            Err(SliceError::ValueOutOfRange { value: -1, bits: 8 })
        ));
    }

    proptest! {
        /// The planes are, element for element, the scalar definitions.
        #[test]
        fn weight_planes_equal_sbr_slices(
            n in 0usize..=MAX_SBR_LO_SLICES,
            raw in proptest::collection::vec(-(1i32 << 15)..(1i32 << 15), 12),
        ) {
            let bits = 3 * n as u32 + 4;
            let vals: Vec<i32> = raw.iter().map(|v| v >> (16 - bits)).collect();
            let w = Matrix::from_vec(3, 4, vals).unwrap();
            let sw = SlicedWeight::from_int(&w, n).unwrap();
            for r in 0..3 {
                for c in 0..4 {
                    let got: Vec<i8> = (0..=n).map(|i| sw.plane(i)[(r, c)]).collect();
                    prop_assert_eq!(got, sbr_slices(w[(r, c)], n));
                }
            }
        }

        #[test]
        fn activation_planes_equal_scalar_slices(
            k in 0usize..=7,
            ty in 0usize..3,
            raw in proptest::collection::vec(0i32..=i32::MAX, 12),
        ) {
            let bits = 4 * (k as u32 + 1);
            let vals: Vec<i32> = raw.iter().map(|v| v >> (31 - bits.min(31))).collect();
            let ty = if k == 1 {
                [DbsType::Type1, DbsType::Type2, DbsType::Type3][ty]
            } else {
                DbsType::Type1
            };
            let x = Matrix::from_vec(3, 4, vals).unwrap();
            let sx = SlicedActivation::from_uint(&x, k, ty).unwrap();
            for r in 0..3 {
                for c in 0..4 {
                    let v = x[(r, c)];
                    let got: Vec<u8> = (0..=k).map(|i| sx.plane(i)[(r, c)]).collect();
                    let want = if k == 1 {
                        let (ho, lo) = dbs_slices(v, ty);
                        vec![lo, ho]
                    } else {
                        straightforward_slices(v as u32, k)
                    };
                    prop_assert_eq!(got, want);
                }
            }
        }

        #[test]
        fn weight_planes_round_trip(vals in proptest::collection::vec(-64i32..=63, 16)) {
            let w = Matrix::from_vec(4, 4, vals).unwrap();
            let sw = SlicedWeight::from_int(&w, 1).unwrap();
            prop_assert_eq!(sw.reconstruct(), w);
        }

        #[test]
        fn activation_planes_round_trip(vals in proptest::collection::vec(0i32..=255, 16)) {
            let x = Matrix::from_vec(4, 4, vals).unwrap();
            let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
            prop_assert_eq!(sx.reconstruct(), x);
        }

        #[test]
        fn dbs_truncation_error_bounded(vals in proptest::collection::vec(0i32..=255, 8)) {
            let x = Matrix::from_vec(2, 4, vals).unwrap();
            for ty in [DbsType::Type2, DbsType::Type3] {
                let sx = SlicedActivation::from_uint(&x, 1, ty).unwrap();
                let rec = sx.reconstruct();
                let bound = (1 << ty.discarded_lsbs()) - 1;
                for (orig, got) in x.iter().zip(rec.iter()) {
                    prop_assert!(orig - got <= bound && orig >= got);
                }
            }
        }
    }
}
