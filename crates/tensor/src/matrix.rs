//! A small, owned, row-major matrix type.
//!
//! The Panacea workloads only need 2-D dense storage with element access,
//! iteration, transposition, and a reference GEMM; a full linear-algebra
//! library would be overkill and would obscure the bit-exact integer paths
//! that the accelerator model cares about.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// Errors produced by matrix constructors and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The provided buffer length does not equal `rows * cols`.
    LengthMismatch {
        /// Expected number of elements (`rows * cols`).
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer length {actual} does not match shape ({expected} expected)"
                )
            }
            MatrixError::ShapeMismatch { left, right } => {
                write!(f, "incompatible shapes {left:?} and {right:?}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// Owned row-major matrix.
///
/// # Examples
///
/// ```
/// use panacea_tensor::Matrix;
///
/// let a = Matrix::from_rows(vec![vec![1i32, 2], vec![3, 4]]).unwrap();
/// assert_eq!(a.rows(), 2);
/// assert_eq!(a[(1, 0)], 3);
/// let t = a.transposed();
/// assert_eq!(t[(0, 1)], 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Default + Clone> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with `T::default()`.
    ///
    /// # Examples
    ///
    /// ```
    /// let z = panacea_tensor::Matrix::<i32>::zeros(2, 2);
    /// assert_eq!(z.as_slice(), &[0, 0, 0, 0]);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }
}

impl<T> Matrix<T> {
    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::LengthMismatch`] if `data.len() != rows * cols`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), panacea_tensor::matrix::MatrixError> {
    /// let m = panacea_tensor::Matrix::from_vec(2, 2, vec![1, 2, 3, 4])?;
    /// assert_eq!(m[(0, 1)], 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Examples
    ///
    /// ```
    /// let id = panacea_tensor::Matrix::from_fn(3, 3, |r, c| (r == c) as i32);
    /// assert_eq!(id[(2, 2)], 1);
    /// assert_eq!(id[(0, 2)], 0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from nested row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::LengthMismatch`] if the rows are ragged.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Result<Self, MatrixError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            if row.len() != n_cols {
                return Err(MatrixError::LengthMismatch {
                    expected: n_cols,
                    actual: row.len(),
                });
            }
            data.extend(row);
        }
        Ok(Matrix {
            rows: n_rows,
            cols: n_cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consumes the matrix and returns the flat row-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutable iterator over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Applies `f` to every element, producing a new matrix of the results.
    ///
    /// # Examples
    ///
    /// ```
    /// let m = panacea_tensor::Matrix::from_fn(2, 2, |r, c| (r + c) as i32);
    /// let doubled = m.map(|&v| v * 2);
    /// assert_eq!(doubled[(1, 1)], 4);
    /// ```
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T: std::hash::Hash> Matrix<T> {
    /// A stable 64-bit digest of the matrix contents (shape + elements).
    ///
    /// Equal matrices always hash equal, so the digest can key
    /// content-addressed structures — the serving layer's request cache
    /// uses it to pick a digest bucket and to pre-hash lookup keys without
    /// rehashing the element buffer at every probe. The digest is
    /// deterministic within a build but not a cross-version wire format.
    ///
    /// # Examples
    ///
    /// ```
    /// use panacea_tensor::Matrix;
    ///
    /// let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as i32);
    /// let b = a.clone();
    /// assert_eq!(a.content_hash(), b.content_hash());
    /// let mut c = a.clone();
    /// c[(0, 0)] += 1;
    /// assert_ne!(a.content_hash(), c.content_hash());
    /// ```
    pub fn content_hash(&self) -> u64 {
        use std::hash::{DefaultHasher, Hasher};
        let mut h = DefaultHasher::new();
        std::hash::Hash::hash(self, &mut h);
        h.finish()
    }
}

impl<T: Clone> Matrix<T> {
    /// Returns the transpose of the matrix.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].clone())
    }

    /// Extracts the sub-matrix `rows_range × cols_range`, clamped to bounds.
    ///
    /// Ranges extending past the matrix edge are truncated, which makes tile
    /// extraction at matrix borders ergonomic for the accelerator model.
    pub fn submatrix(
        &self,
        row_start: usize,
        col_start: usize,
        n_rows: usize,
        n_cols: usize,
    ) -> Matrix<T> {
        let r_end = (row_start + n_rows).min(self.rows);
        let c_end = (col_start + n_cols).min(self.cols);
        let r0 = row_start.min(r_end);
        let c0 = col_start.min(c_end);
        Matrix::from_fn(r_end - r0, c_end - c0, |r, c| {
            self[(r0 + r, c0 + c)].clone()
        })
    }

    /// Concatenates matrices side-by-side along the column axis.
    ///
    /// This is how the serving runtime coalesces the activation columns of
    /// independent requests into one wide GEMM `N` dimension.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if the operands disagree on
    /// row count. An empty input produces a `0 × 0` matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use panacea_tensor::Matrix;
    ///
    /// let a = Matrix::from_rows(vec![vec![1i32, 2], vec![3, 4]]).unwrap();
    /// let b = Matrix::from_rows(vec![vec![5i32], vec![6]]).unwrap();
    /// let c = Matrix::hstack(&[&a, &b]).unwrap();
    /// assert_eq!(c.shape(), (2, 3));
    /// assert_eq!(c.row(0), &[1, 2, 5]);
    /// ```
    pub fn hstack(parts: &[&Matrix<T>]) -> Result<Matrix<T>, MatrixError> {
        let Some(first) = parts.first() else {
            return Ok(Matrix {
                rows: 0,
                cols: 0,
                data: Vec::new(),
            });
        };
        let rows = first.rows;
        for p in parts {
            if p.rows != rows {
                return Err(MatrixError::ShapeMismatch {
                    left: first.shape(),
                    right: p.shape(),
                });
            }
        }
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(&p.data[r * p.cols..(r + 1) * p.cols]);
            }
        }
        let cols = parts.iter().map(|p| p.cols).sum();
        Ok(Matrix { rows, cols, data })
    }

    /// Splits the matrix into column blocks of the given widths — the
    /// inverse of [`hstack`](Self::hstack).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if the widths do not sum to
    /// the column count.
    ///
    /// # Examples
    ///
    /// ```
    /// use panacea_tensor::Matrix;
    ///
    /// let m = Matrix::from_rows(vec![vec![1i32, 2, 5], vec![3, 4, 6]]).unwrap();
    /// let parts = m.split_cols(&[2, 1]).unwrap();
    /// assert_eq!(parts[0].row(1), &[3, 4]);
    /// assert_eq!(parts[1].row(0), &[5]);
    /// ```
    pub fn split_cols(&self, widths: &[usize]) -> Result<Vec<Matrix<T>>, MatrixError> {
        let total: usize = widths.iter().sum();
        if total != self.cols {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape(),
                right: (self.rows, total),
            });
        }
        let mut out = Vec::with_capacity(widths.len());
        let mut c0 = 0usize;
        for &w in widths {
            out.push(Matrix::from_fn(self.rows, w, |r, c| {
                self[(r, c0 + c)].clone()
            }));
            c0 += w;
        }
        Ok(out)
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Matrix<i32> {
    /// Reference integer GEMM: `self (M×K) · rhs (K×N)` in exact `i64`
    /// accumulation, truncated back to `i32` (all Panacea workloads fit).
    ///
    /// This is the bit-exact oracle every sliced GEMM is checked against.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), panacea_tensor::matrix::MatrixError> {
    /// use panacea_tensor::Matrix;
    /// let a = Matrix::from_vec(2, 2, vec![1, 2, 3, 4])?;
    /// let b = Matrix::from_vec(2, 2, vec![5, 6, 7, 8])?;
    /// let c = a.gemm(&b)?;
    /// assert_eq!(c.as_slice(), &[19, 22, 43, 50]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn gemm(&self, rhs: &Matrix<i32>) -> Result<Matrix<i32>, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::<i32>::zeros(self.rows, rhs.cols);
        for m in 0..self.rows {
            let out_row = out.row_mut(m);
            for (k, &a) in self.row(m).iter().enumerate() {
                if a == 0 {
                    continue;
                }
                // Wrapping `i32` arithmetic is the `i64` sum truncated:
                // both are the ring ℤ/2³².
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o = o.wrapping_add(a.wrapping_mul(b));
                }
            }
        }
        Ok(out)
    }
}

impl Matrix<f32> {
    /// Reference floating-point GEMM used by the model forward engine.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn gemm_f32(&self, rhs: &Matrix<f32>) -> Result<Matrix<f32>, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::<f32>::zeros(self.rows, rhs.cols);
        for m in 0..self.rows {
            let out_row = out.row_mut(m);
            for (k, &a) in self.row(m).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::<i32>::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.iter().all(|&v| v == 0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Matrix::from_vec(2, 2, vec![1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            MatrixError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = Matrix::from_rows(vec![vec![1, 2], vec![3]]).unwrap_err();
        assert!(matches!(err, MatrixError::LengthMismatch { .. }));
    }

    #[test]
    fn indexing_is_row_major() {
        let m = Matrix::from_vec(2, 3, vec![0, 1, 2, 10, 11, 12]).unwrap();
        assert_eq!(m[(0, 2)], 2);
        assert_eq!(m[(1, 0)], 10);
        assert_eq!(m.row(1), &[10, 11, 12]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as i32);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn submatrix_clamps_to_bounds() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as i32);
        let s = m.submatrix(2, 3, 10, 10);
        assert_eq!(s.shape(), (2, 1));
        assert_eq!(s[(0, 0)], 11);
        assert_eq!(s[(1, 0)], 15);
    }

    #[test]
    fn gemm_matches_hand_computed() {
        let a = Matrix::from_vec(2, 3, vec![1, -2, 3, 0, 4, -1]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![2, 0, 1, -1, 3, 5]).unwrap();
        let c = a.gemm(&b).unwrap();
        assert_eq!(c.as_slice(), &[9, 17, 1, -9]);
    }

    #[test]
    fn gemm_shape_mismatch_is_error() {
        let a = Matrix::<i32>::zeros(2, 3);
        let b = Matrix::<i32>::zeros(2, 3);
        assert!(matches!(a.gemm(&b), Err(MatrixError::ShapeMismatch { .. })));
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r as i32 + 1) * (c as i32 - 2));
        let id = Matrix::from_fn(4, 4, |r, c| i32::from(r == c));
        assert_eq!(a.gemm(&id).unwrap(), a);
        assert_eq!(id.gemm(&a).unwrap(), a);
    }

    /// The indexed formulation both GEMMs had before they walked row
    /// slices: `k` ascending per element, zero left entries skipped, the
    /// `i32` sum formed in `i64` and truncated.
    fn gemm_indexed<T: Copy + Default + PartialEq>(
        a: &Matrix<T>,
        b: &Matrix<T>,
        fma: impl Fn(T, T, T) -> T,
    ) -> Matrix<T> {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for m in 0..a.rows() {
            for k in 0..a.cols() {
                if a[(m, k)] == T::default() {
                    continue;
                }
                for n in 0..b.cols() {
                    out[(m, n)] = fma(out[(m, n)], a[(m, k)], b[(k, n)]);
                }
            }
        }
        out
    }

    #[test]
    fn gemms_are_bit_identical_to_the_indexed_formulation() {
        use rand::Rng;
        let mut rng = crate::seeded_rng(2208);
        let shapes = [
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (5, 7, 1),
            (4, 9, 3),
            (8, 33, 17),
            (16, 64, 16),
        ];
        for (case, &(m, k, n)) in shapes.iter().cycle().take(4 * shapes.len()).enumerate() {
            // A third of the left entries are exact zeros (the skip), and
            // the integers are wide enough for sums to wrap `i32`.
            let a = Matrix::from_fn(m, k, |_, _| match rng.gen_range(0..3) {
                0 => 0,
                _ => rng.gen_range(i32::MIN / 2..i32::MAX / 2),
            });
            let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(i32::MIN / 2..i32::MAX / 2));
            let want = gemm_indexed(&a, &b, |o, a, b| {
                (i64::from(o) + i64::from(a) * i64::from(b)) as i32
            });
            assert_eq!(a.gemm(&b).unwrap(), want, "i32 case {case}: {m}x{k}x{n}");

            let af = a.map(|&v| v as f32 * 1e-7);
            let bf = Matrix::from_fn(k, n, |_, _| rng.gen_range(-3.0f32..3.0));
            let want = gemm_indexed(&af, &bf, |o, a, b| o + a * b);
            let got = af.gemm_f32(&bf).unwrap();
            assert_eq!(got.shape(), want.shape());
            let bits = |m: &Matrix<f32>| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "f32 case {case}: {m}x{k}x{n}");
        }
    }

    #[test]
    fn map_preserves_shape() {
        let m = Matrix::from_fn(2, 5, |r, c| (r + c) as i32);
        let f = m.map(|&v| v as f32 * 0.5);
        assert_eq!(f.shape(), (2, 5));
        assert_eq!(f[(1, 4)], 2.5);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::<i32>::zeros(2, 2);
        m.row_mut(1)[0] = 7;
        assert_eq!(m[(1, 0)], 7);
    }

    #[test]
    fn hstack_then_split_round_trips() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as i32);
        let b = Matrix::from_fn(3, 5, |r, c| -((r * 7 + c) as i32));
        let c = Matrix::from_fn(3, 1, |r, _| r as i32);
        let stacked = Matrix::hstack(&[&a, &b, &c]).unwrap();
        assert_eq!(stacked.shape(), (3, 8));
        let parts = stacked.split_cols(&[2, 5, 1]).unwrap();
        assert_eq!(parts, vec![a, b, c]);
    }

    #[test]
    fn hstack_of_nothing_is_empty() {
        let m = Matrix::<i32>::hstack(&[]).unwrap();
        assert_eq!(m.shape(), (0, 0));
    }

    #[test]
    fn hstack_rejects_row_mismatch() {
        let a = Matrix::<i32>::zeros(2, 2);
        let b = Matrix::<i32>::zeros(3, 2);
        assert!(matches!(
            Matrix::hstack(&[&a, &b]),
            Err(MatrixError::ShapeMismatch {
                left: (2, 2),
                right: (3, 2)
            })
        ));
    }

    #[test]
    fn split_cols_rejects_bad_widths() {
        let m = Matrix::<i32>::zeros(2, 4);
        assert!(m.split_cols(&[2, 1]).is_err());
        assert!(m.split_cols(&[5]).is_err());
    }

    #[test]
    fn content_hash_distinguishes_shape_and_data() {
        let a = Matrix::from_fn(2, 6, |r, c| (r * 6 + c) as i32);
        // Same flat buffer, different shape.
        let b = Matrix::from_vec(3, 4, a.as_slice().to_vec()).unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.clone().content_hash());
        let mut c = a.clone();
        c[(1, 5)] = -1;
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn split_cols_with_zero_width_blocks() {
        let m = Matrix::from_fn(2, 3, |r, c| (r + c) as i32);
        let parts = m.split_cols(&[0, 3, 0]).unwrap();
        assert_eq!(parts[0].shape(), (2, 0));
        assert_eq!(parts[1], m);
        assert_eq!(parts[2].shape(), (2, 0));
    }
}
