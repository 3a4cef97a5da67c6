//! Compressed sparse row matrices.
//!
//! Just enough linear algebra for the Markov solvers: construction from
//! (row, col, value) triplets with duplicate summing, row iteration,
//! `y = xᵀA` and `y = Ax` products, and transposition.

use std::fmt;

/// Error constructing a sparse matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A triplet referenced a row or column outside the matrix shape.
    IndexOutOfBounds {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
    },
    /// A value was NaN or infinite.
    NonFiniteValue,
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col } => {
                write!(f, "triplet ({row}, {col}) out of bounds")
            }
            SparseError::NonFiniteValue => write!(f, "matrix entries must be finite"),
        }
    }
}

impl std::error::Error for SparseError {}

/// A compressed sparse row (CSR) matrix of `f64`.
///
/// # Example
///
/// ```
/// use itua_markov::sparse::CsrMatrix;
///
/// let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
/// assert_eq!(m.get(0, 2), 2.0);
/// assert_eq!(m.get(1, 0), 0.0);
/// let y = m.mul_vec(&[1.0, 1.0, 1.0]);
/// assert_eq!(y, vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix from (row, col, value) triplets.
    ///
    /// Duplicate coordinates are summed; explicit zeros are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] for out-of-bounds indices or non-finite
    /// values.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, SparseError> {
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(SparseError::IndexOutOfBounds { row: r, col: c });
            }
            if !v.is_finite() {
                return Err(SparseError::NonFiniteValue);
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        // Merge duplicate coordinates.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(&mut (lr, lc, ref mut lv)) if lr == r && lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values: Vec<f64> = Vec::with_capacity(merged.len());
        let mut current_row = 0usize;
        for (r, c, v) in merged {
            if v == 0.0 {
                continue; // drop explicit/cancelled zeros
            }
            while current_row < r {
                current_row += 1;
                row_ptr[current_row] = col_idx.len();
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < rows {
            current_row += 1;
            row_ptr[current_row] = col_idx.len();
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
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

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)` (0.0 if not stored).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            if self.col_idx[k] == col {
                return self.values[k];
            }
        }
        0.0
    }

    /// Iterates over `(col, value)` pairs of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.rows);
        (self.row_ptr[row]..self.row_ptr[row + 1]).map(move |k| (self.col_idx[k], self.values[k]))
    }

    /// Dense `y = A·x` (column vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
        y
    }

    /// Dense `y = xᵀ·A` (row vector product), the natural operation for
    /// probability-vector propagation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                y[self.col_idx[k]] += xr * self.values[k];
            }
        }
        y
    }

    /// Column indices and values of one row, as parallel slices in
    /// ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_entries(&self, row: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[row]..self.row_ptr[row + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Returns the transpose, by counting sort in O(nnz): count the
    /// entries per column, prefix-sum the counts into row pointers, then
    /// place the entries walking the source rows in ascending order, so
    /// every output row comes out sorted by column. The source holds no
    /// duplicates and no zeros, so the result equals the triplet-built
    /// transpose exactly.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let slot = &mut next[self.col_idx[k]];
                col_idx[*slot] = r;
                values[*slot] = self.values[k];
                *slot += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sum of the entries in `row`.
    pub fn row_sum(&self, row: usize) -> f64 {
        self.row(row).map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_get() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, -1.0), (1, 1, 4.0)]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(2, 0), -1.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn cancelling_duplicates_are_pruned() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, -1.0)]).unwrap();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]),
            Err(SparseError::NonFiniteValue)
        ));
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]).unwrap();
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(3).count(), 1);
        assert_eq!(m.get(3, 3), 1.0);
    }

    #[test]
    fn mul_vec_and_vec_mul() {
        // [1 2]   [1]   [5]
        // [3 4] · [2] = [11]
        let m =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)])
                .unwrap();
        assert_eq!(m.mul_vec(&[1.0, 2.0]), vec![5.0, 11.0]);
        // [1 2]ᵀ-product: xᵀA with x = [1, 2] → [1+6, 2+8] = [7, 10]
        assert_eq!(m.vec_mul(&[1.0, 2.0]), vec![7.0, 10.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, 1.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn counting_sort_transpose_equals_triplet_transpose() {
        let mut state = 19_960_916_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        // Duplicates, empty rows and empty columns included.
        let (rows, cols) = (61, 47);
        let triplets: Vec<(usize, usize, f64)> = (0..400)
            .map(|_| {
                (
                    next() % rows,
                    next() % cols,
                    (next() % 97) as f64 / 8.0 + 0.5,
                )
            })
            .collect();
        let m = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
        let mut flipped = Vec::with_capacity(m.nnz());
        for r in 0..rows {
            for (c, v) in m.row(r) {
                flipped.push((c, r, v));
            }
        }
        let oracle = CsrMatrix::from_triplets(cols, rows, &flipped).unwrap();
        assert_eq!(m.transpose(), oracle);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_sum() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0)]).unwrap();
        assert_eq!(m.row_sum(0), 3.0);
        assert_eq!(m.row_sum(1), 0.0);
    }

    #[test]
    fn many_rows_interleaved_duplicates() {
        let mut triplets = vec![];
        for r in 0..10 {
            for c in 0..10 {
                triplets.push((r, c, 1.0));
                triplets.push((r, c, 1.0));
            }
        }
        let m = CsrMatrix::from_triplets(10, 10, &triplets).unwrap();
        assert_eq!(m.nnz(), 100);
        for r in 0..10 {
            assert_eq!(m.row_sum(r), 20.0);
        }
    }
}
