//! Compressed-sparse-column storage for the revised simplex.
//!
//! The revised simplex only ever consumes the constraint matrix column-wise
//! (FTRAN of an entering column, pricing a nonbasic column against the dual
//! vector), so columns are the storage unit: one contiguous `(row, value)`
//! run per column, classic CSC.

/// A sparse matrix in compressed-sparse-column form.
#[derive(Clone, Debug, Default)]
pub struct Csc {
    n_rows: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s run.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csc {
    /// Builds from raw CSC arrays: `col_ptr` has one entry per column plus
    /// a final `nnz`, and each column's run is sorted by row.
    pub fn from_raw(
        n_rows: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Csc {
        debug_assert_eq!(col_ptr.last(), Some(&row_idx.len()));
        debug_assert_eq!(row_idx.len(), values.len());
        debug_assert!(
            row_idx.iter().all(|&i| i < n_rows),
            "row index out of range"
        );
        Csc {
            n_rows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.col_ptr.len().saturating_sub(1)
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Iterates column `j`'s `(row, value)` entries.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Dot product of column `j` with a dense vector.
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        self.col(j).map(|(i, v)| v * dense[i]).sum()
    }

    /// Scatters column `j` into a dense vector (which must be zeroed).
    pub fn scatter(&self, j: usize, dense: &mut [f64]) {
        for (i, v) in self.col(j) {
            dense[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_columns() {
        let m = Csc::from_raw(3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.0, -2.0, 4.0]);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, -2.0)]);
        assert_eq!(m.col(1).count(), 0);
        assert_eq!(m.col(2).collect::<Vec<_>>(), vec![(1, 4.0)]);
    }

    #[test]
    fn dot_and_scatter() {
        let m = Csc::from_raw(3, vec![0, 2], vec![0, 1], vec![2.0, 3.0]);
        assert_eq!(m.col_dot(0, &[1.0, 10.0, 100.0]), 32.0);
        let mut dense = vec![0.0; 3];
        m.scatter(0, &mut dense);
        assert_eq!(dense, vec![2.0, 3.0, 0.0]);
    }
}
