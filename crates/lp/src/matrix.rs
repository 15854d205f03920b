//! Compressed sparse column (CSC) matrices, their row-major mirror, and
//! sparse vectors.
//!
//! CSC is the storage the model is built in and the format every
//! column-oriented kernel (FTRAN right-hand sides, pricing, factorisation)
//! reads. Entries within a column are kept sorted by row index with no
//! duplicates; [`CscBuilder`] enforces this by accumulating triplets and
//! merging. The dual simplex additionally needs *rows* of `A` — its pivot
//! row is a combination of the few rows where `B⁻ᵀe_r` is nonzero — so
//! [`Csc::to_rows`] makes a row-major copy ([`Csr`]), once per model.

/// A sparse vector as parallel (index, value) arrays, not necessarily sorted.
#[derive(Debug, Clone, Default)]
pub struct SparseVec {
    pub idx: Vec<usize>,
    pub val: Vec<f64>,
}

impl SparseVec {
    pub fn clear(&mut self) {
        self.idx.clear();
        self.val.clear();
    }

    pub fn push(&mut self, i: usize, v: f64) {
        self.idx.push(i);
        self.val.push(v);
    }

    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }
}

/// Row-major mirror of a [`Csc`] matrix; entries within a row are sorted by
/// column index.
#[derive(Debug, Clone)]
pub struct Csr {
    rowptr: Vec<usize>,
    colind: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// Iterate `(column, value)` over row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.rowptr[i]..self.rowptr[i + 1];
        self.colind[span.clone()].iter().copied().zip(self.values[span].iter().copied())
    }
}

/// Immutable CSC matrix. `clone_from` copies into the target's buffers.
#[derive(Debug, Default)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    /// Column start offsets, length `ncols + 1`.
    colptr: Vec<usize>,
    /// Row indices, sorted within each column.
    rowind: Vec<usize>,
    values: Vec<f64>,
}

impl Clone for Csc {
    fn clone(&self) -> Self {
        let mut out = Self::default();
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, source: &Self) {
        self.nrows = source.nrows;
        self.ncols = source.ncols;
        self.colptr.clone_from(&source.colptr);
        self.rowind.clone_from(&source.rowind);
        self.values.clone_from(&source.values);
    }
}

/// Whether two slices hold the same values bit for bit (`-0.0` differs from
/// `0.0`, and a NaN equals the same NaN).
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Csc {
    /// Whether `other` has the same shape, pattern and values, the values
    /// compared bit for bit.
    pub(crate) fn same_bits(&self, other: &Csc) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.colptr == other.colptr
            && self.rowind == other.rowind
            && same_bits(&self.values, &other.values)
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// Row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Values of column `j` (parallel to [`Csc::col_rows`]).
    pub fn col_vals(&self, j: usize) -> &[f64] {
        &self.values[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Iterate `(row, value)` over column `j`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.col_rows(j).iter().copied().zip(self.col_vals(j).iter().copied())
    }

    /// Dense `yᵀ · A_j` (dot of a dense row vector with column `j`).
    pub fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (i, v) in self.col_iter(j) {
            acc += y[i] * v;
        }
        acc
    }

    /// `out += A_j * scale` for dense `out`.
    pub fn col_axpy(&self, j: usize, scale: f64, out: &mut [f64]) {
        for (i, v) in self.col_iter(j) {
            out[i] += v * scale;
        }
    }

    /// Row-major copy of the matrix.
    pub fn to_rows(&self) -> Csr {
        let mut rowptr = vec![0usize; self.nrows + 1];
        for &i in &self.rowind {
            rowptr[i + 1] += 1;
        }
        for i in 0..self.nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let mut next = rowptr.clone();
        let mut colind = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for j in 0..self.ncols {
            for (i, v) in self.col_iter(j) {
                colind[next[i]] = j;
                values[next[i]] = v;
                next[i] += 1;
            }
        }
        Csr { rowptr, colind, values }
    }

    /// Dense matrix-vector product `A x` (used by tests and residual checks).
    pub fn mul_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut out = vec![0.0; self.nrows];
        for j in 0..self.ncols {
            if x[j] != 0.0 {
                self.col_axpy(j, x[j], &mut out);
            }
        }
        out
    }
}

/// Builder accumulating triplets; duplicates within a column are summed.
#[derive(Debug, Clone)]
pub struct CscBuilder {
    nrows: usize,
    cols: Vec<Vec<(usize, f64)>>,
}

impl CscBuilder {
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, cols: vec![Vec::new(); ncols] }
    }

    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        debug_assert!(row < self.nrows, "row {row} out of bounds ({})", self.nrows);
        if val != 0.0 {
            self.cols[col].push((row, val));
        }
    }

    pub fn build(mut self) -> Csc {
        let ncols = self.cols.len();
        let mut colptr = Vec::with_capacity(ncols + 1);
        let mut rowind = Vec::new();
        let mut values = Vec::new();
        colptr.push(0);
        for col in &mut self.cols {
            col.sort_unstable_by_key(|&(r, _)| r);
            let mut k = 0;
            while k < col.len() {
                let r = col[k].0;
                let mut v = col[k].1;
                let mut k2 = k + 1;
                while k2 < col.len() && col[k2].0 == r {
                    v += col[k2].1;
                    k2 += 1;
                }
                if v != 0.0 {
                    rowind.push(r);
                    values.push(v);
                }
                k = k2;
            }
            colptr.push(rowind.len());
        }
        Csc { nrows: self.nrows, ncols, colptr, rowind, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_and_merges_duplicates() {
        let mut b = CscBuilder::new(3, 2);
        b.push(2, 0, 1.0);
        b.push(0, 0, 2.0);
        b.push(2, 0, 3.0);
        b.push(1, 1, -1.0);
        let m = b.build();
        assert_eq!(m.col_rows(0), &[0, 2]);
        assert_eq!(m.col_vals(0), &[2.0, 4.0]);
        assert_eq!(m.col_rows(1), &[1]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn exact_zero_sums_are_dropped() {
        let mut b = CscBuilder::new(2, 1);
        b.push(0, 0, 1.5);
        b.push(0, 0, -1.5);
        b.push(1, 0, 2.0);
        let m = b.build();
        assert_eq!(m.col_rows(0), &[1]);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn mul_dense_matches_manual() {
        // A = [[1, 0], [2, 3]]
        let mut b = CscBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(1, 0, 2.0);
        b.push(1, 1, 3.0);
        let m = b.build();
        let y = m.mul_dense(&[2.0, -1.0]);
        assert_eq!(y, vec![2.0, 1.0]);
    }

    #[test]
    fn col_dot_and_axpy() {
        let mut b = CscBuilder::new(3, 1);
        b.push(0, 0, 1.0);
        b.push(2, 0, -2.0);
        let m = b.build();
        assert_eq!(m.col_dot(0, &[3.0, 100.0, 0.5]), 2.0);
        let mut out = vec![0.0; 3];
        m.col_axpy(0, 2.0, &mut out);
        assert_eq!(out, vec![2.0, 0.0, -4.0]);
    }

    #[test]
    fn row_major_copy_mirrors_columns() {
        // A = [[1, 0, 4], [2, 3, 0]]
        let mut b = CscBuilder::new(2, 3);
        b.push(0, 0, 1.0);
        b.push(1, 0, 2.0);
        b.push(1, 1, 3.0);
        b.push(0, 2, 4.0);
        let rows = b.build().to_rows();
        assert_eq!(rows.nnz(), 4);
        assert_eq!(rows.row_iter(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 4.0)]);
        assert_eq!(rows.row_iter(1).collect::<Vec<_>>(), vec![(0, 2.0), (1, 3.0)]);
    }

    #[test]
    fn empty_matrix() {
        let m = CscBuilder::new(0, 0).build();
        assert_eq!(m.nnz(), 0);
        assert!(m.mul_dense(&[]).is_empty());
    }
}
