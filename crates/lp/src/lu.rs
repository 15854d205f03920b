//! Sparse LU factorisation of a simplex basis (Gilbert–Peierls, partial
//! pivoting), plus triangular solves in both directions.
//!
//! Factorises `P·B = L·U` where `B` is formed from selected columns of a CSC
//! constraint matrix, `L` is unit lower triangular, `U` upper triangular and
//! `P` a row permutation chosen by threshold-free partial pivoting (largest
//! magnitude). The left-looking algorithm computes, for each column, the
//! sparse triangular solve `z = L⁻¹·P·bₖ` with its nonzero pattern discovered
//! by depth-first search (the classic `cs_lu`/`cs_spsolve` scheme), so the
//! cost is proportional to arithmetic work rather than `O(m²)` per column —
//! essential for the network-like bases of lot-sizing LPs.

use crate::matrix::Csc;
use crate::PIVOT_TOL;

/// Error: the selected basis columns are numerically singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Elimination step at which no acceptable pivot remained.
    pub at_column: usize,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular basis at elimination column {}", self.at_column)
    }
}

impl std::error::Error for Singular {}

/// LU factors of a basis. Row indices of `l` and `u` are in *permuted*
/// space; `pinv[orig_row] = permuted_row`.
///
/// [`LuFactors::refactor`] factorises into the buffers of the previous
/// factorisation, so a simplex that refactorises the same value allocates
/// nothing once the buffers have grown to the basis' fill.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    /// Dimension of the factorised basis; 0 until a factorisation succeeds.
    m: usize,
    /// Unit lower triangular factor; unit diagonal stored explicitly is NOT
    /// included (columns hold strictly-below-diagonal entries).
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    /// Upper triangular factor including the diagonal (last entry of each
    /// column is the diagonal by construction).
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    pinv: Vec<usize>,
    scratch: Scratch,
}

/// Work arrays of one factorisation, kept for the next.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Dense numeric work vector.
    x: Vec<f64>,
    /// Nonzero pattern stack (original rows).
    xi: Vec<usize>,
    marked: Vec<bool>,
    /// DFS frames: (orig_row, next child offset).
    dfs_stack: Vec<(usize, usize)>,
}

impl LuFactors {
    pub fn dim(&self) -> usize {
        self.m
    }

    pub fn nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len()
    }

    /// Factorise the basis `B = A[:, cols]`.
    pub fn factorize(a: &Csc, cols: &[usize]) -> Result<Self, Singular> {
        let mut lu = Self::default();
        lu.refactor(a, cols)?;
        Ok(lu)
    }

    /// Factorise the basis `B = A[:, cols]` in place, reusing this value's
    /// buffers. The factors are those [`LuFactors::factorize`] computes, bit
    /// for bit. After an `Err` they are unusable until a refactorisation
    /// succeeds.
    pub fn refactor(&mut self, a: &Csc, cols: &[usize]) -> Result<(), Singular> {
        let m = a.nrows();
        assert_eq!(cols.len(), m, "basis must be square");
        self.m = 0;
        let Self {
            l_colptr, l_rows, l_vals, u_colptr, u_rows, u_vals, u_diag, pinv, scratch, ..
        } = self;
        let Scratch { x, xi, marked, dfs_stack } = scratch;

        // L is built column-by-column with ORIGINAL row indices during the
        // factorisation (remapped to permuted space at the end), exactly as
        // in cs_lu: the DFS interprets entry rows through `pinv`.
        l_colptr.clear();
        l_colptr.push(0);
        l_rows.clear();
        l_vals.clear();
        u_colptr.clear();
        u_colptr.push(0);
        u_rows.clear();
        u_vals.clear();
        u_diag.clear();
        u_diag.resize(m, 0.0);

        const UNSET: usize = usize::MAX;
        pinv.clear();
        pinv.resize(m, UNSET);

        x.clear();
        x.resize(m, 0.0);
        xi.clear();
        xi.resize(m, 0);
        marked.clear();
        marked.resize(m, false);

        for k in 0..m {
            let bcol = cols[k];

            // --- symbolic: pattern of z = L⁻¹ P bₖ via DFS over L's graph ---
            let mut top = m; // xi[top..m] holds the pattern in topological order
            for &i0 in a.col_rows(bcol) {
                if marked[i0] {
                    continue;
                }
                // Iterative DFS from original row i0.
                dfs_stack.clear();
                dfs_stack.push((i0, 0));
                marked[i0] = true;
                while let Some(&(i, poff)) = dfs_stack.last() {
                    let jcol = pinv[i];
                    let (start, end) = if jcol == UNSET || jcol >= k {
                        (0, 0) // not yet pivotal: leaf node
                    } else {
                        (l_colptr[jcol], l_colptr[jcol + 1])
                    };
                    let mut descended = false;
                    let mut off = poff;
                    while start + off < end {
                        let child = l_rows[start + off];
                        off += 1;
                        if !marked[child] {
                            marked[child] = true;
                            if let Some(frame) = dfs_stack.last_mut() {
                                frame.1 = off;
                            }
                            dfs_stack.push((child, 0));
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        dfs_stack.pop();
                        top -= 1;
                        xi[top] = i;
                    }
                }
            }

            // --- numeric: sparse lower-triangular solve ---
            for (i, v) in a.col_iter(bcol) {
                x[i] = v;
            }
            // xi[top..m] is topological (dependencies first when iterated
            // from `top` forward? cs_spsolve iterates top..n applying columns
            // in that order). Reach is stored so that iterating forward
            // applies each pivotal node after everything it depends on.
            for p in top..m {
                let i = xi[p];
                let jcol = pinv[i];
                if jcol == UNSET || jcol >= k {
                    continue;
                }
                let xi_val = x[i];
                if xi_val == 0.0 {
                    continue;
                }
                for (idx, &r) in l_rows[l_colptr[jcol]..l_colptr[jcol + 1]].iter().enumerate() {
                    let lv = l_vals[l_colptr[jcol] + idx];
                    x[r] -= lv * xi_val;
                }
            }

            // --- pivot selection: largest magnitude among non-pivotal rows ---
            let mut ipiv = UNSET;
            let mut amax = 0.0f64;
            for p in top..m {
                let i = xi[p];
                if pinv[i] == UNSET {
                    let t = x[i].abs();
                    if t > amax {
                        amax = t;
                        ipiv = i;
                    }
                }
            }
            if ipiv == UNSET || amax <= PIVOT_TOL {
                // clean up work arrays before reporting
                for p in top..m {
                    let i = xi[p];
                    x[i] = 0.0;
                    marked[i] = false;
                }
                return Err(Singular { at_column: k });
            }
            let pivot = x[ipiv];
            pinv[ipiv] = k;
            u_diag[k] = pivot;

            // --- emit U (pivotal rows) and L (non-pivotal rows, scaled) ---
            for p in top..m {
                let i = xi[p];
                let prow = pinv[i];
                let v = x[i];
                if i == ipiv {
                    // diagonal handled via u_diag; also store in u for
                    // transpose solves.
                } else if prow != UNSET && prow < k {
                    if v != 0.0 {
                        u_rows.push(prow);
                        u_vals.push(v);
                    }
                } else if i != ipiv && v != 0.0 {
                    l_rows.push(i); // original row index, remapped later
                    l_vals.push(v / pivot);
                }
                x[i] = 0.0;
                marked[i] = false;
            }
            // store diagonal last within the column
            u_rows.push(k);
            u_vals.push(pivot);
            u_colptr.push(u_rows.len());
            l_colptr.push(l_rows.len());
        }

        // Remap L's row indices to permuted space.
        for r in l_rows.iter_mut() {
            debug_assert!(pinv[*r] != UNSET);
            *r = pinv[*r];
        }
        // Sort each column of L and U by (now permuted) row index to make the
        // transpose solves cache-friendlier and deterministic.
        for k in 0..m {
            sort_column(l_rows, l_vals, l_colptr[k], l_colptr[k + 1]);
            sort_column(u_rows, u_vals, u_colptr[k], u_colptr[k + 1]);
        }

        self.m = m;
        Ok(())
    }

    /// Solve `B x = b`; `b` is overwritten with `x` (indexed by basis
    /// position, i.e. elimination order).
    pub fn solve(&self, b: &mut [f64], work: &mut Vec<f64>) {
        let m = self.m;
        assert_eq!(b.len(), m, "solve needs a successful factorisation of this shape");
        work.clear();
        work.resize(m, 0.0);
        // apply P: work[pinv[i]] = b[i]
        for i in 0..m {
            work[self.pinv[i]] = b[i];
        }
        // L y = Pb  (unit diagonal, strictly-lower entries stored)
        for k in 0..m {
            let yk = work[k];
            if yk != 0.0 {
                for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                    work[self.l_rows[idx]] -= self.l_vals[idx] * yk;
                }
            }
        }
        // U x = y
        for k in (0..m).rev() {
            let xk = work[k] / self.u_diag[k];
            work[k] = xk;
            if xk != 0.0 {
                for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                    let r = self.u_rows[idx];
                    if r != k {
                        work[r] -= self.u_vals[idx] * xk;
                    }
                }
            }
        }
        b.copy_from_slice(work);
    }

    /// Solve `Bᵀ y = c`; `c` is overwritten with `y` (indexed by original
    /// row, i.e. constraint index).
    pub fn solve_transpose(&self, c: &mut [f64], work: &mut Vec<f64>) {
        let m = self.m;
        assert_eq!(c.len(), m, "solve needs a successful factorisation of this shape");
        work.clear();
        work.resize(m, 0.0);
        // Uᵀ z = c : forward substitution using columns of U as rows of Uᵀ.
        for k in 0..m {
            let mut acc = c[k];
            for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                let r = self.u_rows[idx];
                if r != k {
                    acc -= self.u_vals[idx] * work[r];
                }
            }
            work[k] = acc / self.u_diag[k];
        }
        // Lᵀ w = z : backward substitution (unit diagonal).
        for k in (0..m).rev() {
            let mut acc = work[k];
            for idx in self.l_colptr[k]..self.l_colptr[k + 1] {
                acc -= self.l_vals[idx] * work[self.l_rows[idx]];
            }
            work[k] = acc;
        }
        // y = Pᵀ w : y[i] = w[pinv[i]]
        for i in 0..m {
            c[i] = work[self.pinv[i]];
        }
    }
}

fn sort_column(rows: &mut [usize], vals: &mut [f64], start: usize, end: usize) {
    // insertion sort on the (usually tiny) column slice, moving vals along
    for i in start + 1..end {
        let mut j = i;
        while j > start && rows[j - 1] > rows[j] {
            rows.swap(j - 1, j);
            vals.swap(j - 1, j);
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CscBuilder;

    fn dense_to_csc(rows: usize, cols: usize, data: &[f64]) -> Csc {
        let mut b = CscBuilder::new(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                let v = data[i * cols + j];
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }

    #[test]
    fn identity_roundtrip() {
        let a = dense_to_csc(3, 3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let lu = LuFactors::factorize(&a, &[0, 1, 2]).unwrap();
        let mut b = vec![1.0, 2.0, 3.0];
        let mut w = Vec::new();
        lu.solve(&mut b, &mut w);
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
        let mut c = vec![-1.0, 0.5, 2.0];
        lu.solve_transpose(&mut c, &mut w);
        assert_eq!(c, vec![-1.0, 0.5, 2.0]);
    }

    #[test]
    fn small_dense_solve() {
        // B = [[2, 1], [1, 3]]
        let a = dense_to_csc(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let lu = LuFactors::factorize(&a, &[0, 1]).unwrap();
        // Solve B x = [5, 10] → x = [1, 3]
        let mut b = vec![5.0, 10.0];
        let mut w = Vec::new();
        lu.solve(&mut b, &mut w);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
        // Bᵀ y = [4, 10] → y solves [[2,1],[1,3]]ᵀ y = [4,10]: 2y0+y1=4, y0+3y1=10 → y0=0.4, y1=3.2
        let mut c = vec![4.0, 10.0];
        lu.solve_transpose(&mut c, &mut w);
        assert!((c[0] - 0.4).abs() < 1e-12, "{c:?}");
        assert!((c[1] - 3.2).abs() < 1e-12, "{c:?}");
    }

    #[test]
    fn permutation_required() {
        // B = [[0, 1], [1, 0]] forces row pivoting.
        let a = dense_to_csc(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let lu = LuFactors::factorize(&a, &[0, 1]).unwrap();
        let mut b = vec![7.0, 9.0];
        let mut w = Vec::new();
        lu.solve(&mut b, &mut w);
        // x = [9, 7]
        assert!((b[0] - 9.0).abs() < 1e-12);
        assert!((b[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = dense_to_csc(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(LuFactors::factorize(&a, &[0, 1]).is_err());
    }

    /// Every trial also refactorises one long-lived value, through
    /// matrices of changing size and singular ones: its solves must equal
    /// the fresh factorisation's bit for bit.
    #[test]
    fn random_matrices_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut reused = LuFactors::default();
        for trial in 0..50 {
            let m = 1 + rng.gen_range(0..25);
            // random sparse-ish matrix with guaranteed nonzero diagonal
            let mut data = vec![0.0; m * m];
            for i in 0..m {
                for j in 0..m {
                    if i == j || rng.gen_bool(0.3) {
                        data[i * m + j] = rng.gen_range(-2.0..2.0f64);
                    }
                }
                if data[i * m + i].abs() < 0.1 {
                    data[i * m + i] = 1.0 + rng.gen_range(0.0..1.0f64);
                }
            }
            let a = dense_to_csc(m, m, &data);
            let cols: Vec<usize> = (0..m).collect();
            let fresh = LuFactors::factorize(&a, &cols);
            assert_eq!(reused.refactor(&a, &cols), fresh.as_ref().map(|_| ()).map_err(|e| *e));
            let lu = match fresh {
                Ok(lu) => lu,
                Err(_) => continue, // randomly singular: acceptable, skip
            };
            let xs: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0f64)).collect();
            // b = B x
            let b0 = a.mul_dense(&xs);
            let mut b = b0.clone();
            let mut w = Vec::new();
            lu.solve(&mut b, &mut w);
            let mut again = b0.clone();
            reused.solve(&mut again, &mut w);
            assert!(
                b.iter().zip(&again).all(|(p, q)| p.to_bits() == q.to_bits()),
                "trial {trial}: refactorised value solves differently"
            );
            for i in 0..m {
                assert!(
                    (b[i] - xs[i]).abs() < 1e-8,
                    "trial {trial} ftran mismatch at {i}: {} vs {}",
                    b[i],
                    xs[i]
                );
            }
            // transpose: c = Bᵀ y  with random y
            let ys: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0f64)).collect();
            let mut c = vec![0.0; m];
            for j in 0..m {
                c[j] = a.col_dot(j, &ys);
            }
            lu.solve_transpose(&mut c, &mut w);
            for i in 0..m {
                assert!(
                    (c[i] - ys[i]).abs() < 1e-8,
                    "trial {trial} btran mismatch at {i}: {} vs {}",
                    c[i],
                    ys[i]
                );
            }
        }
    }
}
