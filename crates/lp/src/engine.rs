//! Pluggable basis engines for the revised simplex.
//!
//! The simplex driver is generic over a [`BasisEngine`] supplying FTRAN
//! (`B d = a_q`), BTRAN (`Bᵀ y = c_B`) and a rank-one basis update. Two
//! engines are provided:
//!
//! * [`DenseEngine`] — maintains an explicit dense `B⁻¹`, updated by
//!   product-form pivoting. `O(m²)` per iteration; the reference
//!   implementation used for cross-checking and small models.
//! * [`SparseEngine`] — sparse LU factors of a reference basis plus a
//!   product-form-of-the-inverse eta file; refactorises periodically. This is
//!   the production path for scenario-tree LPs.

use crate::lu::{LuFactors, Singular};
use crate::matrix::Csc;
use crate::PIVOT_TOL;

/// Abstraction over the factorised simplex basis.
pub trait BasisEngine {
    /// (Re)factorise the basis `B = A[:, basis]`.
    fn refactor(&mut self, a: &Csc, basis: &[usize]) -> Result<(), Singular>;
    /// Solve `B x = rhs` in place.
    fn ftran(&mut self, rhs: &mut [f64]);
    /// Solve `Bᵀ x = rhs` in place.
    fn btran(&mut self, rhs: &mut [f64]);
    /// Record the pivot replacing basis position `r`, given `d = B⁻¹ a_q`.
    /// Returns `Err(())` when the engine wants a refactorisation instead
    /// (tiny pivot or eta file too long).
    fn update(&mut self, r: usize, d: &[f64]) -> Result<(), ()>;
    /// Rank-one updates applied since the last refactorisation.
    fn updates(&self) -> usize;
    /// Non-zeros in the current factorisation (telemetry; 0 when unknown).
    fn factor_nnz(&self) -> usize {
        0
    }
}

/// Reference engine holding an explicit dense inverse.
#[derive(Debug, Default)]
pub struct DenseEngine {
    m: usize,
    /// Row-major `B⁻¹`.
    binv: Vec<f64>,
    updates: usize,
    work: Vec<f64>,
}

impl DenseEngine {
    pub fn new() -> Self {
        Self::default()
    }
}

impl BasisEngine for DenseEngine {
    fn refactor(&mut self, a: &Csc, basis: &[usize]) -> Result<(), Singular> {
        let m = a.nrows();
        self.m = m;
        self.updates = 0;
        // Gauss-Jordan inversion of B with partial pivoting.
        // aug = [B | I], row-major, 2m columns.
        let w = 2 * m;
        let mut aug = vec![0.0f64; m * w];
        for (k, &j) in basis.iter().enumerate() {
            for (i, v) in a.col_iter(j) {
                aug[i * w + k] = v;
            }
        }
        for i in 0..m {
            aug[i * w + m + i] = 1.0;
        }
        for col in 0..m {
            // pivot search
            let mut piv = col;
            let mut best = aug[col * w + col].abs();
            for r in col + 1..m {
                let t = aug[r * w + col].abs();
                if t > best {
                    best = t;
                    piv = r;
                }
            }
            if best <= PIVOT_TOL {
                return Err(Singular { at_column: col });
            }
            if piv != col {
                for c in 0..w {
                    aug.swap(col * w + c, piv * w + c);
                }
            }
            let pv = aug[col * w + col];
            for c in 0..w {
                aug[col * w + c] /= pv;
            }
            for r in 0..m {
                if r != col {
                    let f = aug[r * w + col];
                    if f != 0.0 {
                        for c in 0..w {
                            aug[r * w + c] -= f * aug[col * w + c];
                        }
                    }
                }
            }
        }
        self.binv.clear();
        self.binv.resize(m * m, 0.0);
        for r in 0..m {
            for c in 0..m {
                self.binv[r * m + c] = aug[r * w + m + c];
            }
        }
        Ok(())
    }

    fn ftran(&mut self, rhs: &mut [f64]) {
        let m = self.m;
        self.work.clear();
        self.work.resize(m, 0.0);
        for r in 0..m {
            let mut acc = 0.0;
            let row = &self.binv[r * m..(r + 1) * m];
            for c in 0..m {
                acc += row[c] * rhs[c];
            }
            self.work[r] = acc;
        }
        rhs.copy_from_slice(&self.work);
    }

    fn btran(&mut self, rhs: &mut [f64]) {
        let m = self.m;
        self.work.clear();
        self.work.resize(m, 0.0);
        for r in 0..m {
            let v = rhs[r];
            if v != 0.0 {
                let row = &self.binv[r * m..(r + 1) * m];
                for c in 0..m {
                    self.work[c] += v * row[c];
                }
            }
        }
        rhs.copy_from_slice(&self.work);
    }

    fn update(&mut self, r: usize, d: &[f64]) -> Result<(), ()> {
        let m = self.m;
        let dr = d[r];
        if dr.abs() <= PIVOT_TOL {
            return Err(());
        }
        // B⁻¹ ← E⁻¹ B⁻¹ with eta column derived from d.
        let inv = 1.0 / dr;
        // scale pivot row
        for c in 0..m {
            self.binv[r * m + c] *= inv;
        }
        for i in 0..m {
            if i != r {
                let f = d[i];
                if f != 0.0 {
                    for c in 0..m {
                        self.binv[i * m + c] -= f * self.binv[r * m + c];
                    }
                }
            }
        }
        self.updates += 1;
        Ok(())
    }

    fn updates(&self) -> usize {
        self.updates
    }

    fn factor_nnz(&self) -> usize {
        self.binv.len()
    }
}

/// One product-form eta in the engine's arena: the basis position it
/// replaced, its pivot, and where its entries end in `eta_entries`.
#[derive(Debug, Clone, Copy)]
struct Eta {
    r: usize,
    dr: f64,
    end: usize,
}

/// Production engine: sparse LU + PFI eta file.
///
/// The eta file is an arena: `eta_entries` holds the `(row, value)` nonzeros
/// of every eta's `d = B⁻¹a_q` back to back (pivot row excluded) and `etas`
/// says where each one ends. A refactorisation empties both and keeps their
/// capacity, and refactorises the LU into its previous buffers, so neither a
/// pivot nor a refactorisation of a long-lived engine allocates.
#[derive(Debug)]
pub struct SparseEngine {
    lu: LuFactors,
    etas: Vec<Eta>,
    eta_entries: Vec<(usize, f64)>,
    max_etas: usize,
    work: Vec<f64>,
}

impl Default for SparseEngine {
    fn default() -> Self {
        Self {
            lu: LuFactors::default(),
            etas: Vec::new(),
            eta_entries: Vec::new(),
            max_etas: 64,
            work: Vec::new(),
        }
    }
}

impl SparseEngine {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_max_etas(max_etas: usize) -> Self {
        Self { max_etas, ..Self::default() }
    }

    /// The `(row, value)` entries of eta `e`.
    fn entries(&self, e: usize) -> &[(usize, f64)] {
        let start = if e == 0 { 0 } else { self.etas[e - 1].end };
        &self.eta_entries[start..self.etas[e].end]
    }
}

impl BasisEngine for SparseEngine {
    fn refactor(&mut self, a: &Csc, basis: &[usize]) -> Result<(), Singular> {
        self.etas.clear();
        self.eta_entries.clear();
        self.lu.refactor(a, basis)
    }

    fn ftran(&mut self, rhs: &mut [f64]) {
        self.lu.solve(rhs, &mut self.work);
        for (e, eta) in self.etas.iter().enumerate() {
            let t = rhs[eta.r] / eta.dr;
            if t != 0.0 {
                for &(i, v) in self.entries(e) {
                    rhs[i] -= v * t;
                }
            }
            rhs[eta.r] = t;
        }
    }

    fn btran(&mut self, rhs: &mut [f64]) {
        for (e, eta) in self.etas.iter().enumerate().rev() {
            let mut acc = rhs[eta.r];
            for &(i, v) in self.entries(e) {
                acc -= v * rhs[i];
            }
            rhs[eta.r] = acc / eta.dr;
        }
        self.lu.solve_transpose(rhs, &mut self.work);
    }

    fn update(&mut self, r: usize, d: &[f64]) -> Result<(), ()> {
        if self.etas.len() >= self.max_etas {
            return Err(());
        }
        let dr = d[r];
        if dr.abs() <= 1e-9 {
            return Err(());
        }
        for (i, &v) in d.iter().enumerate() {
            if i != r && v != 0.0 {
                self.eta_entries.push((i, v));
            }
        }
        self.etas.push(Eta { r, dr, end: self.eta_entries.len() });
        Ok(())
    }

    fn updates(&self) -> usize {
        self.etas.len()
    }

    fn factor_nnz(&self) -> usize {
        self.lu.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CscBuilder;
    use rand::{Rng, SeedableRng};

    fn random_system(rng: &mut impl Rng, m: usize, extra: usize) -> (Csc, Vec<usize>) {
        // Build an m×(m+extra) matrix whose first m columns form a
        // well-conditioned basis (diagonally dominated).
        let ncols = m + extra;
        let mut b = CscBuilder::new(m, ncols);
        for j in 0..ncols {
            for i in 0..m {
                if (i == j && j < m) || rng.gen_bool(0.25) {
                    let mut v = rng.gen_range(-1.0..1.0f64);
                    if i == j && j < m {
                        v += 3.0;
                    }
                    b.push(i, j, v);
                }
            }
        }
        (b.build(), (0..m).collect())
    }

    /// Both engines must agree with each other through a sequence of
    /// refactor / ftran / btran / update operations.
    #[test]
    fn engines_agree_through_updates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _trial in 0..20 {
            let m = 2 + rng.gen_range(0..12);
            let (a, mut basis) = random_system(&mut rng, m, m);
            let mut de = DenseEngine::new();
            let mut se = SparseEngine::new();
            if de.refactor(&a, &basis).is_err() {
                continue;
            }
            se.refactor(&a, &basis).unwrap();
            for _step in 0..8 {
                // random ftran/btran agreement check
                let rhs: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0f64)).collect();
                let mut f1 = rhs.clone();
                let mut f2 = rhs.clone();
                de.ftran(&mut f1);
                se.ftran(&mut f2);
                for i in 0..m {
                    assert!((f1[i] - f2[i]).abs() < 1e-6, "ftran disagree: {f1:?} {f2:?}");
                }
                let mut b1 = rhs.clone();
                let mut b2 = rhs.clone();
                de.btran(&mut b1);
                se.btran(&mut b2);
                for i in 0..m {
                    assert!((b1[i] - b2[i]).abs() < 1e-6, "btran disagree");
                }
                // random basis swap: bring in a non-basic column
                let q = m + rng.gen_range(0..(a.ncols() - m));
                let mut d = vec![0.0; m];
                for (i, v) in a.col_iter(q) {
                    d[i] = v;
                }
                de.ftran(&mut d);
                // pick pivot row with largest |d|
                let (r, dr) = d
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.abs().partial_cmp(&y.1.abs()).unwrap())
                    .map(|(i, v)| (i, *v))
                    .unwrap();
                if dr.abs() < 1e-3 {
                    continue;
                }
                if de.update(r, &d).is_err() || se.update(r, &d).is_err() {
                    basis[r] = q;
                    de.refactor(&a, &basis).unwrap();
                    se.refactor(&a, &basis).unwrap();
                } else {
                    basis[r] = q;
                }
            }
        }
    }

    #[test]
    fn dense_engine_solves_identity() {
        let mut b = CscBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(1, 1, 1.0);
        let a = b.build();
        let mut e = DenseEngine::new();
        e.refactor(&a, &[0, 1]).unwrap();
        let mut v = vec![3.0, 4.0];
        e.ftran(&mut v);
        assert_eq!(v, vec![3.0, 4.0]);
    }

    #[test]
    fn sparse_engine_eta_limit_forces_refactor() {
        let mut b = CscBuilder::new(1, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 2.0);
        let a = b.build();
        let mut e = SparseEngine::with_max_etas(1);
        e.refactor(&a, &[0]).unwrap();
        assert!(e.update(0, &[2.0]).is_ok());
        assert!(e.update(0, &[0.5]).is_err(), "second update must request refactor");
    }
}
