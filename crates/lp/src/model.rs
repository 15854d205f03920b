//! LP model builder and conversion to computational standard form.

use std::sync::Arc;

use crate::matrix::{Csc, CscBuilder, Csr};
use crate::solution::{Solution, Status};

/// Index of a decision variable in a [`Model`].
pub type VarId = usize;

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Le,
    Ge,
    Eq,
}

#[derive(Debug, Clone)]
struct Var {
    lower: f64,
    upper: f64,
    obj: f64,
    name: String,
}

#[derive(Debug, Clone)]
struct Con {
    terms: Vec<(VarId, f64)>,
    cmp: Cmp,
    rhs: f64,
}

/// A mutable linear-program builder.
///
/// Variables are continuous with (possibly infinite) bounds; constraints are
/// linear with `≤`, `≥` or `=` against a scalar right-hand side. Integrality
/// is layered on top by `rrp-milp`, which treats a [`Model`] plus a set of
/// integer-marked columns as a MILP.
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    vars: Vec<Var>,
    cons: Vec<Con>,
}

impl Model {
    pub fn new(sense: Sense) -> Self {
        Self { sense, vars: Vec::new(), cons: Vec::new() }
    }

    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a variable with bounds `[lower, upper]` and objective coefficient.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64, name: &str) -> VarId {
        assert!(lower <= upper, "variable '{name}': lower {lower} > upper {upper}");
        assert!(!lower.is_nan() && !upper.is_nan() && obj.is_finite());
        self.vars.push(Var { lower, upper, obj, name: name.to_string() });
        self.vars.len() - 1
    }

    /// Add a linear constraint `Σ coeff·var  cmp  rhs`.
    pub fn add_con(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> usize {
        for &(v, c) in terms {
            assert!(v < self.vars.len(), "constraint references unknown variable {v}");
            assert!(c.is_finite());
        }
        assert!(rhs.is_finite());
        self.cons.push(Con { terms: terms.to_vec(), cmp, rhs });
        self.cons.len() - 1
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v].lower, self.vars[v].upper)
    }

    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v].name
    }

    pub fn var_obj(&self, v: VarId) -> f64 {
        self.vars[v].obj
    }

    /// Constraint `i` as `(terms, cmp, rhs)`.
    pub fn con(&self, i: usize) -> (&[(VarId, f64)], Cmp, f64) {
        let c = &self.cons[i];
        (&c.terms, c.cmp, c.rhs)
    }

    /// Tighten a variable's bounds in place (used by branch & bound).
    pub fn set_var_bounds(&mut self, v: VarId, lower: f64, upper: f64) {
        assert!(lower <= upper, "set_var_bounds: lower {lower} > upper {upper}");
        self.vars[v].lower = lower;
        self.vars[v].upper = upper;
    }

    /// Replace the coefficient of `v` in constraint `row` (used by the
    /// audit pass to tighten loose big-M forcing coefficients). The variable
    /// must already appear in the row — silently adding terms would change
    /// the model's sparsity pattern behind the builder's back.
    pub fn set_con_coeff(&mut self, row: usize, v: VarId, coeff: f64) {
        assert!(coeff.is_finite());
        let con = &mut self.cons[row];
        let pos = con.terms.iter().position(|&(var, _)| var == v);
        assert!(pos.is_some(), "set_con_coeff: variable {v} not in constraint {row}");
        if let Some(p) = pos {
            con.terms[p].1 = coeff;
        }
    }

    /// Convert to the computational form `min cᵀx, Ax = b, l ≤ x ≤ u`.
    ///
    /// One slack column is appended per row: `Σ a·x + s = rhs` with slack
    /// bounds `[0, ∞)` for `≤`, `(-∞, 0]` for `≥`, `[0, 0]` for `=`. A
    /// maximisation objective is negated (and the final objective negated
    /// back when reporting).
    pub fn to_standard(&self) -> StandardLp {
        let n = self.vars.len();
        let m = self.cons.len();
        let ncols = n + m;
        let mut builder = CscBuilder::new(m, ncols);
        let mut lower = Vec::with_capacity(ncols);
        let mut upper = Vec::with_capacity(ncols);
        let mut c = Vec::with_capacity(ncols);
        let obj_scale = match self.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for v in &self.vars {
            lower.push(v.lower);
            upper.push(v.upper);
            c.push(v.obj * obj_scale);
        }
        let mut b = Vec::with_capacity(m);
        for (i, con) in self.cons.iter().enumerate() {
            for &(v, coeff) in &con.terms {
                builder.push(i, v, coeff);
            }
            let s = n + i;
            builder.push(i, s, 1.0);
            let (sl, su) = match con.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lower.push(sl);
            upper.push(su);
            c.push(0.0);
            b.push(con.rhs);
        }
        StandardLp::new(builder.build(), b, c, lower, upper, n, obj_scale)
    }

    /// Solve with the sparse engine (the default production path).
    pub fn solve(&self) -> Result<Solution, Status> {
        let std = self.to_standard();
        let raw = crate::simplex::solve_sparse(&std);
        std.report(self, raw)
    }

    /// Solve with the dense reference engine (small models, cross-checking).
    pub fn solve_dense(&self) -> Result<Solution, Status> {
        let std = self.to_standard();
        let raw = crate::simplex::solve_dense(&std);
        std.report(self, raw)
    }
}

/// Computational standard form `min cᵀx, Ax = b, l ≤ x ≤ u`.
///
/// Columns `0..nstruct` are the model's structural variables; columns
/// `nstruct..` are row slacks in row order.
#[derive(Debug, Clone)]
pub struct StandardLp {
    pub a: Csc,
    pub b: Vec<f64>,
    pub c: Vec<f64>,
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    pub nstruct: usize,
    /// `+1` if the original model minimised, `-1` if it maximised.
    pub obj_scale: f64,
    /// Row-major copy of `a`, built once in [`StandardLp::new`] and shared
    /// by every clone: branch & bound clones the LP into a scratch whose
    /// bounds it rewrites per node, and the matrix never changes.
    rows: Arc<Csr>,
}

impl StandardLp {
    /// Assemble a standard-form LP (and the row-major copy of `a`).
    pub fn new(
        a: Csc,
        b: Vec<f64>,
        c: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
        nstruct: usize,
        obj_scale: f64,
    ) -> Self {
        let rows = Arc::new(a.to_rows());
        Self { a, b, c, lower, upper, nstruct, obj_scale, rows }
    }

    /// Row-major view of the constraint matrix.
    pub fn rows(&self) -> &Csr {
        &self.rows
    }

    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    pub fn ncols(&self) -> usize {
        self.a.ncols()
    }

    /// Translate a raw simplex outcome back into model space.
    pub(crate) fn report(
        &self,
        model: &Model,
        raw: crate::simplex::RawResult,
    ) -> Result<Solution, Status> {
        match raw.status {
            Status::Optimal => {
                let values = raw.x[..self.nstruct].to_vec();
                let duals = raw.y.iter().map(|d| d * self.obj_scale).collect();
                let reduced_costs =
                    raw.d[..self.nstruct].iter().map(|d| d * self.obj_scale).collect();
                let objective: f64 =
                    values.iter().enumerate().map(|(j, x)| model.var_obj(j) * x).sum();
                Ok(Solution { objective, values, duals, reduced_costs, iterations: raw.iterations })
            }
            s => Err(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_form_shapes() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 10.0, 1.0, "x");
        let y = m.add_var(-1.0, 1.0, -2.0, "y");
        m.add_con(&[(x, 1.0), (y, 2.0)], Cmp::Le, 5.0);
        m.add_con(&[(x, 1.0)], Cmp::Eq, 3.0);
        let s = m.to_standard();
        assert_eq!(s.ncols(), 4);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.nstruct, 2);
        // Le slack: [0, inf); Eq slack fixed at 0.
        assert_eq!(s.lower[2], 0.0);
        assert_eq!(s.upper[2], f64::INFINITY);
        assert_eq!((s.lower[3], s.upper[3]), (0.0, 0.0));
        assert_eq!(s.b, vec![5.0, 3.0]);
    }

    #[test]
    fn maximize_negates_costs() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 4.0, 3.0, "x");
        let _ = x;
        let s = m.to_standard();
        assert_eq!(s.c[0], -3.0);
        assert_eq!(s.obj_scale, -1.0);
    }

    #[test]
    #[should_panic(expected = "lower")]
    fn bad_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var(1.0, 0.0, 0.0, "bad");
    }
}
