//! Geometric-mean equilibration scaling for standard-form LPs.
//!
//! Badly scaled models (coefficients spanning many orders of magnitude)
//! degrade simplex pivot quality. [`scale`] rescales rows and columns of
//! `A` towards unit magnitude by iterated geometric-mean equilibration and
//! returns the transformed problem plus a [`Scaling`] that maps solutions
//! back:
//!
//! ```text
//! A' = R·A·C,  b' = R·b,  c' = C·c,  l' = C⁻¹·l,  u' = C⁻¹·u
//! x = C·x',    y = R·y',  d = C·d'   (duals / reduced costs)
//! ```
//!
//! Scaling is opt-in: the default solve path works on the raw model (the
//! planning LPs of this workspace are already well scaled); it exists for
//! callers feeding numerically wild data into the substrate.

use crate::matrix::CscBuilder;
use crate::model::StandardLp;
use crate::simplex::RawResult;

/// Row and column scale factors applied to a [`StandardLp`].
#[derive(Debug, Clone)]
pub struct Scaling {
    pub row: Vec<f64>,
    pub col: Vec<f64>,
}

impl Scaling {
    /// Map a raw solution of the scaled problem back to the original space.
    pub fn unscale(&self, mut r: RawResult) -> RawResult {
        for (x, c) in r.x.iter_mut().zip(&self.col) {
            *x *= c;
        }
        for (y, rw) in r.y.iter_mut().zip(&self.row) {
            *y *= rw;
        }
        // d' = c' − A'ᵀy' = C·(c − Aᵀ·R·y'), so the original reduced cost
        // is d'/C — division, unlike the primal values
        for (d, c) in r.d.iter_mut().zip(&self.col) {
            *d /= c;
        }
        r
    }
}

/// Equilibrate `lp` with `passes` rounds of row/column geometric-mean
/// scaling (2 is the customary default). Scale factors are rounded to
/// powers of two so the transform is exact in floating point.
pub fn scale(lp: &StandardLp, passes: usize) -> (StandardLp, Scaling) {
    let m = lp.nrows();
    let n = lp.ncols();
    let mut row = vec![1.0f64; m];
    let mut col = vec![1.0f64; n];

    for _ in 0..passes {
        // column pass: geometric mean of |a_ij·r_i|
        for j in 0..n {
            let mut log_sum = 0.0;
            let mut count = 0usize;
            for (i, v) in lp.a.col_iter(j) {
                let mag = (v * row[i] * col[j]).abs();
                if mag > 0.0 {
                    log_sum += mag.ln();
                    count += 1;
                }
            }
            if count > 0 {
                let gm = (log_sum / count as f64).exp();
                col[j] /= pow2_round(gm);
            }
        }
        // row pass
        let mut log_sum = vec![0.0f64; m];
        let mut count = vec![0usize; m];
        for j in 0..n {
            for (i, v) in lp.a.col_iter(j) {
                let mag = (v * row[i] * col[j]).abs();
                if mag > 0.0 {
                    log_sum[i] += mag.ln();
                    count[i] += 1;
                }
            }
        }
        for i in 0..m {
            if count[i] > 0 {
                let gm = (log_sum[i] / count[i] as f64).exp();
                row[i] /= pow2_round(gm);
            }
        }
    }

    // build the scaled problem
    let mut builder = CscBuilder::new(m, n);
    for j in 0..n {
        for (i, v) in lp.a.col_iter(j) {
            builder.push(i, j, v * row[i] * col[j]);
        }
    }
    let scaled = StandardLp::new(
        builder.build(),
        lp.b.iter().zip(&row).map(|(b, r)| b * r).collect(),
        lp.c.iter().zip(&col).map(|(c, s)| c * s).collect(),
        lp.lower.iter().zip(&col).map(|(l, s)| l / s).collect(),
        lp.upper.iter().zip(&col).map(|(u, s)| u / s).collect(),
        lp.nstruct,
        lp.obj_scale,
    );
    (scaled, Scaling { row, col })
}

/// Nearest power of two (exact floating-point scaling).
fn pow2_round(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    2.0f64.powi(x.log2().round() as i32)
}

/// Convenience: solve with scaling and return the solution in original
/// space.
pub fn solve_scaled(lp: &StandardLp) -> RawResult {
    let (scaled, s) = scale(lp, 2);
    let raw = crate::simplex::solve_sparse(&scaled);
    s.unscale(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};
    use crate::solution::Status;

    #[test]
    fn pow2_rounding() {
        assert_eq!(pow2_round(1.0), 1.0);
        assert_eq!(pow2_round(3.0), 4.0);
        assert_eq!(pow2_round(0.3), 0.25);
    }

    #[test]
    fn scaling_preserves_optimum_on_wild_model() {
        // coefficients spanning 9 orders of magnitude
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1e7, 1e-4, "x");
        let y = m.add_var(0.0, 1e-3, 1e5, "y");
        m.add_con(&[(x, 1e-5), (y, 1e4)], Cmp::Ge, 2.0);
        let lp = m.to_standard();
        let direct = crate::simplex::solve_sparse(&lp);
        let scaled = solve_scaled(&lp);
        assert_eq!(direct.status, Status::Optimal);
        assert_eq!(scaled.status, Status::Optimal);
        let obj = |r: &RawResult| -> f64 { r.x.iter().zip(&lp.c).map(|(x, c)| x * c).sum() };
        let (a, b) = (obj(&direct), obj(&scaled));
        assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
    }

    #[test]
    fn duals_unscale_consistently() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 4000.0, "x");
        let y = m.add_var(0.0, f64::INFINITY, 0.003, "y");
        m.add_con(&[(x, 200.0), (y, 0.004)], Cmp::Ge, 8.0);
        let lp = m.to_standard();
        let direct = crate::simplex::solve_sparse(&lp);
        let scaled = solve_scaled(&lp);
        for (a, b) in direct.y.iter().zip(&scaled.y) {
            assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()), "dual {a} vs {b}");
        }
    }

    #[test]
    fn scale_factors_are_powers_of_two() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 10.0, 3.7, "x");
        m.add_con(&[(x, 123.4)], Cmp::Le, 500.0);
        let lp = m.to_standard();
        let (_, s) = scale(&lp, 2);
        for v in s.row.iter().chain(&s.col) {
            let l = v.log2();
            assert!((l - l.round()).abs() < 1e-12, "{v} is not a power of two");
        }
    }

    #[test]
    fn well_scaled_model_nearly_untouched() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 2.0, 1.0, "x");
        let y = m.add_var(0.0, 2.0, 1.0, "y");
        m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let lp = m.to_standard();
        let (_, s) = scale(&lp, 2);
        for v in s.row.iter().chain(&s.col) {
            assert!(*v >= 0.5 && *v <= 2.0, "over-aggressive scaling: {v}");
        }
    }
}
