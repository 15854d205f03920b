//! An independent Farkas check for the tests that read the dual simplex's
//! infeasibility certificates.

use rrp_lp::StandardLp;

/// `|g_j|` below which a term is dropped when its bound is infinite.
const NEGLIGIBLE: f64 = 1e-10;

/// Whether `y` proves `lp` infeasible, recomputed from the LP alone: every
/// `x` with `Ax = b` has `g·x = β` for `g = Aᵀy` (formed column by column)
/// and `β = y·b`, so no `x` within the bounds exists when the range of
/// `g·x` over the box misses `β`. An unbounded term with a non-negligible
/// `g_j` stretches the range to infinity; the miss must exceed roundoff
/// on the terms' scale.
pub fn farkas_proves(lp: &StandardLp, y: &[f64]) -> bool {
    if y.len() != lp.nrows() {
        return false;
    }
    let beta: f64 = y.iter().zip(&lp.b).map(|(y, b)| y * b).sum();
    let (mut lo, mut hi, mut scale) = (0.0f64, 0.0f64, beta.abs());
    for j in 0..lp.ncols() {
        let g = lp.a.col_dot(j, y);
        let (to_lo, to_hi) =
            if g >= 0.0 { (lp.lower[j], lp.upper[j]) } else { (lp.upper[j], lp.lower[j]) };
        for (sum, bound) in [(&mut lo, to_lo), (&mut hi, to_hi)] {
            if bound.is_finite() {
                *sum += g * bound;
                scale += (g * bound).abs();
            } else if g.is_nan() || g.abs() > NEGLIGIBLE {
                *sum += g * bound; // ±∞, or NaN for a NaN g
            }
        }
    }
    let tol = 1e-9 * (1.0 + scale);
    lo > beta + tol || hi < beta - tol
}
