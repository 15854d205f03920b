//! Primal heuristics: cheap attempts to produce integral incumbents from an
//! LP-relaxation solution.

use rrp_lp::dual::{Solved, Workspace};
use rrp_lp::model::StandardLp;
use rrp_lp::simplex::Basis;
use rrp_trace::{SpanId, TraceHandle};

/// Rounding direction for [`round_and_fix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundMode {
    /// Round each integer to the nearest integral value.
    Nearest,
    /// Round any strictly positive fraction up. For fixed-charge models
    /// (lot-sizing forcing constraints) the relaxation sets indicators to
    /// tiny fractions; rounding them *up* keeps the point feasible where
    /// nearest-rounding would zero the indicator and cut off its flow.
    CeilPositive,
}

/// Fix every integer column to the rounded relaxation value (clamped into
/// its node bounds) and re-solve the LP for the continuous columns in `ws`.
///
/// `lp` already carries the node's bounds; `node_bounds` lists the node's
/// `(column, lower, upper)` for each integer column — the fix clamps into
/// these and they are restored before returning, so the caller's scratch LP
/// is left untouched. `fixes` is the caller's scratch for the rounded
/// values. `hint` warm-starts the fix-and-resolve from the node's optimal
/// basis (fixing bounds keeps it dual feasible).
/// Returns `None` without solving when no integral point lies inside the
/// bounds; otherwise the re-solve's outcome, its point left in `ws`.
pub(crate) fn round_and_fix(
    ws: &mut Workspace,
    lp: &mut StandardLp,
    node_bounds: &[(usize, f64, f64)],
    fixes: &mut Vec<(usize, f64)>,
    relax_x: &[f64],
    mode: RoundMode,
    hint: Option<&Basis>,
) -> Option<Solved> {
    // Work out every fix before touching `lp`, so failure leaves it intact.
    fixes.clear();
    for &(j, lower, upper) in node_bounds {
        let rounded = match mode {
            RoundMode::Nearest => relax_x[j].round(),
            RoundMode::CeilPositive => {
                if relax_x[j] > 1e-9 {
                    relax_x[j].ceil()
                } else {
                    0.0
                }
            }
        };
        let r = rounded.clamp(lower, upper);
        // clamp may land on a non-integral bound; snap inward if so
        let r = if (r - r.round()).abs() > 1e-9 {
            if rounded < lower {
                lower.ceil()
            } else {
                upper.floor()
            }
        } else {
            r
        };
        if r < lower - 1e-9 || r > upper + 1e-9 {
            return None; // no integral point inside the bounds
        }
        fixes.push((j, r));
    }
    for &(j, r) in fixes.iter() {
        lp.lower[j] = r;
        lp.upper[j] = r;
    }
    let solved = ws.solve(lp, hint, &TraceHandle::off(), SpanId::ROOT);
    for &(j, lower, upper) in node_bounds {
        lp.lower[j] = lower;
        lp.upper[j] = upper;
    }
    Some(solved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_lp::{Cmp, Model, Sense, Status};

    /// The rounded point and its objective, as the search reads them.
    fn round(
        lp: &mut StandardLp,
        node: &[(usize, f64, f64)],
        relax_x: &[f64],
        mode: RoundMode,
    ) -> Option<(Vec<f64>, f64)> {
        let mut ws = Workspace::new();
        let solved = round_and_fix(&mut ws, lp, node, &mut Vec::new(), relax_x, mode, None)?;
        (solved.status == Status::Optimal).then(|| {
            let obj = ws.x().iter().zip(&lp.c).map(|(x, c)| x * c).sum();
            (ws.x().to_vec(), obj)
        })
    }

    #[test]
    fn rounding_recovers_integral_point() {
        // min x + y s.t. x + y >= 2.5, 0 <= x,y <= 3, both integer.
        // Relaxation: x + y = 2.5. Rounding x=1.25→1, y=1.25→1 is infeasible;
        // but rounding from e.g. (2.5, 0) → (2, 0) then re-solve bumps y.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 3.0, 1.0, "x");
        let y = m.add_var(0.0, 3.0, 1.0, "y");
        m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 2.5);
        let std = m.to_standard();
        let relax = rrp_lp::simplex::solve_sparse(&std);
        assert_eq!(relax.status, Status::Optimal);
        // Fix only x (treat y as continuous) so the repair step has slack.
        let mut scratch = std.clone();
        let node = [(0, std.lower[0], std.upper[0])];
        let got = round(&mut scratch, &node, &relax.x, RoundMode::Nearest);
        assert_eq!(scratch.lower, std.lower, "scratch bounds restored");
        assert_eq!(scratch.upper, std.upper, "scratch bounds restored");
        if let Some((xs, obj)) = got {
            assert!((xs[0] - xs[0].round()).abs() < 1e-9);
            assert!(xs[0] + xs[1] >= 2.5 - 1e-7);
            assert!(obj >= 2.5 - 1e-7);
        }
    }

    #[test]
    fn rounding_fails_gracefully_when_fixing_infeasible() {
        // x integer in [0.2, 0.8]: no integral point.
        let mut m = Model::new(Sense::Minimize);
        let _x = m.add_var(0.2, 0.8, 1.0, "x");
        let std = m.to_standard();
        let relax = rrp_lp::simplex::solve_sparse(&std);
        let mut scratch = std.clone();
        let node = [(0, std.lower[0], std.upper[0])];
        let got = round(&mut scratch, &node, &relax.x, RoundMode::Nearest);
        assert!(got.is_none());
        let got_up = round(&mut scratch, &node, &relax.x, RoundMode::CeilPositive);
        assert!(got_up.is_none());
    }
}
