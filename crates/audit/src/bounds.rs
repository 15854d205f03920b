//! Interval bound propagation over constraint rows.
//!
//! For a row `Σ_j a_j·x_j cmp b` the *activity* interval
//! `[min_act, max_act]` follows from the variable bounds. A `≤` row with
//! `min_act > b` (resp. a `≥` row with `max_act < b`) is unsatisfiable —
//! proving the whole model infeasible without a single simplex pivot. Short
//! of that, the row implies per-variable bounds
//! (`a_j > 0 ⇒ x_j ≤ (b − min_act_{−j})/a_j` on a `≤` row, and the three
//! symmetric cases), which propagation applies to a fixed point. Every
//! tightening and the final infeasibility (when found) are recorded as a
//! human-readable proof trace.

use rrp_lp::{Cmp, Model, VarId};

use crate::TOL;

/// One variable-bound tightening derived from a row.
#[derive(Debug, Clone)]
pub struct BoundTightening {
    pub var: VarId,
    /// Variable name at the time of the audit.
    pub name: String,
    /// Bounds before the tightening.
    pub old: (f64, f64),
    /// Bounds after the tightening.
    pub new: (f64, f64),
    /// Row that implied the tightening.
    pub row: usize,
}

/// A static proof that the model has no feasible point.
#[derive(Debug, Clone)]
pub struct InfeasibilityProof {
    /// The row at which the contradiction surfaced.
    pub row: usize,
    /// The variable whose bounds crossed, if the proof is a crossing bound
    /// (`None` for an unsatisfiable row activity).
    pub var: Option<VarId>,
    /// One-line statement of the contradiction.
    pub reason: String,
    /// The propagation steps that led to the contradiction, oldest first.
    pub trace: Vec<String>,
}

impl std::fmt::Display for InfeasibilityProof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "proven infeasible at row {}: {}", self.row, self.reason)?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Result of running propagation: final bounds plus everything proven on
/// the way.
#[derive(Debug)]
pub struct Propagation {
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    pub tightenings: Vec<BoundTightening>,
    pub infeasibility: Option<InfeasibilityProof>,
    /// Human-readable log of every step, oldest first.
    pub trace: Vec<String>,
}

/// Activity support of a row under the current bounds: the finite part of
/// the sum plus how many terms contribute an infinity.
struct Support {
    finite: f64,
    inf_terms: usize,
}

fn min_support(terms: &[(VarId, f64)], lower: &[f64], upper: &[f64]) -> Support {
    let mut s = Support { finite: 0.0, inf_terms: 0 };
    for &(j, c) in terms {
        let b = if c > 0.0 { lower[j] } else { upper[j] };
        if b.is_finite() {
            s.finite += c * b;
        } else {
            s.inf_terms += 1;
        }
    }
    s
}

fn max_support(terms: &[(VarId, f64)], lower: &[f64], upper: &[f64]) -> Support {
    let mut s = Support { finite: 0.0, inf_terms: 0 };
    for &(j, c) in terms {
        let b = if c > 0.0 { upper[j] } else { lower[j] };
        if b.is_finite() {
            s.finite += c * b;
        } else {
            s.inf_terms += 1;
        }
    }
    s
}

/// Run interval propagation to a fixed point (at most `max_passes` sweeps).
///
/// The pass cap bounds worst-case work on pathological chains of tiny
/// improvements; every tightening it does emit is sound regardless of
/// where the sweep stopped.
pub fn propagate(model: &Model, max_passes: usize) -> Propagation {
    let n = model.num_vars();
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for j in 0..n {
        let (l, u) = model.var_bounds(j);
        lower.push(l);
        upper.push(u);
    }
    let mut tightenings = Vec::new();
    let mut trace = Vec::new();

    for pass in 0..max_passes {
        let mut changed = false;
        for i in 0..model.num_cons() {
            let (terms, cmp, rhs) = model.con(i);
            if terms.is_empty() {
                continue;
            }
            // Unsatisfiable-activity checks. `≥` is `≤` on the negated row;
            // `=` is both.
            if matches!(cmp, Cmp::Le | Cmp::Eq) {
                let s = min_support(terms, &lower, &upper);
                if s.inf_terms == 0 && s.finite > rhs + TOL {
                    trace.push(format!(
                        "row {i}: minimum activity {} exceeds rhs {rhs} ({cmp:?})",
                        s.finite
                    ));
                    return Propagation {
                        lower,
                        upper,
                        tightenings,
                        infeasibility: Some(InfeasibilityProof {
                            row: i,
                            var: None,
                            reason: format!(
                                "minimum activity {} > rhs {rhs} on a {cmp:?} row",
                                s.finite
                            ),
                            trace: trace.clone(),
                        }),
                        trace,
                    };
                }
            }
            if matches!(cmp, Cmp::Ge | Cmp::Eq) {
                let s = max_support(terms, &lower, &upper);
                if s.inf_terms == 0 && s.finite < rhs - TOL {
                    trace.push(format!(
                        "row {i}: maximum activity {} falls short of rhs {rhs} ({cmp:?})",
                        s.finite
                    ));
                    return Propagation {
                        lower,
                        upper,
                        tightenings,
                        infeasibility: Some(InfeasibilityProof {
                            row: i,
                            var: None,
                            reason: format!(
                                "maximum activity {} < rhs {rhs} on a {cmp:?} row",
                                s.finite
                            ),
                            trace: trace.clone(),
                        }),
                        trace,
                    };
                }
            }

            // Per-variable tightening from each applicable direction.
            if matches!(cmp, Cmp::Le | Cmp::Eq) {
                let s = min_support(terms, &lower, &upper);
                if let Some(proof) = tighten_from_le(
                    model,
                    i,
                    terms,
                    rhs,
                    &s,
                    &mut lower,
                    &mut upper,
                    &mut tightenings,
                    &mut trace,
                    &mut changed,
                ) {
                    return Propagation {
                        lower,
                        upper,
                        tightenings,
                        infeasibility: Some(proof),
                        trace,
                    };
                }
            }
            if matches!(cmp, Cmp::Ge | Cmp::Eq) {
                let s = max_support(terms, &lower, &upper);
                if let Some(proof) = tighten_from_ge(
                    model,
                    i,
                    terms,
                    rhs,
                    &s,
                    &mut lower,
                    &mut upper,
                    &mut tightenings,
                    &mut trace,
                    &mut changed,
                ) {
                    return Propagation {
                        lower,
                        upper,
                        tightenings,
                        infeasibility: Some(proof),
                        trace,
                    };
                }
            }
        }
        if !changed {
            break;
        }
        let _ = pass;
    }

    Propagation { lower, upper, tightenings, infeasibility: None, trace }
}

/// Apply one bound update, recording it and checking for a crossing.
#[allow(clippy::too_many_arguments)]
fn apply_update(
    model: &Model,
    row: usize,
    j: VarId,
    new_l: Option<f64>,
    new_u: Option<f64>,
    lower: &mut [f64],
    upper: &mut [f64],
    tightenings: &mut Vec<BoundTightening>,
    trace: &mut Vec<String>,
    changed: &mut bool,
) -> Option<InfeasibilityProof> {
    let old = (lower[j], upper[j]);
    let mut improved = false;
    if let Some(l) = new_l {
        if l > lower[j] + TOL {
            lower[j] = l;
            improved = true;
        }
    }
    if let Some(u) = new_u {
        if u < upper[j] - TOL {
            upper[j] = u;
            improved = true;
        }
    }
    if !improved {
        return None;
    }
    *changed = true;
    trace.push(format!(
        "row {row}: tightened '{}' from [{}, {}] to [{}, {}]",
        model.var_name(j),
        old.0,
        old.1,
        lower[j],
        upper[j]
    ));
    tightenings.push(BoundTightening {
        var: j,
        name: model.var_name(j).to_string(),
        old,
        new: (lower[j], upper[j]),
        row,
    });
    if lower[j] > upper[j] + TOL {
        return Some(InfeasibilityProof {
            row,
            var: Some(j),
            reason: format!(
                "bounds of '{}' cross after tightening: [{}, {}]",
                model.var_name(j),
                lower[j],
                upper[j]
            ),
            trace: trace.clone(),
        });
    }
    // a crossing within TOL is rounding noise: snap it shut
    if lower[j] > upper[j] {
        lower[j] = upper[j];
    }
    None
}

/// Tightenings implied by `Σ a·x ≤ rhs` given the row's minimum support.
#[allow(clippy::too_many_arguments)]
fn tighten_from_le(
    model: &Model,
    row: usize,
    terms: &[(VarId, f64)],
    rhs: f64,
    s: &Support,
    lower: &mut [f64],
    upper: &mut [f64],
    tightenings: &mut Vec<BoundTightening>,
    trace: &mut Vec<String>,
    changed: &mut bool,
) -> Option<InfeasibilityProof> {
    for &(j, c) in terms {
        let own = if c > 0.0 { lower[j] } else { upper[j] };
        // support of the other terms must be finite for a usable bound
        let support_rest = if own.is_finite() {
            if s.inf_terms > 0 {
                continue;
            }
            s.finite - c * own
        } else {
            if s.inf_terms != 1 {
                continue;
            }
            s.finite
        };
        let bound = (rhs - support_rest) / c;
        let (new_l, new_u) = if c > 0.0 { (None, Some(bound)) } else { (Some(bound), None) };
        if let Some(proof) =
            apply_update(model, row, j, new_l, new_u, lower, upper, tightenings, trace, changed)
        {
            return Some(proof);
        }
    }
    None
}

/// Tightenings implied by `Σ a·x ≥ rhs` given the row's maximum support.
#[allow(clippy::too_many_arguments)]
fn tighten_from_ge(
    model: &Model,
    row: usize,
    terms: &[(VarId, f64)],
    rhs: f64,
    s: &Support,
    lower: &mut [f64],
    upper: &mut [f64],
    tightenings: &mut Vec<BoundTightening>,
    trace: &mut Vec<String>,
    changed: &mut bool,
) -> Option<InfeasibilityProof> {
    for &(j, c) in terms {
        let own = if c > 0.0 { upper[j] } else { lower[j] };
        let support_rest = if own.is_finite() {
            if s.inf_terms > 0 {
                continue;
            }
            s.finite - c * own
        } else {
            if s.inf_terms != 1 {
                continue;
            }
            s.finite
        };
        let bound = (rhs - support_rest) / c;
        let (new_l, new_u) = if c > 0.0 { (Some(bound), None) } else { (None, Some(bound)) };
        if let Some(proof) =
            apply_update(model, row, j, new_l, new_u, lower, upper, tightenings, trace, changed)
        {
            return Some(proof);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_lp::Sense;

    #[test]
    fn crossing_singletons_prove_infeasibility_with_named_trace() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 10.0, 1.0, "x");
        m.add_con(&[(x, 1.0)], Cmp::Ge, 8.0);
        m.add_con(&[(x, 1.0)], Cmp::Le, 3.0);
        let p = propagate(&m, 8);
        let proof = p.infeasibility.expect("crossing bounds must be proven infeasible");
        assert!(!proof.trace.is_empty());
        // the trace names the tightening of 'x' (row 0) that row 1 contradicts
        let joined = proof.trace.join("\n");
        assert!(joined.contains("'x'"), "trace: {joined}");
        assert!(joined.contains("row 0"), "trace: {joined}");
        assert_eq!(proof.row, 1);
    }

    #[test]
    fn le_row_tightens_upper_bound() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, "x");
        let y = m.add_var(1.0, 5.0, 1.0, "y");
        m.add_con(&[(x, 2.0), (y, 1.0)], Cmp::Le, 9.0);
        let p = propagate(&m, 8);
        assert!(p.infeasibility.is_none());
        // x ≤ (9 − min(y))/2 = 4
        assert!((p.upper[x] - 4.0).abs() < 1e-12, "upper[x] = {}", p.upper[x]);
        // y ≤ 9 − 2·min(x) = 9, no improvement over 5
        assert!((p.upper[y] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ge_row_tightens_lower_bound() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 10.0, 1.0, "x");
        let y = m.add_var(0.0, 2.0, 1.0, "y");
        m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 6.0);
        let p = propagate(&m, 8);
        // x ≥ 6 − max(y) = 4
        assert!((p.lower[x] - 4.0).abs() < 1e-12, "lower[x] = {}", p.lower[x]);
    }

    #[test]
    fn unsatisfiable_activity_is_proven_without_tightening() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0, "x");
        let y = m.add_var(0.0, 1.0, 1.0, "y");
        m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        let p = propagate(&m, 8);
        let proof = p.infeasibility.expect("activity bound must prove infeasibility");
        assert_eq!(proof.row, 0);
        assert!(proof.reason.contains("maximum activity"), "{}", proof.reason);
    }

    #[test]
    fn equality_rows_propagate_both_directions() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, "x");
        let y = m.add_var(0.0, 3.0, 1.0, "y");
        m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
        let p = propagate(&m, 8);
        // x = 5 − y ∈ [2, 5]
        assert!((p.lower[x] - 2.0).abs() < 1e-12, "lower[x] = {}", p.lower[x]);
        assert!((p.upper[x] - 5.0).abs() < 1e-12, "upper[x] = {}", p.upper[x]);
    }

    #[test]
    fn infinite_partner_bound_still_yields_one_sided_tightening() {
        // x free above, y ∈ [0, 1]: from x + y ≤ 2, x ≤ 2; from the same
        // row y gains nothing (x's lower bound is 0).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, "x");
        let y = m.add_var(0.0, 1.0, 1.0, "y");
        m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Le, 2.0);
        let p = propagate(&m, 8);
        assert!((p.upper[x] - 2.0).abs() < 1e-12);
        assert!((p.upper[y] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn propagation_chains_across_rows() {
        // row 0 pins x ≤ 2; row 1 then forces y ≥ 3 − 2 = 1.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 100.0, 1.0, "x");
        let y = m.add_var(0.0, 100.0, 1.0, "y");
        m.add_con(&[(x, 1.0)], Cmp::Le, 2.0);
        m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        let p = propagate(&m, 8);
        assert!((p.upper[x] - 2.0).abs() < 1e-12);
        assert!((p.lower[y] - 1.0).abs() < 1e-12, "lower[y] = {}", p.lower[y]);
    }
}
