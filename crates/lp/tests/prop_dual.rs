//! Property test for the warm-started dual simplex: on randomized
//! lot-sizing LPs, re-solving after branching-style bound tightenings from
//! the parent's optimal basis must agree with a cold primal solve — same
//! status, same objective — no matter how the warm attempt went.

use proptest::prelude::*;
use rrp_lp::dual;
use rrp_lp::simplex;
use rrp_lp::{Cmp, Model, Sense, StandardLp, Status};

/// A small single-level lot-sizing instance (the paper's DRRP skeleton):
/// production x_t with fixed-charge indicator y_t and carried stock s_t.
#[derive(Debug, Clone)]
struct LotLp {
    horizon: usize,
    demand: Vec<f64>,
    setup: Vec<f64>,
    unit: Vec<f64>,
    hold: Vec<f64>,
    capacity: f64,
    /// Branching-style tightenings applied to the child: (column, lower, upper).
    tightenings: Vec<(usize, f64, f64)>,
}

fn lot_lp() -> impl Strategy<Value = LotLp> {
    (2usize..7, any::<u64>()).prop_map(|(horizon, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let demand: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.2..3.0)).collect();
        let setup: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.5..6.0)).collect();
        let unit: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.1..2.0)).collect();
        let hold: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.05..0.8)).collect();
        let capacity = rng.gen_range(3.0..9.0);
        // Branch on a few indicator columns (y_t is column 3t+1, see build):
        // down fixes y_t = 0, up fixes y_t = 1 — exactly what B&B emits.
        let mut tightenings = Vec::new();
        for t in 0..horizon {
            if rng.gen_bool(0.4) {
                let col = 3 * t + 1;
                if rng.gen_bool(0.5) {
                    tightenings.push((col, f64::NEG_INFINITY, 0.0));
                } else {
                    tightenings.push((col, 1.0, f64::INFINITY));
                }
            }
        }
        LotLp { horizon, demand, setup, unit, hold, capacity, tightenings }
    })
}

/// Columns per period t: x_t = 3t, y_t = 3t+1, s_t = 3t+2.
fn build(lp: &LotLp) -> StandardLp {
    let mut m = Model::new(Sense::Minimize);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut ss = Vec::new();
    for t in 0..lp.horizon {
        xs.push(m.add_var(0.0, lp.capacity, lp.unit[t], &format!("x{t}")));
        ys.push(m.add_var(0.0, 1.0, lp.setup[t], &format!("y{t}")));
        ss.push(m.add_var(0.0, f64::INFINITY, lp.hold[t], &format!("s{t}")));
    }
    for t in 0..lp.horizon {
        // flow balance: s_{t-1} + x_t - s_t = d_t
        let mut terms = vec![(xs[t], 1.0), (ss[t], -1.0)];
        if t > 0 {
            terms.push((ss[t - 1], 1.0));
        }
        m.add_con(&terms, Cmp::Eq, lp.demand[t]);
        // forcing: x_t <= capacity * y_t
        m.add_con(&[(xs[t], 1.0), (ys[t], -lp.capacity)], Cmp::Le, 0.0);
    }
    m.to_standard()
}

fn tighten(std: &StandardLp, tightenings: &[(usize, f64, f64)]) -> StandardLp {
    let mut child = std.clone();
    for &(j, l, u) in tightenings {
        child.lower[j] = child.lower[j].max(l);
        child.upper[j] = child.upper[j].min(u);
    }
    child
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Warm dual re-solve of a bound-tightened child == cold primal solve.
    #[test]
    fn warm_resolve_matches_cold(lp in lot_lp()) {
        let std = build(&lp);
        let (parent, basis) = simplex::solve_sparse_snapshot(
            &std, &rrp_trace::TraceHandle::off(), rrp_trace::SpanId::ROOT);
        prop_assert_eq!(parent.status, Status::Optimal);
        let basis = basis.expect("optimal parent produces a basis");

        let child = tighten(&std, &lp.tightenings);
        let cold = simplex::solve_sparse(&child);
        let warm = dual::solve_warm(&child, Some(&basis));

        prop_assert!(warm.raw.status == cold.status,
            "status diverged: warm {:?} cold {:?} (warm path = {})",
            warm.raw.status, cold.status, warm.warm);
        if cold.status == Status::Optimal {
            let zc: f64 = cold.x.iter().zip(&child.c).map(|(x, c)| x * c).sum();
            let zw: f64 = warm.raw.x.iter().zip(&child.c).map(|(x, c)| x * c).sum();
            prop_assert!((zc - zw).abs() <= 1e-6 * (1.0 + zc.abs()),
                "objective diverged: cold {zc} warm {zw} (warm path = {})", warm.warm);
            // the warm result must itself be primal feasible
            for j in 0..child.ncols() {
                prop_assert!(warm.raw.x[j] >= child.lower[j] - 1e-6);
                prop_assert!(warm.raw.x[j] <= child.upper[j] + 1e-6);
            }
            prop_assert!(warm.basis.is_some(), "optimal warm solve must snapshot a basis");
        }
    }

    /// The unchanged problem re-solved from its own optimal basis is a
    /// zero-or-few-pivot warm hit with the identical objective.
    #[test]
    fn same_problem_warm_hit_is_cheap(lp in lot_lp()) {
        let std = build(&lp);
        let (parent, basis) = simplex::solve_sparse_snapshot(
            &std, &rrp_trace::TraceHandle::off(), rrp_trace::SpanId::ROOT);
        prop_assert_eq!(parent.status, Status::Optimal);
        let basis = basis.expect("optimal parent produces a basis");

        let warm = dual::solve_warm(&std, Some(&basis));
        prop_assert!(warm.warm, "identical problem must take the warm path");
        prop_assert_eq!(warm.raw.status, Status::Optimal);
        prop_assert!(warm.raw.iterations <= 2,
            "re-solve of an unchanged LP took {} pivots", warm.raw.iterations);
        let zp: f64 = parent.x.iter().zip(&std.c).map(|(x, c)| x * c).sum();
        let zw: f64 = warm.raw.x.iter().zip(&std.c).map(|(x, c)| x * c).sum();
        prop_assert!((zp - zw).abs() <= 1e-7 * (1.0 + zp.abs()));
    }
}

/// What a random bounded LP is built to exercise on the hint-less path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavour {
    /// Minimise, costs ≥ 0, every column resting at a finite lower bound:
    /// the slack basis is dual feasible and the dual simplex finishes.
    DualStart,
    /// Some costs negative: the slack basis is dual infeasible → primal.
    NegativeCosts,
    /// A maximise model with positive profits → primal.
    Maximise,
    /// Dual-feasible start, contradictory rows: the dual path finds no
    /// entering column and the primal confirms the verdict.
    Infeasible,
    /// A cost-improving ray: only the primal can say so.
    Unbounded,
    /// 0/±1 coefficients, zero right-hand sides, duplicated rows.
    Degenerate,
    /// `DualStart` with rows scaled over six orders of magnitude.
    BadlyScaled,
}

const FLAVOURS: [Flavour; 7] = [
    Flavour::DualStart,
    Flavour::NegativeCosts,
    Flavour::Maximise,
    Flavour::Infeasible,
    Flavour::Unbounded,
    Flavour::Degenerate,
    Flavour::BadlyScaled,
];

/// A random LP of the given flavour. Feasible flavours are built around a
/// random interior point, so feasibility never hangs on a tolerance.
fn random_lp(flavour: Flavour, seed: u64) -> StandardLp {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..9usize);
    let m = rng.gen_range(1..8usize);
    let sense = if flavour == Flavour::Maximise { Sense::Maximize } else { Sense::Minimize };
    let degenerate = flavour == Flavour::Degenerate;
    let mut model = Model::new(sense);
    let mut point = Vec::with_capacity(n);
    for j in 0..n {
        let lower = if degenerate { 0.0 } else { rng.gen_range(-2.0..1.0f64) };
        let upper = lower + rng.gen_range(0.5..4.0f64);
        let cost = match flavour {
            Flavour::NegativeCosts => rng.gen_range(-3.0..3.0f64),
            Flavour::Degenerate => f64::from(rng.gen_range(0..3u32)),
            _ => rng.gen_range(0.0..3.0f64),
        };
        model.add_var(lower, upper, cost, &format!("x{j}"));
        point.push(if degenerate { lower } else { rng.gen_range(lower..upper) });
    }
    let mut rows: Vec<(Vec<(usize, f64)>, Cmp, f64)> = Vec::new();
    for _ in 0..m {
        let mut terms = Vec::new();
        for j in 0..n {
            if rng.gen_bool(0.5) {
                let coeff = if degenerate {
                    f64::from(rng.gen_range(0..2i32) * 2 - 1)
                } else {
                    rng.gen_range(-2.0..2.0f64)
                };
                terms.push((j, coeff));
            }
        }
        if terms.is_empty() {
            terms.push((rng.gen_range(0..n), 1.0));
        }
        let at_point: f64 = terms.iter().map(|&(j, c)| c * point[j]).sum();
        let scale =
            if flavour == Flavour::BadlyScaled { 10f64.powi(rng.gen_range(-3..4i32)) } else { 1.0 };
        for t in &mut terms {
            t.1 *= scale;
        }
        let slack = if degenerate { 0.0 } else { rng.gen_range(0.1..1.0f64) };
        let row = match rng.gen_range(0..3u32) {
            0 => (terms, Cmp::Le, (at_point + slack) * scale),
            1 => (terms, Cmp::Ge, (at_point - slack) * scale),
            _ => (terms, Cmp::Eq, at_point * scale),
        };
        if degenerate && rng.gen_bool(0.3) {
            rows.push(row.clone());
        }
        rows.push(row);
    }
    for (terms, cmp, rhs) in &rows {
        model.add_con(terms, *cmp, *rhs);
    }
    match flavour {
        Flavour::Infeasible => {
            // Σ x ≥ Σ upper + 1 cannot hold inside the boxes
            let terms: Vec<_> = (0..n).map(|j| (j, 1.0)).collect();
            let cap: f64 = (0..n).map(|j| model.var_bounds(j).1).sum();
            model.add_con(&terms, Cmp::Ge, cap + 1.0);
        }
        Flavour::Unbounded => {
            // a column no row mentions, free to fall with a positive cost
            model.add_var(f64::NEG_INFINITY, 0.0, 1.0, "ray");
        }
        _ => {}
    }
    model.to_standard()
}

fn objective(lp: &StandardLp, x: &[f64]) -> f64 {
    x.iter().zip(&lp.c).map(|(x, c)| x * c).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hint-less `solve_warm` — dual-first from the slack basis when that
    /// basis is dual feasible, two-phase primal otherwise — agrees with the
    /// sparse and the dense primal on status and objective, never reports
    /// itself warm, and never takes an infeasibility verdict from the dual.
    #[test]
    fn hintless_solve_matches_both_primals((pick, seed) in (0usize..7, any::<u64>())) {
        let flavour = FLAVOURS[pick];
        let lp = random_lp(flavour, seed);
        let cold = dual::solve_warm(&lp, None);
        let sparse = simplex::solve_sparse(&lp);
        let dense = simplex::solve_dense(&lp);

        prop_assert!(!cold.warm, "a hint-less solve is never a warm hit");
        prop_assert!(cold.raw.status == sparse.status && sparse.status == dense.status,
            "{flavour:?}: status diverged: cold {:?} sparse {:?} dense {:?}",
            cold.raw.status, sparse.status, dense.status);
        match flavour {
            Flavour::Infeasible => {
                prop_assert_eq!(cold.raw.status, Status::Infeasible);
                prop_assert!(cold.cold_dual_abandoned,
                    "the verdict must come from the primal after the dual gave up");
            }
            Flavour::Unbounded => {
                prop_assert_eq!(cold.raw.status, Status::Unbounded);
                prop_assert!(!cold.cold_dual_abandoned, "dual-infeasible start: primal only");
            }
            Flavour::Maximise => prop_assert!(!cold.cold_dual_abandoned),
            _ => prop_assert_eq!(cold.raw.status, Status::Optimal),
        }
        if cold.raw.status == Status::Optimal {
            let (zc, zs, zd) = (
                objective(&lp, &cold.raw.x), objective(&lp, &sparse.x), objective(&lp, &dense.x));
            prop_assert!((zc - zs).abs() <= 1e-6 * (1.0 + zs.abs()),
                "{flavour:?}: cold {zc} vs sparse primal {zs}");
            prop_assert!((zc - zd).abs() <= 1e-6 * (1.0 + zd.abs()),
                "{flavour:?}: cold {zc} vs dense primal {zd}");
            for j in 0..lp.ncols() {
                prop_assert!(cold.raw.x[j] >= lp.lower[j] - 1e-6);
                prop_assert!(cold.raw.x[j] <= lp.upper[j] + 1e-6);
            }
            let ax = lp.a.mul_dense(&cold.raw.x);
            for (i, (ax_i, b_i)) in ax.iter().zip(&lp.b).enumerate() {
                prop_assert!((ax_i - b_i).abs() <= 1e-6 * (1.0 + b_i.abs()),
                    "{flavour:?}: row {i} residual {}", ax_i - b_i);
            }
            prop_assert!(cold.basis.is_some(), "optimal solve must snapshot a basis");
        }
    }
}
