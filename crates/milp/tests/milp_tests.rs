//! Known-answer tests for the branch & bound solver.

use rrp_lp::{Cmp, Model, Sense};
use rrp_milp::{Branching, MilpOptions, MilpProblem, MilpStatus};

fn opts() -> MilpOptions {
    MilpOptions::default()
}

#[test]
fn integer_knapsack() {
    // max 10a + 13b + 7c, 3a + 4b + 2c <= 9, binaries.
    // Best: a=1,b=1,c=1 → weight 9, value 30.
    let mut m = Model::new(Sense::Maximize);
    let a = m.add_var(0.0, 1.0, 10.0, "a");
    let b = m.add_var(0.0, 1.0, 13.0, "b");
    let c = m.add_var(0.0, 1.0, 7.0, "c");
    m.add_con(&[(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 9.0);
    let p = MilpProblem::new(m, vec![a, b, c]);
    let sol = p.solve(&opts()).unwrap();
    assert!((sol.objective - 30.0).abs() < 1e-6, "{}", sol.objective);
    assert!(sol.proven_optimal);
}

#[test]
fn knapsack_with_tight_capacity() {
    // max 6a + 5b + 4c, 5a + 4b + 3c <= 8, binaries → b+c = 9 beats a+c=10?
    // a+c: w=8 v=10; b+c: w=7 v=9; a alone 6. Optimum 10.
    let mut m = Model::new(Sense::Maximize);
    let a = m.add_var(0.0, 1.0, 6.0, "a");
    let b = m.add_var(0.0, 1.0, 5.0, "b");
    let c = m.add_var(0.0, 1.0, 4.0, "c");
    m.add_con(&[(a, 5.0), (b, 4.0), (c, 3.0)], Cmp::Le, 8.0);
    let sol = MilpProblem::new(m, vec![a, b, c]).solve(&opts()).unwrap();
    assert!((sol.objective - 10.0).abs() < 1e-6);
    assert_eq!(sol.values[a].round() as i64, 1);
    assert_eq!(sol.values[b].round() as i64, 0);
    assert_eq!(sol.values[c].round() as i64, 1);
}

#[test]
fn general_integer_variables() {
    // max 5x + 4y  s.t. 6x + 4y <= 24, x + 2y <= 6; x,y >= 0 integer → (4,0), 20.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(0.0, f64::INFINITY, 5.0, "x");
    let y = m.add_var(0.0, f64::INFINITY, 4.0, "y");
    m.add_con(&[(x, 6.0), (y, 4.0)], Cmp::Le, 24.0);
    m.add_con(&[(x, 1.0), (y, 2.0)], Cmp::Le, 6.0);
    let sol = MilpProblem::new(m, vec![x, y]).solve(&opts()).unwrap();
    assert!((sol.objective - 20.0).abs() < 1e-6);
}

#[test]
fn mixed_integer_continuous() {
    // min 2x + 3y, x integer, y continuous; x + y >= 3.7, x <= 2.
    // Try x=2 → y=1.7 → 4+5.1 = 9.1 ; x=1 → y=2.7 → 2+8.1=10.1. Optimum 9.1.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.0, 2.0, 2.0, "x");
    let y = m.add_var(0.0, f64::INFINITY, 3.0, "y");
    m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 3.7);
    let sol = MilpProblem::new(m, vec![x]).solve(&opts()).unwrap();
    assert!((sol.objective - 9.1).abs() < 1e-6, "{}", sol.objective);
    assert!((sol.values[x] - 2.0).abs() < 1e-9);
    assert!((sol.values[y] - 1.7).abs() < 1e-6);
}

#[test]
fn infeasible_integrality() {
    // 0.2 <= x <= 0.8, x integer → infeasible.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.2, 0.8, 1.0, "x");
    let err = MilpProblem::new(m, vec![x]).solve(&opts()).unwrap_err();
    assert_eq!(err, MilpStatus::Infeasible);
}

#[test]
fn infeasible_lp_relaxation() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.0, 1.0, 1.0, "x");
    m.add_con(&[(x, 1.0)], Cmp::Ge, 3.0);
    let err = MilpProblem::new(m, vec![x]).solve(&opts()).unwrap_err();
    assert_eq!(err, MilpStatus::Infeasible);
}

#[test]
fn unbounded_detected() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(0.0, f64::INFINITY, 1.0, "x");
    let err = MilpProblem::new(m, vec![x]).solve(&opts()).unwrap_err();
    assert_eq!(err, MilpStatus::Unbounded);
}

#[test]
fn pure_lp_passthrough() {
    // No integers: MILP solve equals LP solve.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.0, 10.0, 1.0, "x");
    m.add_con(&[(x, 1.0)], Cmp::Ge, 2.5);
    let sol = MilpProblem::new(m, vec![]).solve(&opts()).unwrap();
    assert!((sol.objective - 2.5).abs() < 1e-9);
}

#[test]
fn equality_constrained_ilp() {
    // x + y = 7, x - y = 1 has integral solution (4, 3); min x.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.0, 100.0, 1.0, "x");
    let y = m.add_var(0.0, 100.0, 0.0, "y");
    m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 7.0);
    m.add_con(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
    let sol = MilpProblem::new(m, vec![x, y]).solve(&opts()).unwrap();
    assert!((sol.values[x] - 4.0).abs() < 1e-9);
    assert!((sol.values[y] - 3.0).abs() < 1e-9);
}

#[test]
fn branching_rules_agree() {
    // Moderate knapsack; both rules must reach the same optimum.
    let weights = [7.0, 5.0, 4.0, 3.0, 1.0, 6.0, 2.0, 8.0];
    let values = [13.0, 9.0, 8.0, 5.0, 2.0, 11.0, 3.0, 14.0];
    let cap = 17.0;
    let build = || {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> =
            (0..8).map(|i| m.add_var(0.0, 1.0, values[i], &format!("x{i}"))).collect();
        let terms: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, weights[i])).collect();
        m.add_con(&terms, Cmp::Le, cap);
        MilpProblem::new(m, vars)
    };
    let s1 =
        build().solve(&MilpOptions { branching: Branching::MostFractional, ..opts() }).unwrap();
    let s2 = build().solve(&MilpOptions { branching: Branching::PseudoCost, ..opts() }).unwrap();
    assert!((s1.objective - s2.objective).abs() < 1e-6);
    // brute-force optimum
    let mut best = 0.0f64;
    for mask in 0u32..256 {
        let (mut w, mut v) = (0.0, 0.0);
        for i in 0..8 {
            if mask & (1 << i) != 0 {
                w += weights[i];
                v += values[i];
            }
        }
        if w <= cap {
            best = best.max(v);
        }
    }
    assert!((s1.objective - best).abs() < 1e-6, "milp {} vs brute {}", s1.objective, best);
}

#[test]
fn node_limit_respected() {
    // A knapsack with an awkward LP bound; node_limit 1 still yields the
    // heuristic/incumbent or errs with NodeLimit — never hangs.
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> =
        (0..12).map(|i| m.add_var(0.0, 1.0, (i + 1) as f64, &format!("x{i}"))).collect();
    let terms: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, (13 - i) as f64)).collect();
    m.add_con(&terms, Cmp::Le, 20.0);
    let p = MilpProblem::new(m, vars);
    let r = p.solve(&MilpOptions { node_limit: 1, ..opts() });
    match r {
        Ok(sol) => assert!(!sol.proven_optimal || sol.gap <= 1e-6),
        Err(e) => assert_eq!(e, MilpStatus::NodeLimit),
    }
}

#[test]
fn minimization_with_negative_objective() {
    // min -3x - 2y, x,y binary, x + y <= 1 → pick x → -3.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.0, 1.0, -3.0, "x");
    let y = m.add_var(0.0, 1.0, -2.0, "y");
    m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
    let sol = MilpProblem::new(m, vec![x, y]).solve(&opts()).unwrap();
    assert!((sol.objective + 3.0).abs() < 1e-6);
    assert_eq!(sol.values[x].round() as i64, 1);
}

#[test]
fn best_bound_brackets_objective() {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> =
        (0..6).map(|i| m.add_var(0.0, 1.0, (2 * i + 1) as f64, &format!("x{i}"))).collect();
    let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
    m.add_con(&terms, Cmp::Le, 7.0);
    let sol = MilpProblem::new(m, vars).solve(&opts()).unwrap();
    // For maximisation the bound is an upper bound.
    assert!(sol.best_bound >= sol.objective - 1e-6);
    assert!(sol.proven_optimal);
}

#[test]
fn tighten_bounds_absorbs_roundoff_crossings() {
    // Propagation can prove an upper bound a few ulps below an exact
    // lower (a variable that is really 0 proven `<= -1e-16`); the
    // tightening must collapse to the point interval, not invert the box.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.0, 5.0, 1.0, "x");
    let y = m.add_var(0.0, 5.0, 1.0, "y");
    m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
    let mut p = MilpProblem::new(m, vec![]);
    p.tighten_bounds(&[(x, 0.0, -1.1e-16), (y, 0.5, 4.0)]);
    let sol = p.solve(&opts()).unwrap();
    assert!(sol.values[x].abs() <= 1e-9, "x pinned to its point interval");
    assert!((sol.values[y] - 1.0).abs() <= 1e-6, "y carries the demand alone");
}

/// Fixed-charge lot-sizing: min Σ setup·y + unit·x + hold·s with demand
/// balance and x ≤ cap·y. All costs ≥ 0, so every hint-less node LP starts
/// (and normally ends) on the dual simplex from the slack basis.
fn lot_sizing(horizon: usize) -> MilpProblem {
    let cap = 6.0;
    let mut m = Model::new(Sense::Minimize);
    let mut integers = Vec::new();
    let mut prev_stock = None;
    for t in 0..horizon {
        let x = m.add_var(0.0, cap, 0.4, &format!("x{t}"));
        let y = m.add_var(0.0, 1.0, 3.0 + (t % 3) as f64, &format!("y{t}"));
        let s = m.add_var(0.0, f64::INFINITY, 0.2, &format!("s{t}"));
        let mut balance = vec![(x, 1.0), (s, -1.0)];
        balance.extend(prev_stock.map(|p| (p, 1.0)));
        m.add_con(&balance, Cmp::Eq, 1.0 + ((t * 5) % 4) as f64);
        m.add_con(&[(x, 1.0), (y, -cap)], Cmp::Le, 0.0);
        integers.push(y);
        prev_stock = Some(s);
    }
    MilpProblem::new(m, integers)
}

/// The dual-first cold start must not leak into the warm-start telemetry:
/// a solve is a warm hit only when it was entered with a hint, so
/// `warm_hits ≤ warm_attempts ≤ solves` whatever path finished the LP, and
/// a search with warm starts off reports none at all.
#[test]
fn lp_stats_count_dual_first_solves_as_cold() {
    let lots = lot_sizing(8);
    let warm = lots.solve(&opts()).unwrap().lp_stats;
    assert!(warm.warm_hits <= warm.warm_attempts, "{warm:?}");
    assert!(warm.warm_attempts < warm.solves, "the root LP has no hint: {warm:?}");
    assert!(warm.warm_hits > 0, "a branching search should warm-start its children: {warm:?}");

    let cold = lots.solve(&MilpOptions { warm_start: false, ..opts() }).unwrap().lp_stats;
    assert!(cold.solves > 1, "{cold:?}");
    assert_eq!((cold.warm_attempts, cold.warm_hits), (0, 0), "{cold:?}");
    assert!(cold.cold_dual_abandoned <= cold.solves, "{cold:?}");

    // a maximise model never starts on the dual: nothing to abandon
    let weights = [7.0, 5.0, 4.0, 3.0, 1.0, 6.0, 2.0, 8.0];
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> =
        (0..8).map(|i| m.add_var(0.0, 1.0, weights[i] + 0.5, &format!("x{i}"))).collect();
    let terms: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
    m.add_con(&terms, Cmp::Le, 17.0);
    let knap = MilpProblem::new(m, vars).solve(&MilpOptions { warm_start: false, ..opts() });
    let knap = knap.unwrap().lp_stats;
    assert_eq!((knap.warm_hits, knap.cold_dual_abandoned), (0, 0), "{knap:?}");
}
