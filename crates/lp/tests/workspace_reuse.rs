//! Property test for the reusable dual-simplex [`Workspace`]: a sequence of
//! LPs of different shapes — lot-sizing relaxations and tree-covering LPs,
//! each solved cold and then re-solved warm after random branching-style
//! tightenings and after one tightening that makes it infeasible, with now
//! and then a hint that does not fit — runs back to back through one
//! workspace. Every solve must equal a fresh [`dual::solve_warm`] bit for
//! bit: status, iterations, path flags, `x`, the basis, the Farkas row of a
//! certified infeasible verdict, and the duals and reduced costs when they
//! are asked for. An infeasible solve leaves no basis.
//! Whatever one solve leaves in the workspace (pivot-row scratch, eta file,
//! LU buffers) must not reach the next.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_lp::dual::{self, Solved, Workspace};
use rrp_lp::{Basis, Cmp, Model, Sense, StandardLp, Status};
use rrp_trace::{SpanId, TraceHandle};

/// Lot-sizing relaxation (the DRRP skeleton): per period `t`, production
/// `x_t` = column 3t, its setup indicator `y_t` = 3t+1 and stock `s_t` =
/// 3t+2; flow balance and forcing rows. Returns the LP and the indicator
/// columns.
fn lot_sizing(rng: &mut StdRng) -> (StandardLp, Vec<usize>) {
    let horizon = rng.gen_range(2..10usize);
    let cap = rng.gen_range(1.5..6.0f64);
    let mut m = Model::new(Sense::Minimize);
    let mut cols = Vec::new();
    for t in 0..horizon {
        let x = m.add_var(0.0, cap, rng.gen_range(0.1..2.0), &format!("x{t}"));
        let y = m.add_var(0.0, 1.0, rng.gen_range(0.5..6.0), &format!("y{t}"));
        let s = m.add_var(0.0, f64::INFINITY, rng.gen_range(0.05..0.8), &format!("s{t}"));
        cols.push((x, y, s));
    }
    for (t, &(x, y, s)) in cols.iter().enumerate() {
        let mut terms = vec![(x, 1.0), (s, -1.0)];
        if t > 0 {
            terms.push((cols[t - 1].2, 1.0));
        }
        m.add_con(&terms, Cmp::Eq, rng.gen_range(0.0..cap));
        m.add_con(&[(x, 1.0), (y, -cap)], Cmp::Le, 0.0);
    }
    (m.to_standard(), cols.iter().map(|c| c.1).collect())
}

/// Facility-location covering LP over a complete binary tree (the SRRP
/// deterministic-equivalent shape): vertex `v` may serve any descendant
/// `w` (`y[v,w] ≤ chi[v]`), and each vertex is served once from its root
/// path. Returns the LP and the `chi` columns.
fn tree_covering(rng: &mut StdRng) -> (StandardLp, Vec<usize>) {
    let n = (1usize << rng.gen_range(2..5u32)) - 1;
    let mut m = Model::new(Sense::Minimize);
    let chi: Vec<_> =
        (0..n).map(|v| m.add_var(0.0, 1.0, rng.gen_range(0.5..3.0), &format!("chi{v}"))).collect();
    for w in 0..n {
        let mut path = vec![w];
        while let Some(&v) = path.last().filter(|&&v| v > 0) {
            path.push((v - 1) / 2);
        }
        let mut cover = Vec::new();
        for (hops, &v) in path.iter().enumerate() {
            let cost = rng.gen_range(0.0..0.4) * hops as f64;
            let y = m.add_var(0.0, 1.0, cost, &format!("y{v}_{w}"));
            m.add_con(&[(y, 1.0), (chi[v], -1.0)], Cmp::Le, 0.0);
            cover.push((y, 1.0));
        }
        m.add_con(&cover, Cmp::Eq, 1.0);
    }
    (m.to_standard(), chi)
}

/// Fix a random subset of the integer columns to 0 or 1, as branching does.
fn tighten(rng: &mut StdRng, lp: &StandardLp, integers: &[usize]) -> StandardLp {
    let mut child = lp.clone();
    for &j in integers {
        if rng.gen_bool(0.35) {
            let v = if rng.gen_bool(0.5) { 0.0 } else { 1.0 };
            child.lower[j] = v;
            child.upper[j] = v;
        }
    }
    child
}

/// Fix every integer column to 0: no setup is open, so no demand can be
/// met, and no vertex can serve the tree's cover rows.
fn infeasible(lp: &StandardLp, integers: &[usize]) -> StandardLp {
    let mut child = lp.clone();
    for &j in integers {
        child.lower[j] = 0.0;
        child.upper[j] = 0.0;
    }
    child
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Solve `lp` in the shared workspace and fresh, and require the two to
/// agree bit for bit. Returns the shared solve's basis, for later hints,
/// its iteration count, and whether it ended on a certified infeasible
/// verdict.
fn check(
    ws: &mut Workspace,
    lp: &StandardLp,
    hint: Option<&Basis>,
    want_duals: bool,
    what: &str,
) -> Result<(Option<Basis>, usize, bool), String> {
    let got: Solved = ws.solve(lp, hint, &TraceHandle::off(), SpanId::ROOT);
    let fresh = dual::solve_warm(lp, hint);
    let want = Solved {
        status: fresh.raw.status,
        iterations: fresh.raw.iterations,
        warm: fresh.warm,
        cold_dual_abandoned: fresh.cold_dual_abandoned,
    };
    prop_assert_eq!(got, want);
    prop_assert!(bits(ws.x()) == bits(&fresh.raw.x), "{what}: x differs from a fresh solve");
    let basis = ws.basis();
    prop_assert!(basis == fresh.basis, "{what}: basis differs from a fresh solve");
    if got.status == Status::Infeasible {
        prop_assert!(basis.is_none(), "{what}: an infeasible solve left a basis");
    }
    let farkas = ws.farkas().map(bits);
    prop_assert!(farkas == fresh.farkas.as_deref().map(bits), "{what}: Farkas row differs");
    if want_duals {
        let (y, d) = ws.duals(lp);
        prop_assert!(bits(&y) == bits(&fresh.raw.y), "{what}: duals differ from a fresh solve");
        prop_assert!(bits(&d) == bits(&fresh.raw.d), "{what}: reduced costs differ");
    }
    Ok((basis, got.iterations, farkas.is_some()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reused_workspace_equals_fresh_solves(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = Workspace::new();
        let mut previous: Option<Basis> = None;
        let (mut pivots, mut certified) = (0, 0);
        for k in 0..rng.gen_range(3..7usize) {
            let (lp, integers) =
                if rng.gen_bool(0.5) { lot_sizing(&mut rng) } else { tree_covering(&mut rng) };
            // now and then a hint from the previous, differently shaped LP
            let stale = previous.take().filter(|_| rng.gen_bool(0.25));
            let (root, iters, _) =
                check(&mut ws, &lp, stale.as_ref(), rng.gen_bool(0.5), &format!("lp {k}"))?;
            pivots += iters;
            for b in 0..rng.gen_range(1..4usize) {
                let child = tighten(&mut rng, &lp, &integers);
                let what = format!("lp {k}, child {b}");
                pivots += check(&mut ws, &child, root.as_ref(), rng.gen_bool(0.5), &what)?.1;
            }
            let dead = infeasible(&lp, &integers);
            let what = format!("lp {k}, infeasible child");
            let (_, iters, proved) =
                check(&mut ws, &dead, root.as_ref(), rng.gen_bool(0.5), &what)?;
            pivots += iters;
            certified += usize::from(proved);
            previous = root;
        }
        prop_assert!(pivots > 0, "the sequence must pivot");
        prop_assert!(certified > 0, "the sequence must end a solve on a certificate");
    }
}
