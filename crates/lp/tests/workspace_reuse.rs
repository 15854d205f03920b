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
//!
//! A second property drives the workspace's memo of its last start: the
//! same hint twice with a basic column's bounds tightened, with a nonbasic
//! column's resting bound moved, and with one `b` entry changed (the memo's
//! factors are loaded and `x_B` is recomputed from them), and on an LP of
//! the same shape with one `A` or one `c` value changed (the memo must not
//! be used). Each solve must still equal a fresh solve bit for bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_lp::dual::{self, Solved, Workspace};
use rrp_lp::{Basis, Cmp, Model, Sense, StandardLp, Status, VarStatus};
use rrp_trace::{SpanId, TraceHandle};

/// Lot-sizing relaxation (the DRRP skeleton): per period `t`, production
/// `x_t` = column 3t, its setup indicator `y_t` = 3t+1 and stock `s_t` =
/// 3t+2; flow balance and forcing rows. Returns the LP and the indicator
/// columns.
fn lot_sizing(rng: &mut StdRng) -> (StandardLp, Vec<usize>) {
    let (m, indicators) = lot_sizing_model(rng);
    (m.to_standard(), indicators)
}

/// [`lot_sizing`]'s model, before conversion to standard form.
fn lot_sizing_model(rng: &mut StdRng) -> (Model, Vec<usize>) {
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
    (m, cols.iter().map(|c| c.1).collect())
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
/// how it ended, and whether it ended on a certified infeasible verdict.
fn check(
    ws: &mut Workspace,
    lp: &StandardLp,
    hint: Option<&Basis>,
    want_duals: bool,
    what: &str,
) -> Result<(Option<Basis>, Solved, bool), String> {
    let got: Solved = ws.solve(lp, hint, &TraceHandle::off(), SpanId::ROOT);
    let fresh = dual::solve_warm(lp, hint);
    let want = Solved {
        status: fresh.raw.status,
        iterations: fresh.raw.iterations,
        warm: fresh.warm,
        cold_dual_abandoned: fresh.cold_dual_abandoned,
        start_reused: got.start_reused, // a fresh workspace has no memo
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
    Ok((basis, got, farkas.is_some()))
}

/// Start from `hint` on `primed`, then solve `lp` from `hint` in the same
/// workspace — keyed against the primed start's memo — and require a fresh
/// solve's result bit for bit. Returns whether the memo was used.
fn after(
    ws: &mut Workspace,
    primed: &StandardLp,
    lp: &StandardLp,
    hint: &Basis,
    what: &str,
) -> Result<bool, String> {
    ws.solve(primed, Some(hint), &TraceHandle::off(), SpanId::ROOT);
    Ok(check(ws, lp, Some(hint), true, what)?.1.start_reused)
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
            let (root, solved, _) =
                check(&mut ws, &lp, stale.as_ref(), rng.gen_bool(0.5), &format!("lp {k}"))?;
            pivots += solved.iterations;
            for b in 0..rng.gen_range(1..4usize) {
                let child = tighten(&mut rng, &lp, &integers);
                let what = format!("lp {k}, child {b}");
                let (_, solved, _) =
                    check(&mut ws, &child, root.as_ref(), rng.gen_bool(0.5), &what)?;
                pivots += solved.iterations;
            }
            let dead = infeasible(&lp, &integers);
            let what = format!("lp {k}, infeasible child");
            let (_, solved, proved) =
                check(&mut ws, &dead, root.as_ref(), rng.gen_bool(0.5), &what)?;
            pivots += solved.iterations;
            certified += usize::from(proved);
            previous = root;
        }
        prop_assert!(pivots > 0, "the sequence must pivot");
        prop_assert!(certified > 0, "the sequence must end a solve on a certificate");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn start_memo_is_bit_exact(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, _) = lot_sizing_model(&mut rng);
        let lp = model.to_standard();
        let root = dual::solve_warm(&lp, None).basis.expect("lot-sizing relaxations are feasible");
        let mut ws = Workspace::new();
        prop_assert!(after(&mut ws, &lp, &lp, &root, "same hint, same LP")?);
        let x = dual::solve_warm(&lp, Some(&root)).raw.x;
        let Some(j) = root.columns.iter().copied().find(|&j| j < lp.nstruct) else {
            return Ok(()); // every slot's demand came out 0
        };

        // a basic column's bounds move: the factors are reused and the
        // column is primal infeasible
        let mut child = lp.clone();
        child.upper[j] = child.lower[j].max(x[j] - 0.5);
        prop_assert!(after(&mut ws, &lp, &child, &root, "basic column tightened")?);
        // a nonbasic column's resting bound moves: the factors are reused,
        // x_B moves
        let resting = |j: &usize| {
            *j < lp.nstruct && root.status[*j] == VarStatus::AtLower && lp.upper[*j] > lp.lower[*j]
        };
        if let Some(k) = (0..lp.ncols()).find(resting) {
            let mut child = lp.clone();
            child.lower[k] = 0.5 * (lp.lower[k] + lp.upper[k].min(lp.lower[k] + 2.0));
            prop_assert!(after(&mut ws, &lp, &child, &root, "nonbasic column tightened")?);
        }
        // one b entry changes: the factors are reused, x_B is recomputed
        let mut child = lp.clone();
        let i = rng.gen_range(0..lp.nrows());
        child.b[i] += 0.25;
        prop_assert!(after(&mut ws, &lp, &child, &root, "one b entry changed")?);

        // same shape, one A value of a basic column changed: no reuse
        let row = (0..model.num_cons())
            .find(|&i| model.con(i).0.iter().any(|&(v, _)| v == j))
            .expect("every column appears in a row");
        let coeff = model.con(row).0.iter().find(|&&(v, _)| v == j).map(|t| t.1).unwrap();
        let mut changed = model.clone();
        changed.set_con_coeff(row, j, coeff * 1.25);
        let changed = changed.to_standard();
        prop_assert!(!after(&mut ws, &lp, &changed, &root, "one A value changed")?);
        // one c value of a basic column changed: no reuse
        let mut child = lp.clone();
        child.c[j] += 0.5;
        prop_assert!(!after(&mut ws, &lp, &child, &root, "one c value changed")?);
    }
}
