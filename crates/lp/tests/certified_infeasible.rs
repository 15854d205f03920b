//! Oracle for the dual simplex's infeasibility certificates. Random
//! capacitated lot-sizing LPs — the DRRP skeleton — are branched the way
//! branch & bound branches them, by fixing setup indicators, and many of
//! the resulting node LPs are infeasible; some are built a hair to either
//! side of the feasibility boundary. Every node is solved warm from the
//! root's optimal basis and hint-less. Each solve must reach the verdict
//! both primal simplex engines reach, and every `Infeasible` verdict the
//! dual path certified must re-verify under the independent Farkas check
//! in `common` and leave no basis behind.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_lp::dual::Workspace;
use rrp_lp::{dual, simplex, Basis, Cmp, Model, Sense, StandardLp, Status};
use rrp_trace::{SpanId, TraceHandle};

/// One capacitated lot-sizing instance: per period `t`, production `x_t`
/// (column 3t, at most `capacity`), its setup indicator `y_t` (3t+1) and
/// stock `s_t` (3t+2), with flow balance `s_{t-1} + x_t − s_t = d_t` and
/// forcing `x_t ≤ capacity · y_t`.
struct LotSizing {
    demand: Vec<f64>,
    capacity: f64,
    costs: Vec<[f64; 3]>,
}

impl LotSizing {
    fn random(rng: &mut StdRng) -> Self {
        let horizon = rng.gen_range(2..9usize);
        let capacity = rng.gen_range(1.0..5.0f64);
        let demand = (0..horizon).map(|_| rng.gen_range(0.0..capacity)).collect();
        let costs = (0..horizon)
            .map(|_| [rng.gen_range(0.1..2.0), rng.gen_range(0.5..6.0), rng.gen_range(0.05..0.8)])
            .collect();
        Self { demand, capacity, costs }
    }

    fn build(&self) -> StandardLp {
        let mut m = Model::new(Sense::Minimize);
        let mut cols = Vec::new();
        for (t, [unit, setup, hold]) in self.costs.iter().enumerate() {
            let x = m.add_var(0.0, self.capacity, *unit, &format!("x{t}"));
            let y = m.add_var(0.0, 1.0, *setup, &format!("y{t}"));
            let s = m.add_var(0.0, f64::INFINITY, *hold, &format!("s{t}"));
            cols.push((x, y, s));
        }
        for (t, &(x, y, s)) in cols.iter().enumerate() {
            let mut terms = vec![(x, 1.0), (s, -1.0)];
            if t > 0 {
                terms.push((cols[t - 1].2, 1.0));
            }
            m.add_con(&terms, Cmp::Eq, self.demand[t]);
            m.add_con(&[(x, 1.0), (y, -self.capacity)], Cmp::Le, 0.0);
        }
        m.to_standard()
    }
}

/// Branching-style fixings of the setup indicators: `(period, open?)`.
fn fixings(rng: &mut StdRng, horizon: usize) -> Vec<(usize, bool)> {
    let mut fixed = Vec::new();
    for t in 0..horizon {
        if rng.gen_bool(0.5) {
            fixed.push((t, rng.gen_bool(0.4)));
        }
    }
    fixed
}

/// Move one period's demand so that cumulative demand up to it exceeds
/// (δ > 0) or falls short of (δ < 0) the capacity still open up to it by
/// |δ|, with |δ| spread over 1e-9 … 1e-4: the node LP sits that close to
/// the feasibility boundary. `None` when no period can take the shift.
fn near_miss(rng: &mut StdRng, inst: &LotSizing, fixed: &[(usize, bool)]) -> Option<LotSizing> {
    let t = rng.gen_range(0..inst.demand.len());
    let open = (0..=t).filter(|k| !fixed.contains(&(*k, false))).count();
    let before: f64 = inst.demand[..t].iter().sum();
    let delta = 10f64.powf(rng.gen_range(-9.0..-4.0)) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let d_t = inst.capacity * open as f64 - before + delta;
    (0.0..=inst.capacity).contains(&d_t).then(|| {
        let mut demand = inst.demand.clone();
        demand[t] = d_t;
        LotSizing { demand, capacity: inst.capacity, costs: inst.costs.clone() }
    })
}

/// The node LP: `root` with the fixings applied to its indicator bounds.
fn node(root: &StandardLp, fixed: &[(usize, bool)]) -> StandardLp {
    let mut lp = root.clone();
    for &(t, open) in fixed {
        let v = if open { 1.0 } else { 0.0 };
        lp.lower[3 * t + 1] = v;
        lp.upper[3 * t + 1] = v;
    }
    lp
}

#[derive(Debug, Default)]
struct Tally {
    solves: usize,
    infeasible: usize,
    certified: usize,
    near_misses: usize,
}

/// Solve `lp` warm from `root_basis` in `ws` and hint-less, and hold both
/// verdicts to the primal engines'.
fn check(ws: &mut Workspace, lp: &StandardLp, root_basis: &Basis, tally: &mut Tally, what: &str) {
    let sparse = simplex::solve_sparse(lp).status;
    let dense = simplex::solve_dense(lp).status;
    assert_eq!(sparse, dense, "{what}: the primal engines disagree");

    let warm = ws.solve(lp, Some(root_basis), &TraceHandle::off(), SpanId::ROOT);
    let cold = dual::solve_warm(lp, None);
    let verdicts = [
        ("warm", warm.status, ws.farkas().map(<[f64]>::to_vec), ws.basis().is_some()),
        ("hint-less", cold.raw.status, cold.farkas, cold.basis.is_some()),
    ];
    for (path, status, farkas, has_basis) in verdicts {
        assert_eq!(status, sparse, "{what}, {path}: dual-first verdict vs the primals'");
        tally.solves += 1;
        tally.infeasible += usize::from(status == Status::Infeasible);
        if let Some(y) = farkas {
            let what = format!("{what}, {path}");
            assert_eq!(status, Status::Infeasible, "{what}: a certificate on a non-verdict");
            assert!(common::farkas_proves(lp, &y), "{what}: certificate does not re-verify");
            assert!(!has_basis, "{what}: an infeasible solve left a basis");
            tally.certified += 1;
        }
    }
}

#[test]
fn certified_verdicts_equal_both_primals_and_re_verify() {
    let mut tally = Tally::default();
    let mut ws = Workspace::new();
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = LotSizing::random(&mut rng);
        let horizon = inst.demand.len();
        for b in 0..4 {
            let fixed = fixings(&mut rng, horizon);
            let shifted = if b % 2 == 1 { near_miss(&mut rng, &inst, &fixed) } else { None };
            tally.near_misses += usize::from(shifted.is_some());
            let root = shifted.as_ref().unwrap_or(&inst).build();
            let Some(basis) = dual::solve_warm(&root, None).basis else {
                continue; // a near miss can make the root itself infeasible
            };
            let what = format!("seed {seed}, node {b}");
            check(&mut ws, &node(&root, &fixed), &basis, &mut tally, &what);
        }
    }
    eprintln!("{tally:?}");
    assert!(tally.near_misses >= 200, "too few near-boundary nodes: {tally:?}");
    assert!(tally.infeasible >= 400, "too few infeasible nodes: {tally:?}");
    assert!(
        tally.certified * 4 >= tally.infeasible * 3,
        "the dual path should certify most infeasible verdicts: {tally:?}"
    );
}
