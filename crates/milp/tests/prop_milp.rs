//! Property tests: on small random binary programs the B&B optimum must
//! match exhaustive enumeration exactly.

use proptest::prelude::*;
use rrp_lp::{Cmp, Model, Sense};
use rrp_milp::{MilpOptions, MilpProblem, MilpStatus};

#[derive(Debug, Clone)]
struct RandomBip {
    nvars: usize,
    costs: Vec<f64>,
    cons: Vec<(Vec<f64>, Cmp, f64)>,
    maximize: bool,
}

fn random_bip() -> impl Strategy<Value = RandomBip> {
    (2usize..7, 1usize..5, any::<u64>(), any::<bool>()).prop_map(
        |(nvars, ncons, seed, maximize)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let costs: Vec<f64> = (0..nvars).map(|_| rng.gen_range(-6.0..6.0f64)).collect();
            let mut cons = Vec::new();
            for _ in 0..ncons {
                let coeffs: Vec<f64> = (0..nvars).map(|_| rng.gen_range(-4.0..4.0f64)).collect();
                let cmp = if rng.gen_bool(0.5) { Cmp::Le } else { Cmp::Ge };
                let rhs = rng.gen_range(-4.0..6.0f64);
                cons.push((coeffs, cmp, rhs));
            }
            RandomBip { nvars, costs, cons, maximize }
        },
    )
}

fn brute_force(bip: &RandomBip) -> Option<f64> {
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << bip.nvars) {
        let x: Vec<f64> =
            (0..bip.nvars).map(|j| if mask & (1 << j) != 0 { 1.0 } else { 0.0 }).collect();
        let feasible = bip.cons.iter().all(|(coef, cmp, rhs)| {
            let lhs: f64 = coef.iter().zip(&x).map(|(c, v)| c * v).sum();
            match cmp {
                Cmp::Le => lhs <= rhs + 1e-9,
                Cmp::Ge => lhs >= rhs - 1e-9,
                Cmp::Eq => (lhs - rhs).abs() <= 1e-9,
            }
        });
        if feasible {
            let obj: f64 = bip.costs.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = Some(match best {
                None => obj,
                Some(b) => {
                    if bip.maximize {
                        b.max(obj)
                    } else {
                        b.min(obj)
                    }
                }
            });
        }
    }
    best
}

fn build(bip: &RandomBip) -> MilpProblem {
    let sense = if bip.maximize { Sense::Maximize } else { Sense::Minimize };
    let mut m = Model::new(sense);
    let vars: Vec<_> =
        (0..bip.nvars).map(|j| m.add_var(0.0, 1.0, bip.costs[j], &format!("x{j}"))).collect();
    for (coef, cmp, rhs) in &bip.cons {
        let terms: Vec<_> = vars.iter().zip(coef).map(|(&v, &c)| (v, c)).collect();
        m.add_con(&terms, *cmp, *rhs);
    }
    MilpProblem::new(m, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bb_matches_brute_force(bip in random_bip()) {
        let expected = brute_force(&bip);
        let got = build(&bip).solve(&MilpOptions::default());
        match (expected, got) {
            (Some(e), Ok(sol)) => {
                prop_assert!((sol.objective - e).abs() <= 1e-6 * (1.0 + e.abs()),
                    "B&B {} vs brute force {}", sol.objective, e);
                // reported solution must itself be feasible + binary
                for (coef, cmp, rhs) in &bip.cons {
                    let lhs: f64 = coef.iter().zip(&sol.values).map(|(c, v)| c * v).sum();
                    match cmp {
                        Cmp::Le => prop_assert!(lhs <= rhs + 1e-6),
                        Cmp::Ge => prop_assert!(lhs >= rhs - 1e-6),
                        Cmp::Eq => prop_assert!((lhs - rhs).abs() <= 1e-6),
                    }
                }
                for v in &sol.values {
                    prop_assert!((*v - v.round()).abs() <= 1e-9);
                }
            }
            (None, Err(MilpStatus::Infeasible)) => {}
            (e, g) => prop_assert!(false, "divergent: brute {e:?}, milp {g:?}"),
        }
    }

}
