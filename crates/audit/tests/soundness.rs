//! Soundness of the audit pass: on DRRP instances that are feasible by
//! construction, the audit must never prove infeasibility, and applying its
//! bound/big-M tightenings must not move the integer optimum. The audit is
//! also the oracle for `rrp_core::drrp::capacity_shortfall`, the engine's
//! pre-solve gate: both reach the same verdict away from the boundary.

use proptest::prelude::*;
use rrp_audit::{audit_milp_with, AuditOptions, UpperBoundHint};
use rrp_core::drrp::capacity_shortfall;
use rrp_core::{CostSchedule, DrrpProblem, PlanningParams};
use rrp_milp::{MilpOptions, MilpStatus};
use rrp_spotmarket::CostRates;

#[derive(Debug, Clone)]
struct Instance {
    demand: Vec<f64>,
    spot: Vec<f64>,
    capacity: Option<f64>,
}

fn instance() -> impl Strategy<Value = Instance> {
    (3usize..7, any::<u64>()).prop_map(|(horizon, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let demand: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.1..1.0)).collect();
        let spot: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.02..0.12)).collect();
        // always at least the peak demand, so the instance stays feasible
        let peak = demand.iter().fold(0.0f64, |m, &d| m.max(d));
        let capacity = rng.gen_bool(0.5).then(|| peak + rng.gen_range(0.0..1.0));
        Instance { demand, spot, capacity }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No feasible instance may be flagged, and tightening preserves the
    /// optimum.
    #[test]
    fn feasible_instances_are_never_rejected(inst in instance()) {
        let inst: Instance = inst;
        let schedule =
            CostSchedule::ec2(inst.spot.clone(), inst.demand.clone(), &CostRates::ec2_2011());
        let params = PlanningParams { capacity: inst.capacity, ..Default::default() };
        let problem = DrrpProblem::new(schedule, params);
        let (milp, _vars) = problem.to_milp();

        let hints: Vec<UpperBoundHint> = problem
            .implied_alpha_bounds()
            .into_iter()
            .map(|(col, upper)| UpperBoundHint {
                var: col,
                upper,
                why: "remaining demand / capacity".to_string(),
            })
            .collect();
        let opts = AuditOptions { hints, ..Default::default() };
        let report = audit_milp_with(&milp, &opts);

        prop_assert!(
            !report.proven_infeasible(),
            "audit rejected a feasible instance:\n{}", report
        );

        let base = milp.solve(&MilpOptions::default());
        let mut strengthened = milp.clone();
        report.apply(&mut strengthened);
        let tightened = strengthened.solve(&MilpOptions::default());
        match (base, tightened) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                "tightening moved the optimum: {} vs {}", a.objective, b.objective
            ),
            (a, b) => prop_assert!(
                false,
                "solve status diverged after tightening: {:?} vs {:?}",
                a.map(|s| s.objective), b.map(|s| s.objective)
            ),
        }
    }
}

/// The audit as a feasibility gate: bound propagation with the DRRP's
/// remaining-demand hints, no structure or numerics scan.
fn audit_rejects(problem: &DrrpProblem) -> bool {
    let (milp, _) = problem.to_milp();
    let hints = problem
        .implied_alpha_bounds()
        .into_iter()
        .map(|(var, upper)| UpperBoundHint {
            var,
            upper,
            why: "remaining demand / capacity".to_string(),
        })
        .collect();
    let opts = AuditOptions { hints, structure: false, numerics: false, ..Default::default() };
    audit_milp_with(&milp, &opts).proven_infeasible()
}

/// The prefix-sum gate and the audit agree on instances at least 1e-6
/// (relative) from the feasibility boundary, and on short horizons well
/// away from it both agree with the MILP's own status. Closer in they may
/// not: the MILP accepts shortfalls inside its feasibility tolerance.
#[test]
fn capacity_shortfall_matches_the_audit_verdict() {
    use rand::{Rng, SeedableRng};
    let (mut rejected, mut accepted, mut solved) = (0usize, 0usize, 0usize);
    for horizon in 1..=30 {
        for seed in 0..6u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(97 * horizon as u64 + seed);
            let demand: Vec<f64> = (0..horizon)
                .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.05..1.5) })
                .collect();
            let spot: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.02..0.12)).collect();
            let epsilon = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.0..1.5) };
            // the least capacity that covers every prefix
            let (mut through, mut tight) = (0.0, 0.0f64);
            for (t, d) in demand.iter().enumerate() {
                through += d;
                tight = tight.max((through - epsilon) / (t + 1) as f64);
            }
            if tight <= 0.0 {
                continue; // the initial stock covers everything
            }
            let schedule = CostSchedule::ec2(spot, demand, &CostRates::ec2_2011());
            for delta in [-0.3, -1e-3, -1e-6, 1e-6, 1e-3, 0.3] {
                let params = PlanningParams {
                    initial_inventory: epsilon,
                    capacity: Some(tight * (1.0 + delta)),
                };
                let gate = capacity_shortfall(&schedule, &params);
                let problem = DrrpProblem::new(schedule.clone(), params);
                assert_eq!(
                    gate.is_some(),
                    audit_rejects(&problem),
                    "h={horizon} seed={seed} δ={delta}: gate {gate:?}"
                );
                assert_eq!(gate.is_some(), delta < 0.0, "h={horizon} seed={seed} δ={delta}");
                if horizon <= 10 && delta.abs() >= 1e-3 {
                    let status = problem.solve_milp(&MilpOptions::default());
                    match (&gate, &status) {
                        (Some(_), Err(MilpStatus::Infeasible)) | (None, Ok(_)) => solved += 1,
                        _ => panic!(
                            "h={horizon} seed={seed} δ={delta}: gate {gate:?}, MILP {:?}",
                            status.map(|s| s.objective)
                        ),
                    }
                }
                if gate.is_some() {
                    rejected += 1;
                } else {
                    accepted += 1;
                }
            }
        }
    }
    assert!(rejected > 100 && accepted > 100, "rejected {rejected}, accepted {accepted}");
    assert!(solved > 100, "only {solved} MILP cross-checks ran");
}
