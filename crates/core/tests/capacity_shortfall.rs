//! One statement of DRRP feasibility: `capacity_shortfall` accepts an
//! instance exactly when the on-demand floor serves it.
//!
//! Each instance is swept across its own feasibility boundary: the tight
//! capacity `C* = max_t (Σ_{u ≤ t} D_u − ε) / (t+1)` — the least capacity
//! under which renting in every slot keeps the stock non-negative — is
//! scaled by `1+δ` for δ from −1e-6 to +1e-6, over horizons 1–48 with
//! zero-demand slots and positive initial stock. On every instance:
//!
//! * accepted ⇔ `on_demand_plan` returns a plan that `is_feasible` to 1e-6;
//! * rejected ⇔ `on_demand_plan` panics;
//! * a rejection names the first short prefix, and its two totals equal a
//!   direct sum over that prefix.

use std::panic::{catch_unwind, set_hook, take_hook};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_core::drrp::{capacity_shortfall, CapacityShortfall, NET_TOL};
use rrp_core::{on_demand_plan, CostSchedule, PlanningParams};
use rrp_spotmarket::CostRates;

const DELTAS: [f64; 7] = [-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6];

/// Demand with zero-demand slots, and an initial stock that is zero a
/// third of the time and otherwise up to two slots' worth.
fn instance(horizon: usize, seed: u64) -> (CostSchedule, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let demand: Vec<f64> = (0..horizon)
        .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.05..1.5) })
        .collect();
    let epsilon = if rng.gen_bool(0.33) { 0.0 } else { rng.gen_range(0.0..2.0) };
    let compute = (0..horizon).map(|_| rng.gen_range(0.02..0.2)).collect();
    (CostSchedule::ec2(compute, demand, &CostRates::ec2_2011()), epsilon)
}

/// The least capacity that keeps every prefix covered, or `None` when the
/// initial stock alone covers the whole horizon.
fn tight_capacity(demand: &[f64], epsilon: f64) -> Option<f64> {
    let mut through = 0.0;
    let mut tight = 0.0f64;
    for (t, d) in demand.iter().enumerate() {
        through += d;
        tight = tight.max((through - epsilon) / (t + 1) as f64);
    }
    (tight > 0.0).then_some(tight)
}

/// Check a rejection against a direct sum over each prefix.
fn check_first_short_prefix(s: &CostSchedule, params: &PlanningParams, short: &CapacityShortfall) {
    let cap = params.capacity.expect("only capacitated instances are rejected");
    for t in 0..=short.slot {
        let demand_through: f64 = s.demand[..=t].iter().sum();
        let supply_through = params.initial_inventory + (t + 1) as f64 * cap;
        let is_short = demand_through - supply_through > NET_TOL;
        assert_eq!(is_short, t == short.slot, "slot {t} vs {short}");
        if t == short.slot {
            assert_eq!(short.demand_through, demand_through, "{short}");
            assert_eq!(short.supply_through, supply_through, "{short}");
        }
    }
}

#[test]
fn shortfall_verdict_is_the_on_demand_floor_verdict() {
    // the floor's panics are the expected outcome on rejected instances:
    // keep those off stderr, and report every other panic as usual
    let report = take_hook();
    set_hook(Box::new(move |info| {
        let payload = info.payload().downcast_ref::<String>();
        if !payload.is_some_and(|msg| msg.starts_with("proven infeasible at slot")) {
            report(info);
        }
    }));
    let (mut accepted, mut rejected, mut near) = (0usize, 0usize, [0usize; 2]);
    for horizon in 1..=48 {
        for seed in 0..24 {
            let (s, epsilon) = instance(horizon, 1_000 * horizon as u64 + seed);
            let tight = tight_capacity(&s.demand, epsilon);
            for delta in DELTAS {
                // an instance the stock covers stays feasible at any capacity
                let cap = tight.map_or(0.05 * (1.0 + delta), |c| c * (1.0 + delta));
                let params = PlanningParams { initial_inventory: epsilon, capacity: Some(cap) };
                let verdict = capacity_shortfall(&s, &params);
                let floor = catch_unwind(|| on_demand_plan(&s, &params));
                match (verdict, floor) {
                    (None, Ok(plan)) => {
                        assert!(
                            plan.is_feasible(&s, &params, 1e-6),
                            "accepted instance got an infeasible floor plan (h={horizon}, \
                             seed={seed}, δ={delta})"
                        );
                        accepted += 1;
                        if delta == -1e-9 {
                            near[0] += 1;
                        }
                    }
                    (Some(short), Err(_)) => {
                        assert!(delta < 0.0, "tight capacity rejected at δ={delta}: {short}");
                        check_first_short_prefix(&s, &params, &short);
                        rejected += 1;
                        if delta == -1e-9 {
                            near[1] += 1;
                        }
                    }
                    (None, Err(_)) => {
                        panic!("floor panicked on an accepted instance (h={horizon}, δ={delta})")
                    }
                    (Some(short), Ok(_)) => panic!("floor served a rejected instance: {short}"),
                }
            }
        }
    }
    drop(take_hook());
    // the sweep straddles the boundary: δ = −1e-9 sits inside the tolerance
    // on short horizons and outside it on long ones
    assert!(accepted > 0 && rejected > 0, "accepted {accepted}, rejected {rejected}");
    assert!(near[0] > 0 && near[1] > 0, "δ = −1e-9: accepted {}, rejected {}", near[0], near[1]);
}

#[test]
fn uncapacitated_instances_are_never_short() {
    let (s, epsilon) = instance(12, 5);
    let params = PlanningParams { initial_inventory: epsilon, capacity: None };
    assert_eq!(capacity_shortfall(&s, &params), None);
}

#[test]
fn display_names_the_slot_and_both_totals() {
    let s = CostSchedule::ec2(vec![0.1; 3], vec![0.5, 2.0, 0.5], &CostRates::ec2_2011());
    let params = PlanningParams { initial_inventory: 0.25, capacity: Some(1.0) };
    let short = capacity_shortfall(&s, &params).expect("slot 1 needs 2.5 of at most 2.25");
    assert_eq!(short, CapacityShortfall { slot: 1, demand_through: 2.5, supply_through: 2.25 });
    let text = short.to_string();
    assert!(text.starts_with("proven infeasible at slot 1: "), "{text}");
    assert!(text.contains("2.5") && text.contains("2.25"), "{text}");
}

#[test]
#[should_panic(expected = "demand must be finite and >= 0")]
fn malformed_instances_panic_in_validation() {
    let s = CostSchedule::ec2(vec![0.1; 2], vec![0.5, -0.5], &CostRates::ec2_2011());
    capacity_shortfall(&s, &PlanningParams { initial_inventory: 0.0, capacity: Some(1.0) });
}
