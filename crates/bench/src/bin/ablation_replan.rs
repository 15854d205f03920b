//! Ablation — plan-commitment protocol. The paper's §V evaluation commits
//! each plan over its horizon (24 h DRRP / 6 h SRRP, SRRP adapting along
//! its scenario tree); §V-D notes practice often replans in a rolling
//! fashion. This experiment quantifies the difference: replanning every
//! slot turns DRRP into certainty-equivalent MPC and narrows the DRRP/SRRP
//! gap — evidence that the paper's reported SRRP advantage is a statement
//! about *committed* plans under uncertainty.
//!
//! ```sh
//! cargo run --release -p rrp-bench --bin ablation_replan
//! ```

use rrp_bench::{header, EvalDay, DEMAND_SEED};
use rrp_core::policy::Policy;
use rrp_core::rolling::{simulate, MarketEnv, ReplanMode, RollingConfig};
use rrp_milp::MilpOptions;
use rrp_spotmarket::{CostRates, VmClass};

fn run(class: VmClass, policy: Policy, replan: ReplanMode, days: usize) -> f64 {
    (0..days)
        .map(|day| {
            let d = EvalDay::new(class, day, 0.4, DEMAND_SEED + day as u64);
            let env = MarketEnv {
                realized: &d.realized,
                history: &d.history,
                predictions: None,
                on_demand: class.on_demand_price(),
                demand: &d.demand,
                rates: CostRates::ec2_2011(),
            };
            let cfg = RollingConfig {
                horizon: if policy.is_stochastic() { 6 } else { 24 },
                replan,
                milp: MilpOptions { node_limit: 50_000, ..Default::default() },
                ..Default::default()
            };
            simulate(policy, &env, &cfg).cost.total()
        })
        .sum()
}

fn main() {
    header("Ablation — committed plans (paper §V) vs replan-every-slot (§V-D)");
    let days = 10;
    let class = VmClass::C1Medium;
    println!("{class}, {days} evaluation days, det-exp-mean vs sto-exp-mean\n");
    println!(
        "{:<18} {:>14} {:>14} {:>12}",
        "protocol", "det-exp-mean $", "sto-exp-mean $", "sto gain"
    );
    for (name, mode) in
        [("per-horizon", ReplanMode::PerHorizon), ("every-slot", ReplanMode::EverySlot)]
    {
        let det = run(class, Policy::DetExpMean, mode, days);
        let sto = run(class, Policy::StoExpMean, mode, days);
        println!("{:<18} {:>14.3} {:>14.3} {:>11.2}%", name, det, sto, (1.0 - sto / det) * 100.0);
    }
    println!();
    println!("expected: the stochastic model's edge is largest when plans commit;");
    println!("per-slot replanning (certainty-equivalent MPC) closes most of it.");
}
