//! Figure 12(a) — overpay percentage relative to the ideal (oracle) cost
//! for on-demand, det-predict, sto-predict, det-exp-mean and sto-exp-mean,
//! per VM class. Protocol as in the paper's §V: DRRP solves a 24-hour
//! horizon, SRRP a 6-hour horizon; each plan is executed over its horizon
//! (SRRP adapting along the scenario tree), with out-of-bid slots forced
//! onto on-demand capacity. The paper: on-demand overpays the most, and
//! each SRRP policy beats its DRRP counterpart.
//!
//! ```sh
//! cargo run --release -p rrp-bench --bin fig12a_overpay
//! ```

use rrp_bench::{header, EvalDay, DEMAND_SEED};
use rrp_core::eval::overpay_pct;
use rrp_core::policy::Policy;
use rrp_core::rolling::{simulate, MarketEnv, RollingConfig};
use rrp_milp::MilpOptions;
use rrp_spotmarket::{CostRates, VmClass};
use rrp_timeseries::sarima::SarimaSpec;

fn config(policy: Policy) -> RollingConfig {
    RollingConfig {
        // the paper: 24 h planning horizon for DRRP, 6 h for SRRP
        horizon: if policy.is_stochastic() { 6 } else { 24 },
        milp: MilpOptions { node_limit: 50_000, ..Default::default() },
        ..Default::default()
    }
}

fn main() {
    header("Fig. 12(a) — overpay vs ideal-case cost (24 h DRRP / 6 h SRRP horizons)");
    let days = 15;
    println!("averaged over {days} evaluation days; predictions = SARIMA day-ahead\n");
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>13} {:>13}",
        "class", "on-demand", "det-predict", "sto-predict", "det-exp-mean", "sto-exp-mean"
    );

    for class in VmClass::EVALUATION {
        let per_day: Vec<(f64, [f64; 5])> = (0..days)
            .map(|day| {
                let d = EvalDay::new(class, day, 0.4, DEMAND_SEED + day as u64);
                // day-ahead SARIMA forecast as the *-predict bid source
                let fit =
                    SarimaSpec { p: 2, d: 0, q: 1, sp: 1, sd: 0, sq: 0, s: 24 }.fit(&d.history);
                let predictions = fit.forecast(d.realized.len());
                let env = MarketEnv {
                    realized: &d.realized,
                    history: &d.history,
                    predictions: Some(&predictions),
                    on_demand: class.on_demand_price(),
                    demand: &d.demand,
                    rates: CostRates::ec2_2011(),
                };
                let oracle = simulate(Policy::Oracle, &env, &config(Policy::Oracle)).cost.total();
                let mut costs = [0.0f64; 5];
                for (i, policy) in Policy::FIG12A.iter().enumerate() {
                    costs[i] = simulate(*policy, &env, &config(*policy)).cost.total();
                }
                (oracle, costs)
            })
            .collect();
        let oracle_total: f64 = per_day.iter().map(|r| r.0).sum();
        print!("{:<12}", class.name());
        for i in 0..5 {
            let total: f64 = per_day.iter().map(|r| r.1[i]).sum();
            print!(" {:>11.1}%", overpay_pct(total, oracle_total));
        }
        println!();
    }
    println!();
    println!("paper: the on-demand scheme yields the most overpay; SRRP is more");
    println!("       cost-efficient than its DRRP counterpart for all three classes");
    println!("       (sto-predict < det-predict and sto-exp-mean < det-exp-mean).");
}
