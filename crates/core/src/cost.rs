//! Cost schedules and planning parameters (paper Table I).

use rrp_spotmarket::{CostRates, VmClass};

/// Per-slot cost parameters over a planning horizon of `T` slots, for one
/// instance class — the parameter row of Table I instantiated:
///
/// * `compute[t]` — `Cp(i,t)`: instance rental price for slot `t`,
/// * `inventory[t]` — `Cs(t) + Cio(t)`: per-GB·slot holding rate,
/// * `gen[t]` — `C_f⁺(t)·Φᵢ`: per-GB cost of *generating* data in slot `t`
///   (input fetched on the fly),
/// * `out[t]` — `C_f⁻(t)`: per-GB transfer-out rate,
/// * `demand[t]` — `D(i,t)` in GB.
#[derive(Debug, Clone)]
pub struct CostSchedule {
    pub compute: Vec<f64>,
    pub inventory: Vec<f64>,
    pub gen: Vec<f64>,
    pub out: Vec<f64>,
    pub demand: Vec<f64>,
}

impl CostSchedule {
    /// Number of slots `T`.
    pub fn horizon(&self) -> usize {
        self.compute.len()
    }

    /// Build the paper's §V-A schedule: constant EC2 billing rates, a given
    /// per-slot compute price vector and a demand vector.
    pub fn ec2(compute: Vec<f64>, demand: Vec<f64>, rates: &CostRates) -> Self {
        assert_eq!(compute.len(), demand.len());
        let t = compute.len();
        Self {
            compute,
            inventory: vec![rates.inventory_gb_slot(); t],
            gen: vec![rates.transfer_in_per_output_gb(); t],
            out: vec![rates.transfer_out_gb; t],
            demand,
        }
    }

    /// Schedule with a constant compute price (on-demand market).
    pub fn on_demand(class: VmClass, demand: Vec<f64>, rates: &CostRates) -> Self {
        let t = demand.len();
        Self::ec2(vec![class.on_demand_price(); t], demand, rates)
    }

    fn validate(&self) {
        let t = self.horizon();
        assert!(t > 0, "empty horizon");
        assert_eq!(self.inventory.len(), t);
        assert_eq!(self.gen.len(), t);
        assert_eq!(self.out.len(), t);
        assert_eq!(self.demand.len(), t);
        for v in self.compute.iter().chain(&self.inventory).chain(&self.gen).chain(&self.out) {
            assert!(v.is_finite() && *v >= 0.0, "cost parameters must be finite and >= 0");
        }
        for d in &self.demand {
            assert!(d.is_finite() && *d >= 0.0, "demand must be finite and >= 0");
        }
    }

    /// The constant, plan-independent part of the objective:
    /// `Σ_t C_f⁻(t)·D(t)` (demand is always shipped out).
    pub fn transfer_out_constant(&self) -> f64 {
        self.out.iter().zip(&self.demand).map(|(o, d)| o * d).sum()
    }
}

/// Structural parameters of the planning model.
#[derive(Debug, Clone, Copy)]
pub struct PlanningParams {
    /// Initial cloud storage `β₀ = ε` (paper Eq. 5).
    pub initial_inventory: f64,
    /// Optional bottleneck capacity: `P(i)·α ≤ Q(i,t)` becomes
    /// `α_t ≤ capacity` when `Some` (paper Eq. 3); the §V evaluation omits
    /// it, which `None` expresses.
    pub capacity: Option<f64>,
}

impl Default for PlanningParams {
    fn default() -> Self {
        Self { initial_inventory: 0.0, capacity: None }
    }
}

impl PlanningParams {
    pub fn validate(&self) {
        assert!(self.initial_inventory >= 0.0);
        if let Some(c) = self.capacity {
            assert!(c > 0.0, "capacity must be positive when present");
        }
    }
}

/// Validate a schedule + params pair (called by the model builders).
pub fn validate(schedule: &CostSchedule, params: &PlanningParams) {
    schedule.validate();
    params.validate();
    if let Some(cap) = params.capacity {
        // with a capacity the horizon must be able to cover demand at all
        let max_need = schedule.demand.iter().cloned().fold(0.0, f64::max);
        assert!(cap + 1e-12 >= 0.0 && max_need.is_finite(), "invalid capacity setup");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec2_schedule_wires_rates() {
        let rates = CostRates::ec2_2011();
        let s = CostSchedule::ec2(vec![0.06; 4], vec![0.4; 4], &rates);
        assert_eq!(s.horizon(), 4);
        assert!((s.gen[0] - 0.05).abs() < 1e-12);
        assert!((s.out[2] - 0.17).abs() < 1e-12);
        assert!((s.inventory[1] - (0.20 + 0.10 / 720.0)).abs() < 1e-12);
        assert!((s.transfer_out_constant() - 0.17 * 1.6).abs() < 1e-12);
    }

    #[test]
    fn on_demand_uses_class_price() {
        let s = CostSchedule::on_demand(VmClass::M1Large, vec![0.4; 3], &CostRates::ec2_2011());
        assert_eq!(s.compute, vec![0.4; 3]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_costs() {
        let rates = CostRates::ec2_2011();
        let mut s = CostSchedule::ec2(vec![0.06; 2], vec![0.4; 2], &rates);
        s.compute[0] = -1.0;
        validate(&s, &PlanningParams::default());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        let rates = CostRates::ec2_2011();
        let s = CostSchedule::ec2(vec![0.06; 2], vec![0.4; 2], &rates);
        validate(&s, &PlanningParams { initial_inventory: 0.0, capacity: Some(0.0) });
    }
}
