//! One closed-loop episode: a synthetic spot trace played forward against
//! the running engine.
//!
//! Per slot the simulator (1) reveals the realised spot price, (2) kills
//! spot capacity whose standing bid is out-of-bid (an interruption), (3)
//! lets the [`RecoveryPolicy`] handle the slot, (4) ships demand through
//! the inventory/backlog model, (5) gives the [`BidPolicy`] exactly one
//! look at the outcome, and (6) asks the engine for a rolling-horizon
//! re-plan when the committed window is exhausted — or immediately for the
//! window's tail after an interruption.
//!
//! Two ledgers run side by side. *Planned* is the counterfactual: the
//! committed plans executed at the realised spot prices with every bid
//! winning. *Realised* is what actually happened once interruptions,
//! recovery overheads and reservation charges landed. On an
//! interruption-free trace the two coincide, so `realised / planned` is
//! precisely the interruption premium of a bid policy.

use std::time::Duration;

use rrp_core::demand::DemandModel;
use rrp_core::{
    on_demand_plan, CostBreakdown, CostSchedule, PlanningParams, RealisedReport, RentalPlan,
    ReservationLedger, ReservedTerm, SloReport,
};
use rrp_engine::{Engine, PlanRequest, PolicyKind};
use rrp_spotmarket::archive::{SpotArchive, ARCHIVE_DAYS, ESTIMATION_END_DAY};
use rrp_spotmarket::{rental_outcome, CostRates, SeedSeq, VmClass};
use rrp_trace::{EventKind, SpanId};

use crate::bidding::{BidPolicy, MarketObs};
use crate::recovery::{InterruptionCtx, RecoveryAction, RecoveryPolicy};

/// Backlog below this is float residue, not an SLO violation.
const SLO_TOL: f64 = 1e-6;

/// A reserved-capacity commitment running alongside the spot rentals:
/// `capacity_gb` of production per covered slot, billed through the
/// commit-once [`ReservationLedger`].
#[derive(Debug, Clone, Copy)]
pub struct SimReservation {
    pub term: ReservedTerm,
    pub capacity_gb: f64,
}

/// Configuration of one episode. Every random stream derives from `seed`
/// (see [`SeedSeq`]), so a printed master seed reproduces the run exactly.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; the report prints it.
    pub seed: u64,
    pub class: VmClass,
    /// Episode length in slots (hours).
    pub slots: usize,
    /// Rolling re-plan window length.
    pub horizon: usize,
    /// Mean of the truncated-normal hourly demand (GB).
    pub demand_mean: f64,
    /// Planner the engine is asked for.
    pub policy: PolicyKind,
    /// Per-request wall-clock deadline.
    pub deadline: Duration,
    /// Tenant identity, reported in trace events and metrics.
    pub app_id: String,
    /// Optional reserved-capacity commitment.
    pub reservation: Option<SimReservation>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 20120521,
            class: VmClass::C1Medium,
            slots: 24,
            horizon: 6,
            demand_mean: 0.4,
            policy: PolicyKind::Deterministic,
            deadline: Duration::from_secs(30),
            app_id: "sim".to_string(),
            reservation: None,
        }
    }
}

/// The derived inputs of an episode: every stream seeded from the master.
#[derive(Debug, Clone)]
pub struct EpisodeInputs {
    pub seq: SeedSeq,
    /// Realised home-market spot prices, one per slot (the archive's
    /// post-estimation continuation).
    pub spot: Vec<f64>,
    /// Realised alternate-market spot prices (the migration target).
    pub alt_spot: Vec<f64>,
    /// Realised hourly demand (GB).
    pub demand: Vec<f64>,
    /// Mean spot price over the estimation window.
    pub hist_mean: f64,
    /// Last estimation-window price (the "current" price at slot 0).
    pub last_hist: f64,
}

/// Derive all of an episode's random streams from the config's master
/// seed: home market, alternate market and demand each get an independent
/// labelled sub-seed.
pub fn episode_inputs(cfg: &SimConfig) -> EpisodeInputs {
    assert!(cfg.slots >= 1 && cfg.horizon >= 1, "episode needs at least one slot and window");
    let max_slots = (ARCHIVE_DAYS - ESTIMATION_END_DAY) * 24;
    assert!(cfg.slots <= max_slots, "episode of {} slots exceeds the archive tail", cfg.slots);
    let seq = SeedSeq::new(cfg.seed);
    let home = SpotArchive::generate(cfg.class, seq.derive("spot"));
    let alt = SpotArchive::generate(cfg.class, seq.derive("alt-market"));
    let hist = home.estimation_window();
    let hist_values = hist.values();
    let hist_mean = hist_values.iter().sum::<f64>() / hist_values.len() as f64;
    let last_hist = hist_values[hist_values.len() - 1];
    let spot = home.hourly_window(ESTIMATION_END_DAY, ARCHIVE_DAYS).values()[..cfg.slots].to_vec();
    let alt_spot =
        alt.hourly_window(ESTIMATION_END_DAY, ARCHIVE_DAYS).values()[..cfg.slots].to_vec();
    let demand = DemandModel::with_mean(cfg.demand_mean).sample(cfg.slots, seq.derive("demand"));
    EpisodeInputs { seq, spot, alt_spot, demand, hist_mean, last_hist }
}

/// What one slot of the episode did — the sim's analogue of
/// `rolling::SlotRecord`, for diagnostics and tests.
#[derive(Debug, Clone, Copy)]
pub struct SlotOutcome {
    pub slot: usize,
    pub spot: f64,
    /// Bid standing during this slot.
    pub bid: f64,
    /// Whether the committed plan rented this slot.
    pub rented: bool,
    pub interrupted: bool,
    /// Recovery action applied, when interrupted.
    pub action: Option<&'static str>,
    pub produced: f64,
    pub shipped: f64,
    /// Backlog carried out of the slot.
    pub backlog: f64,
    /// Inventory held at end of slot.
    pub inventory: f64,
}

/// Everything one episode produced.
#[derive(Debug, Clone)]
pub struct EpisodeResult {
    pub report: RealisedReport,
    pub slo: SloReport,
    /// Out-of-bid events over the episode.
    pub interruptions: usize,
    /// Recovery actions applied, counted by action name.
    pub recoveries: Vec<(&'static str, usize)>,
    pub slots: Vec<SlotOutcome>,
}

fn submit_plan(
    engine: &Engine,
    req: PlanRequest,
    slo: &mut SloReport,
) -> (PlanRequest, RentalPlan) {
    slo.replans += 1;
    let resp = engine.submit(req.clone()).wait();
    if !resp.deadline_met {
        slo.deadline_misses += 1;
    }
    let plan = match resp.plan {
        Some(p) => p,
        // the sim's instances are uncapacitated, so the pre-solve gate
        // never rejects them; a rejection would still degrade gracefully
        None => on_demand_plan(&req.schedule, &req.params),
    };
    (req, plan)
}

/// Play one episode of `cfg` against `engine` under the given bid and
/// recovery policies.
pub fn run_episode(
    engine: &Engine,
    cfg: &SimConfig,
    bid_policy: &mut dyn BidPolicy,
    recovery: &mut dyn RecoveryPolicy,
) -> EpisodeResult {
    let inputs = episode_inputs(cfg);
    let rates = CostRates::ec2_2011();
    let gen_rate = rates.transfer_in_per_output_gb();
    let inv_rate = rates.inventory_gb_slot();
    let out_rate = rates.transfer_out_gb;
    let lambda = cfg.class.on_demand_price();

    let mut res_ledger = ReservationLedger::new();
    if let Some(r) = &cfg.reservation {
        res_ledger.commit(r.term);
    }
    let reserved_at = |t: usize| -> f64 {
        match &cfg.reservation {
            Some(r) if r.term.covers(t) => r.capacity_gb,
            _ => 0.0,
        }
    };
    // the planner covers only what the reservation does not
    let net_demand: Vec<f64> =
        (0..cfg.slots).map(|t| (inputs.demand[t] - reserved_at(t)).max(0.0)).collect();

    let window_request = |from: usize, inventory: f64, backlog: f64, bid: f64| -> PlanRequest {
        let to = (from + cfg.horizon).min(cfg.slots);
        let mut demand_w = net_demand[from..to].to_vec();
        demand_w[0] += backlog;
        PlanRequest {
            app_id: cfg.app_id.clone(),
            vm_class: cfg.class.name().to_string(),
            schedule: CostSchedule::ec2(vec![bid; to - from], demand_w, &rates),
            params: PlanningParams { initial_inventory: inventory, capacity: None },
            tree: None,
            policy: cfg.policy,
            deadline: cfg.deadline,
            seed: inputs.seq.master(),
        }
    };

    let mut slo = SloReport::default();
    let mut planned = CostBreakdown::default();
    let mut realised = CostBreakdown::default();
    let mut recovery_overhead = 0.0;
    let mut reservation_cost = 0.0;
    let mut interruptions = 0usize;
    let mut recoveries: Vec<(&'static str, usize)> = Vec::new();
    let mut records = Vec::with_capacity(cfg.slots);

    let mut bid = bid_policy.next_bid(&MarketObs {
        slot: 0,
        last_price: inputs.last_hist,
        hist_mean: inputs.hist_mean,
        on_demand: lambda,
        interrupted: false,
    });
    let mut inv = 0.0f64;
    let mut backlog = 0.0f64;
    let (mut cur_req, mut plan) = submit_plan(engine, window_request(0, 0.0, 0.0, bid), &mut slo);
    let mut plan_base = 0usize;

    for t in 0..cfg.slots {
        let k = t - plan_base;
        let window_end = plan_base + plan.alpha.len();
        let reserved = reserved_at(t);
        let planned_alpha = plan.alpha[k];
        let rented = plan.chi[k];
        let spot = inputs.spot[t];

        // planned counterfactual: the committed plan at realised prices,
        // every bid winning
        if rented {
            planned.compute += spot;
        }
        planned.transfer_in += gen_rate * (planned_alpha + reserved);
        planned.inventory += inv_rate * plan.beta[k];
        planned.transfer_out += out_rate * inputs.demand[t];

        // realised execution: resolve the auction, recover if killed
        let mut produced = 0.0;
        let mut interrupted = false;
        let mut action_name = None;
        if rented {
            let outcome = rental_outcome(bid, spot, lambda);
            if !outcome.out_of_bid {
                realised.compute += spot;
                produced = planned_alpha;
            } else {
                interrupted = true;
                interruptions += 1;
                engine.trace().emit(
                    SpanId::ROOT,
                    EventKind::SpotInterrupted {
                        tenant: cfg.app_id.clone(),
                        slot: t as u64,
                        spot,
                        bid,
                    },
                );
                let ctx = InterruptionCtx {
                    slot: t,
                    spot,
                    bid,
                    on_demand: lambda,
                    alt_spot: inputs.alt_spot[t],
                    planned_alpha,
                    inventory: inv,
                };
                let action = recovery.recover(&ctx);
                let cost = match action {
                    RecoveryAction::OnDemandFailover => {
                        realised.compute += lambda;
                        produced = planned_alpha;
                        lambda
                    }
                    RecoveryAction::CheckpointResume { overhead_gb } => {
                        // nothing produced: the checkpoint write is the
                        // slot's only cost; backlog carries the demand
                        let c = gen_rate * overhead_gb.max(0.0);
                        recovery_overhead += c;
                        c
                    }
                    RecoveryAction::MigrateMarket { overhead_cost } => {
                        realised.compute += ctx.alt_spot;
                        produced = planned_alpha;
                        let c = overhead_cost.max(0.0);
                        recovery_overhead += c;
                        ctx.alt_spot + c
                    }
                };
                action_name = Some(action.name());
                match recoveries.iter_mut().find(|(name, _)| *name == action.name()) {
                    Some((_, n)) => *n += 1,
                    None => recoveries.push((action.name(), 1)),
                }
                engine.trace().emit(
                    SpanId::ROOT,
                    EventKind::RecoveryApplied {
                        tenant: cfg.app_id.clone(),
                        slot: t as u64,
                        action: action.name(),
                        cost,
                    },
                );
            }
        }
        realised.transfer_in += gen_rate * (produced + reserved);

        // ship demand through the inventory/backlog model
        let backlog_pre = backlog;
        let owed = backlog + inputs.demand[t];
        let available = inv + produced + reserved;
        let shipped = available.min(owed);
        backlog = owed - shipped;
        inv = available - shipped;
        if backlog > SLO_TOL {
            slo.violated_slots += 1;
        }
        slo.unmet_demand_gb += (backlog - backlog_pre).max(0.0);
        realised.inventory += inv_rate * inv;
        realised.transfer_out += out_rate * shipped;
        reservation_cost += res_ledger.accrue_window(t, t + 1);

        records.push(SlotOutcome {
            slot: t,
            spot,
            bid,
            rented,
            interrupted,
            action: action_name,
            produced: produced + reserved,
            shipped,
            backlog,
            inventory: inv,
        });

        // exactly one bid update per slot boundary
        bid = bid_policy.next_bid(&MarketObs {
            slot: t + 1,
            last_price: spot,
            hist_mean: inputs.hist_mean,
            on_demand: lambda,
            interrupted,
        });

        if t + 1 < cfg.slots {
            if interrupted && t + 1 < window_end {
                // interruption mid-window: re-plan the window's tail at
                // the fresh bid, folding the backlog into its first slot
                let tail =
                    cur_req.replan_tail(k + 1, inv, vec![bid; window_end - (t + 1)], backlog);
                (cur_req, plan) = submit_plan(engine, tail, &mut slo);
                plan_base = t + 1;
            } else if t + 1 >= window_end {
                // rolling horizon: the committed window is exhausted
                let req = window_request(t + 1, inv, backlog, bid);
                (cur_req, plan) = submit_plan(engine, req, &mut slo);
                plan_base = t + 1;
            }
        }
    }

    slo.unrecovered_gb = backlog;
    // A breached episode is an incident worth a post-mortem: slots ended
    // with unserved backlog, or demand was still outstanding at the end.
    // No-op unless the engine runs with a flight recorder; the recorder's
    // debounce folds a breach-heavy soak into one bundle.
    if slo.violated_slots > 0 || slo.unrecovered_gb > SLO_TOL {
        engine.flight_trigger("sim_slo_breach");
    }
    let report = RealisedReport {
        planned: planned.total() + reservation_cost,
        realised: realised.total() + recovery_overhead + reservation_cost,
        recovery_overhead,
        reservation: reservation_cost,
    };
    // feed the episode's realised/planned ratio into the tenant's
    // cost-ratio error budget (no-op unless the engine runs with an SLO
    // engine) — this is how soak runs exercise the cost objective
    engine.slo_record_cost(&cfg.app_id, report.planned, report.realised);
    EpisodeResult { report, slo, interruptions, recoveries, slots: records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidding::{OnDemandClamp, StaticBid};
    use crate::recovery::{CheckpointResume, OnDemandFailover};

    fn cfg() -> SimConfig {
        SimConfig { slots: 12, horizon: 4, ..Default::default() }
    }

    #[test]
    fn clamp_bid_runs_interruption_free_and_matches_planned() {
        let engine = Engine::new(2);
        let r = run_episode(&engine, &cfg(), &mut OnDemandClamp, &mut OnDemandFailover);
        assert_eq!(r.interruptions, 0, "archive spikes never exceed on-demand");
        assert!(r.recoveries.is_empty());
        assert!(
            (r.report.realised - r.report.planned).abs() < 1e-9,
            "interruption-free ⇒ realised == planned, got {:?}",
            r.report
        );
        assert_eq!(r.slo.violated_slots, 0);
        assert!(r.slo.unrecovered_gb < SLO_TOL);
        assert!(r.slo.replans >= 3, "rolling horizon must re-plan");
    }

    #[test]
    fn low_static_bid_gets_interrupted_and_pays_premium() {
        let engine = Engine::new(2);
        let mut bid = StaticBid { margin: 0.9 };
        let r = run_episode(&engine, &cfg(), &mut bid, &mut OnDemandFailover);
        assert!(r.interruptions > 0, "a below-mean bid must lose some slots");
        assert!(r.report.realised > r.report.planned, "failover pays λ over spot");
        assert!(r.slo.unrecovered_gb < SLO_TOL, "failover keeps demand whole");
    }

    #[test]
    fn checkpoint_backlog_is_recovered_even_when_always_out_of_bid() {
        // margin 0.9 sits below the realised tail for this seed, so *every*
        // rented slot is interrupted — the worst case for a deferring
        // recovery. Bounded deferral (max_defer = 2) guarantees the backlog
        // never ages past two slots, so the only demand an episode can
        // strand is whatever arrived in its final two slots.
        let engine = Engine::new(2);
        let mut bid = StaticBid { margin: 0.9 };
        let mut rec = CheckpointResume::default();
        let c = cfg();
        let r = run_episode(&engine, &c, &mut bid, &mut rec);
        assert!(r.interruptions > 0);
        let tail: f64 = episode_inputs(&c).demand[c.slots - 2..].iter().sum();
        assert!(
            r.slo.unrecovered_gb <= tail + SLO_TOL,
            "staleness bound breached: unrecovered {:?} > tail demand {tail}",
            r.slo
        );
        let total: f64 = episode_inputs(&c).demand.iter().sum();
        assert!(r.slo.unrecovered_gb < total / 2.0, "most demand must still be served");
        assert!(r.report.recovery_overhead > 0.0);
        let escalated = r.recoveries.iter().any(|(n, _)| *n == "on_demand_failover");
        let deferred = r.recoveries.iter().any(|(n, _)| *n == "checkpoint_resume");
        assert!(escalated && deferred, "both modes must appear: {:?}", r.recoveries);
    }

    #[test]
    fn episodes_are_reproducible_from_the_master_seed() {
        let engine = Engine::new(2);
        let a = run_episode(&engine, &cfg(), &mut OnDemandClamp, &mut OnDemandFailover);
        let b = run_episode(&engine, &cfg(), &mut OnDemandClamp, &mut OnDemandFailover);
        assert_eq!(a.report.realised, b.report.realised);
        assert_eq!(a.slo.violated_slots, b.slo.violated_slots);
    }

    #[test]
    fn slo_breach_fires_the_flight_recorder() {
        use rrp_engine::{EngineConfig, ProfConfig};

        // deferring recovery under an always-losing bid leaves backlog in
        // violated slots — a breached episode on a profiling engine must
        // land a `sim_slo_breach` trigger in the flight recorder
        let engine = Engine::with_config(
            2,
            EngineConfig {
                prof: Some(ProfConfig {
                    deadline_miss_spike: 0,
                    budget_exhaustion_spike: 0,
                    ..Default::default()
                }),
                ..Default::default()
            },
        );
        let mut bid = StaticBid { margin: 0.9 };
        let mut rec = CheckpointResume::default();
        let r = run_episode(&engine, &cfg(), &mut bid, &mut rec);
        assert!(r.slo.violated_slots > 0, "this config must actually breach: {:?}", r.slo);
        assert_eq!(engine.flight_dumps(), 1, "one breach, one incident");
        let status = engine.flight_status_json().expect("profiling engine has flight status");
        assert!(status.contains("\"last_trigger\":\"sim_slo_breach\""), "{status}");
        // the same episode on a plain engine is silently untracked
        let plain = Engine::new(2);
        let r2 = run_episode(&plain, &cfg(), &mut StaticBid { margin: 0.9 }, &mut rec);
        assert!(r2.slo.violated_slots > 0);
        assert_eq!(plain.flight_dumps(), 0);
    }

    #[test]
    fn reservation_charges_flow_into_both_sides() {
        let engine = Engine::new(2);
        let mut c = cfg();
        c.reservation = Some(SimReservation {
            term: ReservedTerm { start: 2, len: 8, upfront: 1.0, hourly: 0.02 },
            capacity_gb: 0.1,
        });
        let r = run_episode(&engine, &c, &mut OnDemandClamp, &mut OnDemandFailover);
        let expected = 1.0 + 0.02 * 8.0;
        assert!((r.report.reservation - expected).abs() < 1e-9, "{:?}", r.report);
        // reservation charges land on both ledgers; realised can only sit
        // above planned (surplus reserved output becomes extra inventory)
        assert!(r.report.realised >= r.report.planned - 1e-9, "{:?}", r.report);
        assert!(r.report.planned > expected, "reservation is part of the planned total");
    }
}
