//! The `POST /plan` wire codec: request parsing (the engine's untrusted
//! boundary — every check on caller-supplied numbers lives here) and the
//! JSON bodies the route answers with.

use std::fmt::Write as _;
use std::time::Duration;

use rrp_spotmarket::CostRates;
use rrp_trace::json::escape_into;
use serde_json::Value;

use crate::request::{PlanRequest, PlanResponse, PolicyKind};
use crate::shard::Busy;

/// Body of the `500` sent when the worker panicked on the request.
pub(crate) const WORKER_FAILED_BODY: &str = "{\"error\":\"planning worker failed\"}";

/// Most slots a `/plan` request may carry: one leap year of hourly slots.
/// Every request passes the O(T) `capacity_shortfall` gate and, if
/// uncapacitated, is then answered by the O(T²) Wagner–Whitin DP with no
/// budget check. At this horizon the gate takes ≈ 0.2 ms and the DP (so the
/// whole deterministic request) 100–135 ms on a 2-vCPU Xeon — well under
/// the 1 000 ms default deadline — whereas the body cap alone would admit
/// ≈ 60 000 slots (≈ 5 s of DP at O(T²)).
pub const MAX_HORIZON: usize = 8_784;

/// Parse the `/plan` wire format into a [`PlanRequest`]:
///
/// ```json
/// {"app_id": "tenant-1", "policy": "deterministic", "deadline_ms": 250,
///  "seed": 7, "compute": [0.06, ...], "demand": [0.4, ...]}
/// ```
///
/// `app_id` must be a non-empty string. `compute` and `demand` must be
/// equal-length non-empty arrays of at most [`MAX_HORIZON`] finite,
/// non-negative numbers (the JSON reader turns an overflowing literal such
/// as `1e999` into `+inf`, so finiteness is checked here, not assumed); the
/// schedule is completed with the paper's EC2 billing rates. `policy` defaults to
/// `"deterministic"`; `"stochastic"` is rejected (a scenario tree does not
/// fit the wire format), the other tags map to their [`PolicyKind`].
pub(crate) fn parse_plan_request(body: &str) -> Result<PlanRequest, String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let app_id = v
        .get("app_id")
        .and_then(Value::as_str)
        .ok_or("missing string field \"app_id\"")?
        .to_string();
    if app_id.is_empty() {
        return Err("\"app_id\" must not be empty".into());
    }
    let floats = |field: &str| -> Result<Vec<f64>, String> {
        let entries = v
            .get(field)
            .and_then(Value::as_array)
            .ok_or(format!("missing array field \"{field}\""))?;
        if entries.len() > MAX_HORIZON {
            return Err(format!(
                "\"{field}\" has {} entries; the horizon cap is {MAX_HORIZON} slots",
                entries.len()
            ));
        }
        entries
            .iter()
            .map(|x| {
                let x = x.as_f64().ok_or(format!("non-numeric entry in \"{field}\""))?;
                if x.is_finite() && x >= 0.0 {
                    Ok(x)
                } else {
                    Err(format!("entries of \"{field}\" must be finite and non-negative"))
                }
            })
            .collect()
    };
    let compute = floats("compute")?;
    let demand = floats("demand")?;
    if compute.is_empty() || compute.len() != demand.len() {
        return Err(format!(
            "\"compute\" ({}) and \"demand\" ({}) must be equal-length and non-empty",
            compute.len(),
            demand.len()
        ));
    }
    let policy = match v.get("policy").and_then(Value::as_str).unwrap_or("deterministic") {
        "deterministic" => PolicyKind::Deterministic,
        "dynamic-program" => PolicyKind::DynamicProgram,
        "on-demand" => PolicyKind::OnDemand,
        "stochastic" => {
            return Err("policy \"stochastic\" needs a scenario tree; submit in-process".into())
        }
        other => return Err(format!("unknown policy \"{other}\"")),
    };
    let deadline_ms = v.get("deadline_ms").and_then(Value::as_u64).unwrap_or(1_000);
    let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(0);
    Ok(PlanRequest {
        app_id,
        vm_class: "m1.small".to_string(),
        schedule: rrp_core::CostSchedule::ec2(compute, demand, &CostRates::ec2_2011()),
        params: rrp_core::PlanningParams::default(),
        tree: None,
        policy,
        deadline: Duration::from_millis(deadline_ms),
        seed,
    })
}

/// Body of the `400` sent for a request [`parse_plan_request`] refused.
pub(crate) fn error_json(msg: &str) -> String {
    let mut out = String::from("{\"error\":\"");
    escape_into(&mut out, msg);
    out.push_str("\"}");
    out
}

/// Body of the `429` sent when admission control refused the request.
pub(crate) fn busy_json(busy: &Busy) -> String {
    format!(
        "{{\"error\":\"busy\",\"shard\":{},\"queue_depth\":{},\
         \"high_water\":{},\"retry_after_ms\":{}}}",
        busy.shard, busy.depth, busy.high_water, busy.retry_after_ms
    )
}

/// Serialise a [`PlanResponse`] for the `/plan` route.
pub(crate) fn plan_response_json(resp: &PlanResponse) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"app_id\":\"");
    escape_into(&mut out, &resp.app_id);
    let _ = write!(
        out,
        "\",\"degradation\":\"{}\",\"cache_hit\":{},\
         \"deadline_met\":{},\"latency_ms\":{:.3},",
        resp.degradation.as_str(),
        resp.cache_hit,
        resp.deadline_met,
        resp.latency.as_secs_f64() * 1e3
    );
    match (&resp.plan, &resp.rejection) {
        (Some(plan), _) => {
            let _ = write!(out, "\"objective\":{:.6},\"rejected\":false}}", plan.objective);
        }
        (None, Some(shortfall)) => {
            out.push_str("\"rejected\":true,\"rejection\":\"");
            escape_into(&mut out, &shortfall.to_string());
            out.push_str("\"}");
        }
        (None, None) => out.push_str("\"rejected\":false}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(body: &str) -> String {
        match parse_plan_request(body) {
            Ok(req) => panic!("accepted {body}: {req:?}"),
            Err(msg) => msg,
        }
    }

    #[test]
    fn accepts_the_documented_shape_with_defaults() {
        let req = parse_plan_request(
            r#"{"app_id":"tenant-1","compute":[0.06,0.07,0.0],"demand":[0.4,0.0,1.5]}"#,
        )
        .expect("well-formed body");
        assert_eq!(req.app_id, "tenant-1");
        assert_eq!(req.policy, PolicyKind::Deterministic);
        assert_eq!(req.deadline, Duration::from_millis(1_000));
        assert_eq!(req.schedule.demand, vec![0.4, 0.0, 1.5]);
        // day- and week-ahead horizons, as the benchmark's generator sends
        for horizon in [24usize, 168] {
            let series = vec!["0.25"; horizon].join(",");
            let body = format!(
                r#"{{"app_id":"t","policy":"dynamic-program","deadline_ms":50,"seed":3,
                    "compute":[{series}],"demand":[{series}]}}"#
            );
            let req = parse_plan_request(&body).expect("long horizons are accepted");
            assert_eq!(req.horizon(), horizon);
            assert_eq!(req.policy, PolicyKind::DynamicProgram);
        }
    }

    #[test]
    fn rejects_non_finite_and_negative_entries_naming_the_field() {
        // the JSON reader maps an overflowing literal to +inf
        let msg = err(r#"{"app_id":"t","compute":[0.06],"demand":[1e999]}"#);
        assert!(msg.contains("\"demand\""), "{msg}");
        let msg = err(r#"{"app_id":"t","compute":[0.06,0.06],"demand":[0.4,-0.5]}"#);
        assert!(msg.contains("\"demand\""), "{msg}");
        let msg = err(r#"{"app_id":"t","compute":[-1e999],"demand":[0.4]}"#);
        assert!(msg.contains("\"compute\""), "{msg}");
        let msg = err(r#"{"app_id":"t","compute":[-1],"demand":[0.4]}"#);
        assert!(msg.contains("\"compute\""), "{msg}");
    }

    #[test]
    fn horizon_cap_admits_a_leap_year_of_hours_and_no_more() {
        let body = |compute: usize, demand: usize| {
            let list = |n| vec!["0.25"; n].join(",");
            format!(
                "{{\"app_id\":\"t\",\"compute\":[{}],\"demand\":[{}]}}",
                list(compute),
                list(demand)
            )
        };
        let at_cap = parse_plan_request(&body(MAX_HORIZON, MAX_HORIZON));
        assert_eq!(at_cap.map(|req| req.horizon()), Ok(MAX_HORIZON));
        let msg = err(&body(MAX_HORIZON + 1, MAX_HORIZON + 1));
        assert!(msg.contains("\"compute\"") && msg.contains(&MAX_HORIZON.to_string()), "{msg}");
        let msg = err(&body(MAX_HORIZON, MAX_HORIZON + 1));
        assert!(msg.contains("\"demand\""), "{msg}");
    }

    #[test]
    fn rejects_an_empty_or_missing_app_id() {
        assert!(err(r#"{"app_id":"","compute":[0.06],"demand":[0.4]}"#).contains("\"app_id\""));
        assert!(err(r#"{"compute":[0.06],"demand":[0.4]}"#).contains("\"app_id\""));
    }

    #[test]
    fn rejects_mismatched_lengths_and_unknown_policies() {
        let msg = err(r#"{"app_id":"t","compute":[0.06,0.06],"demand":[0.4]}"#);
        assert!(msg.contains("equal-length"), "{msg}");
        assert!(err(r#"{"app_id":"t","compute":[],"demand":[]}"#).contains("non-empty"));
        let msg = err(r#"{"app_id":"t","policy":"greedy","compute":[0.06],"demand":[0.4]}"#);
        assert!(msg.contains("unknown policy \"greedy\""), "{msg}");
        let msg = err(r#"{"app_id":"t","policy":"stochastic","compute":[0.06],"demand":[0.4]}"#);
        assert!(msg.contains("stochastic"), "{msg}");
        assert!(err("{not json").contains("invalid JSON"));
    }

    #[test]
    fn error_bodies_escape_the_caller_supplied_text() {
        assert_eq!(error_json("unknown policy \"x\""), r#"{"error":"unknown policy \"x\""}"#);
    }
}
