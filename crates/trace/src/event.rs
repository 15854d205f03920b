//! The typed event vocabulary of the solve path, plus the flat JSON
//! encoding every sink shares.
//!
//! One [`Event`] is one observation: a monotonic timestamp (microseconds
//! since the owning [`crate::TraceHandle`]'s origin), the worker lane that
//! produced it, the span it belongs to, and a typed payload. The JSON form
//! is deliberately flat — one object per line, tagged by `"ev"` — so a
//! JSONL trace can be processed line-by-line without a schema.

use crate::SpanId;

/// Why a branch & bound node was closed without branching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The node's LP bound met the incumbent cutoff.
    Bound,
    /// The node's LP relaxation was infeasible.
    Infeasible,
    /// The LP relaxation failed numerically (both engines).
    Numerical,
}

impl PruneReason {
    /// Every reason, in declaration order — `reason as usize` indexes it.
    pub const ALL: [PruneReason; 3] =
        [PruneReason::Bound, PruneReason::Infeasible, PruneReason::Numerical];

    pub fn as_str(self) -> &'static str {
        match self {
            PruneReason::Bound => "bound",
            PruneReason::Infeasible => "infeasible",
            PruneReason::Numerical => "numerical",
        }
    }
}

/// The closed set of `solve_done` status tags: budget stops report
/// `terminated:*` so counters can sample the gap at timeout.
pub const SOLVE_STATUSES: [&str; 6] = [
    "optimal",
    "terminated:deadline",
    "terminated:node_limit",
    "infeasible",
    "unbounded",
    "numerical",
];

/// Typed event payloads, one variant per observation the solve path makes.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened. `parent` is [`SpanId::ROOT`] for top-level spans.
    SpanOpen { name: &'static str, parent: SpanId },
    /// The event's span closed. Every open must be matched by exactly one
    /// close, and all of a span's events must fall between the two.
    SpanClose,

    // --- LP layer ---------------------------------------------------------
    /// Sampled simplex progress (phase 1 = feasibility, 2 = optimality).
    SimplexIter { phase: u8, iter: usize, objective: f64 },
    /// The basis was (re)factorised. `nnz` is the LU fill of the new
    /// factors (0 for the dense engine).
    Refactored { iter: usize, nnz: usize, reason: &'static str },
    /// One LP solve finished; `iters` is its total simplex iterations and
    /// `warm` is true when a warm-started dual-simplex re-solve produced the
    /// result (false = cold primal path).
    LpSolved { iters: usize, status: &'static str, warm: bool },

    // --- MILP layer -------------------------------------------------------
    /// A branch & bound node was popped for expansion.
    NodeOpened { id: u64, depth: usize, bound: f64 },
    /// A node was closed without branching.
    NodePruned { id: u64, reason: PruneReason },
    /// A node's LP optimum was integral (node closed as a leaf; whether it
    /// becomes the incumbent is reported separately).
    NodeIntegral { id: u64, objective: f64 },
    /// A new best integer-feasible solution (model-sense objective).
    IncumbentImproved { objective: f64 },
    /// The global dual bound improved (model-sense).
    BoundImproved { bound: f64 },
    /// Gap timeline sample: taken whenever incumbent or bound moves.
    GapSample { best_bound: f64, incumbent: f64, gap: f64 },
    /// The B&B search finished (any way); `status` is one of
    /// [`SOLVE_STATUSES`] and `gap` is the final relative gap.
    SolveDone { status: &'static str, nodes: usize, gap: f64 },

    // --- pre-solve gate ---------------------------------------------------
    /// Pre-solve feasibility-gate verdict: `"pass"` or `"rejected"`.
    AuditGate { verdict: &'static str },

    // --- engine layer -----------------------------------------------------
    /// A request entered the engine queue.
    Enqueued,
    /// A worker picked the request up.
    Dequeued,
    /// Warm-start cache probe.
    CacheLookup { hit: bool },
    /// One rung of the degradation ladder ran.
    LadderStep { level: &'static str, outcome: String, elapsed_us: u64 },
    /// A request left the engine (any completion path: cache hit, gate
    /// rejection, or a ladder result). Carries the tenant id so sinks can
    /// aggregate per tenant without retaining the request, and the
    /// engine-assigned `request_id` so tail samplers and the flight
    /// recorder's in-flight table agree on which request this was.
    RequestDone {
        request_id: u64,
        tenant: String,
        level: &'static str,
        outcome: &'static str,
        latency_us: u64,
        deadline_met: bool,
    },

    // --- closed-loop simulation layer -------------------------------------
    /// A tenant's spot capacity was killed mid-plan: the realised price
    /// rose above the standing bid at this slot.
    SpotInterrupted { tenant: String, slot: u64, spot: f64, bid: f64 },
    /// A recovery policy handled an interruption. `cost` is the extra
    /// realised cost the action incurred in this slot (failover premium,
    /// checkpoint write, migration transfer).
    RecoveryApplied { tenant: String, slot: u64, action: &'static str, cost: f64 },
}

impl EventKind {
    /// The `"ev"` tag this payload serialises under.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::SpanOpen { .. } => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::SimplexIter { .. } => "simplex_iter",
            EventKind::Refactored { .. } => "refactored",
            EventKind::LpSolved { .. } => "lp_solved",
            EventKind::NodeOpened { .. } => "node_opened",
            EventKind::NodePruned { .. } => "node_pruned",
            EventKind::NodeIntegral { .. } => "node_integral",
            EventKind::IncumbentImproved { .. } => "incumbent_improved",
            EventKind::BoundImproved { .. } => "bound_improved",
            EventKind::GapSample { .. } => "gap_sample",
            EventKind::SolveDone { .. } => "solve_done",
            EventKind::AuditGate { .. } => "audit_gate",
            EventKind::Enqueued => "enqueued",
            EventKind::Dequeued => "dequeued",
            EventKind::CacheLookup { .. } => "cache_lookup",
            EventKind::LadderStep { .. } => "ladder_step",
            EventKind::RequestDone { .. } => "request_done",
            EventKind::SpotInterrupted { .. } => "spot_interrupted",
            EventKind::RecoveryApplied { .. } => "recovery_applied",
        }
    }
}

/// One timestamped observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the trace origin (monotonic clock).
    pub t_us: u64,
    /// Worker lane that produced the event: the engine worker index, or the
    /// parallel B&B batch slot. 0 on single-threaded paths.
    pub worker: u32,
    /// Span the event belongs to ([`SpanId::ROOT`] = unscoped).
    pub span: SpanId,
    pub kind: EventKind,
}

impl Event {
    /// Append the flat single-line JSON encoding (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t_us\":");
        push_u64(out, self.t_us);
        out.push_str(",\"worker\":");
        push_u64(out, self.worker as u64);
        out.push_str(",\"span\":");
        push_u64(out, self.span.0);
        out.push_str(",\"ev\":\"");
        out.push_str(self.kind.tag());
        out.push('"');
        self.write_payload(out);
        out.push('}');
    }

    /// The JSON line as an owned string (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }

    fn write_payload(&self, out: &mut String) {
        match &self.kind {
            EventKind::SpanOpen { name, parent } => {
                field_str(out, "name", name);
                field_u64(out, "parent", parent.0);
            }
            EventKind::SpanClose => {}
            EventKind::SimplexIter { phase, iter, objective } => {
                field_u64(out, "phase", *phase as u64);
                field_u64(out, "iter", *iter as u64);
                field_f64(out, "objective", *objective);
            }
            EventKind::Refactored { iter, nnz, reason } => {
                field_u64(out, "iter", *iter as u64);
                field_u64(out, "nnz", *nnz as u64);
                field_str(out, "reason", reason);
            }
            EventKind::LpSolved { iters, status, warm } => {
                field_u64(out, "iters", *iters as u64);
                field_str(out, "status", status);
                out.push_str(",\"warm\":");
                out.push_str(if *warm { "true" } else { "false" });
            }
            EventKind::NodeOpened { id, depth, bound } => {
                field_u64(out, "id", *id);
                field_u64(out, "depth", *depth as u64);
                field_f64(out, "bound", *bound);
            }
            EventKind::NodePruned { id, reason } => {
                field_u64(out, "id", *id);
                field_str(out, "reason", reason.as_str());
            }
            EventKind::NodeIntegral { id, objective } => {
                field_u64(out, "id", *id);
                field_f64(out, "objective", *objective);
            }
            EventKind::IncumbentImproved { objective } => {
                field_f64(out, "objective", *objective);
            }
            EventKind::BoundImproved { bound } => {
                field_f64(out, "bound", *bound);
            }
            EventKind::GapSample { best_bound, incumbent, gap } => {
                field_f64(out, "best_bound", *best_bound);
                field_f64(out, "incumbent", *incumbent);
                field_f64(out, "gap", *gap);
            }
            EventKind::SolveDone { status, nodes, gap } => {
                field_str(out, "status", status);
                field_u64(out, "nodes", *nodes as u64);
                field_f64(out, "gap", *gap);
            }
            EventKind::AuditGate { verdict } => field_str(out, "verdict", verdict),
            EventKind::Enqueued | EventKind::Dequeued => {}
            EventKind::CacheLookup { hit } => {
                out.push_str(",\"hit\":");
                out.push_str(if *hit { "true" } else { "false" });
            }
            EventKind::LadderStep { level, outcome, elapsed_us } => {
                field_str(out, "level", level);
                field_str(out, "outcome", outcome);
                field_u64(out, "elapsed_us", *elapsed_us);
            }
            EventKind::RequestDone {
                request_id,
                tenant,
                level,
                outcome,
                latency_us,
                deadline_met,
            } => {
                field_u64(out, "request_id", *request_id);
                field_str(out, "tenant", tenant);
                field_str(out, "level", level);
                field_str(out, "outcome", outcome);
                field_u64(out, "latency_us", *latency_us);
                out.push_str(",\"deadline_met\":");
                out.push_str(if *deadline_met { "true" } else { "false" });
            }
            EventKind::SpotInterrupted { tenant, slot, spot, bid } => {
                field_str(out, "tenant", tenant);
                field_u64(out, "slot", *slot);
                field_f64(out, "spot", *spot);
                field_f64(out, "bid", *bid);
            }
            EventKind::RecoveryApplied { tenant, slot, action, cost } => {
                field_str(out, "tenant", tenant);
                field_u64(out, "slot", *slot);
                field_str(out, "action", action);
                field_f64(out, "cost", *cost);
            }
        }
    }
}

fn push_u64(out: &mut String, v: u64) {
    // itoa without allocation churn would be overkill here; format via
    // std is fine off the solver's innermost loops
    use std::fmt::Write;
    let _ = write!(out, "{v}");
}

fn field_u64(out: &mut String, key: &str, v: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_u64(out, v);
}

fn field_f64(out: &mut String, key: &str, v: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    crate::json::f64_into(out, v);
}

fn field_str(out: &mut String, key: &str, v: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    crate::json::str_into(out, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_flat_and_tagged() {
        let ev = Event {
            t_us: 42,
            worker: 1,
            span: SpanId(3),
            kind: EventKind::NodeOpened { id: 7, depth: 2, bound: 1.5 },
        };
        assert_eq!(
            ev.to_json(),
            "{\"t_us\":42,\"worker\":1,\"span\":3,\"ev\":\"node_opened\",\"id\":7,\"depth\":2,\"bound\":1.5}"
        );
    }

    #[test]
    fn non_finite_bounds_become_null() {
        let ev = Event {
            t_us: 0,
            worker: 0,
            span: SpanId::ROOT,
            kind: EventKind::NodeOpened { id: 0, depth: 0, bound: f64::NEG_INFINITY },
        };
        assert!(ev.to_json().ends_with("\"bound\":null}"), "{}", ev.to_json());
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let ev = Event {
            t_us: 0,
            worker: 0,
            span: SpanId::ROOT,
            kind: EventKind::IncumbentImproved { objective: 2.0 },
        };
        assert!(ev.to_json().contains("\"objective\":2.0"), "{}", ev.to_json());
    }

    #[test]
    fn sim_events_serialise_flat() {
        let ev = Event {
            t_us: 5,
            worker: 0,
            span: SpanId::ROOT,
            kind: EventKind::SpotInterrupted {
                tenant: "tenant-1".to_string(),
                slot: 7,
                spot: 0.25,
                bid: 0.125,
            },
        };
        assert_eq!(
            ev.to_json(),
            "{\"t_us\":5,\"worker\":0,\"span\":0,\"ev\":\"spot_interrupted\",\
             \"tenant\":\"tenant-1\",\"slot\":7,\"spot\":0.25,\"bid\":0.125}"
        );
        let ev = Event {
            t_us: 6,
            worker: 0,
            span: SpanId::ROOT,
            kind: EventKind::RecoveryApplied {
                tenant: "tenant-1".to_string(),
                slot: 7,
                action: "on_demand_failover",
                cost: 2.0,
            },
        };
        assert!(ev.to_json().contains("\"action\":\"on_demand_failover\",\"cost\":2.0"));
    }

    #[test]
    fn request_done_carries_its_request_id_first() {
        let ev = Event {
            t_us: 9,
            worker: 2,
            span: SpanId(4),
            kind: EventKind::RequestDone {
                request_id: 17,
                tenant: "t-0".to_string(),
                level: "full",
                outcome: "ok",
                latency_us: 120,
                deadline_met: true,
            },
        };
        assert_eq!(
            ev.to_json(),
            "{\"t_us\":9,\"worker\":2,\"span\":4,\"ev\":\"request_done\",\"request_id\":17,\
             \"tenant\":\"t-0\",\"level\":\"full\",\"outcome\":\"ok\",\"latency_us\":120,\
             \"deadline_met\":true}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event {
            t_us: 0,
            worker: 0,
            span: SpanId(1),
            kind: EventKind::LadderStep {
                level: "full",
                outcome: "failed: \"x\"\n".to_string(),
                elapsed_us: 9,
            },
        };
        let json = ev.to_json();
        assert!(json.contains("failed: \\\"x\\\"\\n"), "{json}");
    }
}
