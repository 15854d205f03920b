//! Telemetry under branch & bound: every node's events land in the ring
//! sink exactly once, and a full ring drops-oldest instead of perturbing
//! or blocking the solve.

use std::collections::HashSet;
use std::sync::Arc;

use rrp_lp::{Cmp, Model, Sense};
use rrp_milp::{MilpOptions, MilpProblem};
use rrp_trace::{Event, EventKind, RingSink, TraceHandle};

/// min Σ fᵢχᵢ + cᵢxᵢ s.t. Σ xᵢ ≥ 25, xᵢ − M·χᵢ ≤ 0, 0 ≤ xᵢ ≤ 10 — the
/// deliberately loose big-M keeps the LP relaxation weak, so branch &
/// bound opens dozens of nodes.
fn fixed_charge(m_coeff: f64) -> MilpProblem {
    let fixed = [7.0, 9.0, 8.0, 6.0, 10.0, 7.5];
    let unit = [1.0, 0.4, 0.7, 1.3, 0.3, 0.9];
    let mut m = Model::new(Sense::Minimize);
    let mut cover = Vec::new();
    let mut chis = Vec::new();
    for (i, (&f, &c)) in fixed.iter().zip(&unit).enumerate() {
        let x = m.add_var(0.0, 10.0, c, &format!("x{i}"));
        let chi = m.add_var(0.0, 1.0, f, &format!("chi{i}"));
        m.add_con(&[(x, 1.0), (chi, -m_coeff)], Cmp::Le, 0.0);
        cover.push((x, 1.0));
        chis.push(chi);
    }
    m.add_con(&cover, Cmp::Ge, 25.0);
    MilpProblem::new(m, chis)
}

fn traced_opts(ring: &Arc<RingSink>) -> MilpOptions {
    MilpOptions { trace: TraceHandle::new(ring.clone()), ..Default::default() }
}

#[test]
fn every_node_event_lands_exactly_once() {
    let problem = fixed_charge(1e5);
    let ring = Arc::new(RingSink::new(100_000));
    let opts = traced_opts(&ring);
    let sol = problem.solve(&opts).expect("fixed charge solves");
    let events: Vec<Event> = ring.drain();
    assert_eq!(ring.dropped_events(), 0, "ring was large enough");

    // every opened node produced exactly one node_opened with a unique id,
    // and the count matches the solver's own tally — no lost or torn events
    let opened: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::NodeOpened { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    assert_eq!(opened.len(), sol.nodes, "one node_opened per expanded node");
    let unique: HashSet<u64> = opened.iter().copied().collect();
    assert_eq!(unique.len(), opened.len(), "node ids are unique");

    // exactly one milp span, balanced, with a final optimal solve_done
    let opens = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SpanOpen { name: "milp", .. }))
        .count();
    let closes = events.iter().filter(|e| matches!(e.kind, EventKind::SpanClose)).count();
    assert_eq!((opens, closes), (1, 1), "one balanced milp span");
    let done = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SolveDone { status, nodes, .. } => Some((*status, *nodes)),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(done, vec![("optimal", sol.nodes)]);
}

#[test]
fn full_ring_drops_oldest_without_blocking_the_solve() {
    let problem = fixed_charge(1e5);
    let ring = Arc::new(RingSink::new(16));
    let opts = traced_opts(&ring);
    let sol = problem.solve(&opts).expect("solve unaffected by a full ring");
    assert!(sol.proven_optimal);
    // the overflowing sink never perturbs the search: same answer and the
    // same tree as the untraced solve
    let quiet = problem.solve(&MilpOptions::default()).expect("untraced solve");
    assert_eq!((sol.objective, sol.nodes), (quiet.objective, quiet.nodes));

    assert!(ring.dropped_events() > 0, "a 16-slot ring must overflow on this tree");
    let events = ring.drain();
    assert_eq!(events.len(), 16, "ring keeps exactly its capacity");
    // drop-oldest keeps the tail of the stream: the final event is the
    // closing of the milp span, emitted after solve_done
    assert!(
        matches!(events.last().map(|e| &e.kind), Some(EventKind::SpanClose)),
        "newest events are retained"
    );
    assert!(events.iter().any(|e| matches!(e.kind, EventKind::SolveDone { .. })));
}
