//! Full verification of Problem 1's constraints for a candidate
//! retiming, and the prioritized violation finder driving Algorithm 1.

use retime::labels::{P1Violation, P2Violation};
use retime::timing::zero_weight_topo;
use retime::{EdgeId, LrLabels, RetimeGraph, Retiming};

use crate::problem::Problem;

/// A violation of one of Problem 1's constraint families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// P0: a retimed edge went negative.
    P0 {
        /// The offending edge.
        edge: EdgeId,
        /// Its (negative) retimed weight.
        weight: i64,
    },
    /// P1: a combinational path exceeds `Φ − T_s`.
    P1(P1Violation),
    /// P2: a register-launched path is shorter than `R_min`.
    P2(P2Violation),
}

/// Finds the highest-priority violation of `r` against the instance.
///
/// Priority: **P0 first** (a structurally invalid retiming makes the
/// timing labels meaningless), then P2, then P1 — the paper's
/// Algorithm 1 lists P2 before P0, but its checks are incremental and
/// always see structurally valid states; checking P0 first is the
/// equivalent formulation for a from-scratch checker (see DESIGN.md).
pub fn find_violation(graph: &RetimeGraph, problem: &Problem, r: &Retiming) -> Option<Violation> {
    for (i, _) in graph.edges().iter().enumerate() {
        let e = EdgeId::new(i);
        let w = graph.retimed_weight(e, r);
        if w < 0 {
            return Some(Violation::P0 { edge: e, weight: w });
        }
    }
    let order = zero_weight_topo(graph, r).expect(
        "P0-clean retimings of circuit graphs cannot create zero-weight cycles \
         (cycle weight is retiming-invariant)",
    );
    let labels = LrLabels::compute_with_order(graph, r, problem.params, &order);
    if let Some(v) = labels.find_p2_violation(graph, r, problem.r_min) {
        return Some(Violation::P2(v));
    }
    if let Some(v) = labels.find_p1_violation(graph, r) {
        return Some(Violation::P1(v));
    }
    None
}

/// Enumerates **every** violation of `r` in canonical order: all P0
/// violations by ascending edge id, or — when the retiming is
/// P0-clean, so the timing labels are well defined — all P2 violations
/// by ascending edge id followed by all P1 violations by ascending
/// vertex id. The first element is exactly [`find_violation`]'s
/// answer; an empty vector means `r` is feasible.
///
/// This is the solver's per-move constraint check: its batched
/// learning step attributes every violation in this order.
pub fn find_violations(graph: &RetimeGraph, problem: &Problem, r: &Retiming) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, _) in graph.edges().iter().enumerate() {
        let e = EdgeId::new(i);
        let w = graph.retimed_weight(e, r);
        if w < 0 {
            out.push(Violation::P0 { edge: e, weight: w });
        }
    }
    if !out.is_empty() {
        return out;
    }
    let order = zero_weight_topo(graph, r).expect(
        "P0-clean retimings of circuit graphs cannot create zero-weight cycles \
         (cycle weight is retiming-invariant)",
    );
    let labels = LrLabels::compute_with_order(graph, r, problem.params, &order);
    for i in 0..graph.num_edges() {
        let e = EdgeId::new(i);
        if let Some(v) = labels.p2_violation_at(graph, r, problem.r_min, e) {
            out.push(Violation::P2(v));
        }
    }
    for v in graph.vertices() {
        if let Some(p1) = labels.p1_violation_at(graph, r, v) {
            out.push(Violation::P1(p1));
        }
    }
    out
}

/// Checks all of P0 ∧ P1' ∧ P2'. `Ok(())` means `r` is feasible for
/// the instance.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_feasible(
    graph: &RetimeGraph,
    problem: &Problem,
    r: &Retiming,
) -> Result<(), Violation> {
    match find_violation(graph, problem, r) {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{samples, DelayModel};
    use retime::ElwParams;

    fn instance(phi: i64, r_min: i64) -> (netlist::Circuit, RetimeGraph, Problem) {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let counts = vec![1i64; g.num_vertices()];
        let p = Problem::from_observability_counts(&g, &counts, ElwParams::with_phi(phi), r_min);
        (c, g, p)
    }

    #[test]
    fn zero_retiming_feasible_with_loose_bounds() {
        let (_, g, p) = instance(10, 1);
        assert!(check_feasible(&g, &p, &Retiming::zero(&g)).is_ok());
    }

    #[test]
    fn p0_found_first() {
        let (c, g, p) = instance(10, 1);
        let mut r = Retiming::zero(&g);
        let s1 = g.vertex_of(c.find("s1").unwrap()).unwrap();
        r.set(s1, -1); // edge (s0,s1) goes negative
        match find_violation(&g, &p, &r) {
            Some(Violation::P0 { weight, .. }) => assert_eq!(weight, -1),
            other => panic!("expected P0, got {other:?}"),
        }
    }

    #[test]
    fn p1_detected_under_tight_phi() {
        let (_, g, p) = instance(2, 1);
        match find_violation(&g, &p, &Retiming::zero(&g)) {
            Some(Violation::P1(v)) => assert!(v.slack < 0),
            other => panic!("expected P1, got {other:?}"),
        }
    }

    #[test]
    fn p2_detected_under_tight_rmin() {
        let (_, g, p) = instance(10, 4);
        match find_violation(&g, &p, &Retiming::zero(&g)) {
            Some(Violation::P2(v)) => assert!(v.short_path < 4),
            other => panic!("expected P2, got {other:?}"),
        }
    }

    #[test]
    fn p2_takes_priority_over_p1() {
        // Both violated: tight phi AND tight r_min (possible because
        // different paths bind). P2 must be reported first.
        let (_, g, p) = instance(2, 4);
        match find_violation(&g, &p, &Retiming::zero(&g)) {
            Some(Violation::P2(_)) => {}
            other => panic!("expected P2 first, got {other:?}"),
        }
    }
}
