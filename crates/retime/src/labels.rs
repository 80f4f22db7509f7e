//! The `L`/`R` labels of the paper's eq. (6): backward-propagated
//! bounds on the error-latching window of every vertex, with critical
//! witnesses `lt(u)`/`rt(u)` (the vertex whose register/PO window
//! pinned the extreme value).
//!
//! For a vertex `u`,
//!
//! * `L(u) = min( Φ−T_s  [if u drives a registered edge or a PO],
//!   min over zero-weight fanout edges (u,f) of L(f) − d(f) )`
//! * `R(u) = max( Φ+T_h  [same condition],
//!   max over zero-weight fanout edges (u,f) of R(f) − d(f) )`
//!
//! which is the closed-form solution of the constraint systems P3/P4.
//! By Theorem 1 of the paper, `L(u)`/`R(u)` are the leftmost/rightmost
//! boundaries of the ELW at the output of `u`, so `R(u) − L(u)` bounds
//! the ELW size.
//!
//! Derived checks:
//!
//! * **P1** (setup / clock period): `L(v) ≥ d(v)` for every vertex with
//!   a non-empty window — exactly "every combinational path starting at
//!   `v` fits in `Φ − T_s`".
//! * **P2** (ELW lower bound): on every registered edge `(t, u)`, the
//!   shortest register-to-register path through `u`,
//!   `short_path(u) = d(u) + Φ + T_h − R(u)`, must be at least `R_min`.
//!   (The paper's P2 omits the `d(u)` term while its §V initialization
//!   formula includes it; we use the self-consistent inclusive form —
//!   see DESIGN.md.)

use crate::graph::{EdgeId, RetimeGraph, Retiming, VertexId};
use crate::timing::{is_combinational_edge, zero_weight_topo};
use crate::RetimeError;

/// Sentinel for "no latching window reachable" (dead logic).
const L_EMPTY: i64 = i64::MAX / 4;
/// Sentinel counterpart for `R`.
const R_EMPTY: i64 = i64::MIN / 4;

/// Clocking parameters of the ELW machinery.
///
/// The paper's experiments use `t_setup = 0`, `t_hold = 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElwParams {
    /// Clock period Φ.
    pub phi: i64,
    /// Register setup time `T_s`.
    pub t_setup: i64,
    /// Register hold time `T_h`.
    pub t_hold: i64,
}

impl ElwParams {
    /// Creates parameters with the paper's `T_s = 0`, `T_h = 2`.
    pub fn with_phi(phi: i64) -> Self {
        Self {
            phi,
            t_setup: 0,
            t_hold: 2,
        }
    }

    /// The left boundary `Φ − T_s` of the latching window at a register.
    pub fn window_left(&self) -> i64 {
        self.phi - self.t_setup
    }

    /// The right boundary `Φ + T_h` of the latching window.
    pub fn window_right(&self) -> i64 {
        self.phi + self.t_hold
    }
}

/// A violation of P1 (setup): the combinational paths leaving `vertex`
/// exceed `Φ − T_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P1Violation {
    /// The most upstream violating vertex (the "path head": every one
    /// of its non-host in-edges carries a register, or comes from the
    /// host).
    pub vertex: VertexId,
    /// `lt(vertex)`: the vertex whose register/PO window terminates the
    /// critical longest path.
    pub lt: VertexId,
    /// Slack `L(vertex) − d(vertex)` (negative).
    pub slack: i64,
}

/// A violation of P2 (ELW lower bound on shortest paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P2Violation {
    /// The registered edge `(t, u)` whose register starts the
    /// too-short path.
    pub edge: EdgeId,
    /// The head `u` of the short path.
    pub vertex: VertexId,
    /// `rt(u)`: the vertex whose register/PO window terminates the
    /// critical shortest path.
    pub rt: VertexId,
    /// The offending `short_path(u)` value (less than `R_min`).
    pub short_path: i64,
}

/// The computed `L`/`R` labels with witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrLabels {
    params: ElwParams,
    l: Vec<i64>,
    r: Vec<i64>,
    lt: Vec<VertexId>,
    rt: Vec<VertexId>,
}

impl LrLabels {
    /// Computes the labels of `graph` under retiming `rt` with clocking
    /// parameters `params`.
    ///
    /// # Errors
    ///
    /// Returns [`RetimeError::ZeroWeightCycle`] for invalid retimings.
    pub fn compute(
        graph: &RetimeGraph,
        r: &Retiming,
        params: ElwParams,
    ) -> Result<Self, RetimeError> {
        let order = zero_weight_topo(graph, r)?;
        Ok(Self::compute_with_order(graph, r, params, &order))
    }

    /// Computes the labels reusing a topological order from
    /// [`zero_weight_topo`] for the same graph and retiming.
    pub fn compute_with_order(
        graph: &RetimeGraph,
        r: &Retiming,
        params: ElwParams,
        order: &[VertexId],
    ) -> Self {
        let n = graph.num_vertices();
        let mut labels = Self {
            params,
            l: vec![L_EMPTY; n],
            r: vec![R_EMPTY; n],
            lt: vec![RetimeGraph::HOST; n],
            rt: vec![RetimeGraph::HOST; n],
        };
        for &u in order.iter().rev() {
            labels.recompute_vertex(graph, r, u);
        }
        labels
    }

    /// Recomputes the labels of one vertex from its fanouts' current
    /// labels under `r`.
    ///
    /// Correct only when every combinational fanout of `u` (under `r`)
    /// already carries its final label — the caller is responsible for
    /// the processing order (reverse topological over the zero-weight
    /// subgraph).
    fn recompute_vertex(&mut self, graph: &RetimeGraph, r: &Retiming, u: VertexId) {
        let params = self.params;
        let mut best_l = L_EMPTY;
        let mut best_r = R_EMPTY;
        let mut wit_l = RetimeGraph::HOST;
        let mut wit_r = RetimeGraph::HOST;
        for &e in graph.out_edges(u) {
            let edge = graph.edge(e);
            let is_ro = edge.to.is_host() || graph.retimed_weight(e, r) > 0;
            if is_ro {
                if params.window_left() < best_l {
                    best_l = params.window_left();
                    wit_l = u;
                }
                if params.window_right() > best_r {
                    best_r = params.window_right();
                    wit_r = u;
                }
            } else if is_combinational_edge(graph, e, r) {
                let f = edge.to;
                let fi = f.index();
                if self.l[fi] != L_EMPTY {
                    let cand = self.l[fi] - graph.delay(f);
                    if cand < best_l {
                        best_l = cand;
                        wit_l = self.lt[fi];
                    }
                }
                if self.r[fi] != R_EMPTY {
                    let cand = self.r[fi] - graph.delay(f);
                    if cand > best_r {
                        best_r = cand;
                        wit_r = self.rt[fi];
                    }
                }
            }
        }
        let ui = u.index();
        self.l[ui] = best_l;
        self.r[ui] = best_r;
        self.lt[ui] = wit_l;
        self.rt[ui] = wit_r;
    }

    /// The clocking parameters the labels were computed for.
    pub fn params(&self) -> ElwParams {
        self.params
    }

    /// `L(v)`, or `None` when no latching window is reachable from `v`.
    pub fn l(&self, v: VertexId) -> Option<i64> {
        (self.l[v.index()] != L_EMPTY).then(|| self.l[v.index()])
    }

    /// `R(v)`, or `None` when no latching window is reachable from `v`.
    pub fn r(&self, v: VertexId) -> Option<i64> {
        (self.r[v.index()] != R_EMPTY).then(|| self.r[v.index()])
    }

    /// `lt(v)`: the termination witness of the critical longest path
    /// from `v` (meaningful only when `L(v)` exists).
    pub fn lt(&self, v: VertexId) -> VertexId {
        self.lt[v.index()]
    }

    /// `rt(v)`: the termination witness of the critical shortest path
    /// from `v` (meaningful only when `R(v)` exists).
    pub fn rt(&self, v: VertexId) -> VertexId {
        self.rt[v.index()]
    }

    /// The ELW size bound `R(v) − L(v)` of Theorem 1 (`None` for dead
    /// vertices).
    pub fn elw_bound(&self, v: VertexId) -> Option<i64> {
        match (self.l(v), self.r(v)) {
            (Some(l), Some(r)) => Some(r - l),
            _ => None,
        }
    }

    /// `short_path(v) = d(v) + Φ + T_h − R(v)`: the minimum
    /// register-to-register (or to-PO) combinational path delay through
    /// `v` inclusive.
    pub fn short_path(&self, graph: &RetimeGraph, v: VertexId) -> Option<i64> {
        self.r(v)
            .map(|r| graph.delay(v) + self.params.window_right() - r)
    }

    /// Finds the canonical **P1** violation: the minimum-index vertex
    /// with negative slack and no combinational in-edge (a "path
    /// head" — the vertex the paper's Algorithm 1 retimes to cut the
    /// path).
    ///
    /// Every combinational predecessor `u` of a violating vertex `v`
    /// also violates (`slack(u) ≤ slack(v) − d(u) < 0`), so restricting
    /// to heads loses no violations; selecting the minimum index makes
    /// the answer independent of traversal order.
    pub fn find_p1_violation(&self, graph: &RetimeGraph, r: &Retiming) -> Option<P1Violation> {
        graph
            .vertices()
            .find_map(|v| self.p1_violation_at(graph, r, v))
    }

    /// The canonical P1 check for a single vertex: `Some` iff `v` has
    /// negative slack **and** is a path head under `r`. Shared by
    /// [`LrLabels::find_p1_violation`] and the solver's full violation
    /// enumeration so both apply the exact same rule.
    pub fn p1_violation_at(
        &self,
        graph: &RetimeGraph,
        r: &Retiming,
        v: VertexId,
    ) -> Option<P1Violation> {
        let l = self.l(v)?;
        let slack = l - graph.delay(v);
        if slack < 0 && self.is_path_head(graph, r, v) {
            Some(P1Violation {
                vertex: v,
                lt: self.lt(v),
                slack,
            })
        } else {
            None
        }
    }

    /// Whether `v` has no combinational in-edge under `r` (the "path
    /// head" filter of the canonical P1 rule).
    pub fn is_path_head(&self, graph: &RetimeGraph, r: &Retiming, v: VertexId) -> bool {
        graph
            .in_edges(v)
            .iter()
            .all(|&e| !is_combinational_edge(graph, e, r))
    }

    /// Finds the canonical **P2** violation: the minimum-id registered
    /// edge `(t, u)` whose register launches a combinational path
    /// shorter than `r_min`.
    pub fn find_p2_violation(
        &self,
        graph: &RetimeGraph,
        r: &Retiming,
        r_min: i64,
    ) -> Option<P2Violation> {
        (0..graph.num_edges()).find_map(|i| self.p2_violation_at(graph, r, r_min, EdgeId::new(i)))
    }

    /// The canonical P2 check for a single edge: `Some` iff `e` is a
    /// registered non-host edge under `r` whose head's short path is
    /// below `r_min`. Shared by [`LrLabels::find_p2_violation`] and the
    /// solver's full violation enumeration so both apply the exact same
    /// rule.
    pub fn p2_violation_at(
        &self,
        graph: &RetimeGraph,
        r: &Retiming,
        r_min: i64,
        e: EdgeId,
    ) -> Option<P2Violation> {
        let edge = graph.edge(e);
        if edge.to.is_host() || graph.retimed_weight(e, r) <= 0 {
            return None;
        }
        let u = edge.to;
        let sp = self.short_path(graph, u)?;
        if sp < r_min {
            Some(P2Violation {
                edge: e,
                vertex: u,
                rt: self.rt(u),
                short_path: sp,
            })
        } else {
            None
        }
    }

    /// The minimum `short_path` over all registered edges — the value
    /// §V of the paper uses to initialize `R_min`. `None` if the
    /// retimed circuit has no registered edge with a live window.
    pub fn min_short_path(&self, graph: &RetimeGraph, r: &Retiming) -> Option<i64> {
        let mut best: Option<i64> = None;
        for (i, edge) in graph.edges().iter().enumerate() {
            let e = EdgeId::new(i);
            if edge.to.is_host() || graph.retimed_weight(e, r) <= 0 {
                continue;
            }
            if let Some(sp) = self.short_path(graph, edge.to) {
                best = Some(best.map_or(sp, |b: i64| b.min(sp)));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{samples, DelayModel};

    fn setup(phi: i64) -> (netlist::Circuit, RetimeGraph, Retiming, LrLabels) {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let r = Retiming::zero(&g);
        let labels = LrLabels::compute(&g, &r, ElwParams::with_phi(phi)).unwrap();
        (c, g, r, labels)
    }

    #[test]
    fn register_driver_gets_full_window() {
        let (c, g, _, labels) = setup(10);
        // s2 drives register r0: L = phi - ts = 10, R = phi + th = 12.
        let s2 = g.vertex_of(c.find("s2").unwrap()).unwrap();
        assert_eq!(labels.l(s2), Some(10));
        assert_eq!(labels.r(s2), Some(12));
        assert_eq!(labels.lt(s2), s2);
        assert_eq!(labels.rt(s2), s2);
    }

    #[test]
    fn labels_shift_backward_by_fanout_delay() {
        let (c, g, _, labels) = setup(10);
        // s1 -> s2 (unit delay): L(s1) = L(s2) - d(s2) = 9.
        let s1 = g.vertex_of(c.find("s1").unwrap()).unwrap();
        let s2 = g.vertex_of(c.find("s2").unwrap()).unwrap();
        assert_eq!(labels.l(s1), Some(9));
        assert_eq!(labels.r(s1), Some(11));
        assert_eq!(labels.lt(s1), s2);
    }

    #[test]
    fn elw_bound_is_r_minus_l() {
        let (c, g, _, labels) = setup(10);
        let s0 = g.vertex_of(c.find("s0").unwrap()).unwrap();
        let (l, r) = (labels.l(s0).unwrap(), labels.r(s0).unwrap());
        assert_eq!(labels.elw_bound(s0), Some(r - l));
        assert!(r >= l, "Theorem 1(1): R >= L");
    }

    #[test]
    fn p1_violation_when_phi_too_small() {
        // Segments have 3 unit-delay gates; phi = 2 breaks setup.
        let (_, g, r, labels) = setup(2);
        let viol = labels.find_p1_violation(&g, &r).expect("violation");
        assert!(viol.slack < 0);
        // The head has no zero-weight combinational in-edge.
        for &e in g.in_edges(viol.vertex) {
            assert!(!is_combinational_edge(&g, e, &r));
        }
        // Canonical rule: no lower-index head also violates.
        for v in g.vertices() {
            if v >= viol.vertex {
                break;
            }
            assert!(labels.p1_violation_at(&g, &r, v).is_none());
        }
    }

    #[test]
    fn no_p1_violation_when_phi_ample() {
        let (_, g, r, labels) = setup(10);
        assert!(labels.find_p1_violation(&g, &r).is_none());
    }

    #[test]
    fn short_path_counts_inclusive_delay() {
        let (c, g, r, labels) = setup(10);
        // Register r0 sits after s2, feeding s3; path s3..s5 to next
        // register: 3 unit delays inclusive of s3.
        let s3 = g.vertex_of(c.find("s3").unwrap()).unwrap();
        assert_eq!(labels.short_path(&g, s3), Some(3));
        assert_eq!(labels.min_short_path(&g, &r), Some(3));
    }

    #[test]
    fn p2_violation_detected() {
        let (_, g, r, labels) = setup(10);
        assert!(labels.find_p2_violation(&g, &r, 4).is_some());
        assert!(labels.find_p2_violation(&g, &r, 3).is_none());
    }

    #[test]
    fn theorem1_r_ge_l_everywhere() {
        let c = samples::s27_like();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
        let r = Retiming::zero(&g);
        let labels = LrLabels::compute(&g, &r, ElwParams::with_phi(100)).unwrap();
        for v in g.vertices() {
            if let (Some(l), Some(rr)) = (labels.l(v), labels.r(v)) {
                assert!(rr >= l, "R({v}) = {rr} < L({v}) = {l}");
            }
        }
    }

    #[test]
    fn po_vertices_get_window() {
        let c = samples::s27_like();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let r = Retiming::zero(&g);
        let params = ElwParams::with_phi(50);
        let labels = LrLabels::compute(&g, &r, params).unwrap();
        let po = g.vertex_of(c.outputs()[0]).unwrap();
        assert_eq!(labels.l(po), Some(params.window_left()));
        assert_eq!(labels.r(po), Some(params.window_right()));
    }
}
