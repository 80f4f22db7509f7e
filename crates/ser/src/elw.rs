//! Error-latching windows (ELW): exact interval-set computation of the
//! paper's eq. (3), the timing-masking half of the SER model.
//!
//! `ELW(g)` is the set of time points (within a clock cycle, measured
//! at `g`'s output) at which a transient glitch, if logically
//! propagated, arrives in some downstream register's latching window
//! `[Φ−T_s, Φ+T_h]`. It is computed backward from register inputs and
//! primary outputs:
//!
//! ```text
//! ELW(g) = [Φ−T_s, Φ+T_h]                       if g ∈ RO
//!          ∪_{f ∈ fanout(g)} (ELW(f) − d(f))    otherwise
//! ```
//!
//! and may consist of multiple disjoint intervals.

use retime::timing::{is_combinational_edge, ArrivalScratch};
use retime::{EdgeId, ElwParams, RetimeGraph, Retiming, VertexId};
use std::fmt;

/// A set of disjoint, sorted, half-open-free (closed) intervals on the
/// integer time axis.
///
/// # Examples
///
/// ```
/// use ser_engine::IntervalSet;
/// let mut s = IntervalSet::new();
/// s.insert(10, 12);
/// s.insert(15, 18);
/// s.insert(11, 16); // bridges the gap
/// assert_eq!(s.total_length(), 8);
/// assert_eq!(s.intervals(), &[(10, 18)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct IntervalSet {
    intervals: Vec<(i64, i64)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn of(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "interval bounds out of order");
        Self {
            intervals: vec![(lo, hi)],
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The disjoint intervals in ascending order.
    pub fn intervals(&self) -> &[(i64, i64)] {
        &self.intervals
    }

    /// `Σᵢ (Rᵢ − Lᵢ)` — the paper's `|ELW(g)|`.
    pub fn total_length(&self) -> i64 {
        self.intervals.iter().map(|(l, r)| r - l).sum()
    }

    /// The smallest left endpoint (`L₁` of eq. (2)).
    pub fn left(&self) -> Option<i64> {
        self.intervals.first().map(|&(l, _)| l)
    }

    /// The largest right endpoint (`R_l` of eq. (2)).
    pub fn right(&self) -> Option<i64> {
        self.intervals.last().map(|&(_, r)| r)
    }

    /// Inserts `[lo, hi]`, merging overlapping or touching intervals.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn insert(&mut self, lo: i64, hi: i64) {
        assert!(lo <= hi, "interval bounds out of order");
        let start = self.intervals.partition_point(|&(_, r)| r < lo);
        let end = self.intervals.partition_point(|&(l, _)| l <= hi);
        if start == end {
            self.intervals.insert(start, (lo, hi));
        } else {
            let merged_lo = lo.min(self.intervals[start].0);
            let merged_hi = hi.max(self.intervals[end - 1].1);
            self.intervals.drain(start..end);
            self.intervals.insert(start, (merged_lo, merged_hi));
        }
    }

    /// Unions another set into this one.
    pub fn union_assign(&mut self, other: &Self) {
        for &(l, r) in &other.intervals {
            self.insert(l, r);
        }
    }

    /// The set shifted by `delta` (`ELW(f) − d(f)` uses `delta = −d`).
    pub fn shifted(&self, delta: i64) -> Self {
        Self {
            intervals: self
                .intervals
                .iter()
                .map(|&(l, r)| (l + delta, r + delta))
                .collect(),
        }
    }

    /// Whether `t` lies in the set.
    pub fn contains(&self, t: i64) -> bool {
        self.intervals
            .binary_search_by(|&(l, r)| {
                if t < l {
                    std::cmp::Ordering::Greater
                } else if t > r {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Number of disjoint intervals (`l` of eq. (2)).
    pub fn count(&self) -> usize {
        self.intervals.len()
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.intervals.is_empty() {
            return write!(f, "∅");
        }
        let parts: Vec<String> = self
            .intervals
            .iter()
            .map(|(l, r)| format!("[{l}, {r}]"))
            .collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

/// Exact per-vertex error-latching windows of a retimed graph
/// (eq. (3) with true interval unions, as used by the paper when
/// *measuring* SER — the optimizer uses only the `L`/`R` bounds).
///
/// Returns one [`IntervalSet`] per vertex (empty for the host and for
/// vertices from which no register/PO is reachable).
///
/// # Errors
///
/// Returns [`retime::RetimeError::ZeroWeightCycle`] for invalid
/// retimings.
pub fn compute_elws(
    graph: &RetimeGraph,
    r: &Retiming,
    params: ElwParams,
) -> Result<Vec<IntervalSet>, retime::RetimeError> {
    let mut scratch = ArrivalScratch::new();
    scratch
        .compute(graph, r)
        .ok_or(retime::RetimeError::ZeroWeightCycle)?;
    let mut elw: Vec<IntervalSet> = vec![IntervalSet::new(); graph.num_vertices()];
    for &u in scratch.order().iter().rev() {
        let mut acc = IntervalSet::new();
        let mut is_ro = false;
        for &e in graph.out_edges(u) {
            let edge = graph.edge(e);
            if edge.to.is_host() || graph.retimed_weight(e, r) > 0 {
                is_ro = true;
            } else if is_combinational_edge(graph, e, r) {
                let f = edge.to;
                acc.union_assign(&elw[f.index()].shifted(-graph.delay(f)));
            }
        }
        if is_ro {
            acc.insert(params.window_left(), params.window_right());
        }
        elw[u.index()] = acc;
    }
    Ok(elw)
}

/// Checks Theorem 1 of the paper on a concrete instance: the `L`/`R`
/// labels bound every vertex's exact ELW. Returns the first violating
/// vertex, if any (used by tests; `None` means the theorem holds).
pub fn check_theorem1(
    graph: &RetimeGraph,
    r: &Retiming,
    params: ElwParams,
) -> Result<Option<VertexId>, retime::RetimeError> {
    let labels = retime::LrLabels::compute(graph, r, params)?;
    let elws = compute_elws(graph, r, params)?;
    for v in graph.vertices() {
        let set = &elws[v.index()];
        match (labels.l(v), labels.r(v), set.left(), set.right()) {
            (Some(l), Some(rr), Some(sl), Some(sr)) => {
                if l != sl || rr != sr {
                    return Ok(Some(v));
                }
            }
            (None, None, None, None) => {}
            _ => return Ok(Some(v)),
        }
    }
    Ok(None)
}

/// Marks every edge `e = (u, v)` whose retimed weight is positive with
/// the ELW-derived shortest-path value `d(v) + Φ + T_h − R(v)`; helper
/// for diagnostics and tests.
pub fn registered_edge_short_paths(
    graph: &RetimeGraph,
    r: &Retiming,
    params: ElwParams,
) -> Result<Vec<(EdgeId, i64)>, retime::RetimeError> {
    let labels = retime::LrLabels::compute(graph, r, params)?;
    let mut out = Vec::new();
    for (i, edge) in graph.edges().iter().enumerate() {
        let e = EdgeId::new(i);
        if edge.to.is_host() || graph.retimed_weight(e, r) <= 0 {
            continue;
        }
        if let Some(sp) = labels.short_path(graph, edge.to) {
            out.push((e, sp));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{samples, DelayModel};

    #[test]
    fn interval_insert_and_merge() {
        let mut s = IntervalSet::new();
        s.insert(5, 7);
        s.insert(1, 2);
        s.insert(10, 12);
        assert_eq!(s.count(), 3);
        assert_eq!(s.total_length(), 2 + 1 + 2);
        s.insert(2, 5); // touches both [1,2] and [5,7]
        assert_eq!(s.intervals(), &[(1, 7), (10, 12)]);
        s.insert(0, 20);
        assert_eq!(s.intervals(), &[(0, 20)]);
    }

    #[test]
    fn interval_contains_and_shift() {
        let s = IntervalSet::of(10, 14).shifted(-4);
        assert!(s.contains(6) && s.contains(10));
        assert!(!s.contains(5) && !s.contains(11));
        assert_eq!(s.left(), Some(6));
        assert_eq!(s.right(), Some(10));
    }

    #[test]
    fn touching_intervals_merge() {
        let mut s = IntervalSet::new();
        s.insert(0, 5);
        s.insert(5, 9);
        assert_eq!(s.intervals(), &[(0, 9)]);
    }

    #[test]
    fn elw_of_register_driver_is_latching_window() {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let r = Retiming::zero(&g);
        let params = ElwParams::with_phi(10);
        let elws = compute_elws(&g, &r, params).unwrap();
        let s2 = g.vertex_of(c.find("s2").unwrap()).unwrap();
        assert_eq!(elws[s2.index()].intervals(), &[(10, 12)]);
    }

    #[test]
    fn elw_unions_disjoint_windows() {
        // A gate feeding both a register directly and a long path to a
        // second register gets two disjoint windows.
        let mut b = netlist::CircuitBuilder::new("split");
        b.input("a");
        b.gate("g", netlist::GateKind::Not, &["a"]).unwrap();
        b.dff("q1", "g").unwrap();
        b.gate("x1", netlist::GateKind::Not, &["g"]).unwrap();
        b.gate("x2", netlist::GateKind::Not, &["x1"]).unwrap();
        b.gate("x3", netlist::GateKind::Not, &["x2"]).unwrap();
        b.dff("q2", "x3").unwrap();
        b.gate("y", netlist::GateKind::And, &["q1", "q2"]).unwrap();
        b.output("y").unwrap();
        let c = b.build().unwrap();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let r = Retiming::zero(&g);
        let params = ElwParams::with_phi(10); // window [10, 12]
        let elws = compute_elws(&g, &r, params).unwrap();
        let vg = g.vertex_of(c.find("g").unwrap()).unwrap();
        // Direct: [10,12]; via x1..x3 (3 unit delays): [7,9]. Disjoint.
        assert_eq!(elws[vg.index()].intervals(), &[(7, 9), (10, 12)]);
        assert_eq!(elws[vg.index()].total_length(), 4);
    }

    #[test]
    fn theorem1_holds_on_samples() {
        for c in [
            samples::s27_like(),
            samples::pipeline(9, 3),
            samples::fig1_like(),
        ] {
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            let r = Retiming::zero(&g);
            let params = ElwParams::with_phi(200);
            assert_eq!(
                check_theorem1(&g, &r, params).unwrap(),
                None,
                "{}",
                c.name()
            );
        }
    }

    #[test]
    fn theorem1_holds_on_generated_circuits() {
        for seed in 0..4 {
            let c = netlist::generator::GeneratorConfig::new("t1", seed)
                .gates(150)
                .registers(25)
                .build();
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            let r = Retiming::zero(&g);
            let phi = retime::timing::clock_period(&g, &r).unwrap() + 2;
            let params = ElwParams::with_phi(phi);
            assert_eq!(check_theorem1(&g, &r, params).unwrap(), None, "seed {seed}");
        }
    }

    #[test]
    fn short_paths_match_labels() {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let r = Retiming::zero(&g);
        let sps = registered_edge_short_paths(&g, &r, ElwParams::with_phi(10)).unwrap();
        assert!(!sps.is_empty());
        for (_, sp) in sps {
            assert_eq!(sp, 3, "balanced 3-stage segments");
        }
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_interval_panics() {
        IntervalSet::of(3, 1);
    }
}
