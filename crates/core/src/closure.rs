//! Maximum-weight **closed set** selection over the active-constraint
//! digraph.
//!
//! Both iMinArea (ref \[20\]) and this paper characterize the move set of
//! each iteration as *the closed set `I` under the active constraints
//! `A` with maximum gain `b(I) > 0`* — the regular forest is \[20\]'s
//! `O(|V|)`-memory device for maintaining it. The paper's two-page
//! sketch under-determines the forest's update invariants (our faithful
//! implementation of the stated regularity conditions cycles on
//! circuits with mixed-sign gains; see DESIGN.md §2), so the solver
//! computes the same set *exactly* instead: maximum-weight closure via
//! a min-cut (the classical project-selection reduction), over the
//! deduplicated constraint arcs. Memory stays `O(|V| + |A|)` with
//! `|A| ≤ |V|²` (in practice a small multiple of `|E|`).
//!
//! # The canonical closure-selection rule
//!
//! A flow network can have many minimum cuts, so "the" max-gain closed
//! set is under-determined unless a tie-break is fixed. Both this
//! engine and the warm-started [`crate::closure_inc`] engine implement
//! the same canonical rule: **the inclusion-minimal maximum-gain
//! closed set**, i.e. the source side of the source-minimal min cut,
//! obtained as the set of vertices reachable from the source in the
//! residual graph of a maximum flow. By the Picard–Queyranne structure
//! of minimum cuts, that set is the same for *every* maximum flow of
//! the network — which is what makes the rule engine-independent: a
//! from-scratch Dinic run and a warm-started residual reaching a
//! (different) maximum flow extract bit-identical member lists.
//!
//! To support the warm-started engine, the system additionally keeps
//! an append-only **change log** ([`ConstraintSystem::arc_log`],
//! [`ConstraintSystem::gain_log`]): arcs are only ever added, weights
//! only ever raised, freezes never undone, so a consumer that
//! remembers log cursors can reconstruct exactly the capacity deltas
//! between two closure calls.

use std::collections::HashSet;

use retime::VertexId;

/// The active-constraint state: arcs `p → q` ("whenever `p` joins the
/// move, `q` must too"), per-vertex move weights `w(v)`, gains `b(v)`
/// and freezes.
#[derive(Debug, Clone)]
pub struct ConstraintSystem {
    b: Vec<i64>,
    weight: Vec<i64>,
    frozen: Vec<bool>,
    /// Membership index of `arc_log`, for deduplication.
    arc_set: HashSet<(u32, u32)>,
    /// Every distinct arc once, in insertion order: the one copy the
    /// networks are built from.
    arc_log: Vec<(u32, u32)>,
    gain_log: Vec<u32>,
}

impl ConstraintSystem {
    /// Creates the system with gains `b` (entry 0 = host, always
    /// frozen), all weights 1.
    ///
    /// # Panics
    ///
    /// Panics if `b` is empty.
    pub fn new(b: Vec<i64>) -> Self {
        assert!(!b.is_empty());
        let n = b.len();
        let mut weight = vec![1i64; n];
        weight[0] = 0;
        let mut frozen = vec![false; n];
        frozen[0] = true;
        Self {
            b,
            weight,
            frozen,
            arc_set: HashSet::new(),
            arc_log: Vec::new(),
            gain_log: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.b.len()
    }

    /// Whether the system is empty (never after construction).
    pub fn is_empty(&self) -> bool {
        self.b.is_empty()
    }

    /// The move weight `w(v)`.
    pub fn weight(&self, v: VertexId) -> i64 {
        self.weight[v.index()]
    }

    /// The gain `b(v)·w(v)` the closure selection sees for `v`
    /// (meaningless while `v` is frozen — frozen vertices contribute no
    /// gain arc at all).
    pub fn gain(&self, v: VertexId) -> i64 {
        self.b[v.index()] * self.weight[v.index()]
    }

    /// Raises the move weight of `v` (weights are monotone: lowering a
    /// weight could oscillate; see module docs). Returns `true` if the
    /// weight changed.
    pub fn raise_weight(&mut self, v: VertexId, w: i64) -> bool {
        if w > self.weight[v.index()] {
            self.weight[v.index()] = w;
            self.gain_log.push(v.index() as u32);
            true
        } else {
            false
        }
    }

    /// Whether `v` is frozen.
    pub fn is_frozen(&self, v: VertexId) -> bool {
        self.frozen[v.index()]
    }

    /// Permanently freezes `v` (no closed set containing it may fire).
    pub fn freeze(&mut self, v: VertexId) {
        if !self.frozen[v.index()] {
            self.frozen[v.index()] = true;
            self.gain_log.push(v.index() as u32);
        }
    }

    /// The append-only log of recorded constraint arcs, in insertion
    /// order (deduplicated: one entry per distinct arc). Consumers that
    /// remember a cursor into this log see exactly the arcs added since.
    pub fn arc_log(&self) -> &[(u32, u32)] {
        &self.arc_log
    }

    /// The append-only log of vertices whose effective gain state
    /// changed (a weight raise or a freeze transition), in event order.
    /// A vertex may appear multiple times; its current state is read
    /// back through [`ConstraintSystem::gain`] /
    /// [`ConstraintSystem::is_frozen`].
    pub fn gain_log(&self) -> &[u32] {
        &self.gain_log
    }

    /// Records the constraint `p → q`. Returns `true` if it is new.
    ///
    /// # Panics
    ///
    /// Panics if `q` is the host (freeze `p` instead).
    pub fn add_arc(&mut self, p: VertexId, q: VertexId) -> bool {
        assert!(
            q.index() != 0,
            "constraints against the host freeze p instead"
        );
        if p == q {
            return false;
        }
        let key = (p.index() as u32, q.index() as u32);
        let new = self.arc_set.insert(key);
        if new {
            self.arc_log.push(key);
        }
        new
    }

    /// Number of stored constraint arcs.
    pub fn num_arcs(&self) -> usize {
        self.arc_log.len()
    }

    /// Computes the maximum-gain closed set under the current arcs,
    /// weights and freezes. Returns the member list (empty when no
    /// closed set has positive gain — the termination condition).
    ///
    /// The returned set is the *canonical* one (see the module docs):
    /// the inclusion-minimal maximum-gain closed set, listed in
    /// ascending vertex order.
    ///
    /// This is a from-scratch Dinic min cut. The solver selects with the
    /// warm [`crate::closure_inc`] engine; this is its oracle, which
    /// debug builds compare with every selection.
    pub fn max_gain_closed_set(&self) -> Vec<VertexId> {
        let n = self.len();
        // Nodes: 0..n = vertices, n = source, n+1 = sink.
        let source = n;
        let sink = n + 1;
        let mut dinic = Dinic::new(n + 2);
        const INF: i64 = i64::MAX / 4;
        let mut total_positive = 0i64;
        for v in 1..n {
            if self.frozen[v] {
                dinic.add_edge(v, sink, INF);
                continue;
            }
            let gain = self.b[v] * self.weight[v];
            if gain > 0 {
                dinic.add_edge(source, v, gain);
                total_positive += gain;
            } else if gain < 0 {
                dinic.add_edge(v, sink, -gain);
            }
        }
        for &(from, to) in &self.arc_log {
            dinic.add_edge(from as usize, to as usize, INF);
        }
        if total_positive == 0 {
            return Vec::new();
        }
        let cut = dinic.max_flow(source, sink);
        if cut >= total_positive {
            return Vec::new(); // best closure has gain <= 0
        }
        // Source side of the min cut = the max-gain closure.
        let reachable = dinic.min_cut_side(source);
        let members: Vec<VertexId> = (1..n)
            .filter(|&v| reachable[v])
            .map(VertexId::new)
            .collect();
        debug_assert!(self.gain_of(&members) > 0);
        debug_assert!(self.is_closed(&members));
        members
    }

    /// The gain `Σ b(v)·w(v)` of a vertex set.
    pub fn gain_of(&self, members: &[VertexId]) -> i64 {
        members
            .iter()
            .map(|v| self.b[v.index()] * self.weight[v.index()])
            .sum()
    }

    /// Whether a set is closed under the constraint arcs (every
    /// successor of a member is a member) and frozen-free.
    pub fn is_closed(&self, members: &[VertexId]) -> bool {
        let mut inside = vec![false; self.len()];
        for v in members {
            if self.frozen[v.index()] {
                return false;
            }
            inside[v.index()] = true;
        }
        self.arc_log
            .iter()
            .all(|&(from, to)| !inside[from as usize] || inside[to as usize])
    }
}

/// Dinic's max-flow (used only for the closure min-cut).
#[derive(Debug)]
struct Dinic {
    to: Vec<usize>,
    cap: Vec<i64>,
    adj: Vec<Vec<usize>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    fn new(n: usize) -> Self {
        Self {
            to: Vec::new(),
            cap: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i64) {
        self.adj[from].push(self.to.len());
        self.to.push(to);
        self.cap.push(cap);
        self.adj[to].push(self.to.len());
        self.to.push(from);
        self.cap.push(0);
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &e in &self.adj[v] {
                if self.cap[e] > 0 && self.level[self.to[e]] < 0 {
                    self.level[self.to[e]] = self.level[v] + 1;
                    queue.push_back(self.to[e]);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, f: i64) -> i64 {
        if v == t {
            return f;
        }
        while self.iter[v] < self.adj[v].len() {
            let e = self.adj[v][self.iter[v]];
            let u = self.to[e];
            if self.cap[e] > 0 && self.level[u] == self.level[v] + 1 {
                let d = self.dfs(u, t, f.min(self.cap[e]));
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            self.iter[v] += 1;
        }
        0
    }

    fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let mut flow = 0;
        while self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let f = self.dfs(s, t, i64::MAX / 4);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// After `max_flow`, the residual-reachable side of the cut.
    fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            for &e in &self.adj[v] {
                if self.cap[e] > 0 && !seen[self.to[e]] {
                    seen[self.to[e]] = true;
                    stack.push(self.to[e]);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn empty_constraints_select_positive_vertices() {
        let cs = ConstraintSystem::new(vec![0, 5, -3, 2]);
        let set = cs.max_gain_closed_set();
        assert_eq!(set, vec![v(1), v(3)]);
    }

    #[test]
    fn arc_drags_cost_when_profitable() {
        let mut cs = ConstraintSystem::new(vec![0, 5, -3]);
        cs.add_arc(v(1), v(2));
        let set = cs.max_gain_closed_set();
        assert_eq!(set.len(), 2);
        assert_eq!(cs.gain_of(&set), 2);
    }

    #[test]
    fn arc_suppresses_unprofitable_move() {
        let mut cs = ConstraintSystem::new(vec![0, 5, -9]);
        cs.add_arc(v(1), v(2));
        assert!(cs.max_gain_closed_set().is_empty());
    }

    #[test]
    fn shared_cost_union_is_found() {
        // Two seeds share one cost: individually unprofitable, jointly
        // profitable — the case a per-seed heuristic would miss.
        let mut cs = ConstraintSystem::new(vec![0, 4, 4, -6]);
        cs.add_arc(v(1), v(3));
        cs.add_arc(v(2), v(3));
        let set = cs.max_gain_closed_set();
        assert_eq!(set.len(), 3);
        assert_eq!(cs.gain_of(&set), 2);
    }

    #[test]
    fn chooses_best_subset_not_everything() {
        // v1 profitable alone; v2's chain is a net loss. Best closure
        // is {v1} only.
        let mut cs = ConstraintSystem::new(vec![0, 4, 3, -10]);
        cs.add_arc(v(2), v(3));
        let set = cs.max_gain_closed_set();
        assert_eq!(set, vec![v(1)]);
    }

    #[test]
    fn weights_multiply_gains() {
        let mut cs = ConstraintSystem::new(vec![0, 5, -2]);
        cs.add_arc(v(1), v(2));
        assert!(cs.raise_weight(v(2), 3)); // cost now 6 > 5
        assert!(cs.max_gain_closed_set().is_empty());
        assert!(!cs.raise_weight(v(2), 2), "weights are monotone");
    }

    #[test]
    fn freeze_excludes_closures() {
        let mut cs = ConstraintSystem::new(vec![0, 5, -1]);
        cs.add_arc(v(1), v(2));
        cs.freeze(v(2));
        assert!(cs.max_gain_closed_set().is_empty());
        // An unrelated positive vertex still fires.
        let mut cs2 = ConstraintSystem::new(vec![0, 5, -1, 7]);
        cs2.add_arc(v(1), v(2));
        cs2.freeze(v(1));
        assert_eq!(cs2.max_gain_closed_set(), vec![v(3)]);
    }

    #[test]
    fn transitive_closure_respected() {
        let mut cs = ConstraintSystem::new(vec![0, 10, -3, -4]);
        cs.add_arc(v(1), v(2));
        cs.add_arc(v(2), v(3));
        let set = cs.max_gain_closed_set();
        assert_eq!(set.len(), 3);
        assert!(cs.is_closed(&set));
    }

    #[test]
    fn duplicate_arcs_counted_once() {
        let mut cs = ConstraintSystem::new(vec![0, 1, -1]);
        assert!(cs.add_arc(v(1), v(2)));
        assert!(!cs.add_arc(v(1), v(2)));
        assert_eq!(cs.num_arcs(), 1);
    }

    #[test]
    fn host_never_selected() {
        let cs = ConstraintSystem::new(vec![1000, 1]);
        let set = cs.max_gain_closed_set();
        assert_eq!(set, vec![v(1)]);
    }

    #[test]
    #[should_panic(expected = "host")]
    fn arc_to_host_panics() {
        let mut cs = ConstraintSystem::new(vec![0, 1]);
        cs.add_arc(v(1), v(0));
    }

    #[test]
    fn change_log_records_arcs_weights_and_freezes() {
        let mut cs = ConstraintSystem::new(vec![0, 5, -3]);
        assert!(cs.arc_log().is_empty() && cs.gain_log().is_empty());
        cs.add_arc(v(1), v(2));
        cs.add_arc(v(1), v(2)); // duplicate: not logged again
        assert_eq!(cs.arc_log(), &[(1, 2)]);
        cs.raise_weight(v(2), 3);
        cs.raise_weight(v(2), 2); // no-op: not logged
        cs.freeze(v(1));
        cs.freeze(v(1)); // idempotent: logged once
        assert_eq!(cs.gain_log(), &[2, 1]);
        assert_eq!(cs.gain(v(2)), -9);
    }

    #[test]
    fn same_calls_select_the_same_set() {
        // The network is built from the insertion-ordered arc log, not
        // from an arc order read off a hashed map, which differs from
        // map to map.
        for seed in 0..40 {
            let build = || {
                let mut rng = netlist::rng::SplitMix64::new(seed);
                let mut draw = |m: u64| rng.next_u64() % m;
                let gains = (0..60)
                    .map(|i| if i == 0 { 0 } else { draw(20) as i64 - 10 })
                    .collect();
                let mut cs = ConstraintSystem::new(gains);
                for _ in 0..150 {
                    cs.add_arc(v(1 + draw(59) as usize), v(1 + draw(59) as usize));
                }
                cs
            };
            assert_eq!(
                build().max_gain_closed_set(),
                build().max_gain_closed_set(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn cycle_of_constraints_selected_together() {
        let mut cs = ConstraintSystem::new(vec![0, 5, -2]);
        cs.add_arc(v(1), v(2));
        cs.add_arc(v(2), v(1));
        let set = cs.max_gain_closed_set();
        assert_eq!(set.len(), 2);
    }
}
