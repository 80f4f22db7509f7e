//! Warm-started incremental selection of maximum-gain closed sets.
//!
//! The solver calls [`crate::closure::ConstraintSystem::max_gain_closed_set`]
//! once per loop iteration, and after PR 2 made constraint *checking*
//! ~1000× cheaper that min-cut became the dominant cost (~98% of solve
//! time, `closure_nanos` in `BENCH_solver.json`): every iteration
//! rebuilt the flow network and ran Dinic from zero flow, even though
//! successive iterations differ only by the last violation's deltas —
//! one weight raise, one constraint arc, or one freeze.
//!
//! [`IncrementalClosure`] instead **persists the residual graph**
//! across calls. Between two selections it consumes the constraint
//! system's append-only change log ([`ConstraintSystem::gain_log`] /
//! [`ConstraintSystem::arc_log`]) and applies the corresponding
//! capacity deltas to the live residual:
//!
//! * a **capacity increase** (weight raise growing `|b·w|`, a new
//!   constraint arc, the `INF` sink arc of a freeze) keeps the current
//!   flow feasible — nothing to repair;
//! * a **capacity decrease below the current flow** (a freeze removing
//!   a positive gain arc; in general any gain shrink or sign flip) is
//!   repaired locally: the overflow is cancelled along flow-carrying
//!   paths — downstream to the sink for source-side arcs, upstream to
//!   the source for sink-side arcs — which flow conservation
//!   guarantees exist (the cancelled units belong to source→sink paths
//!   of the flow decomposition through that arc).
//!
//! With the flow feasible again, Dinic's phases **resume from the
//! repaired residual** instead of zero flow, and the closure is
//! re-extracted from the new maximum flow. When a delta batch dirties
//! more than `rebuild_percent` percent of the vertices the engine
//! falls back to a fresh build (mirroring the checker's
//! `max_dirty_percent`), and when no deltas are pending — the common
//! case right after a commit, which leaves the constraint system
//! untouched — the previous member list is served from cache without
//! touching a single arc.
//!
//! # Why the result is bit-identical to the from-scratch engine
//!
//! Both engines implement the canonical closure-selection rule of
//! [`crate::closure`]: *the inclusion-minimal maximum-gain closed set*,
//! extracted as the source-reachable side of the residual graph of a
//! maximum flow, listed in ascending vertex order. A maximum flow is
//! not unique, but by the Picard–Queyranne structure of minimum cuts
//! the residual source-reachable set is the same for **every** maximum
//! flow of the same capacitated network. The warm residual describes
//! the same capacities as a fresh build (cancelled arcs end at zero
//! flow and capacity-0 arcs are invisible to reachability), and
//! `resume` drives it to *a* maximum flow — hence the extracted member
//! list is identical to the fresh engine's, and the solver's
//! `debug_assert!` differential oracle plus the property suite in
//! `tests/properties.rs` verify exactly that on every debug-mode call.

use std::time::Instant;

use retime::VertexId;

use crate::closure::ConstraintSystem;
use crate::incremental::PerfCounters;

const INF: i64 = i64::MAX / 4;

/// Default rebuild threshold of the warm engine, in percent of `|V|`.
pub const DEFAULT_REBUILD_PERCENT: u32 = 50;

/// Which engine the solver uses to select max-gain closed sets
/// ([`crate::algorithm::SolverConfig::with_closure_engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureEngine {
    /// Rebuild the flow network and run Dinic from zero flow on every
    /// closure call (the [`crate::closure`] baseline).
    Fresh,
    /// Persist the residual graph across calls ([`IncrementalClosure`]),
    /// falling back to a fresh build when a delta batch dirties more
    /// than `rebuild_percent` percent of the vertices (`0` forces the
    /// fallback on every delta, `100` never falls back).
    Warm {
        /// Dirty-vertex fallback threshold in percent of `|V|`.
        rebuild_percent: u32,
    },
}

impl Default for ClosureEngine {
    fn default() -> Self {
        ClosureEngine::Warm {
            rebuild_percent: DEFAULT_REBUILD_PERCENT,
        }
    }
}

/// The warm-started closure engine (see the module docs for the
/// algorithm and the bit-identity argument).
///
/// One instance serves one [`ConstraintSystem`] for its lifetime (the
/// solver creates one per phase); it observes mutations through the
/// system's change log, so callers only mutate the system and call
/// [`IncrementalClosure::select`].
#[derive(Debug)]
pub struct IncrementalClosure {
    rebuild_percent: u32,
    built: bool,
    /// Constraint-system vertices, including the host. Network nodes
    /// are `0..n` = vertices, `n` = source, `n + 1` = sink.
    n: usize,
    // Paired-edge residual network: forward arcs at even ids, their
    // reverse at odd ids (`e ^ 1`), like the from-scratch Dinic.
    to: Vec<u32>,
    cap: Vec<i64>,
    adj: Vec<Vec<u32>>,
    level: Vec<i32>,
    iter: Vec<usize>,
    /// Edge id of the source→v arc (-1 = not created yet).
    src_edge: Vec<i32>,
    /// Edge id of the v→sink arc (-1 = not created yet).
    snk_edge: Vec<i32>,
    /// The gain `b(v)·w(v)` currently encoded in the capacities.
    gain: Vec<i64>,
    frozen: Vec<bool>,
    total_positive: i64,
    flow: i64,
    arc_cursor: usize,
    gain_cursor: usize,
    cached: Vec<VertexId>,
    /// Membership bitset over `cached` (indexed by vertex), kept in
    /// sync by [`IncrementalClosure::extract`]; the delta classifier of
    /// the provably-unchanged-cut fast path queries it.
    in_cut: Vec<bool>,
    touched: u64,
    scratch: Vec<u32>,
}

impl IncrementalClosure {
    /// Creates an engine with the given rebuild threshold (percent of
    /// `|V|`; see [`ClosureEngine::Warm`]). The network is built lazily
    /// on the first [`IncrementalClosure::select`].
    pub fn new(rebuild_percent: u32) -> Self {
        Self {
            rebuild_percent,
            built: false,
            n: 0,
            to: Vec::new(),
            cap: Vec::new(),
            adj: Vec::new(),
            level: Vec::new(),
            iter: Vec::new(),
            src_edge: Vec::new(),
            snk_edge: Vec::new(),
            gain: Vec::new(),
            frozen: Vec::new(),
            total_positive: 0,
            flow: 0,
            arc_cursor: 0,
            gain_cursor: 0,
            cached: Vec::new(),
            in_cut: Vec::new(),
            touched: 0,
            scratch: Vec::new(),
        }
    }

    /// Returns the canonical maximum-gain closed set of `system`,
    /// bit-identical to [`ConstraintSystem::max_gain_closed_set`].
    ///
    /// Applies every change-log delta recorded since the previous call,
    /// repairs and resumes the persistent residual (or rebuilds past
    /// the threshold), and updates `perf` (`closure_calls`,
    /// `closure_arcs_touched`, `closure_fallback_full`,
    /// `closure_warm_nanos`).
    pub fn select(&mut self, system: &ConstraintSystem, perf: &mut PerfCounters) -> Vec<VertexId> {
        let t0 = Instant::now();
        self.touched = 0;
        perf.closure_calls += 1;
        if !self.built {
            self.rebuild(system);
        } else {
            let pending_arcs = system.arc_log().len() - self.arc_cursor;
            let pending_gains = system.gain_log().len() - self.gain_cursor;
            if pending_arcs + pending_gains > 0 {
                self.scratch.clear();
                self.scratch
                    .extend_from_slice(&system.gain_log()[self.gain_cursor..]);
                for &(p, q) in &system.arc_log()[self.arc_cursor..] {
                    self.scratch.push(p);
                    self.scratch.push(q);
                }
                self.scratch.sort_unstable();
                self.scratch.dedup();
                if self.cut_provably_unchanged(system) {
                    // Every pending delta is a sink-side capacity
                    // increase on a non-member or a constraint arc that
                    // cannot reach a new vertex from the source side:
                    // the maximum flow, the minimum cut and the
                    // source-reachable set are all provably unchanged
                    // (see the module docs), so the deltas are folded
                    // into the residual and the cached member list is
                    // served without a resume or re-extraction.
                    self.apply_deltas(system);
                    perf.closure_skips += 1;
                } else if self.scratch.len() * 100 > self.rebuild_percent as usize * self.n {
                    perf.closure_fallback_full += 1;
                    self.rebuild(system);
                } else {
                    self.apply_deltas(system);
                    self.resume();
                    self.extract();
                }
            }
            // No pending deltas: the previous extraction is still exact
            // (the system — hence the network — is unchanged), so the
            // cached member list is served without touching any arc.
        }
        perf.closure_arcs_touched += self.touched;
        perf.closure_warm_nanos += t0.elapsed().as_nanos() as u64;
        perf.member_clone_bytes += std::mem::size_of_val(self.cached.as_slice()) as u64;
        self.cached.clone()
    }

    fn source(&self) -> usize {
        self.n
    }

    fn sink(&self) -> usize {
        self.n + 1
    }

    /// Fresh build: the same network the from-scratch engine
    /// constructs, followed by a full Dinic run and extraction.
    fn rebuild(&mut self, system: &ConstraintSystem) {
        let n = system.len();
        self.n = n;
        let nodes = n + 2;
        // Right-size up front and reuse every buffer's capacity (and
        // the adjacency lists' inner allocations) across rebuilds — on
        // 10k+-vertex networks the warm engine's full-rebuild fallback
        // would otherwise re-allocate the whole residual each time.
        let edge_estimate = 2 * (n + system.arc_log().len());
        self.to.clear();
        self.to.reserve(edge_estimate);
        self.cap.clear();
        self.cap.reserve(edge_estimate);
        for a in self.adj.iter_mut() {
            a.clear();
        }
        self.adj.resize_with(nodes, Vec::new);
        self.level.clear();
        self.level.resize(nodes, -1);
        self.iter.clear();
        self.iter.resize(nodes, 0);
        self.src_edge.clear();
        self.src_edge.resize(n, -1);
        self.snk_edge.clear();
        self.snk_edge.resize(n, -1);
        self.gain.clear();
        self.gain.resize(n, 0);
        self.frozen.clear();
        self.frozen.resize(n, false);
        self.frozen[0] = true;
        self.total_positive = 0;
        self.flow = 0;
        let (s, t) = (self.source(), self.sink());
        for v in 1..n {
            let v_id = VertexId::new(v);
            if system.is_frozen(v_id) {
                self.frozen[v] = true;
                self.snk_edge[v] = self.add_edge(v, t, INF) as i32;
                continue;
            }
            let g = system.gain(v_id);
            self.gain[v] = g;
            if g > 0 {
                self.src_edge[v] = self.add_edge(s, v, g) as i32;
                self.total_positive += g;
            } else if g < 0 {
                self.snk_edge[v] = self.add_edge(v, t, -g) as i32;
            }
        }
        for &(p, q) in system.arc_log() {
            self.add_edge(p as usize, q as usize, INF);
        }
        self.arc_cursor = system.arc_log().len();
        self.gain_cursor = system.gain_log().len();
        self.built = true;
        self.resume();
        self.extract();
    }

    /// Classifies the pending change-log deltas: `true` iff **every**
    /// one of them provably leaves the maximum flow, the minimum cut
    /// and the residual source-reachable set untouched, so
    /// [`IncrementalClosure::select`] may fold them into the residual
    /// and serve the cached member list without a resume or
    /// re-extraction. The safe cases:
    ///
    /// * a gain decrease `g_new < g_old ≤ 0` on a non-member — a pure
    ///   sink-arc capacity increase on a vertex the source cannot
    ///   reach, so no augmenting path can appear and reachability is
    ///   unchanged;
    /// * a freeze of a non-member with `g_old ≤ 0` — the same, with
    ///   the sink cap going to `INF`;
    /// * a redundant state change on an already-frozen vertex (the
    ///   engine ignores it entirely);
    /// * a constraint arc `p → q` whose tail is a non-member (the
    ///   source cannot reach `p`, so the `INF` arc adds no
    ///   reachability), or whose endpoints are **both** members (`q` is
    ///   already reachable, and `q` has no residual path to the sink —
    ///   otherwise the previous flow was not maximum — so the arc
    ///   creates no augmenting path either).
    ///
    /// Anything touching a source-side capacity, shrinking a sink cap
    /// (which may force a flow cancellation), or reaching a new vertex
    /// is conservatively classified as unsafe. The solver's debug-mode
    /// differential oracle re-derives every served member list from
    /// scratch, guarding exactly this proof.
    fn cut_provably_unchanged(&self, system: &ConstraintSystem) -> bool {
        for &v in &system.gain_log()[self.gain_cursor..] {
            let v = v as usize;
            if self.frozen[v] {
                continue; // permanent; the engine ignores later changes
            }
            if self.in_cut[v] {
                return false; // any cap change on a member can move flow
            }
            let g_old = self.gain[v];
            if g_old > 0 {
                return false; // source-side capacity is involved
            }
            let v_id = VertexId::new(v);
            if system.is_frozen(v_id) {
                continue; // sink cap INF: a pure increase on a non-member
            }
            let g_new = system.gain(v_id);
            if g_new > g_old {
                return false; // sink cap shrink (or sign flip): may cancel
            }
        }
        for &(p, q) in &system.arc_log()[self.arc_cursor..] {
            if self.in_cut[p as usize] && !self.in_cut[q as usize] {
                return false; // the INF arc pulls q into the reachable set
            }
        }
        true
    }

    /// Applies the pending change-log deltas (the dirty vertices are
    /// already collected in `scratch`) and advances the cursors.
    fn apply_deltas(&mut self, system: &ConstraintSystem) {
        let dirty = std::mem::take(&mut self.scratch);
        for &v in &dirty {
            self.apply_vertex_state(system, v as usize);
        }
        self.scratch = dirty;
        for i in self.arc_cursor..system.arc_log().len() {
            let (p, q) = system.arc_log()[i];
            self.add_edge(p as usize, q as usize, INF);
        }
        self.arc_cursor = system.arc_log().len();
        self.gain_cursor = system.gain_log().len();
    }

    /// Reconciles one vertex's source/sink capacities with its current
    /// state in the system (no-op when nothing effectively changed).
    fn apply_vertex_state(&mut self, system: &ConstraintSystem, v: usize) {
        if self.frozen[v] {
            return; // freezes are permanent; gains of frozen vertices are ignored
        }
        let v_id = VertexId::new(v);
        if system.is_frozen(v_id) {
            let g = self.gain[v];
            if g > 0 {
                self.total_positive -= g;
                self.set_source_cap(v, 0);
            }
            self.set_sink_cap(v, INF);
            self.frozen[v] = true;
            self.gain[v] = 0;
        } else {
            let g_new = system.gain(v_id);
            let g_old = self.gain[v];
            if g_new == g_old {
                return;
            }
            self.total_positive += g_new.max(0) - g_old.max(0);
            if g_old > 0 || g_new > 0 {
                self.set_source_cap(v, g_new.max(0));
            }
            if g_old < 0 || g_new < 0 {
                self.set_sink_cap(v, (-g_new).max(0));
            }
            self.gain[v] = g_new;
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> u32 {
        self.touched += 1;
        let id = self.to.len() as u32;
        self.adj[from].push(id);
        self.to.push(to as u32);
        self.cap.push(cap);
        self.adj[to].push(id + 1);
        self.to.push(from as u32);
        self.cap.push(0);
        id
    }

    fn ensure_src_edge(&mut self, v: usize) -> usize {
        if self.src_edge[v] < 0 {
            let s = self.source();
            self.src_edge[v] = self.add_edge(s, v, 0) as i32;
        }
        self.src_edge[v] as usize
    }

    fn ensure_snk_edge(&mut self, v: usize) -> usize {
        if self.snk_edge[v] < 0 {
            let t = self.sink();
            self.snk_edge[v] = self.add_edge(v, t, 0) as i32;
        }
        self.snk_edge[v] as usize
    }

    /// Sets the total capacity of the source→v arc to `target`. When
    /// the arc's current flow exceeds `target`, the overflow is
    /// cancelled downstream (v ⇝ sink along flow-carrying arcs) first.
    fn set_source_cap(&mut self, v: usize, target: i64) {
        let e = self.ensure_src_edge(v);
        self.touched += 1;
        let flow_on = self.cap[e ^ 1];
        if target >= flow_on {
            self.cap[e] = target - flow_on;
        } else {
            let excess = flow_on - target;
            self.cancel(v, excess, true);
            self.cap[e ^ 1] = target;
            self.cap[e] = 0;
            self.flow -= excess;
        }
    }

    /// Sets the total capacity of the v→sink arc to `target`. When the
    /// arc's current flow exceeds `target`, the overflow is cancelled
    /// upstream (v ⇝ source backward along flow-carrying arcs) first.
    fn set_sink_cap(&mut self, v: usize, target: i64) {
        let e = self.ensure_snk_edge(v);
        self.touched += 1;
        let flow_on = self.cap[e ^ 1];
        if target >= flow_on {
            self.cap[e] = target - flow_on;
        } else {
            let excess = flow_on - target;
            self.cancel(v, excess, false);
            self.cap[e ^ 1] = target;
            self.cap[e] = 0;
            self.flow -= excess;
        }
    }

    /// Cancels `amount` units of flow through `start`: `downstream`
    /// follows flow-carrying forward arcs to the sink (restoring
    /// conservation after a source-side inflow cut), otherwise
    /// flow-carrying arcs are walked backward to the source (after a
    /// sink-side outflow cut). Flow decomposition guarantees the paths
    /// exist; see the module docs.
    fn cancel(&mut self, start: usize, mut amount: i64, downstream: bool) {
        let target = if downstream {
            self.sink()
        } else {
            self.source()
        };
        while amount > 0 {
            let path = self
                .find_flow_path(start, target, downstream)
                .expect("flow conservation guarantees a cancellation path");
            let mut step = amount;
            for &e in &path {
                let carried = if downstream {
                    self.cap[(e ^ 1) as usize]
                } else {
                    self.cap[e as usize]
                };
                step = step.min(carried);
            }
            debug_assert!(step > 0);
            for &e in &path {
                if downstream {
                    self.cap[e as usize] += step;
                    self.cap[(e ^ 1) as usize] -= step;
                } else {
                    self.cap[e as usize] -= step;
                    self.cap[(e ^ 1) as usize] += step;
                }
            }
            amount -= step;
        }
    }

    /// DFS for a simple path of flow-carrying arcs from `start` to
    /// `target`. Downstream paths use forward arcs (even ids) whose
    /// reverse residual — the flow — is positive; upstream paths use
    /// reverse arcs (odd ids) whose own residual is the paired forward
    /// arc's flow.
    fn find_flow_path(
        &mut self,
        start: usize,
        target: usize,
        downstream: bool,
    ) -> Option<Vec<u32>> {
        let mut visited = vec![false; self.adj.len()];
        visited[start] = true;
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path: Vec<u32> = Vec::new();
        while let Some(&(node, idx)) = stack.last() {
            if idx >= self.adj[node].len() {
                stack.pop();
                path.pop();
                continue;
            }
            stack.last_mut().expect("non-empty stack").1 += 1;
            let e = self.adj[node][idx];
            self.touched += 1;
            let usable = if downstream {
                e.is_multiple_of(2) && self.cap[(e ^ 1) as usize] > 0
            } else {
                !e.is_multiple_of(2) && self.cap[e as usize] > 0
            };
            if !usable {
                continue;
            }
            let next = self.to[e as usize] as usize;
            if visited[next] {
                continue;
            }
            visited[next] = true;
            path.push(e);
            if next == target {
                return Some(path);
            }
            stack.push((next, 0));
        }
        None
    }

    /// Resumes Dinic's phases from the current (feasible) residual
    /// until no augmenting path remains.
    fn resume(&mut self) {
        let (s, t) = (self.source(), self.sink());
        while self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let f = self.dfs(s, t, INF);
                if f == 0 {
                    break;
                }
                self.flow += f;
            }
        }
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            // No shortest augmenting path leaves a node at or past the
            // sink's level, so the level graph is complete here.
            if self.level[t] >= 0 && self.level[v] >= self.level[t] {
                break;
            }
            self.touched += self.adj[v].len() as u64;
            for &e in &self.adj[v] {
                let u = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && self.level[u] < 0 {
                    self.level[u] = self.level[v] + 1;
                    queue.push_back(u);
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
            let e = self.adj[v][self.iter[v]] as usize;
            let u = self.to[e] as usize;
            self.touched += 1;
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

    /// Re-extracts the canonical closure into the cache. `resume`'s
    /// last BFS failed to reach the sink, so its labels mark exactly
    /// the residual source-reachable set of the maximum flow.
    fn extract(&mut self) {
        debug_assert!(self.level[self.sink()] < 0, "extract needs a maximum flow");
        self.cached.clear();
        self.in_cut.clear();
        self.in_cut.resize(self.n, false);
        if self.flow >= self.total_positive {
            return; // best closure has gain <= 0 (or no positive gain at all)
        }
        for v in 1..self.n {
            if self.level[v] >= 0 {
                self.in_cut[v] = true;
                self.cached.push(VertexId::new(v));
            }
        }
    }

    /// Test hook: overrides the encoded gain of `v` directly (the
    /// production path only ever sees the monotone raises and freezes
    /// the change log carries; sign flips and magnitude drops are
    /// exercised through this hook).
    #[cfg(test)]
    fn force_gain(&mut self, v: usize, g_new: i64) {
        assert!(self.built && !self.frozen[v]);
        let g_old = self.gain[v];
        self.total_positive += g_new.max(0) - g_old.max(0);
        if g_old > 0 || g_new > 0 {
            self.set_source_cap(v, g_new.max(0));
        }
        if g_old < 0 || g_new < 0 {
            self.set_sink_cap(v, (-g_new).max(0));
        }
        self.gain[v] = g_new;
    }

    /// Test hook: re-optimizes after [`IncrementalClosure::force_gain`]
    /// and returns the canonical closure.
    #[cfg(test)]
    fn reoptimize(&mut self) -> Vec<VertexId> {
        self.resume();
        self.extract();
        self.cached.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// Fresh oracle over explicit gains/arcs/freezes (weights all 1,
    /// so `gain == b`).
    fn fresh(gains: &[i64], arcs: &[(usize, usize)], frozen: &[usize]) -> Vec<VertexId> {
        let mut cs = ConstraintSystem::new(gains.to_vec());
        for &(p, q) in arcs {
            cs.add_arc(v(p), v(q));
        }
        for &f in frozen {
            cs.freeze(v(f));
        }
        cs.max_gain_closed_set()
    }

    /// Builds a warm engine over the same instance.
    fn warm(gains: &[i64], arcs: &[(usize, usize)]) -> (IncrementalClosure, PerfCounters) {
        let mut cs = ConstraintSystem::new(gains.to_vec());
        for &(p, q) in arcs {
            cs.add_arc(v(p), v(q));
        }
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        let got = engine.select(&cs, &mut perf);
        assert_eq!(got, fresh(gains, arcs, &[]), "initial build must agree");
        (engine, perf)
    }

    #[test]
    fn capacity_drop_below_current_flow_is_repaired() {
        // v1 (gain 10) drags v2 (gain -4): flow 4 crosses the network.
        let gains = [0, 10, -4];
        let arcs = [(1, 2)];
        let (mut engine, _) = warm(&gains, &arcs);
        assert_eq!(engine.flow, 4);
        // Drop v1's gain to 2 < flow 4: repair must cancel 2 units
        // downstream, then conclude the closure is empty (2 - 4 < 0).
        engine.force_gain(1, 2);
        assert_eq!(engine.reoptimize(), fresh(&[0, 2, -4], &arcs, &[]));
        assert!(engine.reoptimize().is_empty());
        // And back up: the drained residual must accept new flow.
        engine.force_gain(1, 9);
        assert_eq!(engine.reoptimize(), fresh(&[0, 9, -4], &arcs, &[]));
    }

    #[test]
    fn gain_sign_flip_migrates_arc_sides() {
        // v1 feeds flow through the chain; flipping its gain negative
        // moves it from a source-side arc to a sink-side arc, and the
        // previously-pushed flow must be fully cancelled.
        let gains = [0, 6, -3, 4];
        let arcs = [(1, 2), (3, 2)];
        let (mut engine, _) = warm(&gains, &arcs);
        engine.force_gain(1, -5);
        assert_eq!(engine.reoptimize(), fresh(&[0, -5, -3, 4], &arcs, &[]));
        // Flip the other way: a cost becomes a seed.
        engine.force_gain(2, 7);
        assert_eq!(engine.reoptimize(), fresh(&[0, -5, 7, 4], &arcs, &[]));
        // And flip v1 back positive again.
        engine.force_gain(1, 1);
        assert_eq!(engine.reoptimize(), fresh(&[0, 1, 7, 4], &arcs, &[]));
    }

    #[test]
    fn empty_closure_after_delta_and_recovery() {
        let gains = [0, 5, -2];
        let arcs = [(1, 2)];
        let (mut engine, _) = warm(&gains, &arcs);
        assert_eq!(engine.cached.len(), 2);
        // Shrink the seed until the closure gain goes non-positive.
        engine.force_gain(1, 2);
        assert!(engine.reoptimize().is_empty());
        assert_eq!(engine.reoptimize(), fresh(&[0, 2, -2], &arcs, &[]));
        // total_positive bookkeeping survives the empty round.
        engine.force_gain(1, 4);
        assert_eq!(engine.reoptimize(), fresh(&[0, 4, -2], &arcs, &[]));
    }

    #[test]
    fn repeated_deltas_to_the_same_vertex() {
        let gains = [0, 8, -5, -5];
        let arcs = [(1, 2), (1, 3)];
        let (mut engine, _) = warm(&gains, &arcs);
        let mut cur = gains.to_vec();
        for g in [12, 3, -1, 0, 15, 9, 11] {
            engine.force_gain(1, g);
            cur[1] = g;
            assert_eq!(engine.reoptimize(), fresh(&cur, &arcs, &[]), "gain {g}");
        }
    }

    #[test]
    fn freeze_with_flow_cancels_downstream_via_public_path() {
        // The production-path capacity drop: freezing a positive-gain
        // vertex whose source arc carries flow.
        let mut cs = ConstraintSystem::new(vec![0, 10, -4, 3]);
        cs.add_arc(v(1), v(2));
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        cs.freeze(v(1));
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        assert_eq!(engine.select(&cs, &mut perf), vec![v(3)]);
    }

    #[test]
    fn warm_engine_tracks_system_mutations() {
        let mut cs = ConstraintSystem::new(vec![0, 8, -3, 5, -6, 2]);
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        let mut step = |engine: &mut IncrementalClosure, cs: &ConstraintSystem, what: &str| {
            let got = engine.select(cs, &mut perf);
            let want = cs.max_gain_closed_set();
            assert_eq!(got, want, "after {what}");
            assert_eq!(cs.gain_of(&got), cs.gain_of(&want), "gain after {what}");
        };
        step(&mut engine, &cs, "build");
        cs.add_arc(v(1), v(2));
        step(&mut engine, &cs, "arc 1->2");
        cs.raise_weight(v(2), 2);
        step(&mut engine, &cs, "raise w(2)");
        cs.add_arc(v(3), v(4));
        step(&mut engine, &cs, "arc 3->4");
        cs.raise_weight(v(4), 2);
        step(&mut engine, &cs, "raise w(4): {3,4} turns net-negative");
        cs.add_arc(v(5), v(4));
        step(&mut engine, &cs, "arc 5->4");
        cs.freeze(v(1));
        step(&mut engine, &cs, "freeze 1");
        cs.freeze(v(3));
        step(&mut engine, &cs, "freeze 3");
        cs.raise_weight(v(1), 5); // weight raise on a frozen vertex: no-op
        step(&mut engine, &cs, "raise w(1) while frozen");
        cs.freeze(v(5));
        step(&mut engine, &cs, "freeze 5: nothing positive remains");
        assert!(engine.select(&cs, &mut perf).is_empty());
    }

    #[test]
    fn unchanged_system_serves_cached_closure() {
        let mut cs = ConstraintSystem::new(vec![0, 4, -1]);
        cs.add_arc(v(1), v(2));
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        let first = engine.select(&cs, &mut perf);
        let after_build = perf.closure_arcs_touched;
        assert!(after_build > 0);
        let second = engine.select(&cs, &mut perf);
        assert_eq!(first, second);
        assert_eq!(
            perf.closure_arcs_touched, after_build,
            "a cached call must not touch any arc"
        );
        assert_eq!(perf.closure_calls, 2);
    }

    #[test]
    fn rebuild_threshold_forces_and_forbids_fallback() {
        let gains = vec![0, 6, -2, 3];
        // threshold 0: every pending delta forces a full rebuild.
        let mut cs = ConstraintSystem::new(gains.clone());
        let mut engine = IncrementalClosure::new(0);
        let mut perf = PerfCounters::default();
        engine.select(&cs, &mut perf);
        assert_eq!(
            perf.closure_fallback_full, 0,
            "initial build is not a fallback"
        );
        cs.add_arc(v(1), v(2));
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        assert_eq!(perf.closure_fallback_full, 1);
        // threshold 100: the dirty set can never exceed |V|, so the
        // engine never falls back.
        let mut cs = ConstraintSystem::new(gains);
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        engine.select(&cs, &mut perf);
        cs.add_arc(v(1), v(2));
        cs.raise_weight(v(2), 3);
        cs.freeze(v(3));
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        assert_eq!(perf.closure_fallback_full, 0);
    }
}
