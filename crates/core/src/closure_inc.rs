//! Warm-started incremental selection of maximum-gain closed sets.
//!
//! The solver selects one maximum-gain closed set per loop iteration,
//! and that min cut is the dominant cost of a solve (`closure_nanos` in
//! `BENCH_solver.json`). Successive calls differ only by the last
//! violation batch's deltas: weight raises, constraint arcs and
//! freezes.
//!
//! [`IncrementalClosure`] runs the Boykov–Kolmogorov (BK) max-flow
//! algorithm and **keeps its two search trees across calls** for the
//! lifetime of the engine (one solver phase), repairing only what a
//! delta touches — the "dynamic graph cuts" of Kohli & Torr (ICCV
//! 2005), with the tree-reuse step modelled on
//! `maxflow_reuse_trees_init` of Kolmogorov's maxflow v3.
//!
//! # Terminal arcs as one signed residual
//!
//! There are no source or sink nodes. Each vertex `v` carries one
//! signed terminal residual `tr_cap[v]`: positive is residual capacity
//! from the source, negative is residual capacity to the sink. Its
//! encoded terminal capacity `c(v)` is the gain `b(v)·w(v)` (the
//! source arc when positive, the sink arc when negative), `-INF` once
//! `v` is frozen, and `0` for the host. A delta that moves `c(v)` by Δ
//! moves `tr_cap[v]` by the same Δ. This is Kohli–Torr
//! reparameterization: lowering a terminal capacity below the flow it
//! carries is the same as raising the *other* terminal arc of `v` by a
//! constant, and adding one constant to both terminal arcs of `v`
//! moves every s–t cut by that constant. The minimum cuts stay where
//! they are and no flow is ever cancelled.
//!
//! # Repair at the next selection
//!
//! [`IncrementalClosure::select`] consumes the constraint system's
//! append-only change log ([`ConstraintSystem::gain_log`],
//! [`ConstraintSystem::arc_log`]) and repairs the trees:
//!
//! * a vertex whose residual changed is re-rooted at its terminal
//!   (source tree when positive, sink tree when negative), or orphaned
//!   when the residual is now 0;
//! * a vertex that switches trees orphans its children and activates
//!   the neighbours of the other tree that have residual toward it;
//! * a new constraint arc only activates its two endpoints: a capacity
//!   increase never breaks a tree arc.
//!
//! Then BK's grow / augment / adopt loop runs as usual, with its
//! timestamp/distance adoption heuristic. A call with no pending delta
//! serves the cached member list without touching an arc.
//!
//! # Why the result is bit-identical to the from-scratch oracle
//!
//! This engine and the from-scratch Dinic min cut of
//! [`ConstraintSystem::max_gain_closed_set`], its oracle, implement
//! the canonical closure-selection rule of [`crate::closure`]: *the
//! inclusion-minimal maximum-gain closed set*, the residual
//! source-reachable set of a maximum flow, listed in ascending vertex
//! order. By the Picard–Queyranne structure of minimum
//! cuts that set is the same for every maximum flow, and
//! reparameterization does not move the minimum cuts.
//!
//! When BK stops there is no active vertex and no orphan. Every vertex
//! with `tr_cap > 0` is a source-tree root, and every source-tree
//! vertex reaches its root through unsaturated tree arcs, so the source
//! tree lies inside the residual source-reachable set. The source tree
//! is also closed under residual arcs: a passive source-tree vertex
//! with residual toward a free vertex would have grown into it, and
//! residual toward a sink-tree vertex would be an augmenting path.
//! Hence the final source tree *is* the residual source-reachable set,
//! and [`IncrementalClosure::select`] lists it directly. The solver's
//! `debug_assert!` differential oracle and the property suites here and
//! in `tests/properties.rs` check exactly that.
//!
//! # Every answer is certified
//!
//! The solver does not take that argument on trust:
//! `IncrementalClosure::select_certified` checks each answer with a
//! linear-time certificate (`certify`) that reads only the constraint
//! system, the per-arc residuals and `tr_cap`, and uses the source
//! tree's parent pointers as a witness it verifies hop by hop. The
//! flow is the dual that proves the cut: conservation plus a member
//! list that no residual arc leaves and that holds exactly the
//! positive residuals make the list a maximum-gain closed set, and the
//! witness makes it the smallest one (DESIGN.md §10 has the proof). A
//! rejected answer restarts the engine from the whole change log.

use std::collections::VecDeque;
use std::time::Instant;

use retime::VertexId;

use crate::closure::ConstraintSystem;
use crate::perf::PerfCounters;
use crate::SolveError;

const INF: i64 = i64::MAX / 4;

/// `parent` sentinels: not in either tree, attached to its terminal,
/// and waiting for adoption. Any other value is the arc from the vertex
/// to its parent.
const FREE: u32 = u32::MAX;
const TERMINAL: u32 = u32::MAX - 1;
const ORPHAN: u32 = u32::MAX - 2;

/// "No path to a terminal" in the adoption distance search.
const INFINITE_D: u32 = u32::MAX;

/// The warm-started closure engine (see the module docs for the
/// algorithm and the bit-identity argument).
///
/// One instance serves one [`ConstraintSystem`] for its lifetime (the
/// solver creates one per phase); it observes mutations through the
/// system's change log, so callers only mutate the system and call
/// [`IncrementalClosure::select`].
#[derive(Debug, Default)]
pub struct IncrementalClosure {
    built: bool,
    /// Constraint-system vertices, including the host.
    n: usize,
    // Paired-arc residual network over the constraint arcs: forward
    // arcs at even ids, their reverse at odd ids (`a ^ 1`).
    head: Vec<u32>,
    r_cap: Vec<i64>,
    adj: Vec<Vec<u32>>,
    /// The terminal capacity `c(v)` currently encoded in `tr_cap`.
    terminal: Vec<i64>,
    /// Signed terminal residual: `> 0` from the source, `< 0` to the sink.
    tr_cap: Vec<i64>,
    /// Arc to the tree parent, or [`FREE`] / [`TERMINAL`] / [`ORPHAN`].
    parent: Vec<u32>,
    is_sink: Vec<bool>,
    /// Adoption heuristic: when `dist` (tree depth) was last known exact.
    ts: Vec<u64>,
    dist: Vec<u32>,
    time: u64,
    active: Vec<bool>,
    queue: VecDeque<u32>,
    /// Orphans awaiting adoption: an augmentation's nearest its
    /// terminal first, the ones freed parents leave behind last.
    orphans: VecDeque<u32>,
    /// Vertices whose `tr_cap` changed since the last repair.
    changed: Vec<u32>,
    marked: Vec<bool>,
    arc_cursor: usize,
    gain_cursor: usize,
    cached: Vec<VertexId>,
    touched: u64,
}

impl IncrementalClosure {
    /// Creates an engine. The network is built lazily on the first
    /// [`IncrementalClosure::select`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the canonical maximum-gain closed set of `system`,
    /// bit-identical to [`ConstraintSystem::max_gain_closed_set`].
    ///
    /// Applies every change-log delta recorded since the previous call,
    /// repairs the search trees and finishes the maximum flow, and
    /// updates `perf` (`closure_calls`, `closure_arcs_touched`,
    /// `closure_warm_nanos`, `member_clone_bytes`).
    pub fn select(&mut self, system: &ConstraintSystem, perf: &mut PerfCounters) -> Vec<VertexId> {
        let t0 = Instant::now();
        self.touched = 0;
        perf.closure_calls += 1;
        if !self.built {
            self.build(system);
        }
        self.apply_deltas(system);
        // No pending delta: the system (hence the network) is
        // unchanged, so the previous extraction is still exact.
        if !self.changed.is_empty() || !self.queue.is_empty() {
            self.repair();
            self.maxflow();
            self.extract();
        }
        perf.closure_arcs_touched += self.touched;
        perf.closure_warm_nanos += t0.elapsed().as_nanos() as u64;
        perf.member_clone_bytes += std::mem::size_of_val(self.cached.as_slice()) as u64;
        self.cached.clone()
    }

    /// The solver's closure step: [`IncrementalClosure::select`], then
    /// the certificate against the terminal capacities recomputed from
    /// `system`, timed into `perf.certificate_nanos`. A rejected answer
    /// replaces the engine with a new one, whose first selection plants
    /// fresh trees from the whole change log, and counts one restart in
    /// `restarts`.
    ///
    /// # Errors
    ///
    /// [`SolveError::Verification`] when the certificate rejects the
    /// restarted engine's answer too.
    pub(crate) fn select_certified(
        &mut self,
        system: &ConstraintSystem,
        perf: &mut PerfCounters,
        restarts: &mut u32,
    ) -> Result<Vec<VertexId>, SolveError> {
        let certified = |engine: &mut Self, perf: &mut PerfCounters| {
            let members = engine.select(system, perf);
            let t0 = Instant::now();
            let verdict = engine.certify(system, &members, |v| terminal_capacity(system, v));
            perf.certificate_nanos += t0.elapsed().as_nanos() as u64;
            verdict.map(|()| members)
        };
        if let Ok(members) = certified(self, perf) {
            return Ok(members);
        }
        *restarts += 1;
        *self = Self::new();
        certified(self, perf).map_err(|why| {
            SolveError::Verification(format!(
                "the closure certificate rejected a restarted engine: {why}"
            ))
        })
    }

    /// Proves in `O(|V| + |A|)` that `members` is the canonical closure
    /// of `system` when vertex `v` has terminal capacity `capacity(v)`
    /// (the solver passes [`terminal_capacity`]). It reads the system,
    /// the per-arc arrays and `tr_cap`, and the `parent` pointers only
    /// as a witness it checks hop by hop:
    ///
    /// 1. the engine holds exactly the system's arcs, arc `k` forward in
    ///    slot `2k` and reversed in `2k + 1`, both residuals `>= 0` and
    ///    summing to `INF`; the flow on arc `k` is its reverse residual;
    /// 2. flow is conserved in signed form at every vertex:
    ///    `tr_cap[v] == c(v) − (out-flow(v) − in-flow(v))`;
    /// 3. `members` is strictly ascending, no constraint arc leaves it,
    ///    no flow enters it, and it holds every vertex with `tr_cap > 0`
    ///    and none with `tr_cap < 0`;
    /// 4. every member reaches a vertex with `tr_cap > 0` over residual
    ///    arcs inside `members`, along its `parent` chain.
    ///
    /// Returns why the first failing check failed.
    pub(crate) fn certify(
        &self,
        system: &ConstraintSystem,
        members: &[VertexId],
        capacity: impl Fn(usize) -> i64,
    ) -> Result<(), String> {
        // Witness-walk marks; anything but `OUT` is a member.
        const OUT: u8 = 0;
        const MEMBER: u8 = 1;
        const ON_PATH: u8 = 2;
        const REACHES: u8 = 3;
        let n = system.len();
        let arcs = system.arc_log();
        if self.head.len() != 2 * arcs.len()
            || self.r_cap.len() != self.head.len()
            || self.tr_cap.len() != n
            || self.parent.len() != n
        {
            return Err(format!(
                "the engine holds {} arc slots over {} vertices; the system has {} arcs over {n}",
                self.head.len(),
                self.tr_cap.len(),
                arcs.len()
            ));
        }
        let mut mark = vec![OUT; n];
        let mut last = 0;
        for m in members {
            let v = m.index();
            if v <= last || v >= n {
                return Err(format!("member {v} breaks the ascending order in 1..{n}"));
            }
            mark[v] = MEMBER;
            last = v;
        }
        // Out-flow minus in-flow of every vertex.
        let mut net = vec![0i64; n];
        let slots = self.head.chunks_exact(2).zip(self.r_cap.chunks_exact(2));
        for (k, (&(p, q), (head, r_cap))) in arcs.iter().zip(slots).enumerate() {
            if head != [q, p] || p as usize >= n || q as usize >= n {
                return Err(format!(
                    "arc {p}->{q} is not in slots {}/{}",
                    2 * k,
                    2 * k + 1
                ));
            }
            let (p, q) = (p as usize, q as usize);
            let (residual, flow) = (r_cap[0], r_cap[1]);
            if residual < 0 || flow < 0 || residual.checked_add(flow) != Some(INF) {
                return Err(format!("arc {p}->{q} has residuals {residual}/{flow}"));
            }
            net[p] = net[p].checked_add(flow).ok_or("flow overflows")?;
            net[q] = net[q].checked_sub(flow).ok_or("flow overflows")?;
            if mark[p] != OUT && mark[q] == OUT {
                return Err(format!("constraint arc {p}->{q} leaves the member list"));
            }
            if mark[p] == OUT && mark[q] != OUT && flow > 0 {
                return Err(format!("flow {flow} enters the member list along {p}->{q}"));
            }
        }
        for v in 0..n {
            let t = self.tr_cap[v];
            let conserved = capacity(v).checked_sub(net[v]);
            if conserved != Some(t) {
                return Err(format!(
                    "vertex {v} has terminal residual {t}, its capacity and flow give {conserved:?}"
                ));
            }
            if t > 0 && mark[v] == OUT || t < 0 && mark[v] != OUT {
                return Err(format!(
                    "vertex {v} with terminal residual {t} is on the wrong side"
                ));
            }
        }
        let mut path = Vec::new();
        for m in members {
            let mut v = m.index();
            while mark[v] == MEMBER && self.tr_cap[v] <= 0 {
                mark[v] = ON_PATH;
                path.push(v);
                let a = self.parent[v] as usize;
                if a >= self.head.len() || self.head[a ^ 1] as usize != v || self.r_cap[a ^ 1] <= 0
                {
                    return Err(format!("member {v} has no residual arc from a parent"));
                }
                v = self.head[a] as usize;
            }
            match mark[v] {
                OUT => {
                    return Err(format!(
                        "the parent chain of member {m} leaves the list at {v}"
                    ))
                }
                ON_PATH => return Err(format!("the parent chain of member {m} cycles at {v}")),
                _ => mark[v] = REACHES,
            }
            for u in path.drain(..) {
                mark[u] = REACHES;
            }
        }
        Ok(())
    }

    /// Sizes the per-vertex state for `system` with every vertex free
    /// and every terminal capacity 0, and queues every vertex's real
    /// capacity as a delta, so the first repair plants the trees.
    fn build(&mut self, system: &ConstraintSystem) {
        let n = system.len();
        self.n = n;
        self.adj.resize_with(n, Vec::new);
        self.terminal.resize(n, 0);
        self.tr_cap.resize(n, 0);
        self.parent.resize(n, FREE);
        self.is_sink.resize(n, false);
        self.ts.resize(n, 0);
        self.dist.resize(n, 0);
        self.active.resize(n, false);
        self.marked.resize(n, false);
        let arcs = system.arc_log().len();
        self.head.reserve(2 * arcs);
        self.r_cap.reserve(2 * arcs);
        for v in 1..n {
            self.set_terminal(v, terminal_capacity(system, v));
        }
        self.built = true;
    }

    /// Folds the pending change-log deltas into the residual and
    /// advances the cursors: each logged vertex's terminal capacity is
    /// re-read from `system`, and each new constraint arc is added with
    /// its endpoints activated.
    fn apply_deltas(&mut self, system: &ConstraintSystem) {
        for &v in &system.gain_log()[self.gain_cursor..] {
            let v = v as usize;
            self.set_terminal(v, terminal_capacity(system, v));
        }
        self.gain_cursor = system.gain_log().len();
        for &(p, q) in &system.arc_log()[self.arc_cursor..] {
            self.add_arc(p as usize, q as usize);
            self.set_active(p as usize);
            self.set_active(q as usize);
        }
        self.arc_cursor = system.arc_log().len();
    }

    /// Moves the encoded terminal capacity of `v` to `c`, shifting its
    /// signed residual by the same amount (reparameterization), and
    /// marks `v` for the next repair.
    fn set_terminal(&mut self, v: usize, c: i64) {
        let delta = c - self.terminal[v];
        if delta == 0 {
            return;
        }
        self.terminal[v] = c;
        self.tr_cap[v] += delta;
        if !self.marked[v] {
            self.marked[v] = true;
            self.changed.push(v as u32);
        }
    }

    fn add_arc(&mut self, from: usize, to: usize) {
        self.touched += 1;
        let id = self.head.len() as u32;
        self.adj[from].push(id);
        self.head.push(to as u32);
        self.r_cap.push(INF);
        self.adj[to].push(id + 1);
        self.head.push(from as u32);
        self.r_cap.push(0);
    }

    fn set_active(&mut self, v: usize) {
        if !self.active[v] {
            self.active[v] = true;
            self.queue.push_back(v as u32);
        }
    }

    /// The next active vertex that is still in a tree.
    fn next_active(&mut self) -> Option<usize> {
        while let Some(v) = self.queue.pop_front() {
            let v = v as usize;
            self.active[v] = false;
            if self.parent[v] != FREE {
                return Some(v);
            }
        }
        None
    }

    fn set_orphan_front(&mut self, v: usize) {
        self.parent[v] = ORPHAN;
        self.orphans.push_front(v as u32);
    }

    fn set_orphan_rear(&mut self, v: usize) {
        self.parent[v] = ORPHAN;
        self.orphans.push_back(v as u32);
    }

    /// Re-roots every changed vertex at its terminal (or orphans it when
    /// its residual is now 0), fixes up the neighbourhood of every
    /// vertex that switched trees, and runs adoption.
    fn repair(&mut self) {
        self.time += 1;
        let changed = std::mem::take(&mut self.changed);
        for &i in &changed {
            let i = i as usize;
            self.marked[i] = false;
            self.set_active(i);
            let t = self.tr_cap[i];
            if t == 0 {
                if self.parent[i] != FREE {
                    self.set_orphan_rear(i);
                }
                continue;
            }
            let to_sink = t < 0;
            if self.parent[i] == FREE || self.is_sink[i] != to_sink {
                self.is_sink[i] = to_sink;
                for k in 0..self.adj[i].len() {
                    let a = self.adj[i][k] as usize;
                    let j = self.head[a] as usize;
                    self.touched += 1;
                    if self.marked[j] {
                        continue; // re-rooted or orphaned by its own turn
                    }
                    if self.parent[j] == (a ^ 1) as u32 {
                        self.set_orphan_rear(j);
                    }
                    // Residual between `i` and `j`, in the other tree,
                    // in the direction `i`'s new tree grows: an
                    // augmenting path that `j` must get to look at.
                    if self.parent[j] != FREE
                        && self.is_sink[j] != to_sink
                        && self.outward(a, to_sink) > 0
                    {
                        self.set_active(j);
                    }
                }
            }
            self.parent[i] = TERMINAL;
            self.ts[i] = self.time;
            self.dist[i] = 1;
        }
        self.changed = changed;
        self.changed.clear();
        self.adopt();
    }

    /// BK's main loop: grow the trees from active vertices, augment
    /// along every source-to-sink path found, adopt the orphans.
    fn maxflow(&mut self) {
        let mut current: Option<usize> = None;
        loop {
            // After an augmentation the same vertex is scanned again
            // while it stays in a tree.
            let i = match current.take() {
                Some(i) => {
                    self.active[i] = false;
                    Some(i).filter(|&i| self.parent[i] != FREE)
                }
                None => None,
            };
            let Some(i) = i.or_else(|| self.next_active()) else {
                break;
            };
            let middle = self.grow(i);
            self.time += 1;
            if let Some(a) = middle {
                // Keep `i` flagged so adoption does not queue it twice.
                self.active[i] = true;
                current = Some(i);
                self.augment(a);
                self.adopt();
            }
        }
    }

    /// Residual along arc `a` in the direction the tree of `sink`
    /// grows: from the tail to the head of `a` in the source tree, from
    /// the head to the tail in the sink tree.
    fn outward(&self, a: usize, sink: bool) -> i64 {
        if sink {
            self.r_cap[a ^ 1]
        } else {
            self.r_cap[a]
        }
    }

    /// Grows `i`'s tree into its free neighbours; returns the arc from
    /// the source tree to the sink tree when one is reached.
    fn grow(&mut self, i: usize) -> Option<usize> {
        let sink = self.is_sink[i];
        for k in 0..self.adj[i].len() {
            let a = self.adj[i][k] as usize;
            self.touched += 1;
            if self.outward(a, sink) == 0 {
                continue;
            }
            let j = self.head[a] as usize;
            if self.parent[j] == FREE {
                self.is_sink[j] = sink;
                self.attach(j, a ^ 1, i);
                self.set_active(j);
            } else if self.is_sink[j] != sink {
                return Some(if sink { a ^ 1 } else { a });
            } else if self.ts[j] <= self.ts[i] && self.dist[j] > self.dist[i] {
                // Heuristic: shorten j's path to its terminal.
                self.attach(j, a ^ 1, i);
            }
        }
        None
    }

    /// Makes `i` (through arc `a` from `j` to `i`) the tree parent of `j`.
    fn attach(&mut self, j: usize, a: usize, i: usize) {
        self.parent[j] = a as u32;
        self.ts[j] = self.ts[i];
        self.dist[j] = self.dist[i] + 1;
    }

    /// Pushes the bottleneck along the path through `middle` (an arc
    /// from a source-tree vertex to a sink-tree vertex), orphaning every
    /// vertex whose tree arc or terminal residual it saturates.
    fn augment(&mut self, middle: usize) {
        let (tail, head) = (self.head[middle ^ 1] as usize, self.head[middle] as usize);
        let bottleneck = self.r_cap[middle]
            .min(self.path_bottleneck(tail, false))
            .min(self.path_bottleneck(head, true));
        debug_assert!(bottleneck > 0);
        self.r_cap[middle] -= bottleneck;
        self.r_cap[middle ^ 1] += bottleneck;
        self.push_to_terminal(tail, bottleneck, false);
        self.push_to_terminal(head, bottleneck, true);
    }

    /// The least residual on `i`'s tree path to its terminal, the
    /// terminal residual included.
    fn path_bottleneck(&self, mut i: usize, sink: bool) -> i64 {
        let mut bottleneck = i64::MAX;
        loop {
            let a = self.parent[i];
            if a == TERMINAL {
                let terminal = if sink {
                    -self.tr_cap[i]
                } else {
                    self.tr_cap[i]
                };
                return bottleneck.min(terminal);
            }
            let a = a as usize;
            bottleneck = bottleneck.min(self.outward(a ^ 1, sink));
            i = self.head[a] as usize;
        }
    }

    /// Moves `amount` units along `i`'s tree path between it and its
    /// terminal (from the source down to `i`, or from `i` up to the
    /// sink), orphaning each vertex whose tree arc or terminal residual
    /// saturates, nearest the terminal first in the queue.
    fn push_to_terminal(&mut self, mut i: usize, amount: i64, sink: bool) {
        loop {
            let a = self.parent[i];
            if a == TERMINAL {
                break;
            }
            let a = a as usize;
            // The flow runs along `a` (child to parent) in the sink
            // tree and along its reverse in the source tree.
            let along = if sink { a } else { a ^ 1 };
            self.touched += 1;
            self.r_cap[along] -= amount;
            self.r_cap[along ^ 1] += amount;
            if self.r_cap[along] == 0 {
                self.set_orphan_front(i);
            }
            i = self.head[a] as usize;
        }
        self.tr_cap[i] += if sink { amount } else { -amount };
        if self.tr_cap[i] == 0 {
            self.set_orphan_front(i);
        }
    }

    /// Processes orphans until none is left.
    fn adopt(&mut self) {
        while let Some(i) = self.orphans.pop_front() {
            self.process_orphan(i as usize);
        }
    }

    /// Finds orphan `i` a new parent in its own tree — the neighbour with
    /// residual in the tree's direction toward `i` and the shortest
    /// known path to the terminal — or frees it: then its children
    /// become orphans and the same-tree neighbours that could grow back
    /// into it become active.
    fn process_orphan(&mut self, i: usize) {
        let sink = self.is_sink[i];
        let mut best = FREE;
        let mut d_min = INFINITE_D;
        for k in 0..self.adj[i].len() {
            let a0 = self.adj[i][k] as usize;
            self.touched += 1;
            if self.outward(a0 ^ 1, sink) == 0 {
                continue;
            }
            let j0 = self.head[a0] as usize;
            if self.is_sink[j0] != sink || self.parent[j0] == FREE {
                continue;
            }
            let mut d = self.distance_to_terminal(j0);
            if d < INFINITE_D {
                if d < d_min {
                    best = a0 as u32;
                    d_min = d;
                }
                // Stamp the exact distances along the path.
                let mut j = j0;
                while self.ts[j] != self.time {
                    self.ts[j] = self.time;
                    self.dist[j] = d;
                    d -= 1;
                    j = self.head[self.parent[j] as usize] as usize;
                }
            }
        }
        if best != FREE {
            self.parent[i] = best;
            self.ts[i] = self.time;
            self.dist[i] = d_min + 1;
            return;
        }
        self.parent[i] = FREE;
        for k in 0..self.adj[i].len() {
            let a0 = self.adj[i][k] as usize;
            let j = self.head[a0] as usize;
            self.touched += 1;
            let a = self.parent[j];
            if self.is_sink[j] != sink || a == FREE {
                continue;
            }
            if self.outward(a0 ^ 1, sink) > 0 {
                self.set_active(j);
            }
            if a != TERMINAL && a != ORPHAN && self.head[a as usize] as usize == i {
                self.set_orphan_rear(j);
            }
        }
    }

    /// Length of `j`'s tree path to its terminal ([`INFINITE_D`] when it
    /// runs into an orphan), using the distances stamped this round.
    fn distance_to_terminal(&mut self, mut j: usize) -> u32 {
        let mut d = 0;
        loop {
            if self.ts[j] == self.time {
                return d + self.dist[j];
            }
            let a = self.parent[j];
            d += 1;
            if a == TERMINAL {
                self.ts[j] = self.time;
                self.dist[j] = 1;
                return d;
            }
            if a == ORPHAN {
                return INFINITE_D;
            }
            j = self.head[a as usize] as usize;
        }
    }

    /// Lists the source tree, which at termination is the residual
    /// source-reachable set (see the module docs), in ascending order.
    fn extract(&mut self) {
        self.cached.clear();
        for v in 1..self.n {
            if self.parent[v] != FREE && !self.is_sink[v] {
                self.cached.push(VertexId::new(v));
            }
        }
    }

    /// Test hook: overrides the encoded gain of `v` directly, after
    /// folding in the deltas `system` logged before it. The production
    /// path only ever sees the monotone raises and freezes the change
    /// log carries; sign flips and magnitude drops are exercised
    /// through this hook, and the next [`IncrementalClosure::select`]
    /// repairs them like any delta.
    #[cfg(test)]
    fn force_gain(&mut self, system: &ConstraintSystem, v: usize, g: i64) {
        self.apply_deltas(system);
        assert!(self.built && v != 0 && self.terminal[v] != -INF);
        self.set_terminal(v, g);
    }
}

/// The terminal capacity `c(v)` the network encodes for `v`: its gain,
/// `-INF` (an infinite sink arc) once frozen, and 0 for the host, which
/// has no terminal arc.
fn terminal_capacity(system: &ConstraintSystem, v: usize) -> i64 {
    let id = VertexId::new(v);
    if v == 0 {
        0
    } else if system.is_frozen(id) {
        -INF
    } else {
        system.gain(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Builds a warm engine over the same instance; the returned system
    /// stays unmutated, so later selections see only forced gains.
    fn warm(gains: &[i64], arcs: &[(usize, usize)]) -> (IncrementalClosure, ConstraintSystem) {
        let mut cs = ConstraintSystem::new(gains.to_vec());
        for &(p, q) in arcs {
            cs.add_arc(v(p), v(q));
        }
        let mut engine = IncrementalClosure::new();
        let got = engine.select(&cs, &mut PerfCounters::default());
        assert_eq!(got, fresh(gains, arcs, &[]), "initial build must agree");
        (engine, cs)
    }

    /// Flow on the constraint arc `p → q`: the residual of its reverse.
    fn arc_flow(e: &IncrementalClosure, p: usize, q: usize) -> i64 {
        let a = e.adj[p]
            .iter()
            .map(|&a| a as usize)
            .find(|&a| a % 2 == 0 && e.head[a] as usize == q)
            .expect("arc exists");
        e.r_cap[a ^ 1]
    }

    /// Checks BK's resting invariants: no active vertex or orphan left,
    /// every non-zero terminal residual roots its tree, every tree arc
    /// is residual in its tree's direction, and no residual arc leaves
    /// the source tree for a free or sink-tree vertex.
    fn assert_trees_rest(e: &IncrementalClosure) {
        assert!(e.queue.is_empty() && e.orphans.is_empty());
        assert!(e.changed.is_empty());
        for u in 0..e.n {
            assert!(!e.active[u] && !e.marked[u], "vertex {u} left flagged");
            let p = e.parent[u];
            assert_ne!(p, ORPHAN, "vertex {u} left orphaned");
            let t = e.tr_cap[u];
            if t != 0 {
                assert_eq!(p, TERMINAL, "vertex {u} with residual {t} is not a root");
                assert_eq!(e.is_sink[u], t < 0, "vertex {u} rooted in the wrong tree");
            } else {
                assert_ne!(p, TERMINAL, "vertex {u} rooted without residual");
            }
            if p != FREE && p != TERMINAL {
                let a = p as usize;
                let residual = if e.is_sink[u] {
                    e.r_cap[a]
                } else {
                    e.r_cap[a ^ 1]
                };
                assert!(residual > 0, "saturated tree arc at {u}");
                assert_eq!(e.is_sink[e.head[a] as usize], e.is_sink[u]);
                assert_ne!(e.parent[e.head[a] as usize], FREE);
            }
            if p == FREE || e.is_sink[u] {
                continue;
            }
            for &a in &e.adj[u] {
                let j = e.head[a as usize] as usize;
                if e.r_cap[a as usize] > 0 {
                    assert!(
                        e.parent[j] != FREE && !e.is_sink[j],
                        "residual arc {u}->{j} leaves the source tree"
                    );
                }
            }
        }
    }

    #[test]
    fn capacity_drop_below_current_flow_is_repaired() {
        // v1 (gain 10) drags v2 (gain -4): flow 4 crosses the network.
        let gains = [0, 10, -4];
        let arcs = [(1, 2)];
        let (mut engine, cs) = warm(&gains, &arcs);
        assert_eq!(arc_flow(&engine, 1, 2), 4);
        let mut perf = PerfCounters::default();
        // Drop v1's gain to 2 < flow 4: reparameterization leaves v1 a
        // sink-side residual of 2, and the closure empties (2 - 4 < 0).
        engine.force_gain(&cs, 1, 2);
        assert_eq!(
            engine.select(&cs, &mut perf),
            fresh(&[0, 2, -4], &arcs, &[])
        );
        assert!(engine.select(&cs, &mut perf).is_empty());
        assert_eq!(engine.tr_cap[1], -2, "no flow is cancelled");
        // And back up: the residual must accept new flow.
        engine.force_gain(&cs, 1, 9);
        assert_eq!(
            engine.select(&cs, &mut perf),
            fresh(&[0, 9, -4], &arcs, &[])
        );
        assert_trees_rest(&engine);
    }

    #[test]
    fn gain_sign_flip_migrates_arc_sides() {
        // v1 feeds flow through the chain; flipping its gain negative
        // moves it from the source tree to the sink tree.
        let gains = [0, 6, -3, 4];
        let arcs = [(1, 2), (3, 2)];
        let (mut engine, cs) = warm(&gains, &arcs);
        let mut perf = PerfCounters::default();
        engine.force_gain(&cs, 1, -5);
        assert_eq!(
            engine.select(&cs, &mut perf),
            fresh(&[0, -5, -3, 4], &arcs, &[])
        );
        assert!(engine.is_sink[1] && engine.parent[1] == TERMINAL);
        // Flip the other way: a cost becomes a seed.
        engine.force_gain(&cs, 2, 7);
        assert_eq!(
            engine.select(&cs, &mut perf),
            fresh(&[0, -5, 7, 4], &arcs, &[])
        );
        // And flip v1 back positive again.
        engine.force_gain(&cs, 1, 1);
        assert_eq!(
            engine.select(&cs, &mut perf),
            fresh(&[0, 1, 7, 4], &arcs, &[])
        );
        assert!(!engine.is_sink[1] && engine.parent[1] == TERMINAL);
        assert_trees_rest(&engine);
    }

    #[test]
    fn empty_closure_after_delta_and_recovery() {
        let gains = [0, 5, -2];
        let arcs = [(1, 2)];
        let (mut engine, cs) = warm(&gains, &arcs);
        let mut perf = PerfCounters::default();
        assert_eq!(engine.cached.len(), 2);
        // Shrink the seed until the closure gain goes non-positive: the
        // residual hits exactly 0, so v1 is orphaned, not re-rooted.
        engine.force_gain(&cs, 1, 2);
        assert!(engine.select(&cs, &mut perf).is_empty());
        assert_eq!(
            engine.select(&cs, &mut perf),
            fresh(&[0, 2, -2], &arcs, &[])
        );
        assert_eq!(engine.tr_cap[1], 0);
        assert_ne!(engine.parent[1], TERMINAL);
        engine.force_gain(&cs, 1, 4);
        assert_eq!(
            engine.select(&cs, &mut perf),
            fresh(&[0, 4, -2], &arcs, &[])
        );
        assert_trees_rest(&engine);
    }

    #[test]
    fn repeated_deltas_to_the_same_vertex() {
        let gains = [0, 8, -5, -5];
        let arcs = [(1, 2), (1, 3)];
        let (mut engine, cs) = warm(&gains, &arcs);
        let mut perf = PerfCounters::default();
        let mut cur = gains.to_vec();
        for g in [12, 3, -1, 0, 15, 9, 11] {
            engine.force_gain(&cs, 1, g);
            cur[1] = g;
            assert_eq!(
                engine.select(&cs, &mut perf),
                fresh(&cur, &arcs, &[]),
                "gain {g}"
            );
            assert_trees_rest(&engine);
        }
    }

    #[test]
    fn force_gain_flips_and_drops_match_the_oracle() {
        // Every vertex of a small diamond goes through sign flips,
        // drops to zero and raises, one forced gain per selection.
        let gains = [0, 9, -3, -4, 6, 0];
        let arcs = [(1, 2), (1, 3), (4, 3), (2, 5), (3, 5), (5, 4)];
        let (mut engine, cs) = warm(&gains, &arcs);
        let mut perf = PerfCounters::default();
        let mut cur = gains.to_vec();
        let script = [
            (1, -7),
            (4, 0),
            (2, 5),
            (5, -9),
            (1, 12),
            (3, 0),
            (4, -2),
            (5, 20),
            (2, -1),
            (1, 0),
        ];
        for (u, g) in script {
            engine.force_gain(&cs, u, g);
            cur[u] = g;
            assert_eq!(
                engine.select(&cs, &mut perf),
                fresh(&cur, &arcs, &[]),
                "gain of {u} forced to {g}"
            );
            assert_trees_rest(&engine);
        }
    }

    #[test]
    fn freeze_with_flow_flips_the_vertex_to_the_sink_tree() {
        // v1 (gain 10) pays for v2 (gain -4): its source residual
        // carries 4 units of flow, and v2 hangs below it in the source
        // tree. v4 pulls v3 in on its own.
        let mut cs = ConstraintSystem::new(vec![0, 10, -4, 0, 5]);
        cs.add_arc(v(1), v(2));
        cs.add_arc(v(2), v(3));
        cs.add_arc(v(4), v(3));
        let mut engine = IncrementalClosure::new();
        let mut perf = PerfCounters::default();
        assert_eq!(engine.select(&cs, &mut perf), vec![v(1), v(2), v(3), v(4)]);
        assert_eq!(arc_flow(&engine, 1, 2), 4);
        let child_arc = engine.parent[2] as usize;
        assert_eq!(engine.head[child_arc], 1, "v2 hangs below v1");
        // The freeze adds -INF - 10 to v1's residual: it re-roots in the
        // sink tree and orphans its child v2, which finds no other
        // source-tree parent and is freed.
        cs.freeze(v(1));
        engine.apply_deltas(&cs);
        engine.repair();
        assert!(engine.is_sink[1] && engine.parent[1] == TERMINAL);
        assert_eq!(engine.parent[2], FREE, "v2 is orphaned, then freed");
        assert_eq!(arc_flow(&engine, 1, 2), 4, "no flow is cancelled");
        engine.maxflow();
        engine.extract();
        assert_eq!(engine.cached, cs.max_gain_closed_set());
        assert_eq!(engine.cached, vec![v(3), v(4)]);
        // v2 carries v1's old flow back, so it now hangs in the sink tree.
        assert!(engine.is_sink[2] && engine.parent[2] != FREE);
        assert_trees_rest(&engine);
        assert_eq!(engine.select(&cs, &mut perf), vec![v(3), v(4)]);
    }

    #[test]
    fn orphan_is_readopted_through_a_second_parent() {
        // v2 (gain 0) is reachable from both seeds v1 and v4.
        let mut cs = ConstraintSystem::new(vec![0, 10, 0, -1, 5]);
        cs.add_arc(v(1), v(2));
        cs.add_arc(v(4), v(2));
        let mut engine = IncrementalClosure::new();
        let mut perf = PerfCounters::default();
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        let first = engine.head[engine.parent[2] as usize] as usize;
        let second = if first == 1 { 4 } else { 1 };
        // Freezing v2's parent orphans v2; the repair's adoption finds
        // it the other seed before the growth loop runs.
        cs.freeze(v(first));
        engine.apply_deltas(&cs);
        engine.repair();
        assert!(engine.is_sink[first]);
        let p = engine.parent[2];
        assert!(p != FREE && p != ORPHAN && p != TERMINAL, "v2 adopted");
        assert_eq!(engine.head[p as usize] as usize, second);
        assert!(!engine.is_sink[2]);
        engine.maxflow();
        engine.extract();
        assert_eq!(engine.cached, cs.max_gain_closed_set());
        assert_trees_rest(&engine);
    }

    #[test]
    fn warm_engine_tracks_system_mutations() {
        let mut cs = ConstraintSystem::new(vec![0, 8, -3, 5, -6, 2]);
        let mut engine = IncrementalClosure::new();
        let mut perf = PerfCounters::default();
        let mut step = |engine: &mut IncrementalClosure, cs: &ConstraintSystem, what: &str| {
            let got = engine.select(cs, &mut perf);
            let want = cs.max_gain_closed_set();
            assert_eq!(got, want, "after {what}");
            assert_eq!(cs.gain_of(&got), cs.gain_of(&want), "gain after {what}");
            assert_trees_rest(engine);
            let capacity = |u| terminal_capacity(cs, u);
            assert_eq!(engine.certify(cs, &got, capacity), Ok(()), "after {what}");
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
        let mut engine = IncrementalClosure::new();
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
        assert_eq!(perf.closure_skips, 0, "the warm engine never skips");
    }

    #[test]
    fn freed_orphan_reactivates_its_same_tree_neighbours() {
        // The smallest sequence that needs the reactivation: v2 hangs
        // below v4 when the new arc 4 -> 3 saturates v4's residual. The
        // orphan v4 is freed (its only source-tree neighbour v2 hangs
        // below it), v2 is re-adopted through v1, and only
        // re-activating v2 lets the source tree grow back into v4.
        let mut cs = ConstraintSystem::new(vec![0, 5, 0, -6, 2, 2]);
        cs.add_arc(v(4), v(2));
        cs.add_arc(v(2), v(4));
        cs.add_arc(v(1), v(2));
        let mut engine = IncrementalClosure::new();
        let mut perf = PerfCounters::default();
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        cs.add_arc(v(4), v(3));
        assert_eq!(
            engine.select(&cs, &mut perf),
            vec![v(1), v(2), v(3), v(4), v(5)]
        );
        assert_trees_rest(&engine);
    }

    /// A solved engine: v1 (gain 10) pays for v2 and v3 (gains -4 and
    /// -3), which point at each other, and v4 (gain -20) points into
    /// the closure from outside. Only v1 keeps a terminal residual, so
    /// v2 and v3 reach it through their parent chains.
    fn certified() -> (IncrementalClosure, ConstraintSystem, Vec<VertexId>) {
        let mut cs = ConstraintSystem::new(vec![0, 10, -4, -3, -20]);
        for (p, q) in [(1, 2), (2, 3), (3, 2), (4, 2)] {
            cs.add_arc(v(p), v(q));
        }
        let mut engine = IncrementalClosure::new();
        let members = engine.select(&cs, &mut PerfCounters::default());
        assert_eq!(members, vec![v(1), v(2), v(3)]);
        assert_eq!(engine.tr_cap[1..4], [3, 0, 0]);
        assert_eq!(
            engine.certify(&cs, &members, |u| terminal_capacity(&cs, u)),
            Ok(())
        );
        (engine, cs, members)
    }

    /// The certificate's verdict on `members` over the system's own
    /// capacities.
    fn verdict(
        engine: &IncrementalClosure,
        cs: &ConstraintSystem,
        members: &[VertexId],
    ) -> Result<(), String> {
        engine.certify(cs, members, |u| terminal_capacity(cs, u))
    }

    #[test]
    fn certificate_rejects_a_perturbed_flow_or_residual() {
        // One more unit on arc 1 -> 2 (slots 0/1) keeps its residuals
        // summing to INF but breaks conservation at both ends.
        let (mut engine, cs, members) = certified();
        engine.r_cap[0] -= 1;
        engine.r_cap[1] += 1;
        assert!(verdict(&engine, &cs, &members)
            .unwrap_err()
            .contains("vertex 1"));
        // Residuals that no longer sum to the arc's capacity.
        let (mut engine, cs, members) = certified();
        engine.r_cap[2] -= 1;
        assert!(verdict(&engine, &cs, &members).is_err());
        // A terminal residual the flow does not explain.
        let (mut engine, cs, members) = certified();
        engine.tr_cap[2] += 1;
        assert!(verdict(&engine, &cs, &members)
            .unwrap_err()
            .contains("vertex 2"));
    }

    #[test]
    fn certificate_rejects_an_added_or_dropped_member() {
        let (engine, cs, _) = certified();
        // v4 carries a sink residual: a maximum-gain set leaves it out.
        let added = [v(1), v(2), v(3), v(4)];
        assert!(verdict(&engine, &cs, &added).is_err());
        // Without v3 the constraint arc 2 -> 3 leaves the list.
        assert!(verdict(&engine, &cs, &[v(1), v(2)]).is_err());
        // Without v1 its source residual is left out.
        assert!(verdict(&engine, &cs, &[v(2), v(3)]).is_err());
        // Out of order, and the host.
        assert!(verdict(&engine, &cs, &[v(2), v(1), v(3)]).is_err());
        assert!(verdict(&engine, &cs, &[v(0), v(1), v(2), v(3)]).is_err());

        // v3 (gain 1) pays one unit of v2 (gain -3) before v1 (gain 5)
        // is linked in, so v3 is canonical only through the reverse
        // residual of its flow into v2: dropping it breaks no rule but
        // "no flow enters the list".
        let mut cs = ConstraintSystem::new(vec![0, 5, -3, 1]);
        cs.add_arc(v(3), v(2));
        let mut engine = IncrementalClosure::new();
        engine.select(&cs, &mut PerfCounters::default());
        cs.add_arc(v(1), v(2));
        let members = engine.select(&cs, &mut PerfCounters::default());
        assert_eq!(members, vec![v(1), v(2), v(3)]);
        assert_eq!(engine.tr_cap[1..], [3, 0, 0]);
        assert_eq!(verdict(&engine, &cs, &members), Ok(()));
        let why = verdict(&engine, &cs, &[v(1), v(2)]).unwrap_err();
        assert!(why.contains("enters"), "{why}");

        // A seed on its own: only its source residual says it belongs.
        let cs = ConstraintSystem::new(vec![0, 2]);
        let mut engine = IncrementalClosure::new();
        assert_eq!(engine.select(&cs, &mut PerfCounters::default()), [v(1)]);
        assert!(verdict(&engine, &cs, &[])
            .unwrap_err()
            .contains("wrong side"));
    }

    #[test]
    fn certificate_rejects_a_missing_constraint_arc() {
        // The system learns an arc the engine has not seen.
        let (engine, mut cs, members) = certified();
        cs.add_arc(v(4), v(3));
        assert!(verdict(&engine, &cs, &members).is_err());
        // The engine lost the last arc's slots.
        let (mut engine, cs, members) = certified();
        engine.head.truncate(6);
        engine.r_cap.truncate(6);
        assert!(verdict(&engine, &cs, &members).is_err());
        // A slot that names another arc: the forward slot of 4 -> 2
        // (slot 6) points at v3.
        let (mut engine, cs, members) = certified();
        engine.head[6] = 3;
        assert!(verdict(&engine, &cs, &members)
            .unwrap_err()
            .contains("slots"));
    }

    #[test]
    fn certificate_rejects_a_broken_parent_witness() {
        // v2 and v3 point at each other: arc 2 -> 3 (slot 2) carries v3's
        // flow, so both hops are residual, but neither reaches v1.
        let (mut engine, cs, members) = certified();
        engine.parent[2] = 2;
        engine.parent[3] = 3;
        assert!(verdict(&engine, &cs, &members)
            .unwrap_err()
            .contains("cycles"));
        // v2 hangs below v4, outside the list: its parent arc is slot 7
        // (2 -> 4), whose reverse 4 -> 2 has residual.
        let (mut engine, cs, members) = certified();
        engine.parent[2] = 7;
        assert!(verdict(&engine, &cs, &members)
            .unwrap_err()
            .contains("leaves"));
        // A root sentinel on a vertex without terminal residual.
        let (mut engine, cs, members) = certified();
        engine.parent[3] = TERMINAL;
        assert!(verdict(&engine, &cs, &members).is_err());
        // An arc that does not end at the child.
        let (mut engine, cs, members) = certified();
        engine.parent[3] = 0;
        assert!(verdict(&engine, &cs, &members).is_err());
        // Arc 3 -> 2 (slot 4) carries no flow, so its reverse has no
        // residual from v2 down to v3.
        let (mut engine, cs, members) = certified();
        engine.parent[3] = 4;
        assert!(verdict(&engine, &cs, &members)
            .unwrap_err()
            .contains("no residual"));
    }

    #[test]
    fn rejected_certificate_restarts_the_engine_from_the_change_log() {
        let (mut engine, cs, members) = certified();
        engine.r_cap[0] -= 1;
        engine.r_cap[1] += 1;
        let mut perf = PerfCounters::default();
        let mut restarts = 0;
        let got = engine.select_certified(&cs, &mut perf, &mut restarts);
        assert_eq!(got.unwrap(), cs.max_gain_closed_set());
        assert_eq!(restarts, 1);
        assert_eq!(
            perf.closure_calls, 2,
            "the rejected call and the restarted one"
        );
        // The restarted engine is whole: the next call needs no restart.
        let again = engine.select_certified(&cs, &mut perf, &mut restarts);
        assert_eq!(again.unwrap(), members);
        assert_eq!(restarts, 1);
    }

    proptest! {
        /// Random interleavings of constraint arcs, weight raises,
        /// freezes and forced gain flips and drops on up to 48
        /// vertices, most of them with gain 0, selected about every
        /// other delta: after every selection the engine returns
        /// exactly the from-scratch engine's canonical set, the
        /// certificate accepts it under the gains the engine was given
        /// (forced ones included), the engine serves it again from
        /// cache, and leaves its trees at rest. Zero gains
        /// and dense arcs grow deep trees, so augmentations leave
        /// several orphans in flight at once.
        #[test]
        fn warm_engine_matches_fresh_under_random_deltas(
            initial in prop::collection::vec((-30i64..30, 0usize..10), 3..48),
            ops in prop::collection::vec(
                (0usize..14, 0usize..48, 0usize..48, (-30i64..30, 0usize..10), 0usize..2),
                1..300,
            ),
        ) {
            // Six draws in ten of a gain or a forced gain are 0.
            let zero_heavy = |(g, z): (i64, usize)| if z < 6 { 0 } else { g };
            let mut gains = vec![0i64];
            gains.extend(initial.into_iter().map(zero_heavy));
            let n = gains.len();
            let mut cs = ConstraintSystem::new(gains.clone());
            let mut arcs: Vec<(usize, usize)> = Vec::new();
            let mut frozen: Vec<usize> = Vec::new();
            let mut engine = IncrementalClosure::new();
            let mut perf = PerfCounters::default();
            prop_assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
            let last = ops.len() - 1;
            for (step, (kind, p, q, x, defer)) in ops.into_iter().enumerate() {
                let p = 1 + p % (n - 1);
                let q = 1 + q % (n - 1);
                match kind {
                    0..=7 if p != q && cs.add_arc(v(p), v(q)) => arcs.push((p, q)),
                    8 => {
                        let w = cs.weight(v(q)) + 1 + x.0.rem_euclid(3);
                        if cs.raise_weight(v(q), w) {
                            gains[q] = cs.gain(v(q));
                        }
                    }
                    9 if x.0.rem_euclid(4) == 0 => {
                        cs.freeze(v(p));
                        if !frozen.contains(&p) {
                            frozen.push(p);
                        }
                    }
                    10.. if !cs.is_frozen(v(p)) => {
                        engine.force_gain(&cs, p, zero_heavy(x));
                        gains[p] = zero_heavy(x);
                    }
                    _ => {}
                }
                if defer > 0 && step < last {
                    continue;
                }
                let want = fresh(&gains, &arcs, &frozen);
                prop_assert_eq!(&engine.select(&cs, &mut perf), &want);
                let forced = |u: usize| match u {
                    0 => 0,
                    u if cs.is_frozen(v(u)) => -INF,
                    u => gains[u],
                };
                prop_assert_eq!(engine.certify(&cs, &want, forced), Ok(()));
                prop_assert_eq!(&engine.select(&cs, &mut perf), &want);
                assert_trees_rest(&engine);
            }
        }
    }
}
