//! Timing analysis of a retimed graph: one pass over the zero-weight
//! (purely combinational) subgraph gives its topological order, the
//! arrival times and the clock period. The maximum cycle ratio of the
//! host-free graph bounds the period every retiming can reach.

use crate::error::RetimeError;
use crate::graph::{EdgeId, RetimeGraph, Retiming, VertexId};

/// Whether an edge carries a combinational dependency under `r`:
/// neither endpoint is the host and the retimed weight is zero.
pub fn is_combinational_edge(graph: &RetimeGraph, e: EdgeId, r: &Retiming) -> bool {
    let edge = graph.edge(e);
    !edge.from.is_host() && !edge.to.is_host() && graph.retimed_weight(e, r) == 0
}

/// The timing pass over a retimed graph's zero-weight subgraph, with
/// buffers that are reused from call to call. It is the only traversal
/// of that subgraph: the clock period, the FEAS rounds, the `L`/`R`
/// labels, the exact ELWs and the constraint checker all read one.
///
/// One [`ArrivalScratch::compute`] call orders the subgraph
/// topologically and computes every vertex's arrival time on the way.
#[derive(Debug, Default)]
pub struct ArrivalScratch {
    /// Whether each edge is combinational under the current retiming,
    /// evaluated once per pass instead of once per traversal.
    comb: Vec<bool>,
    indeg: Vec<u32>,
    order: Vec<VertexId>,
    arrivals: Vec<i64>,
}

impl ArrivalScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the pass under retiming `r`. Kahn's algorithm orders the
    /// non-host vertices over the combinational edges (seeded in vertex
    /// order, out-edges taken in adjacency order), and each vertex's
    /// arrival is `d(v)` plus the largest arrival over its combinational
    /// in-edges, 0 without one: the delay of the longest combinational
    /// path ending at `v`, `v` included. Returns the clock period (the
    /// largest arrival), or `None` when the zero-weight subgraph has a
    /// cycle (an invalid retiming). The order and the arrivals stay
    /// readable until the next call.
    pub fn compute(&mut self, graph: &RetimeGraph, r: &Retiming) -> Option<i64> {
        let n = graph.num_vertices();
        self.comb.clear();
        self.indeg.clear();
        self.indeg.resize(n, 0);
        for (i, edge) in graph.edges().iter().enumerate() {
            let comb = is_combinational_edge(graph, EdgeId::new(i), r);
            self.comb.push(comb);
            if comb {
                self.indeg[edge.to.index()] += 1;
            }
        }
        self.order.clear();
        self.order
            .extend(graph.vertices().filter(|v| self.indeg[v.index()] == 0));
        self.arrivals.clear();
        self.arrivals.resize(n, 0);
        let mut head = 0;
        let mut period = 0i64;
        while head < self.order.len() {
            let v = self.order[head];
            head += 1;
            let fanin = graph
                .in_edges(v)
                .iter()
                .filter(|e| self.comb[e.index()])
                .map(|&e| self.arrivals[graph.edge(e).from.index()])
                .max()
                .unwrap_or(0);
            let a = fanin + graph.delay(v);
            self.arrivals[v.index()] = a;
            period = period.max(a);
            for &e in graph.out_edges(v) {
                if !self.comb[e.index()] {
                    continue;
                }
                let to = graph.edge(e).to;
                self.indeg[to.index()] -= 1;
                if self.indeg[to.index()] == 0 {
                    self.order.push(to);
                }
            }
        }
        (self.order.len() == n - 1).then_some(period)
    }

    /// The topological order of the zero-weight subgraph from the last
    /// successful pass (every non-host vertex once).
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The arrival time of one vertex from the last pass.
    pub fn arrival(&self, v: VertexId) -> i64 {
        self.arrivals[v.index()]
    }
}

/// The clock period of the retimed circuit: the largest arrival time
/// (longest register-to-register combinational path), from one pass of
/// a fresh [`ArrivalScratch`].
///
/// # Errors
///
/// Returns [`RetimeError::ZeroWeightCycle`] for invalid retimings.
pub fn clock_period(graph: &RetimeGraph, r: &Retiming) -> Result<i64, RetimeError> {
    ArrivalScratch::new()
        .compute(graph, r)
        .ok_or(RetimeError::ZeroWeightCycle)
}

/// A closed walk of non-host edges with its delay `Σ d(v)` (each visit
/// of a vertex once) and its original register count `Σ w(e)`: the
/// answer of [`max_cycle_ratio`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CycleRatio {
    pub delay: i64,
    pub registers: i64,
    /// The walk's edges, each ending where the next one starts.
    pub cycle: Vec<EdgeId>,
}

impl CycleRatio {
    /// `⌈delay / registers⌉`: once [`CycleRatio::check`] holds, no
    /// retiming with non-negative edge weights has a smaller clock
    /// period. Retiming keeps the walk's register count, and those
    /// registers cut it into at most `registers` register-free paths
    /// whose delays sum to `delay`, so one of them takes at least the
    /// ratio.
    pub fn period_bound(&self) -> i64 {
        (self.delay + self.registers - 1) / self.registers
    }

    /// Whether `cycle` is a closed walk of non-host edges carrying at
    /// least one register, whose delays and registers sum to `delay`
    /// and `registers`. Uses graph data only.
    pub fn check(&self, graph: &RetimeGraph) -> bool {
        let (mut delay, mut registers) = (0, 0);
        for (i, &e) in self.cycle.iter().enumerate() {
            let edge = graph.edge(e);
            let next = graph.edge(self.cycle[(i + 1) % self.cycle.len()]);
            if edge.from.is_host() || edge.to.is_host() || edge.to != next.from {
                return false;
            }
            delay += graph.delay(edge.from);
            registers += i64::from(edge.weight);
        }
        registers > 0 && (delay, registers) == (self.delay, self.registers)
    }
}

#[cfg(test)]
thread_local! {
    /// Calls of [`max_cycle_ratio`] on this thread, for the tests that
    /// count them.
    pub(crate) static MAX_CYCLE_RATIO_CALLS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// The largest ratio `Σ d / Σ w` over the cycles that avoid the host,
/// with a cycle that attains it, or `None` when no cycle avoids the
/// host. Howard's policy iteration (Cochet-Terrasson et al. 1998;
/// Dasdan, TODAES 2004), in exact integers:
///
/// - Vertices with no host-free out-edge into the rest are dropped
///   until none is left, so every kept vertex reaches a cycle.
/// - A policy picks one such out-edge per kept vertex. Each vertex
///   then reaches one policy cycle, whose gcd-reduced ratio `p/q` is
///   its ratio, and its `value` is `q·Σd − p·Σw` along the policy path
///   to that cycle's lowest-numbered vertex.
/// - A vertex switches to an out-edge whose head has a strictly larger
///   ratio or, when no vertex can, a strictly larger value at the same
///   ratio. Once no vertex switches, no cycle beats the best policy
///   cycle.
///
/// Every walk is a loop, not a recursion, so the graph's depth does not
/// matter.
pub(crate) fn max_cycle_ratio(graph: &RetimeGraph) -> Option<CycleRatio> {
    #[cfg(test)]
    MAX_CYCLE_RATIO_CALLS.with(|calls| calls.set(calls.get() + 1));
    let n = graph.num_vertices();
    let mut outdeg: Vec<usize> = (0..n)
        .map(|v| {
            let out = graph.out_edges(VertexId::new(v));
            out.iter().filter(|&&e| !graph.edge(e).to.is_host()).count()
        })
        .collect();
    let mut kept = vec![true; n];
    kept[0] = false;
    let mut dropped: Vec<usize> = (1..n).filter(|&v| outdeg[v] == 0).collect();
    while let Some(v) = dropped.pop() {
        kept[v] = false;
        for &e in graph.in_edges(VertexId::new(v)) {
            let u = graph.edge(e).from.index();
            if u != 0 {
                outdeg[u] -= 1;
                if outdeg[u] == 0 {
                    dropped.push(u);
                }
            }
        }
    }
    // The out-edges of kept vertex `v` into kept vertices, as `(edge,
    // head, registers)`, are `arcs[first[v]..first[v + 1]]`.
    let mut first = vec![0; n + 1];
    let mut arcs = Vec::new();
    for v in 0..n {
        if kept[v] {
            for &e in graph.out_edges(VertexId::new(v)) {
                let edge = graph.edge(e);
                if kept[edge.to.index()] {
                    arcs.push((e, edge.to.index(), i128::from(edge.weight)));
                }
            }
        }
        first[v + 1] = arcs.len();
    }
    let vertices: Vec<usize> = (1..n).filter(|&v| kept[v]).collect();
    let d = |v: usize| i128::from(graph.delay(VertexId::new(v)));
    let mut policy = vec![0; n];
    for &v in &vertices {
        policy[v] = (first[v]..first[v + 1])
            .min_by_key(|&a| arcs[a].2)
            .expect("a kept vertex keeps an out-edge");
    }
    // Each vertex's policy cycle, as an index into `ratios`.
    let mut cycle_of = vec![0; n];
    let mut ratios: Vec<(i128, i128)> = Vec::new();
    let mut value = vec![0i128; n];
    let mut walk_of = vec![0u32; n];
    let mut path = Vec::new();
    // The best policy cycle: its delay, registers and lowest vertex.
    let mut best: Option<(i128, i128, usize)>;
    loop {
        // Value determination: walk the policy from every vertex.
        best = None;
        ratios.clear();
        walk_of.fill(0);
        for (walk, &start) in (1u32..).zip(&vertices) {
            path.clear();
            let mut v = start;
            while walk_of[v] == 0 {
                walk_of[v] = walk;
                path.push(v);
                v = arcs[policy[v]].1;
            }
            if walk_of[v] == walk {
                // This walk closed a policy cycle, `path[at..]`. Its
                // lowest vertex gets value 0; the rest of the cycle is
                // rotated so that the loop below settles it backwards
                // from there, before the path that led into it.
                let at = path
                    .iter()
                    .rposition(|&u| u == v)
                    .expect("v is on the walk");
                let delay: i128 = path[at..].iter().map(|&u| d(u)).sum();
                let registers: i128 = path[at..].iter().map(|&u| arcs[policy[u]].2).sum();
                if registers == 0 {
                    return None; // a combinational cycle: no finite period
                }
                let k = (at..path.len())
                    .min_by_key(|&i| path[i])
                    .expect("a cycle has a vertex");
                let handle = path[k];
                let g = gcd(delay, registers);
                cycle_of[handle] = ratios.len();
                ratios.push((delay / g, registers / g));
                value[handle] = 0;
                if best.is_none_or(|(bd, bw, _)| delay * bw > bd * registers) {
                    best = Some((delay, registers, handle));
                }
                path[at..].rotate_left(k - at + 1);
                path.pop();
            }
            for &u in path.iter().rev() {
                let (_, next, w) = arcs[policy[u]];
                let (p, q) = ratios[cycle_of[next]];
                cycle_of[u] = cycle_of[next];
                value[u] = value[next] + q * d(u) - p * w;
            }
        }
        // Policy improvement: a larger ratio first, else a larger value.
        let ratio = |v: usize| ratios[cycle_of[v]];
        let mut switched = false;
        for &v in &vertices {
            for a in first[v]..first[v + 1] {
                let ((p, q), (bp, bq)) = (ratio(arcs[a].1), ratio(arcs[policy[v]].1));
                if p * bq > bp * q {
                    policy[v] = a;
                    switched = true;
                }
            }
        }
        if !switched {
            for &v in &vertices {
                let gain = |a: usize| value[arcs[a].1] - ratio(v).0 * arcs[a].2;
                for a in first[v]..first[v + 1] {
                    let same = ratio(arcs[a].1) == ratio(arcs[policy[v]].1);
                    if same && gain(a) > gain(policy[v]) {
                        policy[v] = a;
                        switched = true;
                    }
                }
            }
        }
        if !switched {
            break;
        }
    }
    let (delay, registers, handle) = best?;
    let next = |&a: &usize| (arcs[a].1 != handle).then(|| policy[arcs[a].1]);
    let cycle = std::iter::successors(Some(policy[handle]), next);
    Some(CycleRatio {
        delay: i64::try_from(delay).ok()?,
        registers: i64::try_from(registers).ok()?,
        cycle: cycle.map(|a| arcs[a].0).collect(),
    })
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::setup_hold::feasible_setup_hold;
    use netlist::generator::GeneratorConfig;
    use netlist::{samples, CircuitBuilder, DelayModel, GateKind};
    use proptest::prelude::*;

    fn pipeline_graph() -> RetimeGraph {
        // 9 unit-delay stages, register after every 3rd.
        let c = samples::pipeline(9, 3);
        RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap()
    }

    #[test]
    fn clock_period_of_balanced_pipeline() {
        let g = pipeline_graph();
        let r = Retiming::zero(&g);
        // Segments of 3 unit-delay gates between registers.
        assert_eq!(clock_period(&g, &r).unwrap(), 3);
    }

    #[test]
    fn topo_covers_all_vertices() {
        let g = pipeline_graph();
        let r = Retiming::zero(&g);
        let mut scratch = ArrivalScratch::new();
        scratch.compute(&g, &r).unwrap();
        assert_eq!(scratch.order().len(), g.num_vertices() - 1);
    }

    #[test]
    fn removing_register_creates_cycle_error() {
        // two_stage_loop: moving both registers "off" the loop must be
        // caught as a zero-weight cycle.
        let c = samples::two_stage_loop();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        // Build a retiming that zeroes every cycle edge: shift r on all
        // loop vertices so that the loop's registers both land on the
        // same edge... simplest: find a registered edge on the loop and
        // force its weight up while another goes negative; we just craft
        // r by hand: set r so that each registered in-loop edge becomes
        // 0 and some edge gets weight 2. Use the generic property: any r
        // keeps total loop weight constant, so zeroing all loop edges is
        // impossible — instead test a retiming that is simply invalid.
        let f1 = g.vertex_of(c.find("f1").unwrap()).unwrap();
        let mut r = Retiming::zero(&g);
        r.set(f1, 5); // pulls 5 registers onto f1's in-edges: in-edges gain, out-edge f1->f2 loses
                      // f1 -> f2 edge now has weight -5 < 0: P0 catches it...
        assert!(g.check_nonnegative(&r).is_err());
        // ...and arrival computation on the subgraph ignores negative
        // edges as "registered", so topo still succeeds. The dedicated
        // cycle error fires when a cycle's edges are all zero:
        // r cannot produce that here, confirming the invariant.
        assert!(ArrivalScratch::new().compute(&g, &r).is_some());
    }

    #[test]
    fn arrival_times_accumulate() {
        let c = samples::pipeline(6, 6); // one segment of 6 gates + feedback reg
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let r = Retiming::zero(&g);
        let mut scratch = ArrivalScratch::new();
        assert_eq!(scratch.compute(&g, &r), Some(6));
        let s5 = g.vertex_of(c.find("s5").unwrap()).unwrap();
        assert_eq!(scratch.arrival(s5), 6);
    }

    #[test]
    fn retiming_changes_period() {
        // pipeline(6,3): registers after s2 (r0) and after s5 (fb):
        // balanced 3+3, period 3. Moving r0 backward over s2 unbalances
        // to 2+4.
        let c = samples::pipeline(6, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        assert_eq!(clock_period(&g, &Retiming::zero(&g)).unwrap(), 3);
        let mut r = Retiming::zero(&g);
        let s2 = g.vertex_of(c.find("s2").unwrap()).unwrap();
        r.set(s2, 1);
        g.check_nonnegative(&r).unwrap();
        assert_eq!(clock_period(&g, &r).unwrap(), 4, "segments now 2 and 4");
    }

    /// A ring of `stages` unit-delay gates with a register after each
    /// stage in `regs_after` and one closing the ring: a hand-built
    /// register loop for the period bound and the search. The output
    /// leaves through
    /// `stages` registers, so FEAS can move registers around the ring
    /// for many rounds before the host edge stops it. Registers fold
    /// into edge weights, so rings of the same length share vertex and
    /// edge ids.
    pub(crate) fn ring(stages: usize, regs_after: &[usize]) -> netlist::Circuit {
        let mut b = CircuitBuilder::new("ring");
        b.input("in");
        let mut prev = String::from("in");
        for i in 0..stages {
            let name = format!("g{i}");
            if i == 0 {
                b.gate(&name, GateKind::Nand, &["in", "fb"]).unwrap();
            } else {
                b.gate(&name, GateKind::Not, &[prev.as_str()]).unwrap();
            }
            prev = name;
            if regs_after.contains(&i) {
                let q = format!("q{i}");
                b.dff(&q, &prev).unwrap();
                prev = q;
            }
        }
        b.dff("fb", &prev).unwrap();
        for i in 0..stages {
            let o = format!("o{i}");
            b.dff(&o, &prev).unwrap();
            prev = o;
        }
        b.output(&prev).unwrap();
        b.build().unwrap()
    }

    /// Checks one pass against its definition: the order lists every
    /// non-host vertex once, every combinational edge points forward in
    /// it, each arrival is `d(v)` plus the largest arrival over the
    /// vertex's combinational in-edges, and the period is the largest
    /// arrival.
    fn assert_pass_matches_definition(
        graph: &RetimeGraph,
        r: &Retiming,
        scratch: &ArrivalScratch,
        period: i64,
    ) {
        let mut position = vec![None; graph.num_vertices()];
        for (i, &v) in scratch.order().iter().enumerate() {
            assert!(!v.is_host(), "the host is not ordered");
            assert!(position[v.index()].replace(i).is_none(), "{v} listed twice");
        }
        assert_eq!(scratch.order().len(), graph.num_vertices() - 1);
        for (i, edge) in graph.edges().iter().enumerate() {
            if is_combinational_edge(graph, EdgeId::new(i), r) {
                assert!(position[edge.from.index()] < position[edge.to.index()]);
            }
        }
        for v in graph.vertices() {
            let fanin = graph
                .in_edges(v)
                .iter()
                .filter(|&&e| is_combinational_edge(graph, e, r))
                .map(|&e| scratch.arrival(graph.edge(e).from))
                .max()
                .unwrap_or(0);
            assert_eq!(scratch.arrival(v), graph.delay(v) + fanin, "arrival of {v}");
        }
        let latest = graph.vertices().map(|v| scratch.arrival(v)).max();
        assert_eq!(period, latest.unwrap_or(0));
    }

    /// Plain FEAS from `r = 0` at period `bound`, with the probe's cap
    /// of `|V| + 2` rounds, checking every pass against its definition:
    /// whether it reaches a retiming with non-negative edge weights.
    fn feas_meets(graph: &RetimeGraph, bound: i64) -> bool {
        let mut r = Retiming::zero(graph);
        let mut scratch = ArrivalScratch::new();
        for _ in 0..=graph.num_vertices() + 2 {
            let period = scratch
                .compute(graph, &r)
                .expect("every cycle keeps its registers");
            assert_pass_matches_definition(graph, &r, &scratch, period);
            if period <= bound {
                return graph.check_nonnegative(&r).is_ok();
            }
            for v in graph.vertices() {
                if scratch.arrival(v) > bound {
                    r.add(v, 1);
                }
            }
        }
        false
    }

    /// Whether some host-free cycle has `Σd > p·Σw`: Bellman–Ford for
    /// longest paths from every vertex at once, with edge lengths
    /// `d(from) − p·w`, still relaxes in round `|V|` only along such a
    /// cycle.
    fn has_heavier_cycle(graph: &RetimeGraph, p: i64) -> bool {
        let mut dist = vec![0i64; graph.num_vertices()];
        for _ in 0..graph.num_vertices() {
            let mut relaxed = false;
            for edge in graph.edges() {
                if edge.from.is_host() || edge.to.is_host() {
                    continue;
                }
                let d =
                    dist[edge.from.index()] + graph.delay(edge.from) - p * i64::from(edge.weight);
                if d > dist[edge.to.index()] {
                    dist[edge.to.index()] = d;
                    relaxed = true;
                }
            }
            if !relaxed {
                return false;
            }
        }
        true
    }

    /// `⌈λ*⌉` by its definition: the least integer `P` at which no
    /// host-free cycle has `Σd > P·Σw`, or `None` without a host-free
    /// cycle (every cycle carries a register, so at `P = −1` each one is
    /// heavier).
    fn bound_by_bellman_ford(graph: &RetimeGraph) -> Option<i64> {
        if !has_heavier_cycle(graph, -1) {
            return None;
        }
        let (mut lo, mut hi) = (0, graph.vertices().map(|v| graph.delay(v)).sum::<i64>());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if has_heavier_cycle(graph, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Howard's bound equals the Bellman–Ford oracle's, and its cycle
    /// passes [`CycleRatio::check`].
    fn assert_bound_matches_oracle(graph: &RetimeGraph, what: &str) {
        let ratio = max_cycle_ratio(graph);
        if let Some(ratio) = &ratio {
            assert!(ratio.check(graph), "{what}: {ratio:?}");
        }
        assert_eq!(
            ratio.map(|ratio| ratio.period_bound()),
            bound_by_bellman_ford(graph),
            "{what}"
        );
    }

    /// At every integer `Φ` from the largest gate delay to the `r = 0`
    /// period, `T_s ∈ {0, 1}` and `T_h ∈ {0, 2}`: wherever
    /// `Φ − T_s < ⌈λ*⌉`, the full-cap probe, which has no bound, returns
    /// `None`, and so does plain FEAS at `Φ`, which checks every pass. The
    /// `r = 0` retiming is legal, so its period is at least the bound,
    /// and the sweep stops at `Φ = ⌈λ*⌉`. Returns how many probes the
    /// bound refutes.
    fn assert_bound_is_sound(graph: &RetimeGraph) -> usize {
        let Some(bound) = max_cycle_ratio(graph).map(|ratio| ratio.period_bound()) else {
            return 0;
        };
        let max_delay = graph.vertices().map(|v| graph.delay(v)).max().unwrap_or(0);
        assert!(bound <= clock_period(graph, &Retiming::zero(graph)).unwrap());
        let mut refuted = 0;
        for phi in max_delay..=bound {
            if phi < bound {
                assert!(!feas_meets(graph, phi), "FEAS at {phi}");
            }
            for t_setup in [0, 1] {
                if phi - t_setup >= bound {
                    continue;
                }
                for t_hold in [0, 2] {
                    assert_eq!(
                        feasible_setup_hold(graph, phi, t_setup, t_hold),
                        None,
                        "Φ {phi}, T_s {t_setup}, T_h {t_hold} below the bound {bound}"
                    );
                    refuted += 1;
                }
            }
        }
        refuted
    }

    /// The samples and register rings the bound's tests sweep.
    fn bound_circuits() -> Vec<netlist::Circuit> {
        vec![
            samples::s27_like(),
            samples::pipeline(9, 3),
            samples::pipeline(24, 8),
            samples::fig1_like(),
            samples::two_stage_loop(),
            ring(24, &[7, 15]),
            // Bunched registers: feasible periods take FEAS many rounds
            // of moving them apart.
            ring(24, &[0, 1]),
            ring(40, &[0, 1, 2, 3]),
        ]
    }

    #[test]
    fn max_cycle_ratio_matches_bellman_ford_on_the_samples_and_rings() {
        for c in bound_circuits() {
            for delays in [DelayModel::unit(), DelayModel::default()] {
                let g = RetimeGraph::from_circuit(&c, &delays).unwrap();
                assert_bound_matches_oracle(&g, c.name());
            }
        }
        for (stages, regs_after) in [(64, &[0, 1][..]), (96, &[0, 1, 2]), (150, &[0, 1, 2, 3])] {
            let g =
                RetimeGraph::from_circuit(&ring(stages, regs_after), &DelayModel::unit()).unwrap();
            assert_bound_matches_oracle(&g, &format!("ring({stages})"));
        }
    }

    #[test]
    fn an_acyclic_pipeline_has_no_cycle_ratio() {
        let mut b = CircuitBuilder::new("acyclic");
        b.input("a");
        b.gate("x", GateKind::Not, &["a"]).unwrap();
        b.dff("q", "x").unwrap();
        b.gate("y", GateKind::Nand, &["q", "a"]).unwrap();
        b.output("y").unwrap();
        let g = RetimeGraph::from_circuit(&b.build().unwrap(), &DelayModel::unit()).unwrap();
        assert_eq!(max_cycle_ratio(&g), None);
        assert_eq!(bound_by_bellman_ford(&g), None);
    }

    #[test]
    fn the_bound_never_refutes_a_feasible_period_on_the_samples_and_rings() {
        let mut refuted = 0;
        for c in bound_circuits() {
            for delays in [DelayModel::unit(), DelayModel::default()] {
                refuted += assert_bound_is_sound(&RetimeGraph::from_circuit(&c, &delays).unwrap());
            }
        }
        assert!(refuted > 0, "the sweep must reach below a bound");
    }

    #[test]
    fn check_rejects_tampered_cycles() {
        // 24 unit gates and 3 registers: λ* = 8, so the bound refutes
        // periods 6 and 7, and 8 is met.
        let g = RetimeGraph::from_circuit(&ring(24, &[7, 15]), &DelayModel::unit()).unwrap();
        let ratio = max_cycle_ratio(&g).unwrap();
        assert_eq!(
            (ratio.delay, ratio.registers, ratio.cycle.len()),
            (24, 3, 24)
        );
        assert!(ratio.check(&g));
        assert_eq!(ratio.period_bound(), 8);
        for phi in [6, 7] {
            assert_eq!(feasible_setup_hold(&g, phi, 0, 0), None);
        }
        assert!(feasible_setup_hold(&g, 8, 0, 0).is_some());

        // The same walk in a ring with one register more.
        let g4 = RetimeGraph::from_circuit(&ring(24, &[3, 7, 15]), &DelayModel::unit()).unwrap();
        assert!(g
            .edges()
            .iter()
            .zip(g4.edges())
            .all(|(a, b)| (a.from, a.to) == (b.from, b.to)));
        assert_eq!(g4.total_registers(), g.total_registers() + 1);
        assert!(!ratio.check(&g4));

        // A cycle cut short by its last edge, with the sums of the rest.
        let mut cut = ratio.clone();
        let last = g.edge(cut.cycle.pop().unwrap());
        cut.delay -= g.delay(last.from);
        cut.registers -= i64::from(last.weight);
        assert!(cut.registers > 0);
        assert!(!cut.check(&g));

        // Wrong sums.
        for (delay, registers) in [(25, 3), (24, 2), (24, 4), (0, 0)] {
            assert!(!CycleRatio {
                delay,
                registers,
                ..ratio.clone()
            }
            .check(&g));
        }

        // A closed walk through the host, with its own sums: host → a PI,
        // along a shortest path to a PO, and back to the host.
        let mut via = vec![None; g.num_vertices()];
        let mut queue = std::collections::VecDeque::from([RetimeGraph::HOST]);
        let po = loop {
            let u = queue.pop_front().expect("a PO is reachable from the host");
            if let Some(&e) = g
                .out_edges(u)
                .iter()
                .find(|&&e| g.edge(e).to.is_host() && !u.is_host())
            {
                break e;
            }
            for &e in g.out_edges(u) {
                let to = g.edge(e).to;
                if !to.is_host() && via[to.index()].is_none() {
                    via[to.index()] = Some(e);
                    queue.push_back(to);
                }
            }
        };
        let mut walk = vec![po];
        while let Some(e) = via[g.edge(walk[0]).from.index()] {
            walk.insert(0, e);
        }
        assert!(g.edge(walk[0]).from.is_host());
        let through_host = CycleRatio {
            delay: walk.iter().map(|&e| g.delay(g.edge(e).from)).sum(),
            registers: walk.iter().map(|&e| i64::from(g.edge(e).weight)).sum(),
            cycle: walk,
        };
        assert!(through_host.registers > 0);
        assert!(!through_host.check(&g));
    }

    #[test]
    fn gate_granularity_can_keep_the_period_above_the_bound() {
        // Three delay-4 gates and two registers: λ* = 6, but one
        // register-free path always holds two gates, so the period is 8.
        let delays = DelayModel::unit()
            .with_kind_delay(GateKind::Nand, 4)
            .with_kind_delay(GateKind::Not, 4);
        let g = RetimeGraph::from_circuit(&ring(3, &[0]), &delays).unwrap();
        let ratio = max_cycle_ratio(&g).unwrap();
        assert_eq!((ratio.delay, ratio.registers), (12, 2));
        assert_eq!(ratio.period_bound(), 6);
        assert_eq!(
            crate::setup_hold::min_period_setup_hold(&g, 0, 0)
                .unwrap()
                .phi,
            8
        );
        for phi in [6, 7] {
            assert!(!feas_meets(&g, phi));
        }
    }

    proptest! {
        #[test]
        fn max_cycle_ratio_matches_bellman_ford_on_generated_circuits(
            seed in 0u64..1_000_000,
            gates in 12usize..120,
            registers in 2usize..30,
            unit in 0u32..2,
        ) {
            let c = GeneratorConfig::new("ratio", seed)
                .gates(gates)
                .registers(registers)
                .build();
            let delays = if unit == 1 { DelayModel::unit() } else { DelayModel::default() };
            let g = RetimeGraph::from_circuit(&c, &delays).unwrap();
            assert_bound_matches_oracle(&g, &format!("seed {seed}"));
        }
    }

    proptest! {
        // Every refuted probe runs to the full cap, so the sweep takes a
        // quarter of the configured cases (12 by default, 512 at
        // `PROPTEST_CASES=2048`).
        #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.div_ceil(4)))]

        #[test]
        fn the_bound_never_refutes_a_feasible_period_on_generated_circuits(
            seed in 0u64..1_000_000,
            gates in 12usize..32,
            registers in 2usize..10,
            unit in 0u32..2,
        ) {
            let c = GeneratorConfig::new("sound", seed)
                .gates(gates)
                .registers(registers)
                .build();
            let delays = if unit == 1 { DelayModel::unit() } else { DelayModel::default() };
            assert_bound_is_sound(&RetimeGraph::from_circuit(&c, &delays).unwrap());
        }
    }
}
