//! Timing analysis of a retimed graph: one pass over the zero-weight
//! (purely combinational) subgraph gives its topological order, the
//! arrival times and the clock period.

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
/// Each pass also keeps, per vertex, the critical in-edge that the max
/// picked and the *launch* vertex its critical path starts from — the
/// data the FEAS negative-cycle witness turns into Bellman–Ford parent
/// pointers.
#[derive(Debug, Default)]
pub struct ArrivalScratch {
    /// Whether each edge is combinational under the current retiming,
    /// evaluated once per pass instead of once per traversal.
    comb: Vec<bool>,
    indeg: Vec<u32>,
    order: Vec<VertexId>,
    arrivals: Vec<i64>,
    /// Critical in-edge index of each vertex ([`NONE`] when no
    /// combinational in-edge has a positive arrival).
    pred: Vec<u32>,
    /// First vertex of each vertex's critical path.
    launch: Vec<u32>,
}

/// "No edge / no vertex" in the `u32` per-vertex arrays below.
const NONE: u32 = u32::MAX;

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
        // Every vertex of a successful pass is written below.
        self.pred.resize(n, NONE);
        self.launch.resize(n, NONE);
        let mut head = 0;
        let mut period = 0i64;
        while head < self.order.len() {
            let v = self.order[head];
            head += 1;
            let mut best = 0i64;
            let mut pred = NONE;
            let mut launch = v.index() as u32;
            for &e in graph.in_edges(v) {
                if self.comb[e.index()] {
                    let from = graph.edge(e).from.index();
                    let a = self.arrivals[from];
                    if a > best {
                        best = a;
                        pred = e.index() as u32;
                        launch = self.launch[from];
                    }
                }
            }
            self.pred[v.index()] = pred;
            self.launch[v.index()] = launch;
            let a = best + graph.delay(v);
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

/// FEAS rounds between two cycle searches of [`FeasWitness::record`]
/// (each search is one `O(|V|)` walk over the parent pointers).
const WITNESS_CADENCE: u32 = 4;

/// Negative-cycle witness for FEAS, the Leiserson–Saxe relaxation that
/// every probe of the §V period search runs.
///
/// FEAS is Bellman–Ford on the difference constraints
/// `r(u) − r(v) ≤ w(p) − 1`, one for every path `p` from `u` to `v`
/// whose delay (both end gates included) exceeds the bound: each
/// increment of `r(v)` relaxes the constraint of `v`'s critical path.
/// [`FeasWitness::record`] keeps that path's launch vertex as `v`'s
/// parent pointer and, every few rounds, looks for a cycle among the
/// pointers. A cycle is rebuilt into explicit edge paths from a log of
/// the critical in-edges of earlier rounds and then re-checked on graph
/// data alone by [`FeasWitness::check`]: a closed walk of non-host
/// edges, cut into `k` segments that each take longer than the bound,
/// carrying fewer than `k` registers.
///
/// Such a walk proves that **no** retiming meets the bound. Retiming
/// leaves a closed walk's register count unchanged, so under any
/// retiming with non-negative edge weights some segment carries no
/// register, and its delay alone exceeds the bound. A verified witness
/// therefore ends a probe only where the full `|V|`-round run would also
/// fail; it never changes a probe's answer, only how soon a failing
/// probe stops.
///
/// The pointers are valid only while FEAS increments are the only
/// changes to `r`: call [`FeasWitness::reset`] after any other change
/// (the hold repairs of [`crate::setup_hold`]).
#[derive(Debug, Default)]
pub(crate) struct FeasWitness {
    /// Rounds recorded since the last reset.
    round: u32,
    /// Launch vertex of each vertex's last increment ([`NONE`]: not
    /// incremented since the reset, or it launched its own path).
    parent: Vec<u32>,
    /// Round of that increment.
    stamp: Vec<u32>,
    /// Critical in-edge history: `(round, edge, previous entry of the
    /// same vertex)`, appended only when a vertex's in-edge changes (a
    /// vertex without entries has had none since the reset).
    log: Vec<(u32, u32, u32)>,
    /// Latest log entry of each vertex ([`NONE`]: no entry).
    head: Vec<u32>,
    /// The in-edge of that entry, so unchanged vertices cost no log read.
    logged: Vec<u32>,
    /// Walk numbers of the cycle search (0 = not yet visited).
    mark: Vec<u32>,
    /// The last verified cycle, one edge path per segment.
    segments: Vec<Vec<EdgeId>>,
}

impl FeasWitness {
    /// Creates an empty witness (buffers grow on the first reset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every pointer and logged in-edge: the next
    /// [`FeasWitness::record`] starts a fresh Bellman–Ford run.
    pub fn reset(&mut self, graph: &RetimeGraph) {
        let n = graph.num_vertices();
        self.round = 0;
        self.parent.clear();
        self.parent.resize(n, NONE);
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.head.clear();
        self.head.resize(n, NONE);
        self.logged.clear();
        self.logged.resize(n, NONE);
        self.log.clear();
    }

    /// Records one FEAS round: `scratch` holds the arrivals under the
    /// retiming *before* this round's increments, and every vertex whose
    /// arrival exceeds `bound` is about to be incremented. Returns `true`
    /// when a cycle among the pointers has been found, rebuilt and
    /// verified — `bound` is then proven infeasible and
    /// [`FeasWitness::segments`] holds the proof.
    pub fn record(&mut self, graph: &RetimeGraph, scratch: &ArrivalScratch, bound: i64) -> bool {
        if self.parent.len() != graph.num_vertices() {
            self.reset(graph);
        }
        let t = self.round;
        for v in graph.vertices() {
            let i = v.index();
            let pred = scratch.pred[i];
            if self.logged[i] != pred {
                self.log.push((t, pred, self.head[i]));
                self.head[i] = (self.log.len() - 1) as u32;
                self.logged[i] = pred;
            }
            if scratch.arrivals[i] > bound {
                let u = scratch.launch[i];
                self.parent[i] = if u == i as u32 { NONE } else { u };
                self.stamp[i] = t;
            }
        }
        self.round += 1;
        self.round.is_multiple_of(WITNESS_CADENCE) && self.find_cycle(graph, bound)
    }

    /// The segments of the last verified cycle, in walk order: segment
    /// `i` ends where segment `i + 1` (cyclically) starts.
    #[cfg(test)]
    pub fn segments(&self) -> &[Vec<EdgeId>] {
        &self.segments
    }

    /// Whether `segments` proves that no retiming meets `bound`: they
    /// form a closed walk of non-host edges, every segment is a
    /// non-empty path whose delay (both end gates included) exceeds
    /// `bound`, and the walk carries fewer original registers than it
    /// has segments. Uses graph data only.
    pub fn check(graph: &RetimeGraph, segments: &[Vec<EdgeId>], bound: i64) -> bool {
        let mut registers = 0u64;
        for (i, seg) in segments.iter().enumerate() {
            let (Some(first), Some(last)) = (seg.first(), seg.last()) else {
                return false;
            };
            let next = &segments[(i + 1) % segments.len()];
            if next.first().map(|&e| graph.edge(e).from) != Some(graph.edge(*last).to) {
                return false;
            }
            let mut at = graph.edge(*first).from;
            let mut delay = graph.delay(at);
            for &e in seg {
                let edge = graph.edge(e);
                if edge.from != at || edge.from.is_host() || edge.to.is_host() {
                    return false;
                }
                at = edge.to;
                delay += graph.delay(at);
                registers += u64::from(edge.weight);
            }
            if delay <= bound {
                return false;
            }
        }
        !segments.is_empty() && registers < segments.len() as u64
    }

    /// Walk-to-root search over the parent pointers; rebuilds and checks
    /// each cycle it meets.
    fn find_cycle(&mut self, graph: &RetimeGraph, bound: i64) -> bool {
        self.mark.clear();
        self.mark.resize(graph.num_vertices(), 0);
        let mut walk = 0u32;
        for start in graph.vertices() {
            if self.mark[start.index()] != 0 {
                continue;
            }
            walk += 1;
            let mut v = start.index() as u32;
            while v != NONE && self.mark[v as usize] == 0 {
                self.mark[v as usize] = walk;
                v = self.parent[v as usize];
            }
            if v != NONE
                && self.mark[v as usize] == walk
                && self.rebuild(graph, v)
                && Self::check(graph, &self.segments, bound)
            {
                return true;
            }
        }
        false
    }

    /// Rebuilds the pointer cycle through `start` as edge paths: each
    /// segment is its end vertex's critical path in the round of its
    /// pointer, read back from the in-edge log.
    fn rebuild(&mut self, graph: &RetimeGraph, start: u32) -> bool {
        self.segments.clear();
        let mut v = start;
        loop {
            let (u, t) = (self.parent[v as usize], self.stamp[v as usize]);
            let mut seg = Vec::new();
            let mut x = v;
            while x != u {
                let e = self.pred_at(x, t);
                if e == NONE || seg.len() >= graph.num_edges() {
                    return false;
                }
                seg.push(EdgeId::new(e as usize));
                x = graph.edges()[e as usize].from.index() as u32;
            }
            seg.reverse();
            self.segments.push(seg);
            v = u;
            if v == start {
                break;
            }
        }
        self.segments.reverse();
        true
    }

    /// The critical in-edge of vertex `x` in round `t`.
    fn pred_at(&self, x: u32, t: u32) -> u32 {
        let mut i = self.head[x as usize];
        while i != NONE {
            let (round, edge, prev) = self.log[i as usize];
            if round <= t {
                return edge;
            }
            i = prev;
        }
        NONE
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::setup_hold::feasible_setup_hold_capped;
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
    /// stage in `regs_after` and one closing the ring: the hand-built
    /// register loop of the witness tests. The output leaves through
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

    /// FEAS from `r = 0` with a witness: the round in which it fired and
    /// the segments it proved with, or `None` when `|V|` rounds passed.
    /// Every round also checks the pass against its definition.
    fn feas_witness(graph: &RetimeGraph, bound: i64) -> Option<(usize, Vec<Vec<EdgeId>>)> {
        let mut r = Retiming::zero(graph);
        let mut scratch = ArrivalScratch::new();
        let mut witness = FeasWitness::new();
        for round in 0..graph.num_vertices() {
            let period = scratch.compute(graph, &r)?;
            assert_pass_matches_definition(graph, &r, &scratch, period);
            if period <= bound {
                return None;
            }
            if witness.record(graph, &scratch, bound) {
                return Some((round, witness.segments().to_vec()));
            }
            for v in graph.vertices() {
                if scratch.arrival(v) > bound {
                    r.add(v, 1);
                }
            }
        }
        None
    }

    #[test]
    fn witness_proves_a_register_loop_infeasible() {
        // 24 unit gates and 3 registers: no retiming beats period 8. At
        // 6, a walk of `m` laps has room for at most `4m` segments of
        // delay ≥ 7 (cut gates count twice) and needs more than `3m`:
        // one register more per lap must break any witness.
        let c = ring(24, &[7, 15]);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let bound = 6;
        let (round, segs) = feas_witness(&g, bound).expect("detection fires inside |V| rounds");
        assert!(round < g.num_vertices());

        // Re-check the walk independently of `FeasWitness::check`.
        let walk: Vec<EdgeId> = segs.concat();
        for (i, &e) in walk.iter().enumerate() {
            let next = walk[(i + 1) % walk.len()];
            assert_eq!(g.edge(e).to, g.edge(next).from, "the walk is closed");
            assert!(!g.edge(e).from.is_host() && !g.edge(e).to.is_host());
        }
        for seg in &segs {
            let delay = g.delay(g.edge(seg[0]).from)
                + seg.iter().map(|&e| g.delay(g.edge(e).to)).sum::<i64>();
            assert!(delay > bound, "segment delay {delay} must exceed {bound}");
        }
        let registers: u64 = walk.iter().map(|&e| u64::from(g.edge(e).weight)).sum();
        assert!(
            registers < segs.len() as u64,
            "{registers} registers, {} segments",
            segs.len()
        );
        assert!(FeasWitness::check(&g, &segs, bound));

        // Tampered: the same walk in a ring with one register more.
        let g4 = RetimeGraph::from_circuit(&ring(24, &[3, 7, 15]), &DelayModel::unit()).unwrap();
        assert!(g
            .edges()
            .iter()
            .zip(g4.edges())
            .all(|(a, b)| (a.from, a.to) == (b.from, b.to)));
        assert_eq!(g4.total_registers(), g.total_registers() + 1);
        assert!(!FeasWitness::check(&g4, &segs, bound));

        // Tampered: one segment cut short by its last edge.
        let mut cut = segs.clone();
        cut[0].pop();
        assert!(!FeasWitness::check(&g, &cut, bound));
        // Tampered: a bound the segments do not all exceed.
        assert!(!FeasWitness::check(&g, &segs, 24));
    }

    /// Every answer of the FEAS loop — plain min-period FEAS at
    /// `T_h = 0` and the setup phase of the setup+hold probes at
    /// `T_h = 2`, at the full and the quick cap — must equal the
    /// oracle's with the witness compiled out, at every period from the
    /// largest gate delay to the `r = 0` period. Returns how many of
    /// those periods a witness proves infeasible.
    fn assert_witness_keeps_answers(g: &RetimeGraph) -> usize {
        let max_delay = g.vertices().map(|v| g.delay(v)).max().unwrap_or(0);
        let period = clock_period(g, &Retiming::zero(g)).unwrap();
        let full_cap = g.num_vertices() + 2;
        let mut witnessed = 0;
        for phi in max_delay..=period {
            for t_hold in [0, 2] {
                for cap in [full_cap, 8] {
                    assert_eq!(
                        feasible_setup_hold_capped::<true>(g, phi, 0, t_hold, cap),
                        feasible_setup_hold_capped::<false>(g, phi, 0, t_hold, cap),
                        "setup+hold FEAS at {phi}, T_h {t_hold}, cap {cap}"
                    );
                }
            }
            if let Some((_, segs)) = feas_witness(g, phi) {
                assert!(FeasWitness::check(g, &segs, phi));
                witnessed += 1;
            }
        }
        witnessed
    }

    #[test]
    fn witness_keeps_every_answer_on_the_samples() {
        let mut witnessed = 0;
        for c in [
            samples::s27_like(),
            samples::pipeline(9, 3),
            samples::pipeline(24, 8),
            samples::fig1_like(),
            samples::two_stage_loop(),
            ring(24, &[7, 15]),
            // Bunched registers: feasible periods take FEAS many rounds
            // of moving them apart, so an early `None` would show.
            ring(24, &[0, 1]),
            ring(40, &[0, 1, 2, 3]),
        ] {
            for delays in [DelayModel::unit(), DelayModel::default()] {
                let g = RetimeGraph::from_circuit(&c, &delays).unwrap();
                witnessed += assert_witness_keeps_answers(&g);
            }
        }
        assert!(witnessed > 0, "the sweep must exercise the witness");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn witness_keeps_every_answer_on_generated_circuits(
            seed in 0u64..1_000_000,
            gates in 12usize..32,
            registers in 2usize..10,
            unit in 0u32..2,
        ) {
            let c = GeneratorConfig::new("witness", seed)
                .gates(gates)
                .registers(registers)
                .build();
            let delays = if unit == 1 { DelayModel::unit() } else { DelayModel::default() };
            let g = RetimeGraph::from_circuit(&c, &delays).unwrap();
            assert_witness_keeps_answers(&g);
        }
    }
}
