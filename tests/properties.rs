//! Property-based tests (proptest) over the core data structures and
//! invariants of the suite.

use faultsim::{folded_elw_fraction, FaultAtlas};
use minobswin::closure::ConstraintSystem;
use minobswin::forest::WeightedRegularForest;
use netlist::generator::GeneratorConfig;
use netlist::{DelayModel, GateKind};
use proptest::prelude::*;
use retime::timing::clock_period;
use retime::{ElwParams, LrLabels, RetimeGraph, Retiming, VertexId};
use ser_engine::IntervalSet;

proptest! {
    /// IntervalSet insertion keeps intervals sorted, disjoint and
    /// non-touching, and total_length equals a brute-force point count
    /// over the half-open interpretation... here closed intervals:
    /// sum of (r - l).
    #[test]
    fn interval_set_invariants(ops in prop::collection::vec((0i64..200, 0i64..40), 0..40)) {
        let mut set = IntervalSet::new();
        for (lo, len) in ops {
            set.insert(lo, lo + len);
        }
        let intervals = set.intervals();
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "sorted and disjoint: {:?}", intervals);
        }
        let total: i64 = intervals.iter().map(|(l, r)| r - l).sum();
        prop_assert_eq!(total, set.total_length());
        if let (Some(l), Some(r)) = (set.left(), set.right()) {
            prop_assert!(l <= r);
            prop_assert!(set.contains(l) && set.contains(r));
        }
    }

    /// Shifting an interval set preserves its measure and count.
    #[test]
    fn interval_shift_preserves_measure(
        ops in prop::collection::vec((0i64..100, 0i64..20), 1..20),
        delta in -500i64..500,
    ) {
        let mut set = IntervalSet::new();
        for (lo, len) in ops {
            set.insert(lo, lo + len);
        }
        let shifted = set.shifted(delta);
        prop_assert_eq!(set.total_length(), shifted.total_length());
        prop_assert_eq!(set.count(), shifted.count());
    }

    /// Random generated circuits always build valid retiming graphs
    /// whose identity retiming is P0-feasible, and Theorem 1 holds:
    /// the L/R labels equal the exact ELW extremes.
    #[test]
    fn theorem1_on_random_circuits(seed in 0u64..40) {
        let circuit = GeneratorConfig::new("prop", seed)
            .gates(40 + (seed as usize % 40))
            .registers(8 + (seed as usize % 8))
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::default()).unwrap();
        let r = Retiming::zero(&graph);
        prop_assert!(graph.check_nonnegative(&r).is_ok());
        let phi = clock_period(&graph, &r).unwrap() + 2;
        let params = ElwParams::with_phi(phi);
        let labels = LrLabels::compute(&graph, &r, params).unwrap();
        let elws = ser_engine::elw::compute_elws(&graph, &r, params).unwrap();
        for v in graph.vertices() {
            let set = &elws[v.index()];
            match (labels.l(v), labels.r(v)) {
                (Some(l), Some(rr)) => {
                    prop_assert_eq!(Some(l), set.left());
                    prop_assert_eq!(Some(rr), set.right());
                    prop_assert!(rr >= l);
                }
                _ => prop_assert!(set.is_empty()),
            }
        }
    }

    /// The max-gain closed set really is closed, frozen-free and of
    /// positive gain, for random constraint systems.
    #[test]
    fn closure_selection_invariants(
        gains in prop::collection::vec(-50i64..50, 2..30),
        arcs in prop::collection::vec((1usize..30, 1usize..30), 0..60),
        frozen in prop::collection::vec(1usize..30, 0..5),
    ) {
        let mut b = vec![0i64];
        b.extend(gains.iter());
        let n = b.len();
        let mut cs = ConstraintSystem::new(b);
        for (p, q) in arcs {
            let (p, q) = (p % n, q % n);
            if p != 0 && q != 0 && p != q {
                cs.add_arc(VertexId::new(p), VertexId::new(q));
            }
        }
        for f in frozen {
            if f % n != 0 {
                cs.freeze(VertexId::new(f % n));
            }
        }
        let set = cs.max_gain_closed_set();
        if !set.is_empty() {
            prop_assert!(cs.is_closed(&set));
            prop_assert!(cs.gain_of(&set) > 0);
            for v in &set {
                prop_assert!(!cs.is_frozen(*v));
            }
        }
    }

    /// The weighted regular forest keeps its structural invariants
    /// under random update/freeze/break sequences.
    #[test]
    fn forest_invariants_under_random_ops(
        gains in prop::collection::vec(-20i64..20, 3..16),
        ops in prop::collection::vec((0usize..3, 1usize..16, 1usize..16, 1i64..4), 0..40),
    ) {
        let mut b = vec![0i64];
        b.extend(gains.iter());
        let n = b.len();
        let mut forest = WeightedRegularForest::new(b);
        for (kind, p, q, w) in ops {
            let p = 1 + (p % (n - 1));
            let q = 1 + (q % (n - 1));
            match kind {
                0 if p != q => {
                    forest.update(VertexId::new(p), VertexId::new(q), w);
                }
                1 => forest.freeze(VertexId::new(p)),
                _ => forest.break_tree(VertexId::new(q)),
            }
            prop_assert!(forest.check_invariants().is_ok());
            prop_assert!(forest.num_constraints() < n);
        }
        // Positive set members really belong to positive trees.
        for v in forest.positive_set() {
            let gain = forest.tree_gain(v);
            prop_assert!(matches!(gain, Some(g) if g > 0));
        }
    }

    /// The faultsim atlas's latch decisions over exhaustively
    /// enumerated single faults match the exact fault-injection
    /// validator in `ser_engine::odc`: for every strike site, the
    /// fraction of vectors whose flip reaches an observation point
    /// equals the exact per-gate detection probability, and register
    /// sites inherit their driver's decision exactly.
    #[test]
    fn faultsim_latch_decisions_match_exact_fault_injection(seed in 0u64..20) {
        let circuit = GeneratorConfig::new("fsim", seed)
            .gates(30 + (seed as usize % 30))
            .registers(4 + (seed as usize % 6))
            .build();
        let config = ser_engine::SerConfig::small(40 + seed as i64 % 20);
        let atlas = FaultAtlas::build(&circuit, &config, 1).unwrap();
        let exact = ser_engine::odc::exact_fault_injection(&circuit, config.sim);
        for site in atlas.sites() {
            let mask = atlas.detection_mask(site.gate).unwrap();
            let reference = if circuit.gate(site.gate).kind() == GateKind::Dff {
                // A register strike is modeled as a strike at its
                // combinational driver (registers are wires in the
                // time-frame expansion).
                exact[ser_engine::register_driver(&circuit, site.gate).index()]
            } else {
                exact[site.gate.index()]
            };
            prop_assert!(
                (mask.density() - reference).abs() < 1e-12,
                "site {}: atlas {} vs exact {}",
                circuit.gate(site.gate).name(),
                mask.density(),
                reference
            );
        }
    }

    /// The folded timing-test expectation never exceeds the raw
    /// `|ELW|/Φ` fraction and both lie in [0, 1] range rules: folding
    /// can only merge probability mass, never create it.
    #[test]
    fn folded_fraction_bounded_by_raw_fraction(
        ops in prop::collection::vec((0i64..120, 0i64..30), 1..10),
        phi in 20i64..100,
    ) {
        let mut set = IntervalSet::new();
        for (lo, len) in ops {
            set.insert(lo, lo + len);
        }
        let folded = folded_elw_fraction(&set, phi);
        let raw = set.total_length() as f64 / phi as f64;
        prop_assert!((0.0..=1.0).contains(&folded));
        prop_assert!(folded <= raw.min(1.0) + 1e-12);
    }

    /// Netlist round trip through .bench preserves structure for
    /// arbitrary generated circuits.
    #[test]
    fn bench_round_trip_structure(seed in 0u64..30) {
        let circuit = GeneratorConfig::new("rt", seed)
            .gates(30 + (seed as usize % 50))
            .registers(5 + (seed as usize % 10))
            .build();
        let text = netlist::bench_format::write(&circuit);
        let reparsed = netlist::bench_format::parse(&text, circuit.name()).unwrap();
        prop_assert_eq!(circuit.len(), reparsed.len());
        prop_assert_eq!(circuit.num_registers(), reparsed.num_registers());
        prop_assert_eq!(circuit.num_edges(), reparsed.num_edges());
        for (_, gate) in circuit.iter() {
            if gate.kind() == GateKind::Output {
                continue;
            }
            let rid = reparsed.find(gate.name()).unwrap();
            prop_assert_eq!(gate.kind(), reparsed.gate(rid).kind());
        }
    }

    /// Netlist round trip through BLIF preserves structure for
    /// arbitrary generated circuits (the printer and parser are
    /// inverses up to gate naming of outputs).
    #[test]
    fn blif_round_trip_structure(seed in 0u64..30) {
        let circuit = GeneratorConfig::new("rtb", seed)
            .gates(30 + (seed as usize % 50))
            .registers(5 + (seed as usize % 10))
            .build();
        let text = netlist::blif::write(&circuit);
        let reparsed = netlist::blif::parse(&text).unwrap();
        prop_assert_eq!(circuit.len(), reparsed.len());
        prop_assert_eq!(circuit.num_registers(), reparsed.num_registers());
        prop_assert_eq!(circuit.num_edges(), reparsed.num_edges());
        for (_, gate) in circuit.iter() {
            if gate.kind() == GateKind::Output {
                continue;
            }
            let rid = reparsed.find(gate.name()).unwrap();
            prop_assert_eq!(gate.kind(), reparsed.gate(rid).kind());
        }
        // A second trip is a fixpoint: writing the reparsed circuit
        // reproduces the text byte-for-byte.
        prop_assert_eq!(netlist::blif::write(&reparsed), text);
    }

    /// Differential suite for the warm-started closure engine: random
    /// mutation sequences (arc adds, weight raises, freezes) with a
    /// selection after every step return exactly the canonical set the
    /// from-scratch engine computes — same members, same gain — at a
    /// forced-fallback (`pct = 0`), mixed (`35`) and never-fallback
    /// (`100`) rebuild threshold.
    #[test]
    fn warm_closure_matches_fresh_closure(
        gains in prop::collection::vec(-40i64..40, 4..24),
        ops in prop::collection::vec(
            (0usize..3, 1usize..24, 1usize..24, 2i64..5),
            1..40,
        ),
        pct in prop::sample::select(vec![0u32, 35, 100]),
    ) {
        use minobswin::closure_inc::IncrementalClosure;
        use minobswin::perf::PerfCounters;

        let mut b = vec![0i64];
        b.extend(gains.iter());
        let n = b.len();
        let mut cs = ConstraintSystem::new(b);
        let mut engine = IncrementalClosure::new(pct);
        let mut perf = PerfCounters::default();
        let initial = engine.select(&cs, &mut perf);
        prop_assert_eq!(&initial, &cs.max_gain_closed_set());
        for (kind, p, q, w) in ops {
            let p = VertexId::new(1 + p % (n - 1));
            let q = VertexId::new(1 + q % (n - 1));
            match kind {
                0 if p != q => {
                    cs.add_arc(p, q);
                }
                1 => {
                    cs.raise_weight(q, w);
                }
                _ => cs.freeze(p),
            }
            let warm = engine.select(&cs, &mut perf);
            let fresh = cs.max_gain_closed_set();
            prop_assert_eq!(&warm, &fresh, "pct {}", pct);
            prop_assert_eq!(cs.gain_of(&warm), cs.gain_of(&fresh));
            // Selecting again without mutations serves the cache and
            // must still agree.
            prop_assert_eq!(&engine.select(&cs, &mut perf), &fresh);
        }
        if pct == 100 {
            prop_assert_eq!(perf.closure_fallback_full, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Feasibility of the solver output on random instances, with the
    /// full pipeline initialization.
    #[test]
    fn solver_output_always_feasible(seed in 0u64..12) {
        use minobswin::init::InitConfig;
        use minobswin::verify::check_feasible;
        use minobswin::{Problem, SolverSession};

        let circuit = GeneratorConfig::new("feas", seed)
            .gates(70)
            .registers(14)
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::default()).unwrap();
        let init = InitConfig::default().initialize(&graph).unwrap();
        let params = ElwParams { phi: init.phi, t_setup: 0, t_hold: 2 };
        let counts = vec![3i64; graph.num_vertices()];
        let problem = Problem::from_observability_counts(&graph, &counts, params, init.r_min);
        let sol = SolverSession::new(&graph, &problem)
            .initial(init.retiming)
            .run()
            .unwrap();
        prop_assert!(check_feasible(&graph, &problem, &sol.retiming).is_ok());
        prop_assert!(sol.objective_gain >= 0);
    }

    /// The canonical order the solver's batched learning step relies
    /// on, checked by [`canonical_order_holds`] on every tentative
    /// retiming of a random walk of multi-vertex ±1 moves from the §V
    /// start that commits the feasible ones. Almost every move as drawn
    /// breaks P0, so each is also tried closed ([`closed_move`]), which
    /// never does. Every tentative retiming is checked against the
    /// instance and against a tightened copy (Φ cut by a quarter,
    /// `R_min` raised by 2) whose P0-clean retimings carry P2 and P1
    /// violations together.
    #[test]
    fn find_violations_is_canonical(
        seed in 0u64..10,
        moves in prop::collection::vec(
            (prop::collection::vec(0usize..64, 1..4), prop::sample::select(vec![-1i64, 1])),
            1..15,
        ),
    ) {
        use minobswin::init::InitConfig;
        use minobswin::verify::find_violation;
        use minobswin::Problem;

        let circuit = GeneratorConfig::new("inc", seed)
            .gates(50)
            .registers(10)
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::default()).unwrap();
        let init = InitConfig::default().initialize(&graph).unwrap();
        let params = ElwParams { phi: init.phi, t_setup: 0, t_hold: 2 };
        let counts = vec![2i64; graph.num_vertices()];
        let problem = Problem::from_observability_counts(&graph, &counts, params, init.r_min);
        let tight_params = ElwParams { phi: init.phi - init.phi / 4, ..params };
        let tight =
            Problem::from_observability_counts(&graph, &counts, tight_params, init.r_min + 2);
        prop_assume!(find_violation(&graph, &problem, &init.retiming).is_none());

        let mut committed = init.retiming.clone();
        for (indices, delta) in moves {
            let mut drawn: Vec<VertexId> = indices
                .iter()
                .map(|&i| VertexId::new(1 + i % (graph.num_vertices() - 1)))
                .collect();
            drawn.sort();
            drawn.dedup();
            let mut shifted = committed.clone();
            for &v in &drawn {
                shifted.add(v, delta);
            }
            let closed = closed_move(&graph, &committed, &drawn, delta);
            for r_tent in [shifted, closed] {
                canonical_order_holds(&graph, &tight, &r_tent)?;
                if canonical_order_holds(&graph, &problem, &r_tent)? {
                    committed = r_tent;
                    break;
                }
            }
        }
    }

    /// End-to-end differential run of the closure engines: a full
    /// solve with the warm-started engine (at the forced-fallback,
    /// default and never-fallback thresholds) produces the identical
    /// retiming, objective gain and commit trajectory as fresh Dinic
    /// builds — and never touches more arcs.
    #[test]
    fn warm_closure_solver_matches_fresh_solver(
        seed in 0u64..8,
        pct in prop::sample::select(vec![0u32, 50, 100]),
    ) {
        use minobswin::algorithm::SolverConfig;
        use minobswin::closure_inc::ClosureEngine;
        use minobswin::init::InitConfig;
        use minobswin::{Problem, SolverSession};

        let circuit = GeneratorConfig::new("wcl", seed)
            .gates(60)
            .registers(12)
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::default()).unwrap();
        let init = InitConfig::default().initialize(&graph).unwrap();
        let params = ElwParams { phi: init.phi, t_setup: 0, t_hold: 2 };
        let counts = vec![2i64; graph.num_vertices()];
        let problem = Problem::from_observability_counts(&graph, &counts, params, init.r_min);
        let warm = SolverSession::new(&graph, &problem)
            .config(SolverConfig::default().with_closure_engine(
                ClosureEngine::Warm { rebuild_percent: pct },
            ))
            .initial(init.retiming.clone())
            .run()
            .unwrap();
        let fresh = SolverSession::new(&graph, &problem)
            .config(SolverConfig::default().with_closure_engine(ClosureEngine::Fresh))
            .initial(init.retiming)
            .run()
            .unwrap();
        prop_assert_eq!(&warm.retiming, &fresh.retiming, "pct {}", pct);
        prop_assert_eq!(warm.objective_gain, fresh.objective_gain);
        prop_assert_eq!(warm.stats.commits, fresh.stats.commits);
        prop_assert_eq!(warm.stats.perf.closure_calls, fresh.stats.perf.closure_calls);
        // At pct = 0 every delta call rebuilds, so the only savings are
        // the cached post-commit calls — and the two engines insert
        // constraint arcs in different orders (log order vs HashMap
        // order), making Dinic explore different augmenting paths of
        // the same maximum flow. Allow that exploration-order noise;
        // the cut itself is bit-identical (asserted above).
        let budget = fresh.stats.perf.closure_arcs_touched
            + fresh.stats.perf.closure_arcs_touched / 20;
        prop_assert!(
            warm.stats.perf.closure_arcs_touched <= budget,
            "pct {}: warm touched {} arcs, fresh {}",
            pct,
            warm.stats.perf.closure_arcs_touched,
            fresh.stats.perf.closure_arcs_touched
        );
        if pct == 100 {
            // Never falling back, the warm engine must not lose to the
            // from-scratch engine. Batched constraint learning leaves
            // too few closure calls on these 60-gate instances for the
            // old 2x total-reuse margin to survive (each warm call now
            // repairs and resumes over a whole violation batch); the
            // per-call reuse claim is asserted at 300 gates in
            // `solver_bench::tests::warm_closure_beats_fresh_on_a_generated_circuit`.
            prop_assert!(
                warm.stats.perf.closure_arcs_touched <= fresh.stats.perf.closure_arcs_touched,
                "pct 100: warm touched {} arcs, fresh only {}",
                warm.stats.perf.closure_arcs_touched,
                fresh.stats.perf.closure_arcs_touched
            );
            prop_assert_eq!(warm.stats.perf.closure_fallback_full, 0);
        }
    }
}

/// `r` with `move_set` shifted by `delta` after closing the set over
/// every zero-weight edge the shift would drain (fanins for a
/// decrease, fanouts for an increase), so the move never breaks P0,
/// like the solver's closed-set moves. A closure that reaches the host,
/// which cannot move, shifts every vertex outside it by `-delta`
/// instead; the retimed edge weights are the same.
fn closed_move(graph: &RetimeGraph, r: &Retiming, move_set: &[VertexId], delta: i64) -> Retiming {
    let mut member = vec![false; graph.num_vertices()];
    let mut stack = move_set.to_vec();
    for &v in move_set {
        member[v.index()] = true;
    }
    while let Some(v) = stack.pop() {
        let edges = if delta < 0 {
            graph.in_edges(v)
        } else {
            graph.out_edges(v)
        };
        for &e in edges {
            let edge = graph.edge(e);
            let u = if delta < 0 { edge.from } else { edge.to };
            if graph.retimed_weight(e, r) == 0 && !member[u.index()] {
                member[u.index()] = true;
                stack.push(u);
            }
        }
    }
    let host_joined = member[RetimeGraph::HOST.index()];
    let mut out = r.clone();
    for v in graph.vertices() {
        if member[v.index()] != host_joined {
            out.add(v, if host_joined { -delta } else { delta });
        }
    }
    out
}

/// Checks the canonical order of `find_violations` on one retiming and
/// returns whether it is feasible. The list leads with
/// `find_violation`'s answer, is empty exactly when `check_feasible`
/// accepts, and holds either only P0 by strictly ascending edge id, or
/// all P2 by strictly ascending edge id before all P1 by strictly
/// ascending vertex id.
fn canonical_order_holds(
    graph: &RetimeGraph,
    problem: &minobswin::Problem,
    r: &Retiming,
) -> Result<bool, String> {
    use minobswin::verify::{check_feasible, find_violation, find_violations, Violation};

    let all = find_violations(graph, problem, r);
    prop_assert_eq!(all.first().cloned(), find_violation(graph, problem, r));
    prop_assert_eq!(all.is_empty(), check_feasible(graph, problem, r).is_ok());
    let ids = |pick: fn(&Violation) -> Option<usize>| -> Vec<Option<usize>> {
        all.iter().map(pick).collect()
    };
    let p0 = ids(|v| match v {
        Violation::P0 { edge, .. } => Some(edge.index()),
        _ => None,
    });
    let p2 = ids(|v| match v {
        Violation::P2(p) => Some(p.edge.index()),
        _ => None,
    });
    let p1 = ids(|v| match v {
        Violation::P1(p) => Some(p.vertex.index()),
        _ => None,
    });
    let ascending = |xs: &[Option<usize>]| xs.windows(2).all(|w| w[0] < w[1]);
    if p0.iter().any(Option::is_some) {
        prop_assert!(
            p0.iter().all(Option::is_some),
            "P0 mixed with P1/P2: {all:?}"
        );
        prop_assert!(ascending(&p0), "P0 edge ids not ascending: {all:?}");
    } else {
        let split = p2.iter().take_while(|id| id.is_some()).count();
        prop_assert!(
            p1[split..].iter().all(Option::is_some),
            "a P2 after a P1: {all:?}"
        );
        prop_assert!(
            ascending(&p2[..split]),
            "P2 edge ids not ascending: {all:?}"
        );
        prop_assert!(
            ascending(&p1[split..]),
            "P1 vertex ids not ascending: {all:?}"
        );
    }
    Ok(all.is_empty())
}
