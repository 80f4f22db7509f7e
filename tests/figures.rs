//! Regression tests reproducing the paper's figures.
//!
//! * **Fig. 1**: a register move that lowers register observability but
//!   raises SER; MinObs takes it, MinObsWin's P2 machinery refuses.
//! * **Fig. 2(a–c)**: the three active-constraint types.
//! * **Fig. 3**: a positive-tree↔positive-tree link forcing a weight
//!   update via `BreakTree` in the weighted regular forest.

use minobswin::algorithm::SolverConfig;
use minobswin::forest::WeightedRegularForest;
use minobswin::verify::{check_feasible, Violation};
use minobswin::{Problem, SolverSession};
use netlist::{samples, CircuitBuilder, DelayModel, GateKind};
use retime::apply::apply_retiming;
use retime::{ElwParams, LrLabels, RetimeGraph, Retiming, VertexId};
use ser_engine::odc::Observability;
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{analyze, vertex_observabilities, SerConfig};

/// Fig. 1, quantitative: the move reduces register observability and
/// register count yet increases eq.-(4) SER, by splitting the upstream
/// ELWs into disjoint windows.
#[test]
fn fig1_move_lowers_obs_but_raises_ser() {
    let circuit = samples::fig1_like();
    let delays = DelayModel::default();
    let graph = RetimeGraph::from_circuit(&circuit, &delays).unwrap();
    let f = graph.vertex_of(circuit.find("F").unwrap()).unwrap();
    let mut moved = Retiming::zero(&graph);
    moved.set(f, -1);
    let phi = retime::timing::clock_period(&graph, &moved)
        .unwrap()
        .max(retime::timing::clock_period(&graph, &Retiming::zero(&graph)).unwrap());
    let config = SerConfig {
        sim: SimConfig::default(),
        delays: delays.clone(),
        elw: ElwParams::with_phi(phi),
        ..SerConfig::with_phi(phi)
    };
    let before = analyze(&circuit, &config).unwrap();
    let rebuilt = apply_retiming(&circuit, &graph, &moved).unwrap();
    let after = analyze(&rebuilt, &config).unwrap();

    assert!(rebuilt.num_registers() < circuit.num_registers());
    assert!(after.register_observability < before.register_observability);
    assert!(
        after.ser > before.ser,
        "SER must worsen: before {:.3e}, after {:.3e}",
        before.ser,
        after.ser
    );

    // The ELWs of A and B grow by exactly 1, splitting into 2 windows.
    let elws_before =
        ser_engine::elw::compute_elws(&graph, &Retiming::zero(&graph), config.elw).unwrap();
    let elws_after = ser_engine::elw::compute_elws(&graph, &moved, config.elw).unwrap();
    for name in ["A", "B"] {
        let v = graph.vertex_of(circuit.find(name).unwrap()).unwrap();
        assert_eq!(
            elws_after[v.index()].total_length(),
            elws_before[v.index()].total_length() + 1,
            "{name}'s ELW grows by 1"
        );
        assert_eq!(elws_after[v.index()].count(), 2, "{name}'s ELW splits");
    }
}

/// Fig. 1, behavioral: MinObs takes the trap move, MinObsWin refuses it
/// under the §V-style `R_min`, and ends with the lower real SER.
#[test]
fn fig1_minobswin_refuses_the_trap() {
    let circuit = samples::fig1_like();
    let delays = DelayModel::default();
    let graph = RetimeGraph::from_circuit(&circuit, &delays).unwrap();
    let f = graph.vertex_of(circuit.find("F").unwrap()).unwrap();
    let mut moved = Retiming::zero(&graph);
    moved.set(f, -1);
    let phi = retime::timing::clock_period(&graph, &moved)
        .unwrap()
        .max(retime::timing::clock_period(&graph, &Retiming::zero(&graph)).unwrap());
    let params = ElwParams::with_phi(phi);
    let sim = SimConfig::small();
    let trace = FrameTrace::simulate(&circuit, sim);
    let observability = Observability::compute(&circuit, &trace);
    let vertex_obs = vertex_observabilities(&circuit, &graph, &observability);
    let r0 = Retiming::zero(&graph);
    let labels = LrLabels::compute(&graph, &r0, params).unwrap();
    let r_min = labels.min_short_path(&graph, &r0).unwrap();
    assert!(r_min > 3, "the J-side short paths set a meaningful R_min");
    let problem =
        Problem::from_observabilities(&graph, &vertex_obs, sim.num_vectors, params, r_min);

    let ref_sol = SolverSession::new(&graph, &problem)
        .config(SolverConfig::default().with_p2(false))
        .initial(r0.clone())
        .run()
        .unwrap();
    let win_sol = SolverSession::new(&graph, &problem)
        .initial(r0)
        .run()
        .unwrap();
    assert_eq!(ref_sol.retiming.get(f), -1, "MinObs takes the move");
    assert_eq!(win_sol.retiming.get(f), 0, "MinObsWin refuses it");
    assert!(win_sol.stats.p2_fixes >= 1, "P2 machinery fired");

    let config = SerConfig {
        sim,
        delays: delays.clone(),
        elw: params,
        ..SerConfig::with_phi(phi)
    };
    let ser_of = |r: &Retiming| {
        let rebuilt = apply_retiming(&circuit, &graph, r).unwrap();
        analyze(&rebuilt, &config).unwrap().ser
    };
    assert!(
        ser_of(&win_sol.retiming) < ser_of(&ref_sol.retiming),
        "the ELW-aware result must have lower real SER"
    );
}

/// Fig. 2(a): a P0 violation names the upstream vertex as the dragged
/// constraint target.
#[test]
fn fig2a_p0_constraint() {
    let circuit = samples::pipeline(6, 3);
    let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit()).unwrap();
    let counts = vec![1i64; graph.num_vertices()];
    let problem = Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(20), 1);
    let s1 = graph.vertex_of(circuit.find("s1").unwrap()).unwrap();
    let mut r = Retiming::zero(&graph);
    r.add(s1, -1);
    match check_feasible(&graph, &problem, &r).err() {
        Some(Violation::P0 { edge, weight }) => {
            assert_eq!(weight, -1);
            assert_eq!(graph.edge(edge).to, s1);
        }
        other => panic!("expected P0, got {other:?}"),
    }
}

/// Fig. 2(b): a P1 violation carries the path head and the `lt`
/// witness.
#[test]
fn fig2b_p1_constraint() {
    let circuit = samples::pipeline(9, 3);
    let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit()).unwrap();
    let counts = vec![1i64; graph.num_vertices()];
    let problem = Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(3), 1);
    let s3 = graph.vertex_of(circuit.find("s3").unwrap()).unwrap();
    let mut r = Retiming::zero(&graph);
    r.add(s3, -1); // merge two 3-gate segments into 6 > phi
    match check_feasible(&graph, &problem, &r).err() {
        Some(Violation::P1(v)) => {
            assert!(v.slack < 0);
            assert_ne!(v.vertex, v.lt);
        }
        other => panic!("expected P1, got {other:?}"),
    }
}

/// Fig. 2(c): a P2 violation carries the short-path head and the `rt`
/// witness whose registered out-edge must be cleared.
#[test]
fn fig2c_p2_constraint() {
    // Two-gate segments; R_min = 2 is met initially, and moving q1
    // forward over c1 leaves a 1-delay launched path.
    let mut b = CircuitBuilder::new("fig2c");
    b.input("in");
    b.gate("a", GateKind::Not, &["in"]).unwrap();
    b.gate("bb", GateKind::Not, &["a"]).unwrap();
    b.dff("q1", "bb").unwrap();
    b.gate("c1", GateKind::Not, &["q1"]).unwrap();
    b.gate("c2", GateKind::Not, &["c1"]).unwrap();
    b.dff("q2", "c2").unwrap();
    b.gate("d1", GateKind::Not, &["q2"]).unwrap();
    b.gate("d2", GateKind::Not, &["d1"]).unwrap();
    b.output("d2").unwrap();
    let circuit = b.build().unwrap();
    let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit()).unwrap();
    let counts = vec![1i64; graph.num_vertices()];
    let problem = Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(10), 2);
    assert!(check_feasible(&graph, &problem, &Retiming::zero(&graph)).is_ok());
    let vc = graph.vertex_of(circuit.find("c1").unwrap()).unwrap();
    let mut r = Retiming::zero(&graph);
    r.add(vc, -1);
    match check_feasible(&graph, &problem, &r).err() {
        Some(Violation::P2(v)) => {
            assert!(v.short_path < 2);
            // rt's registered out-edge is the one to clear.
            let has_registered_out = graph
                .out_edges(v.rt)
                .iter()
                .any(|&e| graph.retimed_weight(e, &r) > 0);
            assert!(has_registered_out);
        }
        other => panic!("expected P2, got {other:?}"),
    }
}

/// Fig. 3: linking two positive trees requires a weight update, which
/// the forest realizes by `BreakTree` — the defining extension of the
/// *weighted* regular forest.
#[test]
fn fig3_positive_positive_link_updates_weight() {
    // u and x positive; y a cost. First x drags y (weight 1), then u
    // needs y with weight 2: y must be broken out and relinked.
    let mut forest = WeightedRegularForest::new(vec![0, 10, 8, -3]);
    let (u, x, y) = (VertexId::new(1), VertexId::new(2), VertexId::new(3));
    assert!(forest.update(x, y, 1));
    assert!(forest.same_tree(x, y));
    // Fig. 3(b): u (another positive tree) needs y with a new weight.
    assert!(forest.update(u, y, 2));
    assert_eq!(forest.weight(y), 2);
    assert!(forest.same_tree(u, y), "y moved under u");
    forest.check_invariants().unwrap();
    // The positive set still fires all three (total gain 10+8-6 > 0 in
    // whatever tree arrangement regularity produced).
    let pos = forest.positive_set();
    assert!(pos.contains(&u));
}
