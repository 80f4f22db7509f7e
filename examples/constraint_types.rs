//! Demonstrates the three active-constraint types of the paper's
//! **Figure 2** on minimal circuits: the solver's tentative move
//! triggers, in turn, a P0 fix (registers must cascade upstream), a P1
//! fix (a critical longest path must be cut), and a P2 fix (a critical
//! shortest path must be extended by clearing a registered edge).
//!
//! ```text
//! cargo run -p minobswin-bench --example constraint_types
//! ```

use minobswin::verify::{check_feasible, Violation};
use minobswin::Problem;
use netlist::{samples, CircuitBuilder, DelayModel, GateKind};
use retime::{ElwParams, LrLabels, RetimeGraph, Retiming};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    fig2a_p0()?;
    fig2b_p1()?;
    fig2c_p2()?;
    Ok(())
}

/// Fig. 2(a): an edge with `w_r(u,v) = 0` — decreasing `v` alone sends
/// the edge negative, so `u` must be dragged along.
fn fig2a_p0() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = samples::pipeline(6, 3);
    let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit())?;
    let counts = vec![1i64; graph.num_vertices()];
    let problem = Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(20), 1);

    // Tentatively decrease only s1 (its in-edge from s0 has no
    // register).
    let s1 = graph.vertex_of(circuit.find("s1").unwrap()).unwrap();
    let mut r = Retiming::zero(&graph);
    r.add(s1, -1);
    match check_feasible(&graph, &problem, &r).err() {
        Some(Violation::P0 { edge, weight }) => {
            let e = graph.edge(edge);
            println!(
                "Fig 2(a) P0: decreasing r({}) alone makes edge {} -> {} weight {};",
                graph.name(s1),
                graph.name(e.from),
                graph.name(e.to),
                weight
            );
            println!(
                "            active constraint ({}, {}): the upstream gate joins the move.\n",
                graph.name(e.to),
                graph.name(e.from)
            );
        }
        other => println!("unexpected: {other:?}"),
    }
    Ok(())
}

/// Fig. 2(b): the move creates a register-to-register path longer than
/// `Phi - T_s`; the path head must be retimed to cut it.
fn fig2b_p1() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = samples::pipeline(9, 3);
    let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit())?;
    // Phi = 3 is exactly the balanced period: merging two segments by
    // moving a register off the boundary breaks setup.
    let phi = 3;
    let counts = vec![1i64; graph.num_vertices()];
    let problem = Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(phi), 1);

    // Move the register after s2 forward over s3 (r(s3) -= 1): the
    // first two segments merge into a 6-delay path.
    let s3 = graph.vertex_of(circuit.find("s3").unwrap()).unwrap();
    let mut r = Retiming::zero(&graph);
    r.add(s3, -1);
    match check_feasible(&graph, &problem, &r).err() {
        Some(Violation::P1(v)) => {
            println!(
                "Fig 2(b) P1: after moving the register past {}, the path headed by {} \
                 misses setup by {} units (lt = {});",
                graph.name(s3),
                graph.name(v.vertex),
                -v.slack,
                graph.name(v.lt)
            );
            println!(
                "            active constraint ({}, {}): move a register out of the head.\n",
                graph.name(v.lt),
                graph.name(v.vertex)
            );
        }
        other => println!("unexpected: {other:?}"),
    }
    Ok(())
}

/// Fig. 2(c): the move shortens a register-launched path below
/// `R_min`; all registers on the terminating edge (z, y) must move out
/// to extend it.
fn fig2c_p2() -> Result<(), Box<dyn std::error::Error>> {
    // in -> a -> bb -> [FF] -> c1 -> c2 -> [FF] -> d1 -> d2 -> out.
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
    let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit())?;
    let phi = 10;
    // R_min = 2 is met initially (both segments have short path 2).
    let counts = vec![1i64; graph.num_vertices()];
    let problem = Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(phi), 2);
    let r0 = Retiming::zero(&graph);
    let labels = LrLabels::compute(&graph, &r0, problem.params)?;
    let vc = graph.vertex_of(circuit.find("c1").unwrap()).unwrap();
    println!(
        "Fig 2(c) setup: short_path(c1) = {} with R_min = 2 (feasible).",
        labels.short_path(&graph, vc).unwrap()
    );

    // Now move the register q1 forward over c1 (r(c1) -= 1): the
    // launched path shrinks to the single gate c2 — short path 1 < 2,
    // violating P2.
    let mut r = r0.clone();
    r.add(vc, -1);
    match check_feasible(&graph, &problem, &r).err() {
        Some(Violation::P2(v)) => {
            let z = v.rt;
            println!(
                "Fig 2(c) P2: after moving q1 past c, the path launched into {} has \
                 short_path = {} < R_min; rt = {}.",
                graph.name(v.vertex),
                v.short_path,
                graph.name(z)
            );
            println!(
                "            fix: clear the registered edge leaving {} by dragging its sink \
                 into the move (possibly several registers at once — the weighted part \
                 of the weighted regular forest).",
                graph.name(z)
            );
        }
        other => println!("unexpected: {other:?}"),
    }
    Ok(())
}
