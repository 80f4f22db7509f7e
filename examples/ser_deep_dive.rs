//! Deep dive into the SER model of §II: simulation signatures,
//! ODC-based observabilities (vs. exact fault injection), exact
//! error-latching windows, and the assembly of eq. (4).
//!
//! ```text
//! cargo run -p minobswin-bench --example ser_deep_dive
//! ```

use netlist::{samples, DelayModel};
use retime::{ElwParams, RetimeGraph, Retiming};
use ser_engine::odc::{exact_fault_injection, Observability};
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{analyze, SerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = samples::s27_like();
    println!("circuit: {circuit}\n");

    let sim = SimConfig {
        num_vectors: 2048,
        frames: 15,
        warmup: 16,
        seed: 0xC0FFEE,
        threads: 0,
    };
    let trace = FrameTrace::simulate(&circuit, sim);
    let obs = Observability::compute(&circuit, &trace);
    let exact = exact_fault_injection(&circuit, sim);

    println!("observabilities (15-frame expansion, K = 2048):");
    println!(
        "{:<8} {:>10} {:>10} {:>9}",
        "gate", "ODC obs", "exact obs", "activity"
    );
    for (id, gate) in circuit.iter() {
        if gate.kind() == netlist::GateKind::Output {
            continue;
        }
        println!(
            "{:<8} {:>10.4} {:>10.4} {:>9.4}",
            gate.name(),
            obs.obs(id),
            exact[id.index()],
            trace.activity(id)
        );
    }

    let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::default())?;
    let min_period = retime::setup_hold::min_period_setup_hold(&graph, 0, 0)
        .ok_or("no retiming meets even the trivial period bound")?;
    let phi = min_period.phi * 11 / 10;
    let config = SerConfig {
        sim,
        elw: ElwParams::with_phi(phi),
        ..SerConfig::with_phi(phi)
    };
    let report = analyze(&circuit, &config)?;

    println!(
        "\nerror-latching windows at Phi = {phi} (window [{}, {}]):",
        phi,
        phi + 2
    );
    let elws = ser_engine::elw::compute_elws(&graph, &Retiming::zero(&graph), config.elw)?;
    for v in graph.vertices() {
        let set = &elws[v.index()];
        if set.is_empty() {
            continue;
        }
        println!(
            "  {:<8} ELW = {:<28} |ELW|/Phi = {:.3}",
            graph.name(v),
            set.to_string(),
            set.total_length() as f64 / phi as f64
        );
    }

    println!("\neq. (4) assembly:");
    println!("  combinational share: {:.4e}", report.ser_combinational);
    println!("  register share:      {:.4e}", report.ser_registers);
    println!("  total SER:           {:.4e}", report.ser);
    println!(
        "  logic-masking only (no ELW factor): {:.4e}",
        report.ser_logic_only
    );
    println!(
        "  timing masking removes {:.1}% of the logic-only estimate",
        (1.0 - report.ser / report.ser_logic_only) * 100.0
    );
    Ok(())
}
