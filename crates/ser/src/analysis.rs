//! End-to-end SER analysis of a sequential circuit: the paper's
//! eq. (4), combining logic masking (observabilities from `n`-frame
//! expanded simulation), timing masking (exact error-latching windows)
//! and the raw per-gate rates.
//!
//! ```text
//! SER(C_S, n) =   Σ_{g ∈ Comb}  obs(g,n) · err(g) · |ELW(g)|/Φ
//!              +  Σ_{r ∈ Reg}   obs(r,n) · err(r) · |ELW(r)|/Φ
//! ```
//!
//! where a register's observability and ELW are those of the gate at
//! its immediate input (registers are wires in the expansion).

use netlist::{Circuit, DelayModel, GateId, GateKind};
use retime::{ElwParams, RetimeGraph, Retiming};

use crate::elw::{compute_elws, IntervalSet};
use crate::error_rate::ErrorRateModel;
use crate::odc::Observability;
use crate::sim::{EngineReport, FrameTrace, SimConfig};

/// Everything the SER analysis needs besides the circuit itself.
#[derive(Debug, Clone)]
pub struct SerConfig {
    /// Simulation parameters (vectors, frames, warm-up, seed).
    pub sim: SimConfig,
    /// Gate delay model (for the ELW computation).
    pub delays: DelayModel,
    /// Raw per-gate rate characterization.
    pub rates: ErrorRateModel,
    /// Clocking parameters Φ, T_s, T_h.
    pub elw: ElwParams,
}

impl SerConfig {
    /// A configuration with the paper's `T_s = 0`, `T_h = 2` at the
    /// given clock period, default models and full-size simulation.
    pub fn with_phi(phi: i64) -> Self {
        Self {
            sim: SimConfig::default(),
            delays: DelayModel::default(),
            rates: ErrorRateModel::default(),
            elw: ElwParams::with_phi(phi),
        }
    }

    /// Shrinks the simulation for fast tests.
    pub fn small(phi: i64) -> Self {
        Self {
            sim: SimConfig::small(),
            ..Self::with_phi(phi)
        }
    }
}

/// The complete SER breakdown of a circuit.
#[derive(Debug, Clone)]
pub struct SerReport {
    /// Total SER under eq. (4) (logic + timing masking).
    pub ser: f64,
    /// SER under eq. (1)-style logic masking only (no ELW factor) —
    /// what the MinObs objective of ref \[17\] models.
    pub ser_logic_only: f64,
    /// The combinational-gate share of `ser`.
    pub ser_combinational: f64,
    /// The register share of `ser`.
    pub ser_registers: f64,
    /// Σ obs over registers (the quantity MinObs-style retiming
    /// minimizes, eq. (5)).
    pub register_observability: f64,
    /// Per-gate observabilities (indexed by [`GateId`]; registers carry
    /// their driver's observability).
    pub obs: Vec<f64>,
    /// Per-gate exact ELW sizes `|ELW(g)|` (registers carry their
    /// driver's window).
    pub elw_size: Vec<i64>,
    /// The exact per-gate ELW interval sets.
    pub elws: Vec<IntervalSet>,
    /// Clock period used.
    pub phi: i64,
    /// ODC engine diagnostics: per-frame audit volume and
    /// circuit-breaker activity (scalar fallbacks).
    pub engine: EngineReport,
}

impl SerReport {
    /// `|ELW(g)|/Φ` for one gate.
    pub fn elw_fraction(&self, gate: GateId) -> f64 {
        self.elw_size[gate.index()] as f64 / self.phi as f64
    }
}

/// Runs the full analysis on a circuit.
///
/// # Errors
///
/// Returns [`retime::RetimeError`] if the circuit cannot be modeled as
/// a retiming graph (register-only loops).
///
/// # Examples
///
/// ```
/// use netlist::samples;
/// use ser_engine::{analyze, SerConfig};
/// # fn main() -> Result<(), retime::RetimeError> {
/// let c = samples::s27_like();
/// let report = analyze(&c, &SerConfig::small(20))?;
/// assert!(report.ser > 0.0);
/// assert!(report.ser <= report.ser_logic_only + 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn analyze(circuit: &Circuit, config: &SerConfig) -> Result<SerReport, retime::RetimeError> {
    let trace = FrameTrace::simulate(circuit, config.sim);
    let observability = Observability::compute(circuit, &trace);
    analyze_with_observability(circuit, config, &observability)
}

/// Like [`analyze`] but reuses precomputed observabilities (the
/// optimizer calls the simulation once and reuses it across candidate
/// retimings, since retiming does not change gate observabilities).
///
/// # Errors
///
/// See [`analyze`].
pub fn analyze_with_observability(
    circuit: &Circuit,
    config: &SerConfig,
    observability: &Observability,
) -> Result<SerReport, retime::RetimeError> {
    report_from_observabilities(
        circuit,
        config,
        observability.as_slice(),
        *observability.engine(),
    )
}

/// Assembles the full eq. (4) [`SerReport`] from *any* per-gate
/// observability estimate — the shared back half of every estimator
/// (analytic ODC, propagation-probability, exhaustive enumeration):
/// the ELW/timing-masking factor, the per-gate rate weighting and the
/// register-takes-its-driver convention are identical across engines,
/// so only the logic-masking front end differs between them.
///
/// `gate_obs` is indexed by [`GateId`]; entries for `Dff` gates are
/// ignored (a register is a wire in the expansion and carries its
/// driving gate's observability and window).
///
/// # Errors
///
/// See [`analyze`].
///
/// # Panics
///
/// Panics if `gate_obs.len() != circuit.len()`.
pub fn report_from_observabilities(
    circuit: &Circuit,
    config: &SerConfig,
    gate_obs: &[f64],
    engine: EngineReport,
) -> Result<SerReport, retime::RetimeError> {
    assert_eq!(gate_obs.len(), circuit.len(), "one entry per gate");
    let graph = RetimeGraph::from_circuit(circuit, &config.delays)?;
    let r = Retiming::zero(&graph);
    let vertex_elws = compute_elws(&graph, &r, config.elw)?;

    let n = circuit.len();
    let mut obs = vec![0.0; n];
    let mut elw_size = vec![0i64; n];
    let mut elws = vec![IntervalSet::new(); n];
    for (id, gate) in circuit.iter() {
        match gate.kind() {
            GateKind::Dff => {
                // Registers take their driving gate's observability and
                // window (they are wires in the expansion).
                let driver = register_driver(circuit, id);
                obs[id.index()] = gate_obs[driver.index()];
                let v = graph.vertex_of(driver).expect("driver is combinational");
                elws[id.index()] = vertex_elws[v.index()].clone();
                elw_size[id.index()] = elws[id.index()].total_length();
            }
            _ => {
                obs[id.index()] = gate_obs[id.index()];
                let v = graph.vertex_of(id).expect("combinational vertex");
                elws[id.index()] = vertex_elws[v.index()].clone();
                elw_size[id.index()] = elws[id.index()].total_length();
            }
        }
    }

    let phi = config.elw.phi;
    let mut ser_comb = 0.0;
    let mut ser_reg = 0.0;
    let mut ser_logic_only = 0.0;
    let mut register_observability = 0.0;
    for (id, gate) in circuit.iter() {
        let err = config.rates.rate(circuit, id);
        if err == 0.0 {
            continue;
        }
        let term_logic = obs[id.index()] * err;
        let term = term_logic * elw_size[id.index()] as f64 / phi as f64;
        ser_logic_only += term_logic;
        if gate.kind() == GateKind::Dff {
            ser_reg += term;
            register_observability += obs[id.index()];
        } else {
            ser_comb += term;
        }
    }

    Ok(SerReport {
        ser: ser_comb + ser_reg,
        ser_logic_only,
        ser_combinational: ser_comb,
        ser_registers: ser_reg,
        register_observability,
        obs,
        elw_size,
        elws,
        phi,
        engine,
    })
}

/// The combinational gate driving a register (walking through register
/// chains).
///
/// # Panics
///
/// Panics if the register is part of a register-only loop (rejected by
/// [`RetimeGraph::from_circuit`] beforehand).
pub fn register_driver(circuit: &Circuit, reg: GateId) -> GateId {
    let mut cur = circuit.gate(reg).fanins()[0];
    let mut steps = 0;
    while circuit.gate(cur).kind() == GateKind::Dff {
        cur = circuit.gate(cur).fanins()[0];
        steps += 1;
        assert!(steps <= circuit.len(), "register-only loop");
    }
    cur
}

/// Per-vertex observabilities of the retiming graph (host gets 1.0:
/// a register on a host edge holds an I/O value assumed fully
/// observable), used to form the optimizer's `b` coefficients.
pub fn vertex_observabilities(
    circuit: &Circuit,
    graph: &RetimeGraph,
    observability: &Observability,
) -> Vec<f64> {
    let mut out = vec![1.0; graph.num_vertices()];
    for v in graph.vertices() {
        let gate = graph.gate_of(v).expect("non-host vertex");
        out[v.index()] = observability.obs(gate);
    }
    let _ = circuit;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn report_shares_sum() {
        let c = samples::s27_like();
        let rep = analyze(&c, &SerConfig::small(20)).unwrap();
        assert!((rep.ser - (rep.ser_combinational + rep.ser_registers)).abs() < 1e-15);
        assert!(rep.ser > 0.0);
    }

    #[test]
    fn timing_masking_never_increases_ser() {
        // |ELW| <= Φ for every gate, so eq. (4) <= eq. (1).
        let c = samples::s27_like();
        let rep = analyze(&c, &SerConfig::small(30)).unwrap();
        assert!(rep.ser <= rep.ser_logic_only + 1e-12);
        for (id, _) in c.iter() {
            assert!(rep.elw_size[id.index()] <= rep.phi + 2, "gate {id}");
        }
    }

    #[test]
    fn larger_phi_dilutes_timing_windows() {
        // The latching window has fixed width (T_s + T_h + …); a slower
        // clock makes |ELW|/Φ smaller, so SER drops.
        let c = samples::s27_like();
        let fast = analyze(&c, &SerConfig::small(20)).unwrap();
        let slow = analyze(&c, &SerConfig::small(200)).unwrap();
        assert!(slow.ser < fast.ser);
        // Logic-only SER is Φ-independent.
        assert!((slow.ser_logic_only - fast.ser_logic_only).abs() < 1e-15);
    }

    #[test]
    fn register_observability_matches_driver() {
        let c = samples::s27_like();
        let rep = analyze(&c, &SerConfig::small(20)).unwrap();
        for &q in c.registers() {
            let d = register_driver(&c, q);
            assert_eq!(rep.obs[q.index()], rep.obs[d.index()]);
        }
    }

    #[test]
    fn register_chain_driver_resolution() {
        let mut b = netlist::CircuitBuilder::new("chain");
        b.input("a");
        b.gate("x", GateKind::Not, &["a"]).unwrap();
        b.dff("q1", "x").unwrap();
        b.dff("q2", "q1").unwrap();
        b.gate("y", GateKind::Not, &["q2"]).unwrap();
        b.output("y").unwrap();
        let c = b.build().unwrap();
        assert_eq!(
            register_driver(&c, c.find("q2").unwrap()),
            c.find("x").unwrap()
        );
    }

    #[test]
    fn deterministic_reports() {
        let c = samples::fig1_like();
        let a = analyze(&c, &SerConfig::small(25)).unwrap();
        let b = analyze(&c, &SerConfig::small(25)).unwrap();
        assert_eq!(a.ser, b.ser);
        assert_eq!(a.obs, b.obs);
    }

    #[test]
    fn vertex_observabilities_cover_graph() {
        let c = samples::s27_like();
        let cfg = SerConfig::small(20);
        let trace = FrameTrace::simulate(&c, cfg.sim);
        let o = Observability::compute(&c, &trace);
        let g = RetimeGraph::from_circuit(&c, &cfg.delays).unwrap();
        let vo = vertex_observabilities(&c, &g, &o);
        assert_eq!(vo.len(), g.num_vertices());
        assert_eq!(vo[0], 1.0, "host");
        for v in g.vertices() {
            assert!((0.0..=1.0).contains(&vo[v.index()]));
        }
    }
}
