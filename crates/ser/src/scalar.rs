//! The scalar (per-`Signature`, single-threaded) reference engine.
//!
//! This module preserves the original allocation-per-gate
//! implementation of simulation, ODC observability and exact fault
//! injection. It serves two purposes:
//!
//! 1. **Differential oracle** — the arena engine
//!    ([`FrameTrace`](crate::sim::FrameTrace),
//!    [`Observability`](crate::odc::Observability)) must be bit-for-bit
//!    identical to this code; the unit tests and the proptest suite
//!    compare against it.
//! 2. **Circuit-breaker fallback** — when the ODC pass's per-frame
//!    audit catches the blocked kernel diverging from its word oracle,
//!    the observabilities are recomputed here, and the trip is
//!    recorded in the [`EngineReport`](crate::sim::EngineReport).
//!
//! The math is kept line-for-line equivalent to the pre-arena engine;
//! only the needless `Signature` clones were removed (register-ODC
//! accumulation, next-frame register snapshots, and the per-frame
//! buffers of the exact fault injector now reuse their allocations).

use netlist::rng::Xoshiro256;
use netlist::{Circuit, GateId, GateKind};

use crate::signature::{eval_gate, Signature};
use crate::sim::SimConfig;

/// Frame-major recorded signatures of the scalar simulator, indexed by
/// `frame * num_gates + gate.index()` (gate-id order, not slot order).
#[derive(Debug, Clone)]
pub struct ScalarTrace {
    config: SimConfig,
    num_gates: usize,
    values: Vec<Signature>,
}

impl ScalarTrace {
    /// Simulates `circuit` under `config` with the original
    /// allocation-per-gate engine (`config.threads` is ignored — this
    /// engine is single-threaded by definition).
    pub fn simulate(circuit: &Circuit, config: SimConfig) -> Self {
        let bits = config.num_vectors;
        let mut rng = Xoshiro256::seed_from_u64(config.seed);
        let n = circuit.len();

        // Register state: random initial values, then warm up.
        let mut state: Vec<Signature> = circuit
            .registers()
            .iter()
            .map(|_| Signature::random(bits, &mut rng))
            .collect();

        let mut frame_values: Vec<Signature> = vec![Signature::zeros(bits); n];
        for _ in 0..config.warmup {
            step(circuit, bits, &mut rng, &mut state, &mut frame_values);
        }

        let mut values = Vec::with_capacity(config.frames * n);
        for _ in 0..config.frames {
            step(circuit, bits, &mut rng, &mut state, &mut frame_values);
            values.extend(frame_values.iter().cloned());
        }
        Self {
            config,
            num_gates: n,
            values,
        }
    }

    /// Materializes a scalar trace from an arena-backed trace (used by
    /// the ODC fallback path, which runs the scalar math against the
    /// already-validated simulation values).
    pub fn from_trace(circuit: &Circuit, trace: &crate::sim::FrameTrace) -> Self {
        let config = *trace.config();
        let n = circuit.len();
        let mut values = Vec::with_capacity(config.frames * n);
        for f in 0..config.frames {
            for (id, _) in circuit.iter() {
                values.push(trace.value(f, id).to_signature());
            }
        }
        Self {
            config,
            num_gates: n,
            values,
        }
    }

    /// The configuration used.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of recorded frames.
    pub fn frames(&self) -> usize {
        self.config.frames
    }

    /// Signature of `gate` during `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame >= frames`.
    pub fn value(&self, frame: usize, gate: GateId) -> &Signature {
        assert!(frame < self.config.frames, "frame out of range");
        &self.values[frame * self.num_gates + gate.index()]
    }
}

/// Advances the circuit by one clock cycle: fresh random inputs,
/// combinational evaluation, register update.
fn step(
    circuit: &Circuit,
    bits: usize,
    rng: &mut Xoshiro256,
    state: &mut [Signature],
    values: &mut [Signature],
) {
    // Present register state first (consumed by combinational gates).
    for (si, &reg) in circuit.registers().iter().enumerate() {
        values[reg.index()].clone_from(&state[si]);
    }
    for &pi in circuit.inputs() {
        values[pi.index()] = Signature::random(bits, rng);
    }
    for &g in circuit.topo_order() {
        let gate = circuit.gate(g);
        match gate.kind() {
            GateKind::Input => continue,
            _ => {
                let fanins: Vec<&Signature> =
                    gate.fanins().iter().map(|&f| &values[f.index()]).collect();
                values[g.index()] = eval_gate(gate.kind(), &fanins, bits);
            }
        }
    }
    // Capture next state.
    for (si, &reg) in circuit.registers().iter().enumerate() {
        let d = circuit.gate(reg).fanins()[0];
        state[si].clone_from(&values[d.index()]);
    }
}

/// Computes `(obs, frame0_odc)` by the original backward ODC
/// composition, both indexed by gate id. This is the oracle for
/// [`Observability::compute`](crate::odc::Observability::compute).
pub fn observability(circuit: &Circuit, trace: &ScalarTrace) -> (Vec<f64>, Vec<Signature>) {
    let bits = trace.config().num_vectors;
    let frames = trace.frames();
    let n = circuit.len();

    // ODC masks of the current frame (being computed) and register
    // ODCs of the next frame (already computed).
    let mut next_reg_odc: Vec<Signature> = vec![Signature::zeros(bits); circuit.registers().len()];
    let mut frame_odc: Vec<Signature> = vec![Signature::zeros(bits); n];
    let reg_index: Vec<Option<usize>> = {
        let mut m = vec![None; n];
        for (i, &r) in circuit.registers().iter().enumerate() {
            m[r.index()] = Some(i);
        }
        m
    };

    for f in (0..frames).rev() {
        for s in frame_odc.iter_mut() {
            *s = Signature::zeros(bits);
        }
        // Primary-output markers are fully observable in every frame.
        for &po in circuit.outputs() {
            frame_odc[po.index()] = Signature::ones(bits);
        }
        // Backward pass over the combinational order.
        for &g in circuit.topo_order().iter().rev() {
            let mut acc = std::mem::replace(&mut frame_odc[g.index()], Signature::zeros(bits));
            for &h in circuit.fanouts(g) {
                match circuit.gate(h).kind() {
                    GateKind::Dff => {
                        // The register captures g; its value matters
                        // in the next frame (or unconditionally in
                        // the last recorded frame).
                        let ri = reg_index[h.index()].expect("register indexed");
                        if f == frames - 1 {
                            acc = Signature::ones(bits);
                        } else {
                            acc.or_assign(&next_reg_odc[ri]);
                        }
                    }
                    _ => {
                        let sens = sensitivity(circuit, trace, f, h, g);
                        acc.or_assign(&frame_odc[h.index()].and(&sens));
                    }
                }
            }
            frame_odc[g.index()] = acc;
        }
        // Register outputs act as frame sources; record their ODCs
        // for the previous (earlier) frame's pass.
        for &q in circuit.registers() {
            let mut acc = Signature::zeros(bits);
            for &h in circuit.fanouts(q) {
                match circuit.gate(h).kind() {
                    GateKind::Dff => {
                        let rj = reg_index[h.index()].expect("register indexed");
                        if f == frames - 1 {
                            acc = Signature::ones(bits);
                        } else {
                            acc.or_assign(&next_reg_odc[rj]);
                        }
                    }
                    _ => {
                        let sens = sensitivity(circuit, trace, f, h, q);
                        acc.or_assign(&frame_odc[h.index()].and(&sens));
                    }
                }
            }
            frame_odc[q.index()] = acc;
        }
        for (dst, &q) in next_reg_odc.iter_mut().zip(circuit.registers()) {
            dst.clone_from(&frame_odc[q.index()]);
        }
    }

    let obs = frame_odc.iter().map(|s| s.density()).collect();
    (obs, frame_odc)
}

/// Sensitivity of gate `h` (at `frame`) to its fanin *signal* `g`:
/// bit `k` is set when flipping `g` in vector `k` flips `h`'s output.
/// All occurrences of `g` among `h`'s pins flip together.
fn sensitivity(
    circuit: &Circuit,
    trace: &ScalarTrace,
    frame: usize,
    h: GateId,
    g: GateId,
) -> Signature {
    let gate = circuit.gate(h);
    let bits = trace.config().num_vectors;
    let flipped = trace.value(frame, g).not();
    let fanins: Vec<&Signature> = gate
        .fanins()
        .iter()
        .map(|&f| {
            if f == g {
                &flipped
            } else {
                trace.value(frame, f)
            }
        })
        .collect();
    let faulty = eval_gate(gate.kind(), &fanins, bits);
    faulty.xor(trace.value(frame, h))
}

/// Exact observability by per-gate fault injection, single-threaded
/// over `Signature` values — the oracle for the arena-backed parallel
/// [`exact_fault_injection`](crate::odc::exact_fault_injection).
/// Quadratic cost; intended for validation on small circuits.
pub fn exact_fault_injection(circuit: &Circuit, config: SimConfig) -> Vec<f64> {
    let trace = ScalarTrace::simulate(circuit, config);
    let bits = config.num_vectors;
    let frames = config.frames;
    let n = circuit.len();
    let mut result = vec![0.0; n];

    // Double-buffered faulty values, reused across victims and frames.
    let mut faulty: Vec<Signature> = vec![Signature::zeros(bits); n];
    let mut prev: Vec<Signature> = vec![Signature::zeros(bits); n];
    for (victim, vgate) in circuit.iter() {
        if vgate.kind() == GateKind::Output {
            result[victim.index()] = 1.0;
            continue;
        }
        // Faulty values per frame; start as copies of the nominal trace.
        let mut detected = Signature::zeros(bits);
        for (i, _) in circuit.iter() {
            faulty[i.index()].clone_from(trace.value(0, i));
        }
        // Inject at frame 0.
        faulty[victim.index()] = faulty[victim.index()].not();
        for f in 0..frames {
            if f > 0 {
                // Register outputs take the previous faulty frame's D.
                std::mem::swap(&mut prev, &mut faulty);
                for (i, _) in circuit.iter() {
                    faulty[i.index()].clone_from(trace.value(f, i));
                }
                for &q in circuit.registers() {
                    let d = circuit.gate(q).fanins()[0];
                    faulty[q.index()].clone_from(&prev[d.index()]);
                }
            }
            // Re-evaluate combinational logic (inputs keep nominal
            // values; the injected gate keeps its flip only in frame 0).
            for &g in circuit.topo_order() {
                let gate = circuit.gate(g);
                if gate.kind() == GateKind::Input {
                    continue;
                }
                let fanins: Vec<&Signature> =
                    gate.fanins().iter().map(|&x| &faulty[x.index()]).collect();
                let mut value = eval_gate(gate.kind(), &fanins, bits);
                if f == 0 && g == victim {
                    value = value.not();
                }
                faulty[g.index()] = value;
            }
            for &po in circuit.outputs() {
                detected.or_assign(&faulty[po.index()].xor(trace.value(f, po)));
            }
            if f == frames - 1 {
                for &q in circuit.registers() {
                    let d = circuit.gate(q).fanins()[0];
                    detected.or_assign(&faulty[d.index()].xor(trace.value(f, d)));
                }
            }
        }
        result[victim.index()] = detected.density();
    }
    result
}
