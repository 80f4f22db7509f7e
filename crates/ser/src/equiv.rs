//! Bounded sequential equivalence checking between a circuit and its
//! retimed version.
//!
//! Retiming preserves functionality in the steady state: both circuits
//! compute the same primary-output streams once the effect of their
//! (different) initial register states has flushed out. Total I/O
//! latency is also preserved — every host-to-host path keeps its
//! register count under any retiming — so the streams align with zero
//! lag. This module drives both circuits with the same bit-parallel
//! random stimulus and compares the output streams cycle by cycle
//! after a warm-up, which is the standard simulation-based sanity
//! check for retiming engines (full sequential equivalence checking is
//! PSPACE-complete; a bounded randomized check is what production
//! retimers ship).

use netlist::rng::Xoshiro256;
use netlist::{Circuit, GateId, GateKind, Levelization};

use crate::signature::Signature;
use crate::sim::{eval_slots, EvalPlan};

/// Parameters of the bounded check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EquivConfig {
    /// Parallel random vectors per cycle (multiple of 64).
    pub num_vectors: usize,
    /// Cycles compared after the warm-up.
    pub cycles: usize,
    /// Warm-up cycles excluded from comparison (must exceed the
    /// deepest register chain so initial-state differences flush).
    pub warmup: usize,
    /// Stimulus seed.
    pub seed: u64,
}

impl Default for EquivConfig {
    fn default() -> Self {
        Self {
            num_vectors: 256,
            cycles: 48,
            warmup: 16,
            seed: 0x5EC_0513,
        }
    }
}

/// A detected output mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Cycle index (0-based, counted after the warm-up).
    pub cycle: usize,
    /// Output position (index into `outputs()` order).
    pub output: usize,
    /// Name of the observed signal in the first circuit.
    pub name: String,
    /// Number of differing vectors in that cycle.
    pub differing_vectors: u32,
}

/// Result of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// No mismatch across all compared cycles.
    Equivalent,
    /// The circuits disagree; the first mismatch is reported.
    Mismatch(Mismatch),
    /// The circuits cannot be compared (different I/O counts).
    IncompatibleInterface {
        /// (inputs, outputs) of the first circuit.
        left: (usize, usize),
        /// (inputs, outputs) of the second circuit.
        right: (usize, usize),
    },
}

impl EquivResult {
    /// Whether the check passed.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

/// Runs the bounded equivalence check. Inputs are matched by position
/// (`inputs()` order) and outputs likewise — the order [`retime::apply`]
/// preserves.
pub fn check_equivalence(a: &Circuit, b: &Circuit, config: EquivConfig) -> EquivResult {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return EquivResult::IncompatibleInterface {
            left: (a.inputs().len(), a.outputs().len()),
            right: (b.inputs().len(), b.outputs().len()),
        };
    }
    let bits = config.num_vectors;
    let mut rng = Xoshiro256::seed_from_u64(config.seed);
    let mut sim_a = SimState::new(a, bits);
    let mut sim_b = SimState::new(b, bits);

    for cycle in 0..config.warmup + config.cycles {
        let stimulus: Vec<Signature> = (0..a.inputs().len())
            .map(|_| Signature::random(bits, &mut rng))
            .collect();
        sim_a.step(a, &stimulus);
        sim_b.step(b, &stimulus);
        if cycle < config.warmup {
            continue;
        }
        for (k, (&pa, &pb)) in a.outputs().iter().zip(b.outputs()).enumerate() {
            let va = sim_a.value(pa);
            let vb = sim_b.value(pb);
            let diff: u32 = va.iter().zip(vb).map(|(x, y)| (x ^ y).count_ones()).sum();
            if diff > 0 {
                return EquivResult::Mismatch(Mismatch {
                    cycle: cycle - config.warmup,
                    output: k,
                    name: a.gate(pa).name().to_string(),
                    differing_vectors: diff,
                });
            }
        }
    }
    EquivResult::Equivalent
}

/// Minimal per-circuit simulation state (registers reset to zero, so
/// the check is deterministic across runs). Values live in one flat
/// `slots × words` buffer in levelization slot order, evaluated level
/// by level — no per-cycle `Signature` allocations.
struct SimState {
    levels: Levelization,
    plan: EvalPlan,
    frame: Vec<u64>,
    state: Vec<u64>,
    wps: usize,
}

impl SimState {
    fn new(circuit: &Circuit, bits: usize) -> Self {
        let levels = circuit.levelize();
        let plan = EvalPlan::new(circuit, &levels);
        let wps = bits / 64;
        Self {
            frame: vec![0u64; levels.num_gates() * wps],
            state: vec![0u64; circuit.registers().len() * wps],
            levels,
            plan,
            wps,
        }
    }

    fn step(&mut self, _circuit: &Circuit, stimulus: &[Signature]) {
        let wps = self.wps;
        let r = self.plan.num_registers;
        self.frame[..r * wps].copy_from_slice(&self.state);
        for (k, sig) in stimulus.iter().enumerate() {
            let s = r + k;
            self.frame[s * wps..(s + 1) * wps].copy_from_slice(sig.as_words());
        }
        for s in (r + self.plan.num_inputs)..self.plan.num_sources {
            let v = if self.plan.kinds[s] == GateKind::Const1 {
                u64::MAX
            } else {
                0
            };
            self.frame[s * wps..(s + 1) * wps].fill(v);
        }
        for l in 1..self.levels.num_levels() {
            let lr = self.levels.level_slots(l);
            let (prev, rest) = self.frame.split_at_mut(lr.start * wps);
            let cur = &mut rest[..(lr.end - lr.start) * wps];
            eval_slots(&self.plan, wps, 0, wps, prev, cur, lr.start);
        }
        for (i, &d) in self.plan.reg_d_slots.iter().enumerate() {
            self.state[i * wps..(i + 1) * wps].copy_from_slice(&self.frame[d * wps..(d + 1) * wps]);
        }
    }

    fn value(&self, gate: GateId) -> &[u64] {
        let s = self.levels.slot_of(gate);
        &self.frame[s * self.wps..(s + 1) * self.wps]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{samples, CircuitBuilder, DelayModel};
    use retime::apply::apply_retiming;
    use retime::RetimeGraph;

    #[test]
    fn circuit_equals_itself() {
        let c = samples::s27_like();
        assert!(check_equivalence(&c, &c, EquivConfig::default()).is_equivalent());
    }

    #[test]
    fn min_period_retiming_is_equivalent() {
        // two_stage_loop is deliberately absent: its NAND feedback loop
        // has input patterns that never synchronize the state, so the
        // original and retimed circuits stay phase-shifted forever on
        // those vectors — the classical retiming initial-state caveat
        // this bounded check cannot (and should not) paper over.
        for (name, c) in [
            ("pipeline", samples::pipeline(9, 3)),
            ("s27", samples::s27_like()),
            ("fig1", samples::fig1_like()),
        ] {
            let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
            let res = retime::setup_hold::min_period_setup_hold(&g, 0, 0).unwrap();
            let rebuilt = apply_retiming(&c, &g, &res.retiming).unwrap();
            let verdict = check_equivalence(&c, &rebuilt, EquivConfig::default());
            assert!(verdict.is_equivalent(), "{name}: {verdict:?}");
        }
    }

    #[test]
    fn generated_circuits_equivalent_after_min_period_retiming() {
        for seed in 0..4 {
            let c = netlist::generator::GeneratorConfig::new("eq", seed)
                .gates(120)
                .registers(30)
                .build();
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            let res = retime::setup_hold::min_period_setup_hold(&g, 0, 0).unwrap();
            let rebuilt = apply_retiming(&c, &g, &res.retiming).unwrap();
            let verdict = check_equivalence(&c, &rebuilt, EquivConfig::default());
            assert!(verdict.is_equivalent(), "seed {seed}: {verdict:?}");
        }
    }

    #[test]
    fn mutated_circuit_detected() {
        let c = samples::s27_like();
        // Flip the PO driver (G17, fully observable); deeper gates like
        // G10 are logically masked in this circuit's steady state and a
        // mutation there is genuinely unobservable.
        let mut b = CircuitBuilder::new("mutant");
        for (_, gate) in c.iter() {
            match gate.kind() {
                netlist::GateKind::Input => {
                    b.input(gate.name());
                }
                netlist::GateKind::Output => {
                    let observed = c.gate(gate.fanins()[0]).name();
                    b.output(observed).unwrap();
                }
                netlist::GateKind::Dff => {
                    let d = c.gate(gate.fanins()[0]).name();
                    b.dff(gate.name(), d).unwrap();
                }
                kind => {
                    let fanins: Vec<&str> =
                        gate.fanins().iter().map(|&f| c.gate(f).name()).collect();
                    let kind = if gate.name() == "G17" {
                        netlist::GateKind::Buf
                    } else {
                        kind
                    };
                    b.gate(gate.name(), kind, &fanins).unwrap();
                }
            }
        }
        let mutant = b.build().unwrap();
        let verdict = check_equivalence(&c, &mutant, EquivConfig::default());
        assert!(!verdict.is_equivalent(), "mutation must be caught");
    }

    #[test]
    fn interface_mismatch_reported() {
        let a = samples::s27_like();
        let b = samples::pipeline(4, 2);
        assert!(matches!(
            check_equivalence(&a, &b, EquivConfig::default()),
            EquivResult::IncompatibleInterface { .. }
        ));
    }
}
