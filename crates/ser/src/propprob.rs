//! Propagation-probability SER estimation — the third, structurally
//! independent logic-masking estimator (after the analytic ODC engine
//! and the Monte-Carlo fault injector), following Asadi & Tahoori's
//! closed-form propagation-probability framework.
//!
//! Instead of bit-exact ODC masks, each gate gets a scalar
//! *propagation probability* `prop(g) ∈ [0, 1]`: the probability that
//! a fault at `g`'s output in frame 0 reaches an observation point (a
//! primary output of any recorded frame, or a register input of the
//! last frame). It is computed by one backward pass per frame over the
//! [`Levelization`] slot order:
//!
//! * a fanout `h` *sensitizes* the fault with a per-kind closed-form
//!   probability derived from the measured signal probabilities of its
//!   side inputs (AND/NAND: `Π P(side = 1)`; OR/NOR: `Π P(side = 0)`;
//!   XOR/XNOR/NOT/BUF: 1, or 0 when an even number of fanin positions
//!   carry the fault; MUX: exact 8-way enumeration over its fanins);
//! * the sensitized contribution is `sens(h, g) · prop(h)`; a register
//!   fanout contributes the register's next-frame propagation
//!   probability (or 1 in the last frame, where the register input is
//!   itself an observation point);
//! * contributions combine under an independence assumption:
//!   `prop(g) = 1 − Π (1 − c_i)` (primary-output markers start at 1).
//!
//! Signal probabilities are measured per frame from the same
//! [`FrameTrace`] the analytic engine consumes, so the two estimators
//! share one simulation but *no* masking machinery: reconvergent
//! fanout errs differently here (independence products) than in the
//! ODC composition (mask intersections), which is exactly what makes
//! the three-way agreement oracle informative. On fanout-free cones of
//! BUF/NOT/XOR/XNOR the estimate is exact (all sensitizations are 1).
//!
//! # Engine
//!
//! The pass runs on the calling thread, level by level in reverse
//! slot order: each level is a contiguous slot range whose fanouts all
//! sit in strictly higher (already finalized) slots, so `split_at_mut`
//! hands it out as a mutable slice while the higher slots stay
//! readable. Every slot's arithmetic is a fixed-order product over its
//! plan entries.

use netlist::{Circuit, GateId, GateKind, Levelization};

use crate::analysis::{report_from_observabilities, SerConfig, SerReport};
use crate::sim::{EngineReport, FrameTrace};

/// One fanout's contribution to a gate's propagation probability.
#[derive(Debug)]
enum PropFanout {
    /// The fanout is a register capturing the gate: the contribution is
    /// the register's next-frame propagation probability (1 in the
    /// last frame).
    Reg(usize),
    /// A combinational fanout: `sens(h, g) · prop(h)`, with the
    /// sensitization evaluated from the frame's measured signal
    /// probabilities. `fanins` marks which positions carry the fault.
    Comb {
        h_slot: u32,
        kind: GateKind,
        fanins: Box<[(u32, bool)]>,
    },
}

/// Per-slot accumulation plan, in levelization slot order.
#[derive(Debug)]
struct PropSlot {
    /// Primary-output markers are observation points themselves.
    start_one: bool,
    fanouts: Box<[PropFanout]>,
}

fn build_prop_plan(circuit: &Circuit, levels: &Levelization) -> Vec<PropSlot> {
    (0..circuit.len())
        .map(|s| {
            let g = levels.gate_at(s);
            let start_one = circuit.gate(g).kind() == GateKind::Output;
            let fanouts = circuit
                .fanouts(g)
                .iter()
                .map(|&h| {
                    let hg = circuit.gate(h);
                    if hg.kind() == GateKind::Dff {
                        // Register slots are 0..R in `registers()` order.
                        PropFanout::Reg(levels.slot_of(h))
                    } else {
                        PropFanout::Comb {
                            h_slot: levels.slot_of(h) as u32,
                            kind: hg.kind(),
                            fanins: hg
                                .fanins()
                                .iter()
                                .map(|&x| (levels.slot_of(x) as u32, x == g))
                                .collect(),
                        }
                    }
                })
                .collect();
            PropSlot { start_one, fanouts }
        })
        .collect()
}

/// The probability that flipping every `true`-marked fanin position of
/// a `kind` gate flips its output, under the frame's measured signal
/// probabilities `p` (indexed by slot). Closed forms per kind; MUX is
/// resolved by exact enumeration over its (at most 3 distinct) fanins.
fn sensitization(kind: GateKind, fanins: &[(u32, bool)], p: &[f64]) -> f64 {
    match kind {
        GateKind::Buf | GateKind::Not | GateKind::Output => 1.0,
        GateKind::And | GateKind::Nand => fanins
            .iter()
            .filter(|&&(_, flip)| !flip)
            .map(|&(s, _)| p[s as usize])
            .product(),
        GateKind::Or | GateKind::Nor => fanins
            .iter()
            .filter(|&&(_, flip)| !flip)
            .map(|&(s, _)| 1.0 - p[s as usize])
            .product(),
        GateKind::Xor | GateKind::Xnor => {
            // An even number of flipped positions cancels out exactly.
            let flips = fanins.iter().filter(|&&(_, flip)| flip).count();
            if flips % 2 == 1 {
                1.0
            } else {
                0.0
            }
        }
        GateKind::Mux => mux_sensitization(fanins, p),
        // Sources have no fanins and registers are handled as
        // `PropFanout::Reg`; none of these can appear here.
        GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {
            unreachable!("{kind} cannot be a combinational fanout")
        }
    }
}

/// Exact MUX sensitization: enumerates every assignment of the gate's
/// distinct fanin slots (≤ 3, so ≤ 8 cases), weights each by the
/// independence product of the measured probabilities, and sums the
/// weight of the assignments where flipping the marked positions flips
/// the output.
fn mux_sensitization(fanins: &[(u32, bool)], p: &[f64]) -> f64 {
    let mut slots = [0u32; 3];
    let mut n = 0;
    for &(s, _) in fanins {
        if !slots[..n].contains(&s) {
            slots[n] = s;
            n += 1;
        }
    }
    let mut total = 0.0;
    for mask in 0u32..(1 << n) {
        let mut w = 1.0;
        for (i, &s) in slots[..n].iter().enumerate() {
            let ps = p[s as usize];
            w *= if mask >> i & 1 == 1 { ps } else { 1.0 - ps };
        }
        if w == 0.0 {
            continue;
        }
        let mut nominal = [false; 3];
        let mut faulty = [false; 3];
        for (j, &(s, flip)) in fanins.iter().enumerate() {
            let pos = slots[..n].iter().position(|&x| x == s).expect("collected");
            nominal[j] = mask >> pos & 1 == 1;
            faulty[j] = nominal[j] ^ flip;
        }
        let k = fanins.len();
        if GateKind::Mux.eval_bool(&nominal[..k]) != GateKind::Mux.eval_bool(&faulty[..k]) {
            total += w;
        }
    }
    total
}

/// Computes the propagation probabilities of slots `lo..lo + out.len()`
/// into `out`. `prop_right` holds the finalized probabilities of slots
/// `right_base..`, `p` the frame's measured signal probabilities (by
/// slot), and `next_reg` the register probabilities of the following
/// frame.
#[allow(clippy::too_many_arguments)]
fn prop_slots(
    plan: &[PropSlot],
    p: &[f64],
    prop_right: &[f64],
    right_base: usize,
    next_reg: &[f64],
    last_frame: bool,
    out: &mut [f64],
    lo: usize,
) {
    for (i, slot) in out.iter_mut().enumerate() {
        let s = lo + i;
        let mut miss = if plan[s].start_one { 0.0 } else { 1.0 };
        for fo in plan[s].fanouts.iter() {
            let c = match fo {
                PropFanout::Reg(ri) => {
                    if last_frame {
                        1.0
                    } else {
                        next_reg[*ri]
                    }
                }
                PropFanout::Comb {
                    h_slot,
                    kind,
                    fanins,
                } => {
                    let hp = prop_right[*h_slot as usize - right_base];
                    if hp == 0.0 {
                        0.0
                    } else {
                        sensitization(*kind, fanins, p) * hp
                    }
                }
            };
            miss *= 1.0 - c;
        }
        *slot = 1.0 - miss;
    }
}

/// Per-gate fault propagation probabilities derived from a frame
/// trace — the logic-masking estimate of the propagation-probability
/// engine, playing the role [`crate::odc::Observability`] plays for
/// the analytic engine.
#[derive(Debug, Clone)]
pub struct PropProb {
    prop: Vec<f64>,
}

impl PropProb {
    /// Computes propagation probabilities from a simulated trace: one
    /// backward pass per frame, last frame first.
    pub fn compute(circuit: &Circuit, trace: &FrameTrace) -> Self {
        let config = trace.config();
        let bits = config.num_vectors as f64;
        let wps = config.num_vectors / 64;
        let frames = trace.frames();
        let levels = trace.levels();
        let slots = levels.num_gates();
        let r = levels.num_registers();
        let plan = build_prop_plan(circuit, levels);

        let mut prop = vec![0.0; slots];
        let mut next_reg = vec![0.0; r];
        let mut p = vec![0.0; slots];
        for f in (0..frames).rev() {
            let last = f == frames - 1;
            // Measured per-slot signal probabilities of this frame.
            let words = trace.arena().frame(f);
            for (s, ps) in p.iter_mut().enumerate() {
                let ones = crate::signature::popcount_words(&words[s * wps..(s + 1) * wps]);
                *ps = ones as f64 / bits;
            }
            // Backward over the combinational levels, then level 0, the
            // source region (registers, inputs, constants).
            for l in (0..levels.num_levels()).rev() {
                let lr = levels.level_slots(l);
                let (left, right) = prop.split_at_mut(lr.end);
                prop_slots(
                    &plan,
                    &p,
                    right,
                    lr.end,
                    &next_reg,
                    last,
                    &mut left[lr.start..],
                    lr.start,
                );
            }
            // Register outputs act as frame sources; record their
            // probabilities for the previous (earlier) frame's pass.
            next_reg.copy_from_slice(&prop[..r]);
        }

        let mut out = vec![0.0; circuit.len()];
        for (id, _) in circuit.iter() {
            out[id.index()] = prop[levels.slot_of(id)];
        }
        Self { prop: out }
    }

    /// `prop(g)`: estimated probability that a frame-0 fault at `g` is
    /// observed, evaluated for the frame-0 copy of the gate.
    pub fn prop(&self, gate: GateId) -> f64 {
        self.prop[gate.index()]
    }

    /// All propagation probabilities, indexed by gate.
    pub fn as_slice(&self) -> &[f64] {
        &self.prop
    }
}

/// Runs the full eq. (4) analysis with the propagation-probability
/// logic-masking front end: simulate, one backward propagation pass,
/// then the shared ELW/rate report assembly.
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
/// use ser_engine::{propprob_report, SerConfig};
/// # fn main() -> Result<(), retime::RetimeError> {
/// let c = samples::s27_like();
/// let report = propprob_report(&c, &SerConfig::small(20))?;
/// assert!(report.ser > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn propprob_report(
    circuit: &Circuit,
    config: &SerConfig,
) -> Result<SerReport, retime::RetimeError> {
    let trace = FrameTrace::simulate(circuit, config.sim);
    propprob_report_with_trace(circuit, config, &trace)
}

/// [`propprob_report`] reusing an already simulated trace (the
/// experiment pipeline simulates once and feeds every estimator).
///
/// # Errors
///
/// See [`propprob_report`].
pub fn propprob_report_with_trace(
    circuit: &Circuit,
    config: &SerConfig,
    trace: &FrameTrace,
) -> Result<SerReport, retime::RetimeError> {
    let pp = PropProb::compute(circuit, trace);
    report_from_observabilities(circuit, config, pp.as_slice(), EngineReport::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::odc::exact_fault_injection;
    use crate::sim::SimConfig;
    use netlist::{samples, CircuitBuilder};

    fn prop_of(c: &Circuit, cfg: SimConfig) -> PropProb {
        PropProb::compute(c, &FrameTrace::simulate(c, cfg))
    }

    #[test]
    fn deterministic_cone_is_exactly_one() {
        // BUF/NOT/XOR never mask, so every gate in the output cone has
        // propagation probability exactly 1 and the dead gate exactly 0
        // — under every seed. The last two seeds guard against library
        // code that reacts to particular seed values.
        let mut b = CircuitBuilder::new("det");
        b.input("a");
        b.input("b2");
        b.gate("x", GateKind::Not, &["a"]).unwrap();
        b.gate("y", GateKind::Xor, &["x", "b2"]).unwrap();
        b.gate("z", GateKind::Buf, &["y"]).unwrap();
        b.gate("dead", GateKind::Not, &["b2"]).unwrap();
        b.output("z").unwrap();
        let c = b.build().unwrap();
        for seed in [SimConfig::small().seed, 0x5AB0_7A6E_4209, 0x5AB0_7A6E_E577] {
            let pp = prop_of(
                &c,
                SimConfig {
                    seed,
                    ..SimConfig::small()
                },
            );
            for name in ["a", "b2", "x", "y", "z"] {
                assert_eq!(
                    pp.prop(c.find(name).unwrap()),
                    1.0,
                    "{name}, seed {seed:#x}"
                );
            }
            assert_eq!(pp.prop(c.find("dead").unwrap()), 0.0, "seed {seed:#x}");
        }
    }

    #[test]
    fn and_with_constant_zero_masks() {
        let mut b = CircuitBuilder::new("mask");
        b.input("a");
        b.constant("zero", false).unwrap();
        b.gate("x", GateKind::And, &["a", "zero"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let pp = prop_of(&c, SimConfig::small());
        assert_eq!(pp.prop(c.find("a").unwrap()), 0.0, "AND with 0 masks a");
        // The constant is sensitized exactly when a = 1 (≈ half the
        // vectors under the measured probabilities).
        let z = pp.prop(c.find("zero").unwrap());
        assert!((0.4..0.6).contains(&z), "got {z}");
    }

    #[test]
    fn mux_sensitization_matches_intuition() {
        // sel chooses between a and b: the data input `a` propagates
        // with probability P(sel = 0).
        let mut b = CircuitBuilder::new("mux");
        b.input("sel");
        b.input("a");
        b.input("b2");
        b.gate("m", GateKind::Mux, &["sel", "a", "b2"]).unwrap();
        b.output("m").unwrap();
        let c = b.build().unwrap();
        let cfg = SimConfig::small();
        let trace = FrameTrace::simulate(&c, cfg);
        let pp = PropProb::compute(&c, &trace);
        let sel_density = {
            let sel = c.find("sel").unwrap();
            (0..cfg.frames)
                .map(|f| trace.value(f, sel).count_ones() as f64 / cfg.num_vectors as f64)
                .next()
                .unwrap()
        };
        let a_prop = pp.prop(c.find("a").unwrap());
        assert!(
            (a_prop - (1.0 - sel_density)).abs() < 1e-12,
            "a: {a_prop} vs 1 - P(sel) = {}",
            1.0 - sel_density
        );
        // The select propagates exactly when the two data inputs
        // differ (probability ½ under random inputs).
        let sel_prop = pp.prop(c.find("sel").unwrap());
        assert!((0.4..0.6).contains(&sel_prop), "got {sel_prop}");
    }

    #[test]
    fn close_to_exact_on_sequential_circuit() {
        let c = samples::s27_like();
        let cfg = SimConfig::small();
        let pp = prop_of(&c, cfg);
        let exact = exact_fault_injection(&c, cfg);
        let mut total = 0.0;
        for (id, gate) in c.iter() {
            if gate.kind() == GateKind::Output {
                continue;
            }
            let diff = (pp.prop(id) - exact[id.index()]).abs();
            total += diff;
            assert!(
                diff <= 0.45,
                "{}: propprob {} vs exact {}",
                gate.name(),
                pp.prop(id),
                exact[id.index()]
            );
        }
        let avg = total / c.len() as f64;
        assert!(avg < 0.15, "average deviation {avg}");
    }

    #[test]
    fn threaded_propagation_is_bit_identical() {
        let c = samples::fig1_like();
        let base = prop_of(&c, SimConfig::small());
        for threads in [2, 7] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::small()
            };
            let pp = prop_of(&c, cfg);
            for (id, _) in c.iter() {
                assert_eq!(pp.prop(id), base.prop(id), "threads={threads}: {id}");
            }
        }
    }
}
