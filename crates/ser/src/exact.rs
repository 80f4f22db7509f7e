//! Exhaustive ground-truth SER oracle for small circuits.
//!
//! Every estimator in this workspace approximates the logic-masking
//! term `obs(g, n)` somehow: the analytic engine composes ODC masks
//! (approximate under reconvergence), the propagation-probability
//! engine multiplies independence products, the Monte-Carlo engine
//! samples. This module removes the approximation entirely on circuits
//! small enough to afford it: it enumerates **all** assignments of the
//! expansion's source bits — initial register state plus one fresh
//! copy of every primary input per frame — and measures each gate's
//! observability by exact fault injection over the full truth table.
//!
//! With `R` registers, `I` inputs and `n` frames the enumeration has
//! `S = R + I·n` source bits and `2^S` vectors; [`exact_source_bits`]
//! and the `max_source_bits` cap (default
//! [`DEFAULT_MAX_SOURCE_BITS`]) keep it honest, and
//! [`MAX_TRACE_BYTES`] bounds the trace whatever cap a caller passes.
//! The timing-masking
//! factor `|ELW(g)|/Φ` is already exact (interval arithmetic, eq. (3)),
//! so an [`exact_report`] is ground truth for the *whole* eq. (4)
//! model — the only quantity any other estimator can legitimately
//! disagree with it on is logic masking.
//!
//! The forward semantics deliberately reuse the public
//! [`eval_gate`] kernel but none of the arena or
//! levelization machinery, keeping the oracle structurally independent
//! of the engines it judges.

use netlist::{Circuit, GateId, GateKind};

use crate::analysis::{report_from_observabilities, SerConfig, SerReport};
use crate::estimate::EstimateError;
use crate::signature::{eval_gate, Signature};
use crate::sim::EngineReport;

/// Default cap on `R + I·n` enumeration bits (2^20 ≈ 1M vectors).
pub const DEFAULT_MAX_SOURCE_BITS: u32 = 20;

/// Hard ceiling on the enumerated trace, `gates × frames × max(2^S, 64)`
/// bits, whatever `max_source_bits` a caller passes (1 GiB).
pub const MAX_TRACE_BYTES: u64 = 1 << 30;

/// `S = R + I·n`: the number of free source bits in the `n`-frame
/// expansion of `circuit`.
pub fn exact_source_bits(circuit: &Circuit, frames: usize) -> usize {
    circuit.num_registers() + circuit.inputs().len() * frames
}

/// Whether exhaustive enumeration of `circuit` over `frames` frames
/// fits under `max_source_bits` and under [`MAX_TRACE_BYTES`].
pub fn exact_feasible(circuit: &Circuit, frames: usize, max_source_bits: u32) -> bool {
    exact_source_bits(circuit, frames) <= source_bit_cap(circuit, frames, max_source_bits) as usize
}

/// Bytes of the enumerated trace with `source_bits` source bits, or
/// `None` when the count overflows `u64`.
fn trace_bytes(circuit: &Circuit, frames: usize, source_bits: usize) -> Option<u64> {
    let vectors = 1u64.checked_shl(u32::try_from(source_bits).ok()?)?.max(64);
    (circuit.len() as u64)
        .checked_mul(frames as u64)?
        .checked_mul(vectors / 8)
}

/// The effective source-bit cap: `max_source_bits`, lowered to the
/// largest count whose trace fits in [`MAX_TRACE_BYTES`].
fn source_bit_cap(circuit: &Circuit, frames: usize, max_source_bits: u32) -> u32 {
    (0..=max_source_bits.min(63))
        .rev()
        .find(|&s| trace_bytes(circuit, frames, s as usize).is_some_and(|b| b <= MAX_TRACE_BYTES))
        .unwrap_or(0)
}

/// The enumeration signature of source bit `j`: bit `v` of the
/// signature is `(v >> j) & 1`, the standard truth-table column. Below
/// 64 total vectors the 64-bit signature repeats the enumeration a
/// whole number of times, which leaves every density exact.
fn enum_signature(j: usize, bits: usize) -> Signature {
    let wps = bits / 64;
    let mut words = vec![0u64; wps];
    if j < 6 {
        let mut pattern = 0u64;
        for i in 0..64u64 {
            if (i >> j) & 1 == 1 {
                pattern |= 1 << i;
            }
        }
        words.fill(pattern);
    } else {
        for (w, word) in words.iter_mut().enumerate() {
            if (w * 64) >> j & 1 == 1 {
                *word = u64::MAX;
            }
        }
    }
    Signature::from_words(words)
}

/// The exhaustively enumerated nominal trace: per frame, per gate (by
/// [`GateId`] index), the gate's exact truth-table signature.
struct EnumTrace {
    bits: usize,
    frames: usize,
    values: Vec<Vec<Signature>>,
}

impl EnumTrace {
    fn simulate(circuit: &Circuit, frames: usize) -> Self {
        let s = exact_source_bits(circuit, frames);
        let bits = (1usize << s).max(64);
        let n = circuit.len();
        let r = circuit.num_registers();
        let mut values: Vec<Vec<Signature>> = Vec::with_capacity(frames);
        for f in 0..frames {
            let mut frame = vec![Signature::zeros(bits); n];
            // Sources: frame-0 register state takes bits 0..R, the
            // frame-f input copies take bits R + f·I ..
            for (ri, &q) in circuit.registers().iter().enumerate() {
                frame[q.index()] = if f == 0 {
                    enum_signature(ri, bits)
                } else {
                    let d = circuit.gate(q).fanins()[0];
                    values[f - 1][d.index()].clone()
                };
            }
            for (ii, &pi) in circuit.inputs().iter().enumerate() {
                frame[pi.index()] = enum_signature(r + f * circuit.inputs().len() + ii, bits);
            }
            for &id in circuit.topo_order() {
                let gate = circuit.gate(id);
                match gate.kind() {
                    GateKind::Input | GateKind::Dff => {}
                    kind => {
                        let fanins: Vec<&Signature> =
                            gate.fanins().iter().map(|&x| &frame[x.index()]).collect();
                        frame[id.index()] = eval_gate(kind, &fanins, bits);
                    }
                }
            }
            values.push(frame);
        }
        Self {
            bits,
            frames,
            values,
        }
    }
}

/// Resimulates the full window with `victim` flipped in frame 0 and
/// returns the exact detection density (primary outputs of every
/// frame, register inputs of the last frame).
fn inject(circuit: &Circuit, trace: &EnumTrace, victim: GateId) -> f64 {
    if circuit.gate(victim).kind() == GateKind::Output {
        return 1.0;
    }
    let bits = trace.bits;
    let mut detected = Signature::zeros(bits);
    let mut faulty: Vec<Signature> = Vec::new();
    let mut prev: Vec<Signature> = Vec::new();
    for f in 0..trace.frames {
        let nominal = &trace.values[f];
        if f == 0 {
            faulty = nominal.clone();
            faulty[victim.index()] = faulty[victim.index()].not();
        } else {
            std::mem::swap(&mut prev, &mut faulty);
            faulty.clone_from(nominal);
            for &q in circuit.registers() {
                let d = circuit.gate(q).fanins()[0];
                faulty[q.index()] = prev[d.index()].clone();
            }
        }
        for &id in circuit.topo_order() {
            let gate = circuit.gate(id);
            match gate.kind() {
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => {}
                kind => {
                    let fanins: Vec<&Signature> =
                        gate.fanins().iter().map(|&x| &faulty[x.index()]).collect();
                    let mut v = eval_gate(kind, &fanins, bits);
                    if f == 0 && id == victim {
                        v = v.not();
                    }
                    faulty[id.index()] = v;
                }
            }
        }
        for &po in circuit.outputs() {
            detected.or_assign(&faulty[po.index()].xor(&nominal[po.index()]));
        }
        if f == trace.frames - 1 {
            for &q in circuit.registers() {
                let d = circuit.gate(q).fanins()[0];
                detected.or_assign(&faulty[d.index()].xor(&nominal[d.index()]));
            }
        }
    }
    detected.count_ones() as f64 / bits as f64
}

/// Exact per-gate observabilities over the full `2^S` enumeration.
///
/// # Errors
///
/// [`EstimateError::TooLarge`] when `R + I·n` exceeds
/// `max_source_bits`, or the trace would exceed [`MAX_TRACE_BYTES`];
/// nothing is allocated then.
pub fn exact_observability(
    circuit: &Circuit,
    frames: usize,
    max_source_bits: u32,
) -> Result<Vec<f64>, EstimateError> {
    let source_bits = exact_source_bits(circuit, frames);
    let cap = source_bit_cap(circuit, frames, max_source_bits);
    if source_bits > cap as usize {
        return Err(EstimateError::TooLarge { source_bits, cap });
    }
    let trace = EnumTrace::simulate(circuit, frames);
    Ok(circuit
        .iter()
        .map(|(id, _)| inject(circuit, &trace, id))
        .collect())
}

/// The full eq. (4) report with exact logic masking: ground truth for
/// every other estimator on circuits small enough to enumerate.
///
/// # Errors
///
/// [`EstimateError::TooLarge`] past the cap, or a wrapped
/// [`retime::RetimeError`] if the circuit cannot be modeled as a
/// retiming graph.
pub fn exact_report(
    circuit: &Circuit,
    config: &SerConfig,
    max_source_bits: u32,
) -> Result<SerReport, EstimateError> {
    let obs = exact_observability(circuit, config.sim.frames, max_source_bits)?;
    report_from_observabilities(circuit, config, &obs, EngineReport::default())
        .map_err(EstimateError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::odc::exact_fault_injection;
    use crate::sim::SimConfig;
    use netlist::{samples, CircuitBuilder};

    #[test]
    fn enumeration_columns_have_exact_density() {
        for j in [0, 1, 5, 6, 8] {
            let sig = enum_signature(j, 1 << 10);
            assert_eq!(sig.count_ones() as usize, 1 << 9, "bit {j}");
        }
        // Sub-64 enumerations replicate and keep half density.
        let sig = enum_signature(2, 64);
        assert_eq!(sig.count_ones(), 32);
    }

    #[test]
    fn feasibility_gate() {
        let c = samples::s27_like();
        // 3 registers + 4 inputs × 2 frames = 11 bits.
        assert_eq!(exact_source_bits(&c, 2), 11);
        assert!(exact_feasible(&c, 2, 20));
        assert!(!exact_feasible(&c, 2, 10));
        let err = exact_observability(&c, 2, 10).unwrap_err();
        assert!(err.to_string().contains("11"), "{err}");
    }

    #[test]
    fn trace_ceiling_refuses_what_no_cap_can_afford() {
        let c = samples::s27_like();
        // 3 registers + 4 inputs × 16 frames = 67 bits: 2^67 vectors
        // overflow any shift. Refused before anything is allocated,
        // whatever cap the caller passes.
        assert_eq!(exact_source_bits(&c, 16), 67);
        assert!(!exact_feasible(&c, 16, u32::MAX));
        let err = exact_observability(&c, 16, u32::MAX).unwrap_err();
        assert!(err.to_string().contains("67"), "{err}");
        match err {
            EstimateError::TooLarge { source_bits, cap } => {
                assert_eq!(source_bits, 67);
                assert!(cap < 40, "the ceiling lowers the cap, got {cap}");
            }
            other => panic!("expected TooLarge, got {other}"),
        }
        // 43 bits fit the shift but not the 1 GiB trace.
        assert!(exact_observability(&c, 10, 64).is_err());
        // The ceiling never lowers the cap below what fits.
        assert!(exact_feasible(&c, 2, u32::MAX));
    }

    #[test]
    fn tree_circuit_matches_hand_computation() {
        // AND(a, b) → output: a is observable exactly when b = 1, which
        // is half the enumerated vectors.
        let mut b = CircuitBuilder::new("and");
        b.input("a");
        b.input("b2");
        b.gate("x", GateKind::And, &["a", "b2"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let obs = exact_observability(&c, 1, 20).unwrap();
        assert_eq!(obs[c.find("a").unwrap().index()], 0.5);
        assert_eq!(obs[c.find("b2").unwrap().index()], 0.5);
        assert_eq!(obs[c.find("x").unwrap().index()], 1.0);
    }

    #[test]
    fn reconvergent_xor_cancellation_is_exact() {
        // g fans out to two XOR paths that reconverge: flipping g flips
        // both XOR inputs, so the fault cancels exactly — obs(g) = 0.
        // (The propagation-probability estimator gets this wrong by
        // construction; the oracle must not.)
        let mut b = CircuitBuilder::new("cancel");
        b.input("a");
        b.input("b2");
        b.gate("g", GateKind::And, &["a", "b2"]).unwrap();
        b.gate("p", GateKind::Buf, &["g"]).unwrap();
        b.gate("q", GateKind::Buf, &["g"]).unwrap();
        b.gate("z", GateKind::Xor, &["p", "q"]).unwrap();
        b.output("z").unwrap();
        let c = b.build().unwrap();
        let obs = exact_observability(&c, 1, 20).unwrap();
        assert_eq!(obs[c.find("g").unwrap().index()], 0.0);
        // But each buffer alone is fully observable.
        assert_eq!(obs[c.find("p").unwrap().index()], 1.0);
    }

    #[test]
    fn sequential_oracle_agrees_with_sampled_injection_on_full_sampling() {
        // With the simulation drawing 2^S-plus vectors the sampled
        // exact injector converges toward the enumerated answer;
        // check loose agreement on the small sequential sample.
        let c = samples::s27_like();
        let frames = 2;
        let obs = exact_observability(&c, frames, 20).unwrap();
        let sampled = exact_fault_injection(
            &c,
            SimConfig {
                num_vectors: 4096,
                frames,
                warmup: 0,
                seed: 7,
                threads: 1,
            },
        );
        for (id, gate) in c.iter() {
            if gate.kind() == GateKind::Output {
                continue;
            }
            let d = (obs[id.index()] - sampled[id.index()]).abs();
            assert!(
                d < 0.2,
                "{}: enumerated {} vs sampled {}",
                gate.name(),
                obs[id.index()],
                sampled[id.index()]
            );
        }
    }

    #[test]
    fn exact_report_assembles_eq4() {
        let c = samples::s27_like();
        let cfg = SerConfig {
            sim: SimConfig {
                frames: 2,
                ..SimConfig::small()
            },
            ..SerConfig::small(20)
        };
        let report = exact_report(&c, &cfg, 20).unwrap();
        assert!(report.ser > 0.0);
        assert!(report.ser <= report.ser_logic_only + 1e-12);
    }
}
