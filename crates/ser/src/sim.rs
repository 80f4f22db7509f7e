//! Bit-parallel sequential logic simulation with time-frame expansion,
//! arena-backed and levelized.
//!
//! The circuit is simulated for a warm-up period (to reach the "steady
//! operational state" the paper mentions) and then for `n` recorded
//! time frames. Registers carry their signature from frame to frame;
//! within a frame they act as wires of the expanded circuit.
//!
//! # Engine
//!
//! Signatures live in one flat [`SignatureArena`] (`frames × gates ×
//! words` of `u64`) instead of per-gate heap `Signature`s, and gates
//! are evaluated level by level in the circuit's
//! [`Levelization`] slot order, on the calling thread. Because every
//! level is a contiguous slot range whose fanins all sit in lower
//! slots, `split_at_mut` hands each level out as a mutable slice while
//! all earlier levels stay readable, without any `unsafe`.
//!
//! # Determinism and the bit-identity oracle
//!
//! The arena engine is bit-for-bit identical to the scalar reference
//! in [`crate::scalar`]: all gate functions are exact bitwise
//! operations, and every RNG draw (initial register state, per-frame
//! inputs) happens in the original order on full rows, so the word
//! tiling of the sweep cannot change a bit. The unit tests and
//! `tests/ser_parallel_identity.rs` pin this against the oracle.

use netlist::rng::Xoshiro256;
use netlist::{Circuit, GateId, GateKind, Levelization};

use crate::arena::{SigRef, SignatureArena};
use crate::odc::{sweep_tiles, ODC_BLOCK_WORDS};
use crate::signature::{eval_gate_words, map_words1, map_words2, map_words3};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Number of random vectors `K` per frame (multiple of 64; the
    /// paper's analyses use a few thousand).
    pub num_vectors: usize,
    /// Number of recorded time frames `n` (the paper uses 15).
    pub frames: usize,
    /// Warm-up cycles simulated before recording.
    pub warmup: usize,
    /// PRNG seed for inputs and the initial state.
    pub seed: u64,
    /// Worker threads for [`crate::odc::exact_fault_injection`]'s
    /// per-victim pool: explicit count, or 0 to resolve via
    /// `SER_THREADS` / available parallelism (see
    /// [`netlist::parallel::resolve_workers`]). The simulation, ODC and
    /// propagation-probability passes run on the calling thread, so
    /// every other result ignores it.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_vectors: 2048,
            frames: 15,
            warmup: 16,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

impl SimConfig {
    /// A light-weight configuration for unit tests.
    pub fn small() -> Self {
        Self {
            num_vectors: 256,
            frames: 6,
            warmup: 4,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }

    /// Checks that the configuration can be simulated: at least one
    /// recorded frame, and a vector count that is a positive multiple
    /// of 64 (signatures are packed into 64-bit words). Every front end
    /// that builds a `SimConfig` from user input calls this before
    /// simulating; the engine itself asserts the same rule.
    ///
    /// # Errors
    ///
    /// A one-line message naming the violated rule and the value.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_vectors == 0 || !self.num_vectors.is_multiple_of(64) {
            return Err(format!(
                "vectors must be a positive multiple of 64, got {}",
                self.num_vectors
            ));
        }
        if self.frames == 0 {
            return Err("frames must be positive, got 0".to_string());
        }
        Ok(())
    }
}

/// What the ODC pass's per-frame audit did on a run (see
/// [`crate::odc`]): audit volume and circuit-breaker activity. Clean
/// runs have `trips == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Sampled levels re-derived with the word-at-a-time oracle.
    pub audited_layers: u64,
    /// Audit mismatches (each one triggered a scalar fallback).
    pub trips: u64,
    /// Whether any result was recomputed by the scalar engine.
    pub scalar_fallback: bool,
}

impl EngineReport {
    /// Combines two reports (e.g. the original circuit's and a retimed
    /// one's) into one.
    pub fn merged(self, other: EngineReport) -> EngineReport {
        EngineReport {
            audited_layers: self.audited_layers + other.audited_layers,
            trips: self.trips + other.trips,
            scalar_fallback: self.scalar_fallback || other.scalar_fallback,
        }
    }

    /// Whether the run had no breaker activity.
    pub fn is_clean(&self) -> bool {
        self.trips == 0 && !self.scalar_fallback
    }
}

/// Fused `(kind, arity)` dispatch code per slot, precomputed once so
/// the hot evaluation loop does a single flat match — no per-gate
/// shape re-classification and no slice-array round-trip for the
/// common 1–3 fanin shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimOp {
    /// Input / Const0 (sources; overwritten by `step` anyway).
    Zero,
    /// Const1.
    One,
    /// Output / Buf / Dff: copy the single fanin.
    Copy,
    /// 1-input NOT.
    Not,
    /// Exactly two fanins.
    And2,
    Nand2,
    Or2,
    Nor2,
    Xor2,
    Xnor2,
    /// Exactly three fanins (generated netlists have a sizable
    /// 3-input share — fanin density 2.2 — so these keep them off the
    /// spill path).
    And3,
    Nand3,
    Or3,
    Nor3,
    Xor3,
    Xnor3,
    /// 3-input MUX `(sel, a, b)`.
    Mux3,
    /// Anything else: the general [`eval_gate_words`] path.
    Wide,
}

fn sim_op(kind: GateKind, arity: usize) -> SimOp {
    match (kind, arity) {
        (GateKind::Input | GateKind::Const0, _) => SimOp::Zero,
        (GateKind::Const1, _) => SimOp::One,
        (GateKind::Output | GateKind::Buf | GateKind::Dff, _) => SimOp::Copy,
        (GateKind::Not, _) => SimOp::Not,
        (GateKind::And, 2) => SimOp::And2,
        (GateKind::Nand, 2) => SimOp::Nand2,
        (GateKind::Or, 2) => SimOp::Or2,
        (GateKind::Nor, 2) => SimOp::Nor2,
        (GateKind::Xor, 2) => SimOp::Xor2,
        (GateKind::Xnor, 2) => SimOp::Xnor2,
        (GateKind::And, 3) => SimOp::And3,
        (GateKind::Nand, 3) => SimOp::Nand3,
        (GateKind::Or, 3) => SimOp::Or3,
        (GateKind::Nor, 3) => SimOp::Nor3,
        (GateKind::Xor, 3) => SimOp::Xor3,
        (GateKind::Xnor, 3) => SimOp::Xnor3,
        (GateKind::Mux, 3) => SimOp::Mux3,
        _ => SimOp::Wide,
    }
}

/// Per-slot evaluation metadata in levelization slot order: gate kinds
/// and flattened fanin slot lists, plus the register wiring. Shared by
/// the forward simulator, the exact fault injector and the equivalence
/// checker.
#[derive(Debug)]
pub(crate) struct EvalPlan {
    /// Gate kind per slot.
    pub kinds: Vec<GateKind>,
    /// Fused dispatch code per slot (see [`SimOp`]).
    pub codes: Vec<SimOp>,
    /// `fanin_slots[fanin_offsets[s]..fanin_offsets[s + 1]]` are the
    /// fanin slots of slot `s`.
    pub fanin_offsets: Vec<u32>,
    /// Flattened fanin slots.
    pub fanin_slots: Vec<u32>,
    /// Per register (in `registers()` order): the slot of its D fanin.
    pub reg_d_slots: Vec<usize>,
    /// Slots of primary-output markers (in `outputs()` order).
    pub output_slots: Vec<usize>,
    /// Number of registers (slots `0..num_registers`).
    pub num_registers: usize,
    /// Number of primary inputs (slots `num_registers..+num_inputs`).
    pub num_inputs: usize,
    /// End of the level-0 slot range.
    pub num_sources: usize,
}

impl EvalPlan {
    pub(crate) fn new(circuit: &Circuit, levels: &Levelization) -> Self {
        let n = circuit.len();
        let mut kinds = Vec::with_capacity(n);
        let mut codes = Vec::with_capacity(n);
        let mut fanin_offsets = Vec::with_capacity(n + 1);
        let mut fanin_slots = Vec::new();
        fanin_offsets.push(0);
        for slot in 0..n {
            let id = levels.gate_at(slot);
            let gate = circuit.gate(id);
            kinds.push(gate.kind());
            codes.push(sim_op(gate.kind(), gate.fanins().len()));
            for &f in gate.fanins() {
                fanin_slots.push(levels.slot_of(f) as u32);
            }
            fanin_offsets.push(fanin_slots.len() as u32);
        }
        let reg_d_slots = circuit
            .registers()
            .iter()
            .map(|&q| levels.slot_of(circuit.gate(q).fanins()[0]))
            .collect();
        let output_slots = circuit
            .outputs()
            .iter()
            .map(|&po| levels.slot_of(po))
            .collect();
        Self {
            kinds,
            codes,
            fanin_offsets,
            fanin_slots,
            reg_d_slots,
            output_slots,
            num_registers: circuit.num_registers(),
            num_inputs: circuit.inputs().len(),
            num_sources: levels.level_slots(0).end,
        }
    }

    #[inline]
    pub(crate) fn fanins_of(&self, slot: usize) -> &[u32] {
        &self.fanin_slots[self.fanin_offsets[slot] as usize..self.fanin_offsets[slot + 1] as usize]
    }
}

/// Serially evaluates words `b0..b1` of slots `lo..hi` (one level, or
/// a chunk of one), reading fanins from `prev` (the words of slots
/// `0..lo`) and writing into `cur` (the words of slots `lo..hi`). The
/// word sub-range is the cache-blocking lever: `step` sweeps stripes
/// outermost across all levels (see [`crate::odc::sweep_tiles`]).
pub(crate) fn eval_slots(
    plan: &EvalPlan,
    wps: usize,
    b0: usize,
    b1: usize,
    prev: &[u64],
    cur: &mut [u64],
    lo: usize,
) {
    // One flat match on the precomputed [`SimOp`] per slot: the common
    // shapes call their fused SWAR kernel with direct row operands;
    // only wide n-ary gates re-classify in `eval_gate_words` and touch
    // the spill vector.
    let mut fanins: Vec<&[u64]> = Vec::with_capacity(8);
    let row = |f: u32| -> &[u64] {
        let off = f as usize * wps;
        &prev[off + b0..off + b1]
    };
    for i in 0..cur.len() / wps {
        let s = lo + i;
        let fs = plan.fanins_of(s);
        let out = &mut cur[i * wps + b0..i * wps + b1];
        match plan.codes[s] {
            SimOp::Zero => out.fill(0),
            SimOp::One => out.fill(u64::MAX),
            SimOp::Copy => out.copy_from_slice(row(fs[0])),
            SimOp::Not => map_words1(out, row(fs[0]), |a| !a),
            SimOp::And2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| a & b),
            SimOp::Nand2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| !(a & b)),
            SimOp::Or2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| a | b),
            SimOp::Nor2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| !(a | b)),
            SimOp::Xor2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| a ^ b),
            SimOp::Xnor2 => map_words2(out, row(fs[0]), row(fs[1]), |a, b| !(a ^ b)),
            SimOp::And3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| a & b & c),
            SimOp::Nand3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| {
                !(a & b & c)
            }),
            SimOp::Or3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| a | b | c),
            SimOp::Nor3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| {
                !(a | b | c)
            }),
            SimOp::Xor3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| a ^ b ^ c),
            SimOp::Xnor3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |a, b, c| {
                !(a ^ b ^ c)
            }),
            SimOp::Mux3 => map_words3(out, row(fs[0]), row(fs[1]), row(fs[2]), |s, a, b| {
                (s & b) | (!s & a)
            }),
            SimOp::Wide => {
                fanins.clear();
                fanins.extend(fs.iter().map(|&f| row(f)));
                eval_gate_words(plan.kinds[s], &fanins, out);
            }
        }
    }
}

/// The recorded signatures of an `n`-frame expanded simulation.
///
/// `value(frame, gate)` is the signature at the gate's output during
/// that frame; register outputs hold the state captured at the end of
/// the previous frame. Values live in a [`SignatureArena`] in
/// levelization slot order; `value` translates gate ids transparently.
#[derive(Debug, Clone)]
pub struct FrameTrace {
    config: SimConfig,
    levels: Levelization,
    arena: SignatureArena,
}

impl FrameTrace {
    /// Simulates `circuit` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`].
    pub fn simulate(circuit: &Circuit, config: SimConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulation config: {e}");
        }
        let bits = config.num_vectors;
        let levels = circuit.levelize();
        let plan = EvalPlan::new(circuit, &levels);
        let wps = bits / 64;
        let slots = levels.num_gates();
        let mut rng = Xoshiro256::seed_from_u64(config.seed);
        let mut arena = SignatureArena::new(config.frames, slots, bits);
        let sweeps = sweep_tiles(wps, ODC_BLOCK_WORDS);

        // Initial register state: same draw order as the scalar engine
        // (register-major, words in ascending order).
        let mut state = vec![0u64; plan.num_registers * wps];
        for w in state.iter_mut() {
            *w = rng.next_u64();
        }

        let mut warm = vec![0u64; slots * wps];
        for _ in 0..config.warmup {
            step(
                &plan, &levels, wps, &sweeps, &mut rng, &mut state, &mut warm,
            );
        }
        for f in 0..config.frames {
            step(
                &plan,
                &levels,
                wps,
                &sweeps,
                &mut rng,
                &mut state,
                arena.frame_mut(f),
            );
        }

        Self {
            config,
            levels,
            arena,
        }
    }

    /// Planning estimate (in bytes) of the simulation data plane for
    /// `circuit` under `config`: the per-frame chunked
    /// [`SignatureArena`] plus the transient working buffers (warm-up
    /// frame, register state) and the ODC pass's equally-sized mask
    /// buffer. The solver's `SolveBudget` memory caps check this
    /// *before* any allocation happens, so an over-budget instance is
    /// a structured error instead of an OOM abort.
    pub fn data_plane_bytes(circuit: &Circuit, config: &SimConfig) -> usize {
        let slots = circuit.len();
        let bits = config.num_vectors;
        let wps = bits / 64;
        let word = std::mem::size_of::<u64>();
        let arena = SignatureArena::required_bytes(config.frames.max(1), slots, bits.max(64));
        // One warm-up frame + one ODC mask frame, plus two register
        // rows (state carry and next-frame register ODCs).
        let working = 2usize
            .saturating_mul(slots.saturating_add(circuit.num_registers()))
            .saturating_mul(wps)
            .saturating_mul(word);
        arena.saturating_add(working)
    }

    /// The configuration used.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Signature of `gate` during `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame >= frames`.
    pub fn value(&self, frame: usize, gate: GateId) -> SigRef<'_> {
        assert!(frame < self.config.frames, "frame out of range");
        self.arena.sig(frame, self.levels.slot_of(gate))
    }

    /// Number of recorded frames.
    pub fn frames(&self) -> usize {
        self.config.frames
    }

    /// Signal activity of a gate: fraction of ones across all frames.
    pub fn activity(&self, gate: GateId) -> f64 {
        let total: u64 = (0..self.config.frames)
            .map(|f| self.value(f, gate).count_ones() as u64)
            .sum();
        total as f64 / (self.config.frames * self.config.num_vectors) as f64
    }

    /// The levelization the arena is laid out by.
    pub(crate) fn levels(&self) -> &Levelization {
        &self.levels
    }

    /// The raw signature arena.
    pub(crate) fn arena(&self) -> &SignatureArena {
        &self.arena
    }
}

/// Advances the circuit by one clock cycle: fresh random inputs,
/// levelized combinational evaluation, register update.
fn step(
    plan: &EvalPlan,
    levels: &Levelization,
    wps: usize,
    sweeps: &[(usize, usize)],
    rng: &mut Xoshiro256,
    state: &mut [u64],
    frame: &mut [u64],
) {
    let r = plan.num_registers;
    let ni = plan.num_inputs;
    // Present register state first (consumed by combinational gates).
    frame[..r * wps].copy_from_slice(state);
    // Fresh random inputs, drawn serially in `inputs()` order — full
    // rows, so the draw order (and therefore every signature) is
    // independent of the sweep tiling below.
    for w in frame[r * wps..(r + ni) * wps].iter_mut() {
        *w = rng.next_u64();
    }
    // Constants.
    for s in (r + ni)..plan.num_sources {
        let v = if plan.kinds[s] == GateKind::Const1 {
            u64::MAX
        } else {
            0
        };
        frame[s * wps..(s + 1) * wps].fill(v);
    }
    // Word-sweep stripes outermost (cache blocking, see `eval_slots`);
    // levels inner. Words never interact, so the stripe order cannot
    // change results.
    for &(b0, b1) in sweeps {
        for l in 1..levels.num_levels() {
            let lr = levels.level_slots(l);
            let (prev, rest) = frame.split_at_mut(lr.start * wps);
            let cur = &mut rest[..lr.len() * wps];
            eval_slots(plan, wps, b0, b1, prev, cur, lr.start);
        }
    }
    // Capture next state.
    for (i, &d) in plan.reg_d_slots.iter().enumerate() {
        state[i * wps..(i + 1) * wps].copy_from_slice(&frame[d * wps..(d + 1) * wps]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarTrace;
    use crate::signature::{eval_gate, Signature};
    use netlist::{samples, CircuitBuilder};

    #[test]
    fn deterministic_for_same_seed() {
        let c = samples::s27_like();
        let a = FrameTrace::simulate(&c, SimConfig::small());
        let b = FrameTrace::simulate(&c, SimConfig::small());
        for f in 0..a.frames() {
            for (id, _) in c.iter() {
                assert_eq!(a.value(f, id), b.value(f, id));
            }
        }
    }

    #[test]
    fn combinational_consistency_within_frames() {
        let c = samples::s27_like();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        // Every gate's recorded signature equals its function applied to
        // its fanins' recorded signatures (registers excepted).
        for f in 0..t.frames() {
            for (id, gate) in c.iter() {
                if matches!(gate.kind(), GateKind::Input | GateKind::Dff) {
                    continue;
                }
                let fanins: Vec<Signature> = gate
                    .fanins()
                    .iter()
                    .map(|&x| t.value(f, x).to_signature())
                    .collect();
                let fanin_refs: Vec<&Signature> = fanins.iter().collect();
                let expect = eval_gate(gate.kind(), &fanin_refs, t.config().num_vectors);
                assert_eq!(t.value(f, id), expect, "{} frame {f}", gate.name());
            }
        }
    }

    #[test]
    fn registers_delay_by_one_frame() {
        let c = samples::s27_like();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        for f in 1..t.frames() {
            for &reg in c.registers() {
                let d = c.gate(reg).fanins()[0];
                assert_eq!(
                    t.value(f, reg),
                    t.value(f - 1, d),
                    "register {} at frame {f}",
                    c.gate(reg).name()
                );
            }
        }
    }

    #[test]
    fn constants_hold_their_value() {
        let mut b = CircuitBuilder::new("c");
        b.input("a");
        b.constant("one", true).unwrap();
        b.gate("x", GateKind::And, &["a", "one"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        let one = c.find("one").unwrap();
        for f in 0..t.frames() {
            assert_eq!(
                t.value(f, one).count_ones() as usize,
                t.config().num_vectors
            );
        }
        // x equals a.
        let a = c.find("a").unwrap();
        let x = c.find("x").unwrap();
        for f in 0..t.frames() {
            assert_eq!(t.value(f, a), t.value(f, x));
        }
    }

    #[test]
    fn inputs_have_half_density() {
        let c = samples::s27_like();
        let t = FrameTrace::simulate(&c, SimConfig::default());
        for &pi in c.inputs() {
            let act = t.activity(pi);
            assert!((0.45..0.55).contains(&act), "activity {act}");
        }
    }

    #[test]
    fn matches_scalar_engine_bit_for_bit() {
        for (name, c) in [
            ("s27", samples::s27_like()),
            ("fig1", samples::fig1_like()),
            ("pipeline", samples::pipeline(7, 2)),
        ] {
            let cfg = SimConfig::small();
            let arena = FrameTrace::simulate(&c, cfg);
            let scalar = ScalarTrace::simulate(&c, cfg);
            for f in 0..cfg.frames {
                for (id, _) in c.iter() {
                    assert_eq!(
                        arena.value(f, id).words(),
                        scalar.value(f, id).as_words(),
                        "{name}: {id} frame {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_simulation_is_bit_identical() {
        let c = samples::fig1_like();
        let base = FrameTrace::simulate(&c, SimConfig::small());
        for threads in [2, 3, 7] {
            let t = FrameTrace::simulate(
                &c,
                SimConfig {
                    threads,
                    ..SimConfig::small()
                },
            );
            for f in 0..t.frames() {
                for (id, _) in c.iter() {
                    assert_eq!(base.value(f, id), t.value(f, id), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn validate_names_the_violated_rule() {
        assert_eq!(SimConfig::small().validate(), Ok(()));
        for num_vectors in [0, 100] {
            let e = SimConfig {
                num_vectors,
                ..SimConfig::small()
            }
            .validate()
            .unwrap_err();
            assert!(e.contains("multiple of 64"), "{e}");
        }
        let e = SimConfig {
            frames: 0,
            ..SimConfig::small()
        }
        .validate()
        .unwrap_err();
        assert!(e.contains("frames must be positive"), "{e}");
    }
}
