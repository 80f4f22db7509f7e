//! Observability don't-care (ODC) masks and gate observabilities over
//! the time-frame expanded circuit — the logic-masking half of the SER
//! model (paper §II.A–B, following refs \[11\], \[17\], \[21\]).
//!
//! `obs(g) = |O(g)| / K`, where `O(g)` marks the simulation vectors in
//! which flipping `g`'s output would be visible at a primary output of
//! any recorded frame or at a register input of the last frame.
//!
//! The masks are computed by the standard backward composition: a
//! gate's ODC is the union over its fanouts of the fanout's ODC ANDed
//! with the fanout's *sensitivity* to the gate (re-evaluation with the
//! gate's signature flipped). Reconvergent fanout makes this an
//! approximation; [`exact_fault_injection`] provides the exact
//! (quadratic-cost) reference used to validate it in tests.
//!
//! # Engine
//!
//! ODC masks live in one flat `slots × words` buffer per frame, walked
//! level by level in *reverse* [`Levelization`]
//! order (a gate's fanouts all sit on strictly higher levels, so each
//! level's masks only read already-finalized higher slots — the mirror
//! image of the forward simulator's `split_at_mut` scheme). The
//! sensitivity product is fused: instead of materializing a flipped
//! signature and a faulty re-evaluation per (gate, fanout) pair, the
//! fast path ORs `odc(h) & (faulty ^ value(h))` into the accumulator a
//! whole cache block at a time via the batched `accumulate_sensitivity`
//! kernel (per-kind word loops, flips as XOR masks), keeping each
//! accumulator block hot across all of a gate's fanouts — zero
//! allocations per frame. The word-at-a-time `eval_gate_word`
//! evaluation survives as the audit oracle.
//!
//! The pass runs on the calling thread. Because the blocked kernel
//! differs structurally from the word-at-a-time oracle, it is checked
//! against it in every run: debug builds re-derive every level of every
//! frame, and all builds audit one sampled level per frame. An audit
//! mismatch trips a circuit breaker: the blocked result is discarded,
//! recomputed with the scalar engine in [`crate::scalar`], and the trip
//! is recorded in [`Observability::engine`] so the supervisor's
//! degradation report can surface it.

use netlist::{parallel, Circuit, GateId, GateKind, Levelization};

use crate::scalar::ScalarTrace;
use crate::signature::{
    accumulate_sensitivity, eval_gate_word, or_and2_rows, or_and_rows, or_andn_rows,
    or_andxor_rows, or_nor2_rows, or_rows, popcount_words, set_and2_rows, set_and_rows,
    set_andn_rows, set_andxor_rows, set_nor2_rows, Signature,
};
use crate::sim::{eval_slots, EngineReport, EvalPlan, FrameTrace, SimConfig};

/// Sweep tile width, in 64-bit words, shared by the forward simulator
/// and the ODC pass: 64 words is a full row for every vector count up
/// to 4096, so those runs make one sweep per pass. Narrower tiles
/// measured slower on the 50k-gate fixture at 1024 vectors (8 words
/// +25%, 4 words +60%) and no faster at 2048 (DESIGN.md §16.2). The
/// width only changes traversal order, never a result.
pub(crate) const ODC_BLOCK_WORDS: usize = 64;

/// The word stripes `(b0, b1)` of a `wps`-word row in tiles of `block`
/// words (`block >= 1`). Each sweep runs a whole pass over one stripe
/// of every row, so the touched cache lines stay resident across it.
pub(crate) fn sweep_tiles(wps: usize, block: usize) -> Vec<(usize, usize)> {
    (0..wps)
        .step_by(block)
        .map(|b0| (b0, (b0 + block).min(wps)))
        .collect()
}

/// How a fanout's sensitivity to the source gate collapses under the
/// boolean difference `∂h/∂g = h(..., ¬g, ...) ⊕ h(..., g, ...)`,
/// precomputed at plan-build time. For the overwhelmingly common
/// shapes the faulty re-evaluation disappears entirely:
///
/// * XOR-family, inverters and buffers toggle unconditionally, so the
///   sensitivity is all-ones and the accumulation is a plain OR;
/// * a 2-input AND/NAND is sensitive exactly when the sibling input is
///   1 (`acc |= odc & sibling`), OR/NOR when it is 0 (ANDN);
/// * a MUX is sensitive to its select when the data inputs differ, and
///   to a data input when the select picks it.
///
/// Everything else (wide n-ary gates, a gate feeding the same fanout
/// twice) falls back to the general flip-and-re-evaluate kernel. The
/// serial word-oracle path never uses the collapse, so the debug
/// differentials and the per-frame audits check these identities on
/// real data in every run.
#[derive(Debug, Clone)]
enum Sens {
    /// `∂h/∂g ≡ 1`: `acc |= odc(h)`.
    Ones,
    /// `∂h/∂g = value(slot)`: `acc |= odc(h) & value`.
    Same(u32),
    /// `∂h/∂g = ¬value(slot)`: `acc |= odc(h) & ¬value`.
    Inv(u32),
    /// `∂h/∂g = value(a) ⊕ value(b)` (MUX select).
    Xor2(u32, u32),
    /// `∂h/∂g = value(a) & value(b)` (3-input AND/NAND: both siblings
    /// high).
    And2(u32, u32),
    /// `∂h/∂g = ¬(value(a) | value(b))` (3-input OR/NOR: both siblings
    /// low).
    Nor2(u32, u32),
    /// `∂h/∂g = AND over all sibling values` (wide AND/NAND).
    AndMany(Box<[u32]>),
    /// `∂h/∂g = NOR over all sibling values` (wide OR/NOR).
    NorMany(Box<[u32]>),
    /// No collapse: re-evaluate with flips via the batched kernel.
    General,
}

/// Classifies one combinational fanout's sensitivity (see [`Sens`]).
fn classify_sens(kind: GateKind, fanins: &[(u32, bool)]) -> Sens {
    let flips = fanins.iter().filter(|&&(_, f)| f).count();
    if flips != 1 {
        return Sens::General;
    }
    let fi = fanins.iter().position(|&(_, f)| f).unwrap();
    let sibs = || -> Box<[u32]> {
        fanins
            .iter()
            .filter(|&&(_, f)| !f)
            .map(|&(s, _)| s)
            .collect()
    };
    match kind {
        GateKind::Not | GateKind::Buf | GateKind::Output | GateKind::Dff => Sens::Ones,
        GateKind::Xor | GateKind::Xnor => Sens::Ones,
        GateKind::And | GateKind::Nand => match *sibs() {
            [x] => Sens::Same(x),
            [x, y] => Sens::And2(x, y),
            ref many => Sens::AndMany(many.into()),
        },
        GateKind::Or | GateKind::Nor => match *sibs() {
            [x] => Sens::Inv(x),
            [x, y] => Sens::Nor2(x, y),
            ref many => Sens::NorMany(many.into()),
        },
        // h = sel ? b : a with fanins (sel, a, b).
        GateKind::Mux => match fi {
            0 => Sens::Xor2(fanins[1].0, fanins[2].0),
            1 => Sens::Inv(fanins[0].0),
            _ => Sens::Same(fanins[0].0),
        },
        _ => Sens::General,
    }
}

/// One fanout's contribution to a gate's ODC accumulation.
#[derive(Debug)]
enum OdcFanout {
    /// The fanout is a register capturing the gate: OR in the next
    /// frame's ODC of register `ri` (or everything, in the last frame).
    Reg(usize),
    /// A combinational fanout: OR in `odc(h) & sensitivity(h, g)`,
    /// where the sensitivity is evaluated word-by-word with the
    /// `flip`-marked fanins inverted on the fly — or, when `sens`
    /// collapses, via the corresponding single-pass SWAR row kernel.
    Comb {
        h_slot: u32,
        kind: GateKind,
        fanins: Box<[(u32, bool)]>,
        sens: Sens,
    },
}

/// Per-slot accumulation plan, in levelization slot order.
#[derive(Debug)]
struct OdcSlot {
    /// Primary-output markers start fully observable.
    start_ones: bool,
    fanouts: Box<[OdcFanout]>,
}

fn build_odc_plan(circuit: &Circuit, levels: &Levelization) -> Vec<OdcSlot> {
    (0..circuit.len())
        .map(|s| {
            let g = levels.gate_at(s);
            let start_ones = circuit.gate(g).kind() == GateKind::Output;
            let fanouts = circuit
                .fanouts(g)
                .iter()
                .map(|&h| {
                    let hg = circuit.gate(h);
                    if hg.kind() == GateKind::Dff {
                        // Register slots are 0..R in `registers()` order.
                        OdcFanout::Reg(levels.slot_of(h))
                    } else {
                        let fanins: Box<[(u32, bool)]> = hg
                            .fanins()
                            .iter()
                            .map(|&x| (levels.slot_of(x) as u32, x == g))
                            .collect();
                        let sens = classify_sens(hg.kind(), &fanins);
                        OdcFanout::Comb {
                            h_slot: levels.slot_of(h) as u32,
                            kind: hg.kind(),
                            fanins,
                            sens,
                        }
                    }
                })
                .collect();
            OdcSlot {
                start_ones,
                fanouts,
            }
        })
        .collect()
}

/// One micro-op of the flattened fast-path stream: the opcode is the
/// fanout's [`Sens`] collapse, `h` the fanout's slot (or register
/// index for [`OpCode::Reg`]), `a`/`b` operand slots or side-table
/// ranges. Kept flat and `Copy` so a backward pass walks one
/// contiguous array instead of chasing two heap boxes per fanout.
#[derive(Debug, Clone, Copy)]
struct OdcOp {
    code: OpCode,
    h: u32,
    a: u32,
    b: u32,
}

/// Opcode of an [`OdcOp`] (see [`Sens`] for the collapse semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpCode {
    /// Register capture: OR in next-frame register `h` (all-ones in
    /// the last frame).
    Reg,
    /// `acc |= odc(h)`.
    Ones,
    /// `acc |= odc(h) & value(a)`.
    Same,
    /// `acc |= odc(h) & ¬value(a)`.
    Inv,
    /// `acc |= odc(h) & (value(a) ⊕ value(b))`.
    Xor2,
    /// `acc |= odc(h) & value(a) & value(b)`.
    And2,
    /// `acc |= odc(h) & ¬(value(a) | value(b))`.
    Nor2,
    /// `acc |= odc(h) & AND(values of sibs[a..b])`.
    AndMany,
    /// `acc |= odc(h) & ¬OR(values of sibs[a..b])`.
    NorMany,
    /// Uncollapsed: re-evaluate `general[a]` with flips.
    General,
}

/// The flattened fast-path plan: per-slot op ranges over one
/// contiguous op array, with side tables for the rare shapes. Derived
/// from the boxed [`OdcSlot`] plan (which stays the oracle's input) at
/// build time.
#[derive(Debug)]
struct OdcOps {
    /// `ops[op_offsets[s] as usize..op_offsets[s + 1] as usize]`
    /// accumulate slot `s`.
    op_offsets: Vec<u32>,
    ops: Vec<OdcOp>,
    /// Primary-output markers start fully observable.
    start_ones: Vec<bool>,
    /// Flattened sibling slots for `AndMany`/`NorMany`.
    sibs: Vec<u32>,
    /// `(kind, fanins)` of `General` fanouts.
    general: Vec<GeneralFanout>,
}

/// `(kind, fanins)` of one `General` fanout gate.
type GeneralFanout = (GateKind, Box<[(u32, bool)]>);

fn build_odc_ops(plan: &[OdcSlot]) -> OdcOps {
    let mut op_offsets = Vec::with_capacity(plan.len() + 1);
    let mut ops = Vec::new();
    let mut start_ones = Vec::with_capacity(plan.len());
    let mut sibs: Vec<u32> = Vec::new();
    let mut general = Vec::new();
    op_offsets.push(0u32);
    for slot in plan {
        start_ones.push(slot.start_ones);
        for fo in slot.fanouts.iter() {
            let op = match fo {
                OdcFanout::Reg(ri) => OdcOp {
                    code: OpCode::Reg,
                    h: *ri as u32,
                    a: 0,
                    b: 0,
                },
                OdcFanout::Comb {
                    h_slot,
                    kind,
                    fanins,
                    sens,
                } => {
                    let (code, a, b) = match *sens {
                        Sens::Ones => (OpCode::Ones, 0, 0),
                        Sens::Same(x) => (OpCode::Same, x, 0),
                        Sens::Inv(x) => (OpCode::Inv, x, 0),
                        Sens::Xor2(x, y) => (OpCode::Xor2, x, y),
                        Sens::And2(x, y) => (OpCode::And2, x, y),
                        Sens::Nor2(x, y) => (OpCode::Nor2, x, y),
                        Sens::AndMany(ref s) | Sens::NorMany(ref s) => {
                            let a = sibs.len() as u32;
                            sibs.extend_from_slice(s);
                            let code = if matches!(sens, Sens::AndMany(_)) {
                                OpCode::AndMany
                            } else {
                                OpCode::NorMany
                            };
                            (code, a, sibs.len() as u32)
                        }
                        Sens::General => {
                            general.push((*kind, fanins.clone()));
                            (OpCode::General, (general.len() - 1) as u32, 0)
                        }
                    };
                    OdcOp {
                        code,
                        h: *h_slot,
                        a,
                        b,
                    }
                }
            };
            ops.push(op);
        }
        op_offsets.push(ops.len() as u32);
    }
    OdcOps {
        op_offsets,
        ops,
        start_ones,
        sibs,
        general,
    }
}

/// The fast path: accumulates words `b0..b1` of the ODC masks of slots
/// `lo..lo + out.len()/wps` into `out`, dispatching each fanout on its
/// precomputed [`Sens`] collapse — the common shapes are one fused
/// SWAR row pass; only uncollapsible fanouts re-evaluate via the
/// batched [`accumulate_sensitivity`] kernel. The word sub-range is
/// the cache-blocking lever: the frame loop sweeps `b0..b1` tiles
/// *outermost* across all levels (see [`sweep_tiles`]) so the touched
/// cache lines of both the value and mask planes stay resident across
/// a whole backward pass. Bit-identical to
/// [`odc_slots_serial`] — which stays the audit oracle — because every
/// operation is an exact bitwise function with no cross-word
/// dependencies.
#[allow(clippy::too_many_arguments)]
fn odc_slots_blocked<'a>(
    ops: &OdcOps,
    wps: usize,
    b0: usize,
    b1: usize,
    values: &'a [u64],
    odc_right: &[u64],
    right_base: usize,
    next_reg: &[u64],
    last_frame: bool,
    out: &mut [u64],
    lo: usize,
    pairs: &mut Vec<(&'a [u64], bool)>,
) {
    let slots = out.len() / wps;
    let row = |slot: usize| -> &[u64] { &values[slot * wps + b0..slot * wps + b1] };
    for i in 0..slots {
        let s = lo + i;
        let slot_ops = &ops.ops[ops.op_offsets[s] as usize..ops.op_offsets[s + 1] as usize];
        let ab = &mut out[i * wps + b0..i * wps + b1];
        // The first op writes the accumulator directly instead of
        // OR-ing into a zero fill — one less row write and read-back
        // per slot. Output markers (`start_ones`) and the rare general
        // shape keep the fill-then-accumulate form.
        let rest = if ops.start_ones[s] {
            ab.fill(u64::MAX);
            slot_ops
        } else {
            match slot_ops.split_first() {
                None => {
                    ab.fill(0);
                    slot_ops
                }
                Some((op, tail)) if op.code == OpCode::Reg => {
                    if last_frame {
                        ab.fill(u64::MAX);
                    } else {
                        let ro = op.h as usize * wps;
                        ab.copy_from_slice(&next_reg[ro + b0..ro + b1]);
                    }
                    tail
                }
                Some((op, tail)) => {
                    let hs = op.h as usize;
                    let ho = (hs - right_base) * wps;
                    let h_odc = &odc_right[ho + b0..ho + b1];
                    match op.code {
                        OpCode::Ones => ab.copy_from_slice(h_odc),
                        OpCode::Same => set_and_rows(ab, h_odc, row(op.a as usize)),
                        OpCode::Inv => set_andn_rows(ab, h_odc, row(op.a as usize)),
                        OpCode::Xor2 => {
                            set_andxor_rows(ab, h_odc, row(op.a as usize), row(op.b as usize));
                        }
                        OpCode::And2 => {
                            set_and2_rows(ab, h_odc, row(op.a as usize), row(op.b as usize));
                        }
                        OpCode::Nor2 => {
                            set_nor2_rows(ab, h_odc, row(op.a as usize), row(op.b as usize));
                        }
                        OpCode::Reg => unreachable!("handled above"),
                        OpCode::AndMany | OpCode::NorMany | OpCode::General => {
                            // Rare shapes: keep the accumulate form.
                            ab.fill(0);
                        }
                    }
                    if matches!(op.code, OpCode::AndMany | OpCode::NorMany | OpCode::General) {
                        slot_ops
                    } else {
                        tail
                    }
                }
            }
        };
        for op in rest {
            if op.code == OpCode::Reg {
                if last_frame {
                    ab.fill(u64::MAX);
                } else {
                    let ro = op.h as usize * wps;
                    or_rows(ab, &next_reg[ro + b0..ro + b1]);
                }
                continue;
            }
            let hs = op.h as usize;
            let ho = (hs - right_base) * wps;
            let h_odc = &odc_right[ho + b0..ho + b1];
            match op.code {
                OpCode::Reg => unreachable!("handled above"),
                OpCode::Ones => or_rows(ab, h_odc),
                OpCode::Same => or_and_rows(ab, h_odc, row(op.a as usize)),
                OpCode::Inv => or_andn_rows(ab, h_odc, row(op.a as usize)),
                OpCode::Xor2 => {
                    or_andxor_rows(ab, h_odc, row(op.a as usize), row(op.b as usize));
                }
                OpCode::And2 => {
                    or_and2_rows(ab, h_odc, row(op.a as usize), row(op.b as usize));
                }
                OpCode::Nor2 => {
                    or_nor2_rows(ab, h_odc, row(op.a as usize), row(op.b as usize));
                }
                OpCode::AndMany => {
                    let sibs = &ops.sibs[op.a as usize..op.b as usize];
                    for (w, a) in ab.iter_mut().enumerate() {
                        let mut t = h_odc[w];
                        for &x in sibs.iter() {
                            t &= values[x as usize * wps + b0 + w];
                        }
                        *a |= t;
                    }
                }
                OpCode::NorMany => {
                    let sibs = &ops.sibs[op.a as usize..op.b as usize];
                    for (w, a) in ab.iter_mut().enumerate() {
                        let mut t = 0u64;
                        for &x in sibs.iter() {
                            t |= values[x as usize * wps + b0 + w];
                        }
                        *a |= h_odc[w] & !t;
                    }
                }
                OpCode::General => {
                    let (kind, ref fanins) = ops.general[op.a as usize];
                    pairs.clear();
                    for &(fs, flip) in fanins.iter() {
                        pairs.push((row(fs as usize), flip));
                    }
                    accumulate_sensitivity(kind, pairs, h_odc, row(hs), ab);
                }
            }
        }
    }
}

/// Serially accumulates the ODC masks of slots `lo..lo + out.len()/wps`
/// into `out` — the word-at-a-time reference implementation behind the
/// per-frame audit and the debug differential checks of the blocked
/// fast path. `odc_right` holds the finalized masks of slots
/// `right_base..`, `values` the nominal signatures of the frame, and
/// `next_reg` the register ODCs of the following frame.
#[allow(clippy::too_many_arguments)]
fn odc_slots_serial<'a>(
    plan: &[OdcSlot],
    wps: usize,
    values: &'a [u64],
    odc_right: &[u64],
    right_base: usize,
    next_reg: &[u64],
    last_frame: bool,
    out: &mut [u64],
    lo: usize,
    pairs: &mut Vec<(&'a [u64], bool)>,
) {
    let slots = out.len() / wps;
    for i in 0..slots {
        let s = lo + i;
        let acc = &mut out[i * wps..(i + 1) * wps];
        acc.fill(if plan[s].start_ones { u64::MAX } else { 0 });
        for fo in plan[s].fanouts.iter() {
            match fo {
                OdcFanout::Reg(ri) => {
                    if last_frame {
                        // The register input of the last frame is an
                        // observation point: unconditionally visible.
                        acc.fill(u64::MAX);
                    } else {
                        let nr = &next_reg[ri * wps..][..wps];
                        for (a, b) in acc.iter_mut().zip(nr) {
                            *a |= b;
                        }
                    }
                }
                OdcFanout::Comb {
                    h_slot,
                    kind,
                    fanins,
                    ..
                } => {
                    pairs.clear();
                    for &(fs, flip) in fanins.iter() {
                        let o = fs as usize * wps;
                        pairs.push((&values[o..o + wps], flip));
                    }
                    let hs = *h_slot as usize;
                    let h_odc = &odc_right[(hs - right_base) * wps..][..wps];
                    let h_val = &values[hs * wps..][..wps];
                    for (w, a) in acc.iter_mut().enumerate() {
                        let faulty = eval_gate_word(*kind, pairs, w);
                        *a |= h_odc[w] & (faulty ^ h_val[w]);
                    }
                }
            }
        }
    }
}

/// Recomputes slots `lo..hi` with the word-at-a-time oracle and
/// compares them with what the blocked pass wrote. Returns `true` when
/// identical.
#[allow(clippy::too_many_arguments)]
fn verify_pass(
    plan: &[OdcSlot],
    wps: usize,
    values: &[u64],
    odc: &[u64],
    lo: usize,
    hi: usize,
    next_reg: &[u64],
    last_frame: bool,
) -> bool {
    let mut scratch = vec![0u64; (hi - lo) * wps];
    let mut pairs = Vec::with_capacity(8);
    odc_slots_serial(
        plan,
        wps,
        values,
        &odc[hi * wps..],
        hi,
        next_reg,
        last_frame,
        &mut scratch,
        lo,
        &mut pairs,
    );
    odc[lo * wps..hi * wps] == scratch[..]
}

/// Deterministically samples the level to audit for a frame (0 is the
/// layer-0 source region, processed last).
fn audit_pass(frame: usize, num_levels: usize) -> usize {
    frame.wrapping_mul(0x9E37_79B9) % num_levels
}

/// Per-gate observabilities derived from a frame trace.
#[derive(Debug, Clone)]
pub struct Observability {
    obs: Vec<f64>,
    frame0_odc: Vec<Signature>,
    engine: EngineReport,
}

impl Observability {
    /// Computes observabilities from a simulated trace, sweeping
    /// 64-word tiles.
    pub fn compute(circuit: &Circuit, trace: &FrameTrace) -> Self {
        Self::compute_with_block(circuit, trace, ODC_BLOCK_WORDS)
    }

    /// [`Observability::compute`] with an explicit accumulation tile
    /// width — the hook the differential test suite uses to pin
    /// bit-identity across tile sizes. Results never depend on
    /// `block_words`; only traversal order (and therefore speed) does.
    #[doc(hidden)]
    pub fn compute_with_block(circuit: &Circuit, trace: &FrameTrace, block_words: usize) -> Self {
        let config = *trace.config();
        let bits = config.num_vectors;
        let frames = trace.frames();
        let wps = bits / 64;
        let levels = trace.levels();
        let slots = levels.num_gates();
        let r = levels.num_registers();
        let num_levels = levels.num_levels();
        let plan = build_odc_plan(circuit, levels);
        let ops = build_odc_ops(&plan);
        let sweeps = sweep_tiles(wps, block_words.max(1));
        let mut engine = EngineReport::default();
        let mut pairs = Vec::with_capacity(8);

        // Two full mask planes, swapped each frame: the one being
        // computed and the previous (later) frame's finished plane,
        // whose register rows `0..r` double as `next_reg` — no
        // per-frame register copy-out. In-place reuse of one plane
        // would be wrong: the level-0 pass overwrites register rows
        // that register-feeding-register slots still need to read.
        let mut odc = vec![0u64; slots * wps];
        let mut odc_prev = vec![0u64; slots * wps];

        for f in (0..frames).rev() {
            let last = f == frames - 1;
            let next_reg = &odc_prev[..r * wps];
            let values = trace.arena().frame(f);
            // Backward over the combinational levels, then level 0, the
            // source region (registers, inputs, constants). No upfront
            // clear: every pass initializes the accumulator tiles it
            // owns, and together the level ranges cover every slot.
            for &(b0, b1) in &sweeps {
                for l in (0..num_levels).rev() {
                    let lr = levels.level_slots(l);
                    let (left, right) = odc.split_at_mut(lr.end * wps);
                    odc_slots_blocked(
                        &ops,
                        wps,
                        b0,
                        b1,
                        values,
                        right,
                        lr.end,
                        next_reg,
                        last,
                        &mut left[lr.start * wps..],
                        lr.start,
                        &mut pairs,
                    );
                }
            }
            // After all sweeps (a level's rows are only complete once
            // every word stripe has passed over it), debug builds
            // re-derive every level with the word oracle.
            #[cfg(debug_assertions)]
            for l in (0..num_levels).rev() {
                let lr = levels.level_slots(l);
                debug_assert!(
                    verify_pass(&plan, wps, values, &odc, lr.start, lr.end, next_reg, last),
                    "blocked ODC level {l} diverged from serial evaluation"
                );
            }
            // All builds re-derive one sampled level per frame; a
            // mismatch trips the breaker.
            let audited = levels.level_slots(audit_pass(f, num_levels));
            // Breaker drill (unit tests only): corrupt the audited level
            // after the debug differential, so only the audit sees it.
            #[cfg(test)]
            if last && tests::CORRUPT_AUDITED_LEVEL.with(std::cell::Cell::get) {
                odc[audited.start * wps] ^= 1;
            }
            engine.audited_layers += 1;
            if !verify_pass(
                &plan,
                wps,
                values,
                &odc,
                audited.start,
                audited.end,
                next_reg,
                last,
            ) {
                // Circuit breaker: recompute with the scalar reference
                // engine against the trace values.
                engine.trips += 1;
                engine.scalar_fallback = true;
                let st = ScalarTrace::from_trace(circuit, trace);
                let (obs, frame0_odc) = crate::scalar::observability(circuit, &st);
                return Self {
                    obs,
                    frame0_odc,
                    engine,
                };
            }
            // The finished plane becomes the earlier frame's "next"
            // plane; its register rows are read as `next_reg` above.
            std::mem::swap(&mut odc, &mut odc_prev);
        }

        // The last swap left the finished frame-0 plane in `odc_prev`.
        let frame0 = &odc_prev;
        let mut obs = vec![0.0; circuit.len()];
        let mut frame0_odc = Vec::with_capacity(circuit.len());
        for (id, _) in circuit.iter() {
            let s = levels.slot_of(id);
            let words = &frame0[s * wps..(s + 1) * wps];
            let ones = popcount_words(words);
            obs[id.index()] = ones as f64 / bits as f64;
            frame0_odc.push(Signature::from_words(words.to_vec()));
        }
        Self {
            obs,
            frame0_odc,
            engine,
        }
    }

    /// `obs(g)`: fraction of vectors in which `g` is observable,
    /// evaluated for the frame-0 copy of the gate.
    pub fn obs(&self, gate: GateId) -> f64 {
        self.obs[gate.index()]
    }

    /// The frame-0 ODC mask of a gate.
    pub fn odc_mask(&self, gate: GateId) -> &Signature {
        &self.frame0_odc[gate.index()]
    }

    /// All observabilities, indexed by gate.
    pub fn as_slice(&self) -> &[f64] {
        &self.obs
    }

    /// Engine diagnostics: audits and circuit-breaker activity.
    pub fn engine(&self) -> &EngineReport {
        &self.engine
    }
}

/// Exact observability by per-gate fault injection: flips the gate's
/// output in frame 0 and fully resimulates the `n`-frame window,
/// recording the vectors in which any primary output of any frame (or
/// any register input of the last frame) differs. Quadratic cost —
/// intended for validation on small circuits; the victims are fanned
/// across scoped workers ([`SimConfig::threads`]) and each worker
/// reuses one pair of frame buffers across all its victims.
pub fn exact_fault_injection(circuit: &Circuit, config: SimConfig) -> Vec<f64> {
    let trace = FrameTrace::simulate(circuit, config);
    let n = circuit.len();
    let levels = trace.levels();
    let plan = EvalPlan::new(circuit, levels);
    let wps = config.num_vectors / 64;
    let slots = levels.num_gates();
    let workers = parallel::resolve_workers_for(config.threads, n);
    let mut result = vec![0.0; n];
    let chunk = n.div_ceil(workers);
    let trace = &trace;
    let plan = &plan;
    std::thread::scope(|scope| {
        for (ci, out) in result.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                let mut faulty = vec![0u64; slots * wps];
                let mut prev = vec![0u64; slots * wps];
                let mut detected = vec![0u64; wps];
                for (vi, res) in out.iter_mut().enumerate() {
                    let victim = GateId::new(ci * chunk + vi);
                    *res = inject(trace, plan, victim, &mut faulty, &mut prev, &mut detected);
                }
            });
        }
    });
    result
}

/// Resimulates the full window with `victim` flipped in frame 0 and
/// returns the detection density.
fn inject(
    trace: &FrameTrace,
    plan: &EvalPlan,
    victim: GateId,
    faulty: &mut Vec<u64>,
    prev: &mut Vec<u64>,
    detected: &mut [u64],
) -> f64 {
    let levels = trace.levels();
    let config = trace.config();
    let wps = config.num_vectors / 64;
    let frames = config.frames;
    let vslot = levels.slot_of(victim);
    if plan.kinds[vslot] == GateKind::Output {
        return 1.0;
    }
    let vlevel = levels.level_of(victim);
    detected.fill(0);
    for f in 0..frames {
        let nominal = trace.arena().frame(f);
        if f == 0 {
            // Faulty values start as copies of the nominal trace, with
            // the victim flipped (source victims keep the flip; a
            // combinational victim is re-flipped after its level).
            faulty.copy_from_slice(nominal);
            for w in &mut faulty[vslot * wps..(vslot + 1) * wps] {
                *w = !*w;
            }
        } else {
            // Register outputs take the previous faulty frame's D;
            // inputs and constants keep nominal values.
            std::mem::swap(prev, faulty);
            faulty.copy_from_slice(nominal);
            for (i, &d) in plan.reg_d_slots.iter().enumerate() {
                faulty[i * wps..(i + 1) * wps].copy_from_slice(&prev[d * wps..(d + 1) * wps]);
            }
        }
        for l in 1..levels.num_levels() {
            let lr = levels.level_slots(l);
            let (lo_part, rest) = faulty.split_at_mut(lr.start * wps);
            let cur = &mut rest[..(lr.end - lr.start) * wps];
            eval_slots(plan, wps, 0, wps, lo_part, cur, lr.start);
            if f == 0 && l == vlevel {
                let off = (vslot - lr.start) * wps;
                for w in &mut cur[off..off + wps] {
                    *w = !*w;
                }
            }
        }
        for &po in &plan.output_slots {
            let fa = &faulty[po * wps..][..wps];
            let no = &nominal[po * wps..][..wps];
            for ((d, a), b) in detected.iter_mut().zip(fa).zip(no) {
                *d |= a ^ b;
            }
        }
        if f == frames - 1 {
            for &ds in &plan.reg_d_slots {
                let fa = &faulty[ds * wps..][..wps];
                let no = &nominal[ds * wps..][..wps];
                for ((d, a), b) in detected.iter_mut().zip(fa).zip(no) {
                    *d |= a ^ b;
                }
            }
        }
    }
    let ones = popcount_words(detected);
    ones as f64 / config.num_vectors as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{samples, CircuitBuilder};

    thread_local! {
        /// Breaker drill hook: when set, `compute_with_block` corrupts
        /// the audited level of the last frame on this thread.
        pub(super) static CORRUPT_AUDITED_LEVEL: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    #[test]
    fn po_drivers_fully_observable() {
        let mut b = CircuitBuilder::new("chain");
        b.input("a");
        b.gate("x", GateKind::Not, &["a"]).unwrap();
        b.gate("y", GateKind::Buf, &["x"]).unwrap();
        b.output("y").unwrap();
        let c = b.build().unwrap();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        let o = Observability::compute(&c, &t);
        assert_eq!(o.obs(c.find("y").unwrap()), 1.0);
        assert_eq!(o.obs(c.find("x").unwrap()), 1.0, "buffers pass everything");
        assert_eq!(o.obs(c.find("a").unwrap()), 1.0);
    }

    #[test]
    fn and_gate_masks_when_sibling_is_zero() {
        let mut b = CircuitBuilder::new("mask");
        b.input("a");
        b.constant("zero", false).unwrap();
        b.gate("x", GateKind::And, &["a", "zero"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        let o = Observability::compute(&c, &t);
        assert_eq!(o.obs(c.find("a").unwrap()), 0.0, "AND with 0 masks a");
        // Flipping the constant to 1 makes the AND transparent to `a`,
        // so the constant is observable exactly when a = 1 (≈ half the
        // vectors).
        let zero_obs = o.obs(c.find("zero").unwrap());
        assert!((0.4..0.6).contains(&zero_obs), "got {zero_obs}");
    }

    #[test]
    fn xor_gates_never_mask() {
        let mut b = CircuitBuilder::new("xor");
        b.input("a");
        b.input("bb");
        b.gate("x", GateKind::Xor, &["a", "bb"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        let o = Observability::compute(&c, &t);
        assert_eq!(o.obs(c.find("a").unwrap()), 1.0);
        assert_eq!(o.obs(c.find("bb").unwrap()), 1.0);
    }

    #[test]
    fn matches_exact_on_tree_circuit() {
        // Fanout-free cone: the composition rule is exact.
        let mut b = CircuitBuilder::new("tree");
        b.input("a");
        b.input("b2");
        b.input("c2");
        b.input("d2");
        b.gate("x", GateKind::And, &["a", "b2"]).unwrap();
        b.gate("y", GateKind::Or, &["c2", "d2"]).unwrap();
        b.gate("z", GateKind::Nand, &["x", "y"]).unwrap();
        b.output("z").unwrap();
        let c = b.build().unwrap();
        let cfg = SimConfig::small();
        let t = FrameTrace::simulate(&c, cfg);
        let o = Observability::compute(&c, &t);
        let exact = exact_fault_injection(&c, cfg);
        for (id, gate) in c.iter() {
            if gate.kind() == GateKind::Output {
                continue;
            }
            assert!(
                (o.obs(id) - exact[id.index()]).abs() < 1e-12,
                "{}: approx {} vs exact {}",
                gate.name(),
                o.obs(id),
                exact[id.index()]
            );
        }
    }

    #[test]
    fn close_to_exact_on_sequential_circuit() {
        let c = samples::s27_like();
        let cfg = SimConfig::small();
        let t = FrameTrace::simulate(&c, cfg);
        let o = Observability::compute(&c, &t);
        let exact = exact_fault_injection(&c, cfg);
        for (id, gate) in c.iter() {
            if gate.kind() == GateKind::Output {
                continue;
            }
            let diff = (o.obs(id) - exact[id.index()]).abs();
            assert!(
                diff <= 0.35,
                "{}: approx {} vs exact {} (reconvergence error too large)",
                gate.name(),
                o.obs(id),
                exact[id.index()]
            );
        }
        // And on average they should be close.
        let avg_diff: f64 = c
            .iter()
            .map(|(id, _)| (o.obs(id) - exact[id.index()]).abs())
            .sum::<f64>()
            / c.len() as f64;
        assert!(avg_diff < 0.12, "average deviation {avg_diff}");
    }

    #[test]
    fn single_frame_makes_register_drivers_observable() {
        // With n = 1 every register input is an observation point, so
        // every register's driving gate is fully observable.
        let c = samples::s27_like();
        let o = Observability::compute(
            &c,
            &FrameTrace::simulate(
                &c,
                SimConfig {
                    frames: 1,
                    ..SimConfig::small()
                },
            ),
        );
        for &q in c.registers() {
            let d = c.gate(q).fanins()[0];
            assert_eq!(o.obs(d), 1.0, "driver of {}", c.gate(q).name());
        }
    }

    #[test]
    fn dead_gate_has_zero_observability() {
        let mut b = CircuitBuilder::new("dead");
        b.input("a");
        b.gate("x", GateKind::Not, &["a"]).unwrap();
        b.gate("dead", GateKind::Not, &["a"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let t = FrameTrace::simulate(&c, SimConfig::small());
        let o = Observability::compute(&c, &t);
        assert_eq!(o.obs(c.find("dead").unwrap()), 0.0);
    }

    #[test]
    fn matches_scalar_observability_bit_for_bit() {
        for (name, c) in [
            ("s27", samples::s27_like()),
            ("fig1", samples::fig1_like()),
            ("pipeline", samples::pipeline(7, 2)),
        ] {
            let cfg = SimConfig::small();
            let trace = FrameTrace::simulate(&c, cfg);
            let o = Observability::compute(&c, &trace);
            let st = ScalarTrace::from_trace(&c, &trace);
            let (obs, frame0) = crate::scalar::observability(&c, &st);
            for (id, _) in c.iter() {
                assert_eq!(o.obs(id), obs[id.index()], "{name}: obs of {id}");
                assert_eq!(o.odc_mask(id), &frame0[id.index()], "{name}: mask of {id}");
            }
            assert!(o.engine().is_clean());
        }
    }

    #[test]
    fn tile_size_never_changes_results() {
        // 2048 vectors → 32 words per row, so small tiles genuinely
        // split rows. Every tile width must produce identical bits.
        let c = samples::fig1_like();
        let cfg = SimConfig {
            num_vectors: 2048,
            ..SimConfig::small()
        };
        let t = FrameTrace::simulate(&c, cfg);
        let base = Observability::compute_with_block(&c, &t, ODC_BLOCK_WORDS);
        for block in [1usize, 3, 16, 32, 1024] {
            let o = Observability::compute_with_block(&c, &t, block);
            assert!(o.engine().is_clean(), "block={block}");
            for (id, _) in c.iter() {
                assert_eq!(o.odc_mask(id), base.odc_mask(id), "block={block} {id}");
                assert_eq!(o.obs(id), base.obs(id), "block={block} {id}");
            }
        }
    }

    #[test]
    fn threaded_odc_is_bit_identical() {
        let c = samples::fig1_like();
        let base = Observability::compute(&c, &FrameTrace::simulate(&c, SimConfig::small()));
        for threads in [2, 7] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::small()
            };
            let o = Observability::compute(&c, &FrameTrace::simulate(&c, cfg));
            assert!(o.engine().is_clean(), "threads={threads}");
            assert!(o.engine().audited_layers > 0, "threads={threads}");
            for (id, _) in c.iter() {
                assert_eq!(o.obs(id), base.obs(id), "threads={threads}");
                assert_eq!(o.odc_mask(id), base.odc_mask(id), "threads={threads}");
            }
        }
    }

    #[test]
    fn sabotaged_odc_trips_breaker_and_falls_back() {
        // Breaker drill: the hook corrupts one word of the level the
        // last frame audits, after the debug differential has run. At
        // every tile width the audit must trip once, and the fallback
        // must equal the scalar engine bit for bit.
        let c = samples::fig1_like();
        let cfg = SimConfig {
            num_vectors: 2048,
            ..SimConfig::small()
        };
        let trace = FrameTrace::simulate(&c, cfg);
        let st = ScalarTrace::from_trace(&c, &trace);
        let (obs, frame0) = crate::scalar::observability(&c, &st);
        for block in [1, 3, 64, usize::MAX] {
            CORRUPT_AUDITED_LEVEL.with(|hook| hook.set(true));
            let o = Observability::compute_with_block(&c, &trace, block);
            CORRUPT_AUDITED_LEVEL.with(|hook| hook.set(false));
            assert_eq!(o.engine().trips, 1, "block={block}");
            assert!(o.engine().scalar_fallback, "block={block}");
            for (id, _) in c.iter() {
                assert_eq!(o.obs(id), obs[id.index()], "block={block} {id}");
                assert_eq!(o.odc_mask(id), &frame0[id.index()], "block={block} {id}");
            }
        }
        // Without the hook the same trace stays clean.
        assert!(Observability::compute(&c, &trace).engine().is_clean());
    }

    #[test]
    fn exact_injection_matches_scalar_reference() {
        for (name, c) in [("s27", samples::s27_like()), ("fig1", samples::fig1_like())] {
            let cfg = SimConfig::small();
            let arena = exact_fault_injection(&c, cfg);
            let scalar = crate::scalar::exact_fault_injection(&c, cfg);
            assert_eq!(arena, scalar, "{name}");
            // And threaded injection agrees too.
            let threaded = exact_fault_injection(&c, SimConfig { threads: 3, ..cfg });
            assert_eq!(threaded, scalar, "{name} threaded");
        }
    }
}
