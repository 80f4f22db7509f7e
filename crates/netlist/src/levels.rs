//! Circuit levelization: topological layers for data-parallel
//! evaluation.
//!
//! A *level* assigns every gate the length of its longest
//! combinational fanin chain: sources (primary inputs, register Q
//! outputs and constants) are level 0, and every other gate sits one
//! level above its deepest fanin. Gates within one level have no
//! dependencies on each other, so a simulator can evaluate a whole
//! level in parallel, level by level — and an ODC-style backward pass
//! can walk the levels in reverse with the same guarantee (a gate's
//! fanouts all sit on strictly higher levels, registers excepted).
//!
//! Besides the layers themselves, [`Levelization`] fixes a *slot
//! order*: a permutation of all gates in which every level occupies a
//! contiguous index range. Flat per-gate buffers laid out in slot
//! order can then hand each level out as one disjoint mutable slice
//! (`split_at_mut`) while earlier levels stay immutably readable —
//! safe-Rust data parallelism with no copying and no locks.
//!
//! Slot-order invariants (relied upon by `ser_engine`'s
//! `SignatureArena`; see the layout notes there):
//!
//! 1. Level 0 comes first, ordered **registers** (in
//!    [`Circuit::registers`] order), then **primary inputs** (in
//!    [`Circuit::inputs`] order), then **constants** (in id order).
//!    Registers therefore occupy slots `0..num_registers()`,
//!    contiguously.
//! 2. Levels `1..` follow in ascending order; within a level, gates
//!    are sorted by [`GateId`]. The order is a pure function of the
//!    circuit — no hash iteration, no scheduling dependence.
//!
//! [`Levelization::of`] builds it in O(|V| + |E|). One pass over
//! [`Circuit::topo_order`] sets every gate's level from its fanins'.
//! A counting sort then lays out the slots: one pass counts each
//! level's gates, a prefix sum turns the counts into the level
//! bounds, and a second pass drops each gate into its level's next
//! free slot — registers and inputs first, in their list orders, then
//! every other gate in id order, which yields both invariants. On the
//! 60k-gate, 1,304-level `generated_50k` fixture that takes about
//! 1 ms; a rescan of every gate per level took about 0.2 s.

use crate::circuit::Circuit;
use crate::gate::{GateId, GateKind};

/// Topological layers of a circuit plus the contiguous slot order
/// described in the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// All gates in slot order (level 0 first, then level 1, ...).
    order: Vec<GateId>,
    /// `bounds[l]..bounds[l + 1]` is level `l`'s slot range.
    bounds: Vec<usize>,
    /// Gate index → level.
    level_of: Vec<u32>,
    /// Gate index → slot (position in `order`).
    slot_of: Vec<usize>,
    /// Number of registers (slots `0..registers` are register slots).
    registers: usize,
}

impl Levelization {
    /// Computes the levelization of `circuit` in O(|V| + |E|): one
    /// topological pass for the levels, then the counting sort of the
    /// module docs for the slot order.
    pub fn of(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut level_of = vec![0u32; n];
        // topo_order lists every non-register gate after its
        // non-register fanins; registers are never in it, so they and
        // the other sources keep level 0.
        for &g in circuit.topo_order() {
            let gate = circuit.gate(g);
            if matches!(
                gate.kind(),
                GateKind::Input | GateKind::Const0 | GateKind::Const1
            ) {
                continue;
            }
            let deepest = gate.fanins().iter().map(|&f| level_of[f.index()]).max();
            level_of[g.index()] = deepest.unwrap_or(0) + 1;
        }
        let num_levels = level_of.iter().max().map_or(0, |&l| l as usize) + 1;

        // Counting sort. `bounds[l + 1]` first counts level `l`'s
        // gates, then the prefix sum turns the counts into slot ranges.
        let mut bounds = vec![0usize; num_levels + 1];
        bounds[1] = circuit.num_registers();
        for (id, gate) in circuit.iter() {
            if gate.kind() != GateKind::Dff {
                bounds[level_of[id.index()] as usize + 1] += 1;
            }
        }
        for l in 1..=num_levels {
            bounds[l] += bounds[l - 1];
        }
        debug_assert_eq!(bounds[num_levels], n, "every gate gets exactly one slot");

        // Drop each gate into its level's next free slot: registers,
        // then inputs, in their list orders, then every other gate in
        // id order — so constants close level 0 and each later level
        // comes out sorted by id.
        let mut next = bounds[..num_levels].to_vec();
        let mut order = vec![GateId::new(0); n];
        let mut slot_of = vec![0usize; n];
        let mut place = |g: GateId, level: usize| {
            let slot = next[level];
            next[level] += 1;
            order[slot] = g;
            slot_of[g.index()] = slot;
        };
        for &g in circuit.registers().iter().chain(circuit.inputs()) {
            place(g, 0);
        }
        for (id, gate) in circuit.iter() {
            if !matches!(gate.kind(), GateKind::Dff | GateKind::Input) {
                place(id, level_of[id.index()] as usize);
            }
        }

        Self {
            order,
            bounds,
            level_of,
            slot_of,
            registers: circuit.num_registers(),
        }
    }

    /// Number of levels (≥ 1; level 0 is the source level).
    pub fn num_levels(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of gates (= number of slots).
    pub fn num_gates(&self) -> usize {
        self.order.len()
    }

    /// Number of register slots (slots `0..num_registers()`).
    pub fn num_registers(&self) -> usize {
        self.registers
    }

    /// The slot range of level `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_levels()`.
    pub fn level_slots(&self, l: usize) -> std::ops::Range<usize> {
        self.bounds[l]..self.bounds[l + 1]
    }

    /// The gates of level `l`, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_levels()`.
    pub fn level(&self, l: usize) -> &[GateId] {
        &self.order[self.level_slots(l)]
    }

    /// The level of a gate (0 for registers, inputs and constants).
    pub fn level_of(&self, gate: GateId) -> usize {
        self.level_of[gate.index()] as usize
    }

    /// The slot of a gate.
    pub fn slot_of(&self, gate: GateId) -> usize {
        self.slot_of[gate.index()]
    }

    /// The gate occupying a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= num_gates()`.
    pub fn gate_at(&self, slot: usize) -> GateId {
        self.order[slot]
    }
}

impl Circuit {
    /// Computes this circuit's [`Levelization`] (O(|V| + |E|), see
    /// [`Levelization::of`]; not cached — callers that need it
    /// repeatedly should hold on to it).
    pub fn levelize(&self) -> Levelization {
        Levelization::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::generator::GeneratorConfig;
    use crate::samples;
    use proptest::prelude::*;

    /// The per-level rescan the counting sort replaced, kept as its
    /// oracle: O(L·|V|), one pass over every gate per level.
    fn rescan(circuit: &Circuit) -> Levelization {
        let n = circuit.len();
        let mut level_of = vec![0u32; n];
        for &g in circuit.topo_order() {
            let gate = circuit.gate(g);
            if matches!(
                gate.kind(),
                GateKind::Input | GateKind::Const0 | GateKind::Const1
            ) {
                continue;
            }
            let lvl = gate
                .fanins()
                .iter()
                .map(|&f| {
                    if circuit.gate(f).kind() == GateKind::Dff {
                        0
                    } else {
                        level_of[f.index()]
                    }
                })
                .max()
                .unwrap_or(0)
                + 1;
            level_of[g.index()] = lvl;
        }
        let num_levels = level_of
            .iter()
            .enumerate()
            .filter(|&(i, _)| circuit.gate(GateId::new(i)).kind() != GateKind::Dff)
            .map(|(_, &l)| l as usize)
            .max()
            .unwrap_or(0)
            + 1;
        let mut order = Vec::with_capacity(n);
        let mut bounds = vec![0];
        order.extend_from_slice(circuit.registers());
        order.extend_from_slice(circuit.inputs());
        for (id, gate) in circuit.iter() {
            if matches!(gate.kind(), GateKind::Const0 | GateKind::Const1) {
                order.push(id);
            }
        }
        bounds.push(order.len());
        for lvl in 1..num_levels as u32 {
            for (id, gate) in circuit.iter() {
                if gate.kind() != GateKind::Dff && level_of[id.index()] == lvl {
                    order.push(id);
                }
            }
            bounds.push(order.len());
        }
        assert_eq!(order.len(), n, "every gate gets exactly one slot");
        let mut slot_of = vec![0usize; n];
        for (slot, &g) in order.iter().enumerate() {
            slot_of[g.index()] = slot;
        }
        Levelization {
            order,
            bounds,
            level_of,
            slot_of,
            registers: circuit.num_registers(),
        }
    }

    fn assert_matches_rescan(circuit: &Circuit) {
        assert_eq!(
            Levelization::of(circuit),
            rescan(circuit),
            "{}",
            circuit.name()
        );
    }

    fn build(name: &str, add: impl FnOnce(&mut CircuitBuilder)) -> Circuit {
        let mut b = CircuitBuilder::new(name);
        add(&mut b);
        b.build().unwrap()
    }

    #[test]
    fn counting_sort_matches_the_rescan_on_the_samples() {
        for c in [
            samples::s27_like(),
            samples::fig1_like(),
            samples::two_stage_loop(),
            samples::pipeline(9, 3),
            samples::pipeline(24, 4),
        ] {
            assert_matches_rescan(&c);
        }
    }

    #[test]
    fn counting_sort_matches_the_rescan_on_edge_shapes() {
        // No combinational gate: level 0 is the whole circuit.
        let sources = build("sources", |b| {
            b.input("a");
            b.input("b");
            b.dff("q", "a").unwrap();
        });
        assert_eq!(sources.levelize().num_levels(), 1);
        assert_matches_rescan(&sources);

        let constants = build("constants", |b| {
            b.constant("one", true).unwrap();
            b.constant("zero", false).unwrap();
        });
        assert_eq!(constants.levelize().num_levels(), 1);
        assert_matches_rescan(&constants);

        // Registers feeding registers, declared out of id order, with
        // a constant declared between the inputs.
        let shift = build("shift", |b| {
            b.dff("q3", "q2").unwrap();
            b.input("a");
            b.constant("one", true).unwrap();
            b.dff("q1", "a").unwrap();
            b.dff("q2", "q1").unwrap();
            b.input("c");
            b.gate("x", GateKind::And, &["q3", "one"]).unwrap();
            b.gate("y", GateKind::Or, &["x", "c"]).unwrap();
            b.output("y").unwrap();
        });
        assert_matches_rescan(&shift);

        // An inverter chain thousands of levels deep.
        let depth = 3000;
        let chain = build("chain", |b| {
            b.input("x0");
            for i in 1..=depth {
                b.gate(&format!("x{i}"), GateKind::Not, &[&format!("x{}", i - 1)])
                    .unwrap();
            }
            b.output(&format!("x{depth}")).unwrap();
        });
        assert_eq!(chain.levelize().num_levels(), depth + 2);
        assert_matches_rescan(&chain);
    }

    proptest! {
        #[test]
        fn counting_sort_matches_the_rescan_on_generated_circuits(
            seed in 0u64..1_000_000,
            gates in 12usize..2000,
            registers in 0usize..200,
        ) {
            let c = GeneratorConfig::new("levels", seed)
                .gates(gates)
                .registers(registers.min(gates / 2))
                .target_edges(gates * 11 / 5)
                .build();
            assert_matches_rescan(&c);
        }
    }

    #[test]
    fn sources_are_level_zero_and_ordered() {
        let c = samples::s27_like();
        let lv = c.levelize();
        // Slot order starts with registers, then inputs.
        for (i, &q) in c.registers().iter().enumerate() {
            assert_eq!(lv.slot_of(q), i);
            assert_eq!(lv.level_of(q), 0);
        }
        for (i, &pi) in c.inputs().iter().enumerate() {
            assert_eq!(lv.slot_of(pi), c.num_registers() + i);
            assert_eq!(lv.level_of(pi), 0);
        }
        assert_eq!(lv.num_registers(), c.num_registers());
    }

    #[test]
    fn fanins_sit_on_strictly_lower_levels() {
        let c = samples::s27_like();
        let lv = c.levelize();
        for (id, gate) in c.iter() {
            if gate.kind() == GateKind::Dff {
                continue;
            }
            for &f in gate.fanins() {
                assert!(
                    lv.level_of(f) < lv.level_of(id) || lv.level_of(id) == 0,
                    "{f} must be below {id}"
                );
                // Slot order refines level order for non-source gates.
                if lv.level_of(id) > 0 {
                    assert!(lv.slot_of(f) < lv.slot_of(id));
                }
            }
        }
    }

    #[test]
    fn levels_partition_all_gates() {
        let c = samples::fig1_like();
        let lv = c.levelize();
        let total: usize = (0..lv.num_levels()).map(|l| lv.level(l).len()).sum();
        assert_eq!(total, c.len());
        let mut seen = vec![false; c.len()];
        for l in 0..lv.num_levels() {
            for &g in lv.level(l) {
                assert!(!seen[g.index()], "{g} appears twice");
                seen[g.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn slot_round_trip() {
        let c = samples::s27_like();
        let lv = c.levelize();
        for (id, _) in c.iter() {
            assert_eq!(lv.gate_at(lv.slot_of(id)), id);
        }
    }

    #[test]
    fn chain_depth_matches_levels() {
        let mut b = CircuitBuilder::new("chain");
        b.input("a");
        b.gate("x1", GateKind::Not, &["a"]).unwrap();
        b.gate("x2", GateKind::Not, &["x1"]).unwrap();
        b.gate("x3", GateKind::Not, &["x2"]).unwrap();
        b.output("x3").unwrap();
        let c = b.build().unwrap();
        let lv = c.levelize();
        assert_eq!(lv.level_of(c.find("a").unwrap()), 0);
        assert_eq!(lv.level_of(c.find("x1").unwrap()), 1);
        assert_eq!(lv.level_of(c.find("x2").unwrap()), 2);
        assert_eq!(lv.level_of(c.find("x3").unwrap()), 3);
        // The marker observes x3 one level further down.
        assert_eq!(lv.num_levels(), 5);
    }

    #[test]
    fn constants_are_sources() {
        let mut b = CircuitBuilder::new("c");
        b.input("a");
        b.constant("one", true).unwrap();
        b.gate("x", GateKind::And, &["a", "one"]).unwrap();
        b.output("x").unwrap();
        let c = b.build().unwrap();
        let lv = c.levelize();
        assert_eq!(lv.level_of(c.find("one").unwrap()), 0);
        assert_eq!(lv.level_of(c.find("x").unwrap()), 1);
    }
}
