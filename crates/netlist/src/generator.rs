//! Deterministic synthetic sequential-circuit generation.
//!
//! The paper evaluates on ISCAS89/ITC99 netlists obtained privately from
//! the authors of the iMinArea paper; those files are not redistributable
//! here, so this module generates *twins*: random sequential circuits
//! with the same vertex/edge/register statistics (see
//! [`table1_twins`]). Generation is fully deterministic in the seed
//! (see [`crate::rng`]).

use crate::circuit::{Circuit, CircuitBuilder};
use crate::gate::GateKind;
use crate::rng::Xoshiro256;

/// Parameters for random sequential circuit generation.
///
/// # Examples
///
/// ```
/// use netlist::generator::GeneratorConfig;
/// let circuit = GeneratorConfig::new("demo", 42)
///     .gates(200)
///     .registers(40)
///     .inputs(8)
///     .outputs(8)
///     .target_edges(440)
///     .build();
/// assert_eq!(circuit.num_registers(), 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    name: String,
    seed: u64,
    num_inputs: usize,
    num_outputs: usize,
    num_gates: usize,
    num_registers: usize,
    target_edges: usize,
    max_fanin: usize,
    xor_fraction: f64,
}

impl GeneratorConfig {
    /// Starts a configuration with sensible small defaults.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            num_inputs: 8,
            num_outputs: 8,
            num_gates: 100,
            num_registers: 16,
            target_edges: 220,
            max_fanin: 5,
            xor_fraction: 0.05,
        }
    }

    /// Sets the number of primary inputs (at least 1).
    pub fn inputs(mut self, n: usize) -> Self {
        self.num_inputs = n.max(1);
        self
    }

    /// Sets the number of primary outputs (at least 1).
    pub fn outputs(mut self, n: usize) -> Self {
        self.num_outputs = n.max(1);
        self
    }

    /// Sets the number of logic gates (at least 2).
    pub fn gates(mut self, n: usize) -> Self {
        self.num_gates = n.max(2);
        self
    }

    /// Sets the number of registers (may be 0 for a combinational-only
    /// circuit).
    pub fn registers(mut self, n: usize) -> Self {
        self.num_registers = n;
        self
    }

    /// Sets the target total number of fanin references of logic gates;
    /// the paper's `|E|` column is matched through this knob.
    pub fn target_edges(mut self, n: usize) -> Self {
        self.target_edges = n;
        self
    }

    /// Sets the maximum fanin of generated gates.
    pub fn max_fanin(mut self, n: usize) -> Self {
        self.max_fanin = n.max(1);
        self
    }

    /// Fraction of multi-input gates that are XOR/XNOR (slow gates; they
    /// stress the ELW machinery).
    pub fn xor_fraction(mut self, f: f64) -> Self {
        self.xor_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Generates the circuit.
    ///
    /// Structure: a layered random DAG of logic gates whose fanins are
    /// drawn from primary inputs, register outputs and earlier gates
    /// (guaranteeing combinational acyclicity); every register's D input
    /// is drawn from the later half of the gate list, creating the long
    /// feedback loops that make retiming interesting.
    ///
    /// # Panics
    ///
    /// Never panics for configurations produced through the builder
    /// methods (they clamp their arguments).
    pub fn build(&self) -> Circuit {
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut b = CircuitBuilder::new(self.name.clone());

        let pi_names: Vec<String> = (0..self.num_inputs).map(|i| format!("pi{i}")).collect();
        for n in &pi_names {
            b.input(n);
        }
        // Registers split two ways, as in synthesized netlists: deep
        // feedback registers (q*) and inline pipeline registers wrapped
        // around gate fanins (qr*) — the pattern retiming collapses
        // (parallel input registers merge into one output register).
        let feedback_regs = if self.num_registers == 0 {
            0
        } else {
            (self.num_registers * 2 / 5).max(1)
        };
        let mut inline_budget = self.num_registers - feedback_regs;
        let mut inline_counter = 0usize;
        let reg_names: Vec<String> = (0..feedback_regs).map(|i| format!("q{i}")).collect();
        let gate_names: Vec<String> = (0..self.num_gates).map(|i| format!("n{i}")).collect();

        // Candidate fanin pool grows as gates are emitted. Track use
        // counts so we can bias toward unused signals and avoid dangles.
        let mut pool: Vec<String> = pi_names.clone();
        pool.extend(reg_names.iter().cloned());
        let mut use_count: Vec<usize> = vec![0; pool.len()];
        // Gates that drive nothing yet; consumed eagerly so that almost
        // every gate ends up observed (dead logic would trivialize the
        // SER comparison).
        let mut undriven: Vec<usize> = Vec::new();

        let mut remaining_edges = self.target_edges.max(self.num_gates) as f64;
        for (i, gname) in gate_names.iter().enumerate() {
            let remaining_gates = (self.num_gates - i) as f64;
            let avg = (remaining_edges / remaining_gates).max(1.0);
            let base = avg.floor() as usize;
            let fanin_count = (base + usize::from(rng.gen_bool(avg - base as f64)))
                .clamp(1, self.max_fanin.min(pool.len()));
            remaining_edges -= fanin_count as f64;

            let mut fanins: Vec<usize> = Vec::with_capacity(fanin_count);
            for k in 0..fanin_count {
                // First fanin of the first gates: round-robin over the
                // PIs and register outputs so that every source drives
                // something. Afterwards, preferentially consume a gate
                // nothing reads yet; fall back to a window favouring
                // recent gates (locality, like real netlists).
                let sources = self.num_inputs + feedback_regs;
                let idx = if k == 0 && i < sources {
                    i
                } else if k == 0 {
                    pop_undriven(&mut undriven, &use_count, &mut rng)
                        .unwrap_or_else(|| random_local(pool.len(), &mut rng))
                } else {
                    random_local(pool.len(), &mut rng)
                };
                if !fanins.contains(&idx) {
                    fanins.push(idx);
                }
            }
            // Spend the inline register budget: with the remaining
            // budget spread over the remaining fanin slots, wrap this
            // gate's fanins in fresh pipeline registers (all of them,
            // so the group is retiming-collapsible), but never the
            // round-robin coverage fanin of the first gates.
            let slots_left = remaining_edges.max(1.0) + fanin_count as f64;
            let wrap = inline_budget >= fanins.len()
                && fanins.len() >= 2
                && i >= self.num_inputs + feedback_regs
                && rng.gen_bool((inline_budget as f64 / slots_left).min(0.9));
            let fanin_refs: Vec<String> = if wrap {
                fanins
                    .iter()
                    .map(|&idx| {
                        let reg = format!("qr{inline_counter}");
                        inline_counter += 1;
                        inline_budget -= 1;
                        b.dff(&reg, &pool[idx]).expect("unique register name");
                        reg
                    })
                    .collect()
            } else {
                fanins.iter().map(|&idx| pool[idx].clone()).collect()
            };
            let fanin_refs: Vec<&str> = fanin_refs.iter().map(String::as_str).collect();
            let kind = self.pick_kind(fanin_refs.len(), &mut rng);
            b.gate(gname, kind, &fanin_refs)
                .expect("generated names are unique");
            for &i in &fanins {
                use_count[i] += 1;
            }
            undriven.push(pool.len());
            pool.push(gname.clone());
            use_count.push(0);
        }

        // Feedback registers: D inputs from the later half of the gates
        // (deep feedback), distinct where possible.
        let lo = self.num_gates / 2;
        for rname in &reg_names {
            let pick = lo + rng.gen_range(self.num_gates - lo);
            b.dff(rname, &gate_names[pick])
                .expect("unique register name");
        }
        // Leftover inline budget (e.g. tiny circuits): burn it as a
        // register chain on the last gate so the configured count
        // holds; observe the chain end so nothing dangles.
        let mut prev = gate_names.last().expect("at least one gate").clone();
        let burn_chain = inline_budget > 0;
        while inline_budget > 0 {
            let reg = format!("qr{inline_counter}");
            inline_counter += 1;
            inline_budget -= 1;
            b.dff(&reg, &prev).expect("unique register name");
            prev = reg;
        }
        if burn_chain {
            b.gate("qr_tail", GateKind::Buf, &[prev.as_str()])
                .expect("unique name");
            b.output("qr_tail").expect("distinct output");
        }

        // Outputs: prefer gates that drive nothing yet.
        let gate_base = self.num_inputs + feedback_regs;
        let mut dangling: Vec<usize> = (0..self.num_gates)
            .filter(|&i| use_count[gate_base + i] == 0)
            .collect();
        rng.shuffle(&mut dangling);
        let mut chosen: Vec<usize> = dangling.iter().copied().take(self.num_outputs).collect();
        // Outputs are distinct gates, so there can be no more than the
        // gates there are.
        while chosen.len() < self.num_outputs.min(self.num_gates) {
            let pick = rng.gen_range(self.num_gates);
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        // Any remaining dangling gates also become outputs so that no
        // logic is observably dead (dead logic has zero observability
        // and would make the SER comparison trivially easy).
        for &d in &dangling {
            if !chosen.contains(&d) {
                chosen.push(d);
            }
        }
        for &g in &chosen {
            b.output(&gate_names[g]).expect("distinct outputs");
        }

        b.build()
            .expect("generator invariants guarantee a valid circuit")
    }

    fn pick_kind(&self, fanins: usize, rng: &mut Xoshiro256) -> GateKind {
        if fanins == 1 {
            return if rng.gen_bool(0.7) {
                GateKind::Not
            } else {
                GateKind::Buf
            };
        }
        if rng.gen_bool(self.xor_fraction) {
            return if rng.gen_bool(0.5) {
                GateKind::Xor
            } else {
                GateKind::Xnor
            };
        }
        match rng.gen_range(4) {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            _ => GateKind::Nor,
        }
    }
}

/// Pops a still-undriven pool index, lazily skipping entries that were
/// driven since they were pushed. Amortized O(1).
fn pop_undriven(
    undriven: &mut Vec<usize>,
    use_count: &[usize],
    rng: &mut Xoshiro256,
) -> Option<usize> {
    while !undriven.is_empty() {
        let slot = rng.gen_range(undriven.len());
        let idx = undriven.swap_remove(slot);
        if use_count[idx] == 0 {
            return Some(idx);
        }
    }
    None
}

fn random_local(len: usize, rng: &mut Xoshiro256) -> usize {
    // 70%: among the most recent quarter; 30%: anywhere.
    if len >= 8 && rng.gen_bool(0.7) {
        let window = (len / 4).max(1);
        len - 1 - rng.gen_range(window)
    } else {
        rng.gen_range(len)
    }
}

/// Statistics row of the paper's Table I used to synthesize a twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Circuit name as printed in the paper.
    pub name: &'static str,
    /// `|V|`: combinational vertices of the retiming graph.
    pub v: usize,
    /// `|E|`: edges of the retiming graph.
    pub e: usize,
    /// `#FF`: registers in the original circuit.
    pub ff: usize,
}

/// The statistics columns of Table I for all 21 circuits.
pub const TABLE1_ROWS: [Table1Row; 21] = [
    Table1Row {
        name: "s13207",
        v: 7952,
        e: 10896,
        ff: 1508,
    },
    Table1Row {
        name: "s15850.1",
        v: 9773,
        e: 13566,
        ff: 1567,
    },
    Table1Row {
        name: "s35932",
        v: 16066,
        e: 28588,
        ff: 5814,
    },
    Table1Row {
        name: "s38417",
        v: 22180,
        e: 31127,
        ff: 2806,
    },
    Table1Row {
        name: "s38584.1",
        v: 19254,
        e: 33060,
        ff: 7371,
    },
    Table1Row {
        name: "b14_1_opt",
        v: 4049,
        e: 9036,
        ff: 2382,
    },
    Table1Row {
        name: "b14_opt",
        v: 5348,
        e: 11849,
        ff: 2041,
    },
    Table1Row {
        name: "b15_1_opt",
        v: 7421,
        e: 16946,
        ff: 2798,
    },
    Table1Row {
        name: "b15_opt",
        v: 7023,
        e: 15856,
        ff: 2415,
    },
    Table1Row {
        name: "b17_1_opt",
        v: 23026,
        e: 52376,
        ff: 8791,
    },
    Table1Row {
        name: "b17_opt",
        v: 22758,
        e: 51622,
        ff: 7787,
    },
    Table1Row {
        name: "b18_1_opt",
        v: 68282,
        e: 151746,
        ff: 21027,
    },
    Table1Row {
        name: "b18_opt",
        v: 69914,
        e: 155355,
        ff: 20907,
    },
    Table1Row {
        name: "b19_1",
        v: 212729,
        e: 410577,
        ff: 59580,
    },
    Table1Row {
        name: "b19",
        v: 224625,
        e: 433583,
        ff: 60801,
    },
    Table1Row {
        name: "b20_1_opt",
        v: 10166,
        e: 22456,
        ff: 3462,
    },
    Table1Row {
        name: "b20_opt",
        v: 11958,
        e: 26479,
        ff: 4761,
    },
    Table1Row {
        name: "b21_1_opt",
        v: 9663,
        e: 21246,
        ff: 2451,
    },
    Table1Row {
        name: "b21_opt",
        v: 12135,
        e: 26686,
        ff: 4186,
    },
    Table1Row {
        name: "b22_1_opt",
        v: 14957,
        e: 32663,
        ff: 4398,
    },
    Table1Row {
        name: "b22_opt",
        v: 17330,
        e: 37941,
        ff: 5556,
    },
];

/// Builds the synthetic twin of one Table I circuit, scaled down by
/// `scale` (1 = full size). The twin matches `|V|/scale`, `|E|/scale`
/// and `#FF/scale` up to rounding and generator granularity.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn table1_twin(row: &Table1Row, scale: usize) -> Circuit {
    assert!(scale > 0, "scale must be positive");
    let v = (row.v / scale).max(16);
    let e = (row.e / scale).max(v + 8);
    let ff = (row.ff / scale).max(2);
    // I/O counts in the ISCAS/ITC suites are tiny compared to |V|.
    let pis = (v / 200).clamp(4, 64);
    let pos = (v / 200).clamp(4, 64);
    let gates = v.saturating_sub(pis + pos).max(8);
    let mut seed = 0xD47E_2013u64;
    for byte in row.name.bytes() {
        seed = seed.wrapping_mul(131).wrapping_add(byte as u64);
    }
    let mut c = GeneratorConfig::new(format!("{}_twin", row.name), seed)
        .inputs(pis)
        .outputs(pos)
        .gates(gates)
        .registers(ff)
        .target_edges(e.saturating_sub(pos))
        .max_fanin(6)
        .build();
    if scale != 1 {
        let name = format!("{}_twin_s{}", row.name, scale);
        c.set_name(name);
    }
    c
}

/// Builds twins of all 21 Table I circuits at the given scale.
pub fn table1_twins(scale: usize) -> Vec<Circuit> {
    TABLE1_ROWS.iter().map(|r| table1_twin(r, scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CircuitStats;

    #[test]
    fn deterministic_for_same_seed() {
        let a = GeneratorConfig::new("d", 7)
            .gates(150)
            .registers(20)
            .build();
        let b = GeneratorConfig::new("d", 7)
            .gates(150)
            .registers(20)
            .build();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratorConfig::new("d", 7)
            .gates(150)
            .registers(20)
            .build();
        let b = GeneratorConfig::new("d", 8)
            .gates(150)
            .registers(20)
            .build();
        assert_ne!(a, b);
    }

    #[test]
    fn respects_counts() {
        let c = GeneratorConfig::new("c", 3)
            .inputs(10)
            .outputs(6)
            .gates(300)
            .registers(45)
            .build();
        assert_eq!(c.inputs().len(), 10);
        assert!(c.outputs().len() >= 6, "dangles may add outputs");
        assert_eq!(c.num_registers(), 45);
    }

    #[test]
    fn more_outputs_than_gates_terminates() {
        for g in 2..=12 {
            let c = GeneratorConfig::new("tiny", g as u64)
                .gates(g)
                .outputs(12)
                .build();
            assert!(c.outputs().len() >= g.min(12), "{g} gates");
        }
    }

    #[test]
    fn no_dead_logic() {
        let c = GeneratorConfig::new("c", 9)
            .gates(200)
            .registers(30)
            .build();
        for (id, gate) in c.iter() {
            if gate.kind() == GateKind::Output {
                continue;
            }
            assert!(
                !c.fanouts(id).is_empty(),
                "gate {} ({}) drives nothing",
                gate.name(),
                gate.kind()
            );
        }
    }

    #[test]
    fn edge_target_roughly_met() {
        let target = 800;
        let c = GeneratorConfig::new("c", 5)
            .gates(400)
            .registers(50)
            .target_edges(target)
            .build();
        let stats = CircuitStats::of(&c);
        // Logic-gate fanin references; duplicates are dropped by the
        // generator so allow 15% slack below, plus PO marker edges above.
        assert!(
            stats.edges >= target * 85 / 100
                && stats.edges <= target + c.outputs().len() + c.num_registers(),
            "edges = {} vs target {}",
            stats.edges,
            target
        );
    }

    #[test]
    fn twin_sizes_track_table() {
        let row = &TABLE1_ROWS[5]; // b14_1_opt, smallest
        let c = table1_twin(row, 4);
        let comb = c.num_combinational();
        let want = row.v / 4;
        assert!(
            (comb as i64 - want as i64).unsigned_abs() as usize <= want / 5 + 64,
            "comb {} vs want {}",
            comb,
            want
        );
        assert_eq!(c.num_registers(), row.ff / 4);
    }

    #[test]
    fn twin_names() {
        let row = &TABLE1_ROWS[0];
        assert_eq!(table1_twin(row, 1).name(), "s13207_twin");
        assert_eq!(table1_twin(row, 8).name(), "s13207_twin_s8");
    }

    #[test]
    fn all_rows_parse_small_scale() {
        // Scale far down so the whole suite builds fast in tests.
        for row in TABLE1_ROWS.iter() {
            let c = table1_twin(row, 64);
            assert!(c.num_registers() >= 2, "{}", row.name);
            assert!(c.num_combinational() >= 16, "{}", row.name);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        table1_twin(&TABLE1_ROWS[0], 0);
    }
}
