//! Benchmark of the solver on sample and generated circuits: one timed
//! solve per circuit, with its answers, work counters and per-phase
//! nanos. Shared by the `retimer bench-solve` subcommand and the
//! `retiming` criterion bench; the JSON it emits (`BENCH_solver.json`)
//! is the tracked baseline.

use std::fmt::Write as _;
use std::time::Instant;

use minobswin::algorithm::SolverStats;
use minobswin::init::InitConfig;
use minobswin::{Problem, SolveBudget, SolveError, SolverSession, Supervision};
use netlist::generator::GeneratorConfig;
use netlist::rng::Xoshiro256;
use netlist::{samples, Circuit, DelayModel};
use retime::{ElwParams, RetimeGraph, Retiming};

/// A prepared solver instance: graph, problem and a feasible start.
pub struct BenchInstance {
    /// Display name of the circuit.
    pub name: String,
    /// The retiming graph.
    pub graph: RetimeGraph,
    /// The MinObsWin instance over it.
    pub problem: Problem,
    /// The §V starting retiming.
    pub initial: Retiming,
    /// The §V initialization that produced it.
    pub init: InitRun,
}

/// One timed §V initialization (`InitConfig::initialize`): its answers,
/// which CI requires to stay unchanged, and its wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct InitRun {
    /// The relaxed clock period `Φ`.
    pub phi: i64,
    /// The ELW lower bound `R_min`.
    pub r_min: i64,
    /// Whether the setup+hold retiming succeeded (`false`: fallback).
    pub used_setup_hold: bool,
    /// Wall-clock seconds of the initialization, the fastest of three
    /// runs.
    pub seconds: f64,
}

/// Builds an instance from a circuit: a timed §V initialization plus
/// synthetic observability counts (the solver only sees the `b`
/// coefficients, so no simulation is needed for a solver benchmark).
/// The initialization runs three times and the fastest run is its time:
/// one sample of a ~0.1 s init is too noisy for the bench gate's >2x
/// rule.
///
/// # Errors
///
/// Propagates graph-construction and initialization failures.
pub fn prepare(name: &str, circuit: &Circuit) -> Result<BenchInstance, SolveError> {
    let graph = RetimeGraph::from_circuit(circuit, &DelayModel::default())?;
    let t0 = Instant::now();
    let init = InitConfig::default().initialize(&graph)?;
    let mut seconds = t0.elapsed().as_secs_f64();
    for _ in 0..2 {
        let t0 = Instant::now();
        InitConfig::default().initialize(&graph)?;
        seconds = seconds.min(t0.elapsed().as_secs_f64());
    }
    let init_run = InitRun {
        phi: init.phi,
        r_min: init.r_min,
        used_setup_hold: init.used_setup_hold,
        seconds,
    };
    let params = ElwParams::with_phi(init.phi);
    let mut rng = Xoshiro256::seed_from_u64(7);
    let counts: Vec<i64> = (0..graph.num_vertices())
        .map(|i| {
            if i == 0 {
                1024
            } else {
                rng.gen_range(1025) as i64
            }
        })
        .collect();
    let problem = Problem::from_observability_counts(&graph, &counts, params, init.r_min);
    Ok(BenchInstance {
        name: name.to_string(),
        graph,
        problem,
        initial: init.retiming,
        init: init_run,
    })
}

/// The repo's sample circuits, sized well below the generated set.
pub fn sample_instances() -> Vec<BenchInstance> {
    [
        ("pipeline_24x4", samples::pipeline(24, 4)),
        ("s27_like", samples::s27_like()),
        ("two_stage_loop", samples::two_stage_loop()),
    ]
    .into_iter()
    .filter_map(|(name, c)| prepare(name, &c).ok())
    .collect()
}

/// A generated circuit of roughly `gates` gates.
///
/// # Errors
///
/// See [`prepare`].
pub fn generated_instance(gates: usize) -> Result<BenchInstance, SolveError> {
    let circuit = generated_circuit(gates);
    prepare(
        &format!("generated_{}", crate::gates_label(gates)),
        &circuit,
    )
}

/// The deterministic generated circuit behind [`generated_instance`]
/// (and the same recipe the SER benchmark and the committed
/// `generated_10k` fixture use): ~`gates` gates over a `gates/5`
/// register file at fanin density 2.2.
pub fn generated_circuit(gates: usize) -> Circuit {
    GeneratorConfig::new("bench", gates as u64)
        .gates(gates)
        .registers(gates / 5)
        .inputs(12)
        .outputs(12)
        .target_edges(gates * 22 / 10)
        .build()
}

/// One measured solver run.
#[derive(Clone)]
pub struct EngineRun {
    /// Wall-clock seconds inside the solver.
    pub solve_seconds: f64,
    /// The objective gain.
    pub objective_gain: i64,
    /// Full run counters, including [`SolverStats::perf`].
    pub stats: SolverStats,
}

/// The solver run over one instance.
#[derive(Clone)]
pub struct BenchRecord {
    /// Circuit name.
    pub name: String,
    /// Retiming-graph vertices (including the host).
    pub vertices: usize,
    /// Retiming-graph edges.
    pub edges: usize,
    /// The §V initialization the run starts from.
    pub init: InitRun,
    /// The MinObsWin solve (the default configuration).
    pub solve: EngineRun,
    /// Whether the run was truncated by the solve budget. Degraded
    /// rows are not comparable to converged ones: their counters
    /// reflect wherever the budget happened to stop, so CI diff
    /// scripts must never compare a degraded row against a converged
    /// baseline (or vice versa).
    pub degraded: bool,
}

/// Runs the solver over one instance under `budget`'s limits, with a
/// fresh cancellation token, so one row's deadline expiry never
/// cancels the next row's run.
///
/// # Errors
///
/// Propagates solver failures (the prepared start is feasible, so this
/// indicates a bug).
pub fn measure_with_budget(
    instance: &BenchInstance,
    budget: &SolveBudget,
) -> Result<BenchRecord, SolveError> {
    let per_run = SolveBudget::new()
        .with_wall_time(budget.wall_time)
        .with_max_iterations(budget.max_iterations)
        .with_max_memory_estimate(budget.max_memory_estimate);
    let t0 = Instant::now();
    let solution = SolverSession::new(&instance.graph, &instance.problem)
        .initial(instance.initial.clone())
        .run_supervised(Supervision::new().budget(per_run))?
        .into_solution();
    let solve = EngineRun {
        solve_seconds: t0.elapsed().as_secs_f64(),
        objective_gain: solution.objective_gain,
        stats: solution.stats,
    };
    Ok(BenchRecord {
        name: instance.name.clone(),
        vertices: instance.graph.num_vertices(),
        edges: instance.graph.num_edges(),
        init: instance.init,
        degraded: solve.stats.degradation.budget_stop.is_some(),
        solve,
    })
}

fn push_engine(out: &mut String, indent: &str, label: &str, run: &EngineRun) {
    let s = &run.stats;
    let p = &s.perf;
    let _ = write!(
        out,
        "{indent}\"{label}\": {{\n\
         {indent}  \"solve_seconds\": {:.6},\n\
         {indent}  \"objective_gain\": {},\n\
         {indent}  \"commits\": {},\n\
         {indent}  \"iterations\": {},\n\
         {indent}  \"checks\": {},\n\
         {indent}  \"check_nanos\": {},\n\
         {indent}  \"closure_nanos\": {},\n\
         {indent}  \"closure_calls\": {},\n\
         {indent}  \"closure_arcs_touched\": {},\n\
         {indent}  \"arcs_per_closure\": {:.3},\n\
         {indent}  \"closure_warm_nanos\": {},\n\
         {indent}  \"certificate_nanos\": {},\n\
         {indent}  \"closure_skips\": {},\n\
         {indent}  \"violations_batched\": {},\n\
         {indent}  \"attribute_nanos\": {},\n\
         {indent}  \"commit_nanos\": {},\n\
         {indent}  \"member_clone_bytes\": {}\n\
         {indent}}}",
        run.solve_seconds,
        run.objective_gain,
        s.commits,
        s.iterations,
        p.checks,
        p.check_nanos,
        p.closure_nanos,
        p.closure_calls,
        p.closure_arcs_touched,
        p.arcs_per_closure(),
        p.closure_warm_nanos,
        p.certificate_nanos,
        p.closure_skips,
        p.violations_batched,
        p.attribute_nanos,
        p.commit_nanos,
        p.member_clone_bytes,
    );
}

/// Renders the `--profile` per-phase breakdown of one record: wall
/// time of each solver phase (constraint checking, closure selection
/// with its warm-engine and certificate sub-rows, violation
/// attribution, move commit), with the unattributed remainder, plus
/// the phase-adjacent work counters. CI uploads this table as an
/// artifact and gates on the phase totals in the JSON.
pub fn profile_table(r: &BenchRecord) -> String {
    let secs = r.solve.solve_seconds;
    let p = &r.solve.stats.perf;
    let mut out = String::new();
    let _ = writeln!(out, "profile {}", r.name);
    let _ = writeln!(out, "  {:<14} {:>16} {:>7}", "phase", "time", "share");
    let row = |out: &mut String, label: &str, ns: u64| {
        let share = if secs <= 0.0 {
            0.0
        } else {
            ns as f64 / 1e9 / secs * 100.0
        };
        let _ = writeln!(
            out,
            "  {label:<14} {:>13.3} ms {share:>6.1}%",
            ns as f64 / 1e6
        );
    };
    row(&mut out, "check", p.check_nanos);
    row(&mut out, "closure", p.closure_nanos);
    row(&mut out, "  warm", p.closure_warm_nanos);
    row(&mut out, "  certificate", p.certificate_nanos);
    row(&mut out, "attribute", p.attribute_nanos);
    row(&mut out, "commit", p.commit_nanos);
    let counted = p.check_nanos + p.closure_nanos + p.attribute_nanos + p.commit_nanos;
    row(
        &mut out,
        "other",
        ((secs * 1e9) as u64).saturating_sub(counted),
    );
    let _ = writeln!(out, "  {:<14} {:>13.3} ms", "total", secs * 1e3);
    let _ = writeln!(
        out,
        "  closure skips {}, batched violations {}, move-set allocs {} bytes",
        p.closure_skips, p.violations_batched, p.member_clone_bytes,
    );
    out
}

/// Serializes the records as the `BENCH_solver.json` document
/// (hand-rolled: the workspace deliberately has no serde dependency).
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"solver-constraint-engines\",\n  \"version\": 9,\n");
    out.push_str("  \"circuits\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"name\": \"{}\",\n      \"vertices\": {},\n      \"edges\": {},\n      \
             \"degraded\": {},\n",
            r.name, r.vertices, r.edges, r.degraded
        );
        let _ = write!(
            out,
            "      \"init\": {{\n        \"phi\": {},\n        \"r_min\": {},\n        \
             \"used_setup_hold\": {},\n        \"init_seconds\": {:.6}\n      }},\n",
            r.init.phi, r.init.r_min, r.init.used_setup_hold, r.init.seconds
        );
        push_engine(&mut out, "      ", "solve", &r.solve);
        out.push_str("\n    }");
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_records_are_consistent_and_serialize() {
        let instances = sample_instances();
        assert!(!instances.is_empty());
        let records: Vec<BenchRecord> = instances
            .iter()
            .map(|i| measure_with_budget(i, &SolveBudget::new()).unwrap())
            .collect();
        let json = to_json(&records);
        assert!(json.contains("\"solver-constraint-engines\""));
        assert!(json.contains("\"solve\": {"));
        assert!(json.contains("\"closure_warm_nanos\""));
        assert!(json.contains("\"certificate_nanos\""));
        assert!(json.contains("\"degraded\": false"));
        assert!(json.contains("\"init\": {") && json.contains("\"init_seconds\""));
        for r in &records {
            assert!(
                r.init.phi > 0 && r.init.r_min >= 1,
                "{}: §V answers",
                r.name
            );
            assert!(!r.degraded, "{}: unlimited budget cannot degrade", r.name);
            assert!(r.solve.stats.degradation.is_clean(), "{}", r.name);
        }
    }

    #[test]
    fn budget_capped_run_is_flagged_degraded() {
        // A budget-truncated row must be tagged, so CI never compares
        // it against a converged baseline.
        let instance = generated_instance(300).unwrap();
        let budget = SolveBudget::new().with_max_iterations(Some(3));
        let record = measure_with_budget(&instance, &budget).unwrap();
        assert!(record.degraded, "a 3-iteration cap must truncate the solve");
        let json = to_json(&[record]);
        assert!(json.contains("\"degraded\": true"));
    }

    /// An all-zero record (e.g. a solve that converged before doing any
    /// work, or a truncated run) must not poison the tracked JSON with
    /// NaN/Inf ratios: every ratio guards its zero denominator to 0.0.
    #[test]
    fn zero_denominator_ratios_are_guarded_not_nan() {
        let record = BenchRecord {
            name: "empty".to_string(),
            vertices: 0,
            edges: 0,
            init: InitRun::default(),
            solve: EngineRun {
                solve_seconds: 0.0,
                objective_gain: 0,
                stats: SolverStats::default(),
            },
            degraded: false,
        };
        assert_eq!(record.solve.stats.perf.arcs_per_closure(), 0.0);
        let json = to_json(std::slice::from_ref(&record));
        // Rust formats non-finite floats exactly as `NaN`/`inf`/`-inf`
        // (note: a bare `nan` check would trip on field names like
        // `check_nanos`).
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        // The profile table must stay finite too (shares of a 0s solve).
        let table = profile_table(&record);
        assert!(!table.contains("NaN") && !table.contains("inf"), "{table}");
    }

    /// The `--profile` table lists every accounted phase plus the work
    /// counters that explain them.
    #[test]
    fn profile_table_lists_all_phases_and_counters() {
        let mut record = BenchRecord {
            name: "probe".to_string(),
            vertices: 10,
            edges: 20,
            init: InitRun::default(),
            solve: EngineRun {
                solve_seconds: 1.0,
                objective_gain: 5,
                stats: SolverStats::default(),
            },
            degraded: false,
        };
        let perf = &mut record.solve.stats.perf;
        perf.check_nanos = 400_000_000;
        perf.closure_nanos = 300_000_000;
        perf.certificate_nanos = 20_000_000;
        perf.attribute_nanos = 100_000_000;
        perf.commit_nanos = 100_000_000;
        perf.closure_skips = 7;
        perf.violations_batched = 42;
        perf.member_clone_bytes = 4096;
        let table = profile_table(&record);
        for needle in [
            "check",
            "closure",
            // The closure phase's warm-engine and certificate sub-rows.
            "\n    warm ",
            "\n    certificate ",
            "attribute",
            "commit",
            "other",
            "total",
            "closure skips 7",
            "batched violations 42",
            "move-set allocs 4096 bytes",
        ] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
        // 400ms of 1.0s -> 40.0% share for the check phase.
        assert!(table.contains("40.0%"), "{table}");
    }
}
