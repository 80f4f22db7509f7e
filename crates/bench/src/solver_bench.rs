//! Benchmark of the solver's warm-started closure engine against fresh
//! Dinic builds, on sample and generated circuits. Shared by the
//! `retimer bench-solve` subcommand and the `solver` criterion bench;
//! the JSON it emits (`BENCH_solver.json`) is the tracked baseline.

use std::fmt::Write as _;
use std::time::Instant;

use minobswin::algorithm::{SolverConfig, SolverStats};
use minobswin::closure_inc::ClosureEngine;
use minobswin::init::InitConfig;
use minobswin::perf::PerfCounters;
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
    /// Wall-clock seconds of the initialization.
    pub seconds: f64,
}

/// Builds an instance from a circuit: a timed §V initialization plus
/// synthetic observability counts (the solver only sees the `b`
/// coefficients, so no simulation is needed for a solver benchmark).
///
/// # Errors
///
/// Propagates graph-construction and initialization failures.
pub fn prepare(name: &str, circuit: &Circuit) -> Result<BenchInstance, SolveError> {
    let graph = RetimeGraph::from_circuit(circuit, &DelayModel::default())?;
    let t0 = Instant::now();
    let init = InitConfig::default().initialize(&graph)?;
    let init_run = InitRun {
        phi: init.phi,
        r_min: init.r_min,
        used_setup_hold: init.used_setup_hold,
        seconds: t0.elapsed().as_secs_f64(),
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

/// One engine's measured solver run.
#[derive(Clone)]
pub struct EngineRun {
    /// Wall-clock seconds inside the solver.
    pub solve_seconds: f64,
    /// The objective gain (must agree across closure engines).
    pub objective_gain: i64,
    /// Full run counters, including [`SolverStats::perf`].
    pub stats: SolverStats,
}

/// Both engines' runs over one instance.
#[derive(Clone)]
pub struct BenchRecord {
    /// Circuit name.
    pub name: String,
    /// Retiming-graph vertices (including the host).
    pub vertices: usize,
    /// Retiming-graph edges.
    pub edges: usize,
    /// The §V initialization both runs start from.
    pub init: InitRun,
    /// The run with the warm-started closure engine (the default
    /// configuration).
    pub warm: EngineRun,
    /// The run with a fresh Dinic build per closure call.
    pub fresh: EngineRun,
    /// Whether either engine's run was truncated by the solve budget.
    /// Degraded rows are not comparable to converged ones: their
    /// counters reflect wherever the budget happened to stop, so CI
    /// diff scripts must never compare a degraded row against a
    /// converged baseline (or vice versa).
    pub degraded: bool,
}

impl BenchRecord {
    /// How many times fewer arcs per closure call the warm-started
    /// engine touches, compared to a fresh Dinic build (higher is
    /// better).
    pub fn closure_arc_ratio(&self) -> f64 {
        let warm = self.warm.stats.perf.arcs_per_closure();
        let fresh = self.fresh.stats.perf.arcs_per_closure();
        if warm <= 0.0 {
            return 0.0;
        }
        fresh / warm
    }
}

fn timed_run(
    instance: &BenchInstance,
    config: SolverConfig,
    budget: &SolveBudget,
) -> Result<EngineRun, SolveError> {
    // Fresh token per run: the limits are shared but a deadline expiry
    // in one engine's run must not cancel the other's.
    let per_run = SolveBudget::new()
        .with_wall_time(budget.wall_time)
        .with_max_iterations(budget.max_iterations)
        .with_max_memory_estimate(budget.max_memory_estimate);
    let t0 = Instant::now();
    let outcome = SolverSession::new(&instance.graph, &instance.problem)
        .config(config)
        .initial(instance.initial.clone())
        .run_supervised(Supervision::new().budget(per_run))?;
    let solution = outcome.into_solution();
    Ok(EngineRun {
        solve_seconds: t0.elapsed().as_secs_f64(),
        objective_gain: solution.objective_gain,
        stats: solution.stats,
    })
}

/// Runs both engines over one instance with an unlimited budget.
///
/// # Errors
///
/// Propagates solver failures (the prepared start is feasible, so this
/// indicates a bug).
///
/// # Panics
///
/// Panics if the two closure engines disagree on the objective gain —
/// they are required to be bit-identical.
pub fn measure(instance: &BenchInstance) -> Result<BenchRecord, SolveError> {
    measure_with_budget(instance, &SolveBudget::new())
}

/// Runs both engines over one instance under `budget` (each engine run
/// gets a fresh deadline derived from the budget's limits).
///
/// # Errors
///
/// See [`measure`].
///
/// # Panics
///
/// As [`measure`], except the bit-identity assertion is skipped when
/// either run was degraded by the budget (a truncated run legitimately
/// stops at a different objective).
pub fn measure_with_budget(
    instance: &BenchInstance,
    budget: &SolveBudget,
) -> Result<BenchRecord, SolveError> {
    let warm = timed_run(instance, SolverConfig::default(), budget)?;
    let fresh = timed_run(
        instance,
        SolverConfig::default().with_closure_engine(ClosureEngine::Fresh),
        budget,
    )?;
    let degraded = warm.stats.degradation.budget_stop.is_some()
        || fresh.stats.degradation.budget_stop.is_some();
    if !degraded {
        assert_eq!(
            warm.objective_gain, fresh.objective_gain,
            "{}: the two closure engines must agree bit-for-bit",
            instance.name
        );
    }
    Ok(BenchRecord {
        name: instance.name.clone(),
        vertices: instance.graph.num_vertices(),
        edges: instance.graph.num_edges(),
        init: instance.init,
        warm,
        fresh,
        degraded,
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
/// time of each solver phase (constraint checking, closure selection,
/// violation attribution, move commit) for both engines, with the
/// unattributed remainder, plus the phase-adjacent work counters. CI
/// uploads this table as an artifact and gates on the phase totals in
/// the JSON.
pub fn profile_table(r: &BenchRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "profile {}", r.name);
    let _ = writeln!(
        out,
        "  {:<14} {:>16} {:>7} {:>16} {:>7}",
        "phase", "warm", "share", "fresh", "share"
    );
    let row = |out: &mut String, label: &str, warm_ns: u64, fresh_ns: u64, r: &BenchRecord| {
        let share = |ns: u64, secs: f64| {
            if secs <= 0.0 {
                0.0
            } else {
                ns as f64 / 1e9 / secs * 100.0
            }
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>13.3} ms {:>6.1}% {:>13.3} ms {:>6.1}%",
            label,
            warm_ns as f64 / 1e6,
            share(warm_ns, r.warm.solve_seconds),
            fresh_ns as f64 / 1e6,
            share(fresh_ns, r.fresh.solve_seconds),
        );
    };
    let wp = &r.warm.stats.perf;
    let fp = &r.fresh.stats.perf;
    row(&mut out, "check", wp.check_nanos, fp.check_nanos, r);
    row(&mut out, "closure", wp.closure_nanos, fp.closure_nanos, r);
    row(
        &mut out,
        "  warm",
        wp.closure_warm_nanos,
        fp.closure_warm_nanos,
        r,
    );
    row(
        &mut out,
        "  certificate",
        wp.certificate_nanos,
        fp.certificate_nanos,
        r,
    );
    row(
        &mut out,
        "attribute",
        wp.attribute_nanos,
        fp.attribute_nanos,
        r,
    );
    row(&mut out, "commit", wp.commit_nanos, fp.commit_nanos, r);
    let counted =
        |p: &PerfCounters| p.check_nanos + p.closure_nanos + p.attribute_nanos + p.commit_nanos;
    let other = |secs: f64, p: &PerfCounters| ((secs * 1e9) as u64).saturating_sub(counted(p));
    row(
        &mut out,
        "other",
        other(r.warm.solve_seconds, wp),
        other(r.fresh.solve_seconds, fp),
        r,
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>13.3} ms         {:>13.3} ms",
        "total",
        r.warm.solve_seconds * 1e3,
        r.fresh.solve_seconds * 1e3,
    );
    let _ = writeln!(
        out,
        "  closure skips {}, batched violations {}, move-set allocs {} bytes",
        wp.closure_skips, wp.violations_batched, wp.member_clone_bytes,
    );
    out
}

/// Serializes the records as the `BENCH_solver.json` document
/// (hand-rolled: the workspace deliberately has no serde dependency).
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"solver-constraint-engines\",\n  \"version\": 7,\n");
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
        push_engine(&mut out, "      ", "warm", &r.warm);
        out.push_str(",\n");
        push_engine(&mut out, "      ", "fresh", &r.fresh);
        let _ = write!(
            out,
            ",\n      \"closure_arc_ratio\": {:.3}\n    }}",
            r.closure_arc_ratio()
        );
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
        let records: Vec<BenchRecord> = instances.iter().map(|i| measure(i).unwrap()).collect();
        let json = to_json(&records);
        assert!(json.contains("\"solver-constraint-engines\""));
        assert!(json.contains("\"closure_arc_ratio\""));
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
            assert_eq!(r.warm.stats.commits, r.fresh.stats.commits);
            assert_eq!(
                r.warm.stats.perf.closure_calls, r.fresh.stats.perf.closure_calls,
                "{}: identical trajectories make the same closure calls",
                r.name
            );
            assert_eq!(r.warm.stats.perf.checks, r.fresh.stats.perf.checks);
            assert_eq!(r.fresh.stats.perf.closure_warm_nanos, 0);
            assert_eq!(r.fresh.stats.perf.certificate_nanos, 0);
            assert!(r.warm.stats.degradation.is_clean(), "{}", r.name);
        }
    }

    #[test]
    fn budget_capped_run_is_flagged_degraded() {
        // The committed generated_10k row came from a --max-iters 2000
        // run; this drill pins the mechanism that tags such rows so CI
        // never compares a truncated run against a converged baseline.
        let instance = generated_instance(300).unwrap();
        let budget = SolveBudget::new().with_max_iterations(Some(3));
        let record = measure_with_budget(&instance, &budget).unwrap();
        assert!(record.degraded, "a 3-iteration cap must truncate the solve");
        let json = to_json(&[record]);
        assert!(json.contains("\"degraded\": true"));
    }

    #[test]
    fn warm_closure_beats_fresh_on_a_generated_circuit() {
        // Batched constraint learning collapsed the closure-call count
        // (one call now digests a whole violation batch instead of one
        // delta), so the warm engine's *per-call* advantage is far
        // smaller than the 10-35x of the one-delta-per-iteration era —
        // but it must still strictly beat a fresh rebuild per call.
        let instance = generated_instance(300).unwrap();
        let record = measure(&instance).unwrap();
        println!(
            "closure_arc_ratio = {:.2} (warm {:.0} vs fresh {:.0} arcs/call, {} calls)",
            record.closure_arc_ratio(),
            record.warm.stats.perf.arcs_per_closure(),
            record.fresh.stats.perf.arcs_per_closure(),
            record.warm.stats.perf.closure_calls,
        );
        assert!(
            record.closure_arc_ratio() >= 1.2,
            "expected the warm engine to touch >=1.2x fewer arcs per closure call, got {:.2}x",
            record.closure_arc_ratio()
        );
    }

    /// An all-zero record (e.g. a solve that converged before doing any
    /// work, or a truncated run) must not poison the tracked JSON with
    /// NaN/Inf ratios: every ratio guards its zero denominator to 0.0.
    #[test]
    fn zero_denominator_ratios_are_guarded_not_nan() {
        let zero_run = || EngineRun {
            solve_seconds: 0.0,
            objective_gain: 0,
            stats: SolverStats::default(),
        };
        let record = BenchRecord {
            name: "empty".to_string(),
            vertices: 0,
            edges: 0,
            init: InitRun::default(),
            warm: zero_run(),
            fresh: zero_run(),
            degraded: false,
        };
        assert_eq!(record.closure_arc_ratio(), 0.0);
        assert_eq!(record.warm.stats.perf.arcs_per_closure(), 0.0);
        let json = to_json(std::slice::from_ref(&record));
        // Rust formats non-finite floats exactly as `NaN`/`inf`/`-inf`
        // (note: a bare `nan` check would trip on field names like
        // `check_nanos`).
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        // The profile table must stay finite too (shares of a 0s solve).
        let table = profile_table(&record);
        assert!(!table.contains("NaN") && !table.contains("inf"), "{table}");
    }

    /// The `--profile` table lists every accounted phase for both
    /// engines plus the work counters that explain them.
    #[test]
    fn profile_table_lists_all_phases_and_counters() {
        let mut record = BenchRecord {
            name: "probe".to_string(),
            vertices: 10,
            edges: 20,
            init: InitRun::default(),
            warm: EngineRun {
                solve_seconds: 1.0,
                objective_gain: 5,
                stats: SolverStats::default(),
            },
            fresh: EngineRun {
                solve_seconds: 2.0,
                objective_gain: 5,
                stats: SolverStats::default(),
            },
            degraded: false,
        };
        record.warm.stats.perf.check_nanos = 400_000_000;
        record.warm.stats.perf.closure_nanos = 300_000_000;
        record.warm.stats.perf.certificate_nanos = 20_000_000;
        record.warm.stats.perf.attribute_nanos = 100_000_000;
        record.warm.stats.perf.commit_nanos = 100_000_000;
        record.warm.stats.perf.closure_skips = 7;
        record.warm.stats.perf.violations_batched = 42;
        record.warm.stats.perf.member_clone_bytes = 4096;
        let table = profile_table(&record);
        for needle in [
            "check",
            "closure",
            // The closure phase's warm-engine and certificate sub-rows,
            // not the header.
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
        // 400ms of 1.0s -> 40.0% share for the warm run's check phase.
        assert!(table.contains("40.0%"), "{table}");
    }
}
