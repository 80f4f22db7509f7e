//! **Algorithm 1 — MinObsWin**: minimum register-observability retiming
//! under error-latching-window constraints.
//!
//! Starting from a feasible retiming, the solver repeatedly takes the
//! tentative move `r′(v) = r(v) − w(v)` for every vertex `v` of `I` —
//! the maximum-gain closed set under the active constraints, the exact
//! set the paper's weighted regular forest maintains as `V_P(F)` (see
//! [`crate::closure`] for why the selection is computed exactly here) —
//! checks the constraints under `r′`, and either
//!
//! * records one new *active constraint* `(p, q)` and raises `q`'s
//!   move weight (the paper's `UpdateForest`/`BreakTree` step), or
//! * freezes the responsible vertex when the only fix would retime the
//!   host (registers cannot move past primary inputs/outputs — the
//!   paper's "exited immediately" cases), or
//! * commits `r ← r′` when no violation remains.
//!
//! It terminates when no positive-gain closed set remains. Disabling
//! the P2 machinery (the paper's "commenting out lines 9–12 and
//! 19–21") yields the *Efficient MinObs* baseline of ref \[17\] — see
//! [`crate::minobs`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use retime::{RetimeGraph, Retiming, VertexId};

use crate::closure::ConstraintSystem;
use crate::closure_inc::{ClosureEngine, IncrementalClosure};
use crate::incremental::{IncrementalChecker, PerfCounters};
use crate::problem::Problem;
use crate::supervisor::{
    instance_digest, memory_estimate, Checkpoint, DegradationReport, DegradedSolution, Sabotage,
    SolveOutcome, Supervision, SupervisorRt, TripCause,
};
use crate::verify::{check_feasible, find_violations, Violation};
use crate::SolveError;

/// Solver knobs.
///
/// Construct with [`SolverConfig::default`] and refine with the
/// `with_*` builders — the struct is `#[non_exhaustive]`, so
/// downstream literals would not survive new knobs:
///
/// ```
/// use minobswin::algorithm::SolverConfig;
/// let config = SolverConfig::default().with_p2(false).with_bidirectional(false);
/// assert!(!config.enable_p2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SolverConfig {
    /// Enforce the P2 (ELW / shortest-path) constraints. `false`
    /// reproduces the *Efficient MinObs* baseline.
    pub enable_p2: bool,
    /// Iteration safety cap; `None` uses `8·|V|² + 10⁴` (the paper
    /// bounds iterations by `|V|²`).
    pub max_iterations: Option<usize>,
    /// Alternate descent passes with the symmetric *ascent* pass
    /// (registers moved backward). The paper's schedule is
    /// decrease-only, which we found suboptimal on instances whose
    /// optimum moves registers backward from the §V initialization
    /// (see DESIGN.md); the default `true` restores the optimality the
    /// paper's Theorem 2 claims. Set `false` for the paper-literal
    /// schedule.
    pub bidirectional: bool,
    /// Use the incremental constraint-checking engine
    /// ([`crate::incremental`]). The default `true` re-relaxes only the
    /// dirty region of each tentative move; `false` forces the
    /// from-scratch checker on every iteration (the engines are
    /// bit-identical, so this is purely a performance knob).
    pub incremental: bool,
    /// Fall back to a full recompute when the dirty region exceeds
    /// this percentage of `|V|` (only meaningful with `incremental`).
    pub max_dirty_percent: u32,
    /// Which max-gain closure engine selects each iteration's move set
    /// ([`crate::closure_inc`]). The default warm-started engine
    /// persists the flow network's residual across iterations; `Fresh`
    /// rebuilds it every call (the engines are bit-identical by the
    /// canonical closure-selection rule, so this is purely a
    /// performance knob).
    pub closure_engine: ClosureEngine,
    /// Test-only fault injection into the incremental engines; see
    /// [`Sabotage`]. Production code leaves this at the default
    /// [`Sabotage::None`].
    #[doc(hidden)]
    pub sabotage: Sabotage,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            enable_p2: true,
            max_iterations: None,
            bidirectional: true,
            incremental: true,
            max_dirty_percent: 50,
            closure_engine: ClosureEngine::default(),
            sabotage: Sabotage::None,
        }
    }
}

impl SolverConfig {
    /// Sets whether the P2 (ELW) constraints are enforced.
    pub fn with_p2(mut self, enable: bool) -> Self {
        self.enable_p2 = enable;
        self
    }

    /// Overrides the iteration safety cap (`None` restores the
    /// `8·|V|² + 10⁴` default).
    pub fn with_max_iterations(mut self, cap: Option<usize>) -> Self {
        self.max_iterations = cap;
        self
    }

    /// Sets whether descent phases alternate with ascent phases.
    pub fn with_bidirectional(mut self, bidirectional: bool) -> Self {
        self.bidirectional = bidirectional;
        self
    }

    /// Sets whether the incremental constraint checker is used.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Sets the dirty-region fallback threshold as a percentage of
    /// `|V|`.
    pub fn with_max_dirty_percent(mut self, percent: u32) -> Self {
        self.max_dirty_percent = percent;
        self
    }

    /// Selects the closure engine ([`ClosureEngine::Warm`] by default).
    pub fn with_closure_engine(mut self, engine: ClosureEngine) -> Self {
        self.closure_engine = engine;
        self
    }

    /// Test-only: injects a fault into an incremental engine so the
    /// supervisor's circuit breakers can be exercised.
    #[doc(hidden)]
    pub fn with_sabotage(mut self, sabotage: Sabotage) -> Self {
        self.sabotage = sabotage;
        self
    }
}

/// Counters describing a solver run (the paper reports `#J`, the
/// number of committed improvement rounds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Committed improvement rounds (`#J` in Table I).
    pub commits: usize,
    /// Total loop iterations.
    pub iterations: usize,
    /// Active constraints recorded (forest updates).
    pub constraints_added: usize,
    /// `BreakTree` invocations (weight corrections).
    pub weight_updates: usize,
    /// Vertices frozen because their fix would retime the host.
    pub freezes: usize,
    /// Violations whose paper-designated blame vertex was not in the
    /// move set, attributed to the move collectively instead.
    pub fallback_attributions: usize,
    /// P0 violations repaired.
    pub p0_fixes: usize,
    /// P1 violations repaired.
    pub p1_fixes: usize,
    /// P2 violations repaired (the MinObsWin-specific machinery).
    pub p2_fixes: usize,
    /// Constraint-checking perf counters (edges relaxed, dirty-region
    /// sizes, incremental/full split, per-phase nanos).
    pub perf: PerfCounters,
    /// How far the supervisor degraded this run (breaker trips, budget
    /// stops, restarts); [`DegradationReport::is_clean`] on a healthy
    /// solve.
    pub degradation: DegradationReport,
}

/// The result of a solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The final (feasible, locally unimprovable) retiming.
    pub retiming: Retiming,
    /// Objective gain `B̂(r_final) − B̂(r_initial)` (scaled register
    /// observability reduction).
    pub objective_gain: i64,
    /// Run counters.
    pub stats: SolverStats,
}

/// The solver core behind [`crate::SolverSession::run`]:
/// unsupervised — no budget, no checkpoints — so the outcome is
/// always complete.
pub(crate) fn run_solver(
    graph: &RetimeGraph,
    problem: &Problem,
    initial: Retiming,
    config: SolverConfig,
) -> Result<Solution, SolveError> {
    run_supervised_solver(graph, problem, initial, config, Supervision::default())
        .map(SolveOutcome::into_solution)
}

/// The supervised solver core behind
/// [`crate::SolverSession::run_supervised`]: budgets, panic-isolated
/// engines with self-healing fallback, checkpoint/resume, and a final
/// verification gate (see [`crate::supervisor`]).
pub(crate) fn run_supervised_solver(
    graph: &RetimeGraph,
    problem: &Problem,
    initial: Retiming,
    config: SolverConfig,
    supervision: Supervision,
) -> Result<SolveOutcome, SolveError> {
    let effective_problem = if config.enable_p2 {
        problem.clone()
    } else {
        Problem {
            r_min: i64::MIN / 4, // never binds
            ..problem.clone()
        }
    };
    let problem = &effective_problem;
    let digest = instance_digest(graph, problem, config.enable_p2, config.bidirectional);
    let mut rt = SupervisorRt::new(supervision, digest);

    let mut initial = initial;
    let mut stats = SolverStats::default();
    let mut seed: Option<PhaseSeed> = None;
    if let Some(cp) = rt.take_resume() {
        cp.validate(graph.num_vertices(), digest)
            .map_err(SolveError::Checkpoint)?;
        let resumed = Retiming::from_values(graph, cp.retiming.clone())?;
        if let Err(v) = check_feasible(graph, problem, &resumed) {
            return Err(SolveError::Checkpoint(format!(
                "checkpointed retiming is infeasible: {v:?}"
            )));
        }
        if cp.complete {
            // The interrupted solve had already finished; report the
            // same result instantly.
            stats.iterations = cp.iterations;
            stats.commits = cp.commits;
            stats.degradation = rt.report;
            return Ok(SolveOutcome::Complete(Solution {
                objective_gain: problem.objective(&resumed) - cp.start_objective,
                retiming: resumed,
                stats,
            }));
        }
        rt.start_objective = cp.start_objective;
        rt.round_start_commits = cp.round_start_commits;
        stats.iterations = cp.iterations;
        stats.commits = cp.commits;
        seed = Some(PhaseSeed::from_checkpoint(cp));
        initial = resumed;
    } else {
        if let Err(v) = check_feasible(graph, problem, &initial) {
            return Err(SolveError::InfeasibleInitial(format!("{v:?}")));
        }
        rt.start_objective = problem.objective(&initial);
    }

    let mut r = solve_loop(
        graph,
        problem,
        initial.clone(),
        config,
        &mut rt,
        &mut stats,
        seed,
    )?;

    // Final verification gate: the last rung of the degradation
    // ladder. An engine corruption that slipped between sampled audits
    // can only surface here; redo the whole solve with the
    // from-scratch engines (bit-identical by construction, so this is
    // always sound — just slow).
    if check_feasible(graph, problem, &r).is_err() {
        rt.report.full_restart = true;
        rt.trip_checker(stats.iterations, TripCause::Divergence);
        stats.perf.breaker_trips += 1;
        let safe = config
            .with_incremental(false)
            .with_closure_engine(ClosureEngine::Fresh)
            .with_sabotage(Sabotage::None);
        r = solve_loop(graph, problem, initial, safe, &mut rt, &mut stats, None)?;
        if let Err(v) = check_feasible(graph, problem, &r) {
            return Err(SolveError::Verification(format!(
                "from-scratch re-solve still infeasible: {v:?}"
            )));
        }
    }

    // A terminal checkpoint lets `--resume` of a finished solve return
    // instantly; a budget-stopped solve keeps its resumable snapshot.
    if rt.stop.is_none() && rt.has_sink() {
        let cp = rt.snapshot(&r, None, false, stats.iterations, stats.commits, true);
        rt.save(&cp);
    }

    stats.degradation = rt.report;
    let solution = Solution {
        objective_gain: problem.objective(&r) - rt.start_objective,
        retiming: r,
        stats,
    };
    Ok(match rt.stop {
        Some(reason) => SolveOutcome::Degraded(DegradedSolution { solution, reason }),
        None => SolveOutcome::Complete(solution),
    })
}

/// The alternating descent/ascent schedule around [`run_phase`],
/// entered fresh or from a checkpoint seed. Returns the best committed
/// retiming; on a budget stop (`rt.stop` set) that is the
/// best-so-far, not a local optimum.
fn solve_loop(
    graph: &RetimeGraph,
    problem: &Problem,
    initial: Retiming,
    config: SolverConfig,
    rt: &mut SupervisorRt,
    stats: &mut SolverStats,
    mut seed: Option<PhaseSeed>,
) -> Result<Retiming, SolveError> {
    // Hoisted out of the phase loop: the cap only depends on |V|.
    let n = graph.num_vertices();
    let iteration_cap = config.max_iterations.unwrap_or(8 * n * n + 10_000);
    let mut r = initial;
    // The paper's schedule is the single descent phase. With
    // `bidirectional`, alternate descent and ascent until neither
    // commits (each committing phase strictly improves the bounded
    // objective, so this terminates).
    let mut resuming = seed.is_some();
    loop {
        let before = if resuming {
            rt.round_start_commits
        } else {
            stats.commits
        };
        rt.round_start_commits = before;
        let resume_in_increase = resuming && seed.as_ref().is_some_and(|s| s.direction_increase);
        if !resume_in_increase {
            let phase_seed = if resuming { seed.take() } else { None };
            r = run_phase(
                graph,
                problem,
                r,
                config,
                iteration_cap,
                Direction::Decrease,
                stats,
                rt,
                phase_seed,
            )?;
            if rt.stop.is_some() {
                return Ok(r);
            }
        }
        if config.bidirectional {
            let phase_seed = if resume_in_increase {
                seed.take()
            } else {
                None
            };
            r = run_phase(
                graph,
                problem,
                r,
                config,
                iteration_cap,
                Direction::Increase,
                stats,
                rt,
                phase_seed,
            )?;
            if rt.stop.is_some() {
                return Ok(r);
            }
        }
        resuming = false;
        if stats.commits == before {
            break;
        }
    }
    Ok(r)
}

/// Which way registers move in the current phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// The paper's direction: `r(v)` decreases (registers move from
    /// fanins to fanouts).
    Decrease,
    /// The symmetric pass: `r(v)` increases.
    Increase,
}

/// A checkpoint's constraint-system state, replayed into the fresh
/// `ConstraintSystem` of the phase being resumed. Replaying through
/// the public API repopulates the change logs, so the warm closure
/// engine rebuilds over the restored state exactly as it would have
/// over the live one.
#[derive(Debug)]
struct PhaseSeed {
    direction_increase: bool,
    weights: Vec<i64>,
    frozen: Vec<u32>,
    arcs: Vec<(u32, u32)>,
}

impl PhaseSeed {
    fn from_checkpoint(cp: Checkpoint) -> Self {
        Self {
            direction_increase: cp.direction_increase,
            weights: cp.weights,
            frozen: cp.frozen,
            arcs: cp.arcs,
        }
    }

    fn replay(&self, system: &mut ConstraintSystem) {
        for (i, &w) in self.weights.iter().enumerate().skip(1) {
            system.raise_weight(VertexId::new(i), w);
        }
        for &i in &self.frozen {
            system.freeze(VertexId::new(i as usize));
        }
        for &(p, q) in &self.arcs {
            system.add_arc(VertexId::new(p as usize), VertexId::new(q as usize));
        }
    }
}

#[allow(clippy::too_many_arguments)] // internal: the supervised phase needs the full context
fn run_phase(
    graph: &RetimeGraph,
    problem: &Problem,
    mut r: Retiming,
    config: SolverConfig,
    iteration_cap: usize,
    direction: Direction,
    stats: &mut SolverStats,
    rt: &mut SupervisorRt,
    seed: Option<PhaseSeed>,
) -> Result<Retiming, SolveError> {
    let sign = match direction {
        Direction::Decrease => -1i64,
        Direction::Increase => 1,
    };
    // A phase's gains: decreasing r(v) by w gains b(v)·w; increasing
    // gains −b(v)·w.
    let gains: Vec<i64> = problem.b.iter().map(|&b| -sign * b).collect();
    let mut system = ConstraintSystem::new(gains);
    freeze_dead_vertices(graph, &mut system);
    if let Some(seed) = &seed {
        seed.replay(&mut system);
    }

    // Engines are gated on their circuit breakers: once tripped (this
    // phase or an earlier one), the fallback engine serves the rest of
    // the solve.
    let mut checker = (config.incremental && rt.checker_allowed())
        .then(|| IncrementalChecker::new(graph, problem, r.clone(), config.max_dirty_percent));
    // One warm closure engine per phase: it observes `system`'s change
    // log, so its lifetime must match the constraint system's.
    let mut warm_closure = match config.closure_engine {
        ClosureEngine::Warm { rebuild_percent } if rt.closure_allowed() => {
            Some(IncrementalClosure::new(rebuild_percent))
        }
        _ => None,
    };
    let direction_increase = direction == Direction::Increase;
    // No satisfiable fix moves more registers over one vertex than the
    // circuit holds. A constant of the graph: summed once per phase.
    let weight_cap = graph.total_registers() as i64 + graph.num_vertices() as i64;
    let trace = std::env::var_os("MINOBSWIN_TRACE").is_some();

    // The tentative-retiming buffer is reused across iterations
    // (`clone_from` copies in place): the solver loop performs no
    // per-iteration retiming allocation.
    let mut r_tent = r.clone();
    let mut local_iterations = 0usize;
    loop {
        // Cooperative budget check: deadline / token / iteration /
        // memory. On a stop, persist a resumable snapshot and unwind
        // with the best-so-far (feasible) retiming.
        if rt.should_stop(stats.iterations, || memory_estimate(graph, &system)) {
            let cp = rt.snapshot(
                &r,
                Some(&system),
                direction_increase,
                stats.iterations,
                stats.commits,
                false,
            );
            rt.save(&cp);
            return Ok(r);
        }
        stats.iterations += 1;
        local_iterations += 1;
        rt.tick_progress(stats.iterations, stats.commits);
        if local_iterations > iteration_cap {
            eprintln!(
                "warning: minobswin solver hit the iteration safety cap \
                 [phase={direction:?} cap={iteration_cap} vertices={} commits={} \
                 constraints={} freezes={}]",
                graph.num_vertices() - 1,
                stats.commits,
                stats.constraints_added,
                stats.freezes,
            );
            return Err(SolveError::IterationLimit(local_iterations));
        }
        let t_closure = Instant::now();
        // --- Closure selection, isolated and audited. ---
        let mut selected: Option<Vec<VertexId>> = None;
        if let Some(engine) = warm_closure.as_mut() {
            let sabotage = config.sabotage;
            let call = stats.perf.closure_calls + 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut members = engine.select(&system, &mut stats.perf);
                let sabotaged = sabotage.corrupt_closure(call, &mut members);
                if !sabotaged {
                    // Differential oracle: in debug builds every warm
                    // selection is compared against the from-scratch
                    // engine (the canonical rule makes them
                    // bit-identical). In release builds the sampled
                    // audit below takes over.
                    debug_assert_eq!(
                        members,
                        system.max_gain_closed_set(),
                        "warm closure engine diverged from the from-scratch oracle"
                    );
                }
                members
            }));
            match outcome {
                Ok(members) => selected = Some(members),
                Err(_) => {
                    // The engine panicked (or its debug oracle fired):
                    // trip the breaker, abandon the possibly-corrupt
                    // engine, recompute this selection from scratch.
                    rt.trip_closure(stats.iterations, TripCause::Panic);
                    stats.perf.breaker_trips += 1;
                }
            }
        }
        if !rt.closure_allowed() {
            warm_closure = None;
        }
        let move_set = match selected {
            Some(mut members) => {
                if warm_closure.is_some() && rt.audit_due(stats.perf.closure_calls) {
                    // Release-mode sampled divergence audit: re-run the
                    // from-scratch engine and compare bit-for-bit.
                    stats.perf.audit_checks += 1;
                    let oracle = system.max_gain_closed_set();
                    if members != oracle {
                        rt.trip_closure(stats.iterations, TripCause::Divergence);
                        stats.perf.breaker_trips += 1;
                        warm_closure = None;
                        members = oracle;
                    }
                }
                members
            }
            None => {
                let (members, touched) = system.max_gain_closed_set_counted();
                stats.perf.closure_calls += 1;
                stats.perf.closure_arcs_touched += touched;
                members
            }
        };
        stats.perf.closure_nanos += t_closure.elapsed().as_nanos() as u64;
        if move_set.is_empty() {
            break;
        }
        r_tent.clone_from(&r);
        for &v in &move_set {
            r_tent.add(v, sign * system.weight(v));
        }
        let t_check = Instant::now();
        // --- Constraint check, isolated and audited. ---
        // The checker enumerates *every* violation of the tentative
        // move in canonical order; the learning step below attributes
        // and applies the whole batch, so each closure re-solve digests
        // all the constraints one tentative retiming implies instead of
        // rediscovering them one at a time.
        let mut checked: Option<Vec<Violation>> = None;
        if let Some(chk) = checker.as_mut() {
            let sabotage = config.sabotage;
            let check = stats.perf.checks() + 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut verdicts = chk.check_all_and_commit(&r_tent, &move_set, &mut stats.perf);
                let mut first = verdicts.first().cloned();
                let sabotaged = sabotage.corrupt_verdict(check, &mut first);
                if sabotaged {
                    verdicts = first.into_iter().collect();
                } else {
                    // Differential oracle: in debug builds every single
                    // check is compared against the from-scratch engine.
                    debug_assert_eq!(
                        verdicts,
                        find_violations(graph, problem, &r_tent),
                        "incremental checker diverged from the from-scratch oracle"
                    );
                }
                verdicts
            }));
            match outcome {
                Ok(verdicts) => checked = Some(verdicts),
                Err(_) => {
                    rt.trip_checker(stats.iterations, TripCause::Panic);
                    stats.perf.breaker_trips += 1;
                }
            }
        }
        if !rt.checker_allowed() {
            checker = None;
        }
        let verdicts = match checked {
            Some(verdicts) => {
                if checker.is_some() && rt.audit_due(stats.perf.checks()) {
                    stats.perf.audit_checks += 1;
                    let oracle = find_violations(graph, problem, &r_tent);
                    if verdicts != oracle {
                        rt.trip_checker(stats.iterations, TripCause::Divergence);
                        stats.perf.breaker_trips += 1;
                        checker = None;
                        oracle
                    } else {
                        verdicts
                    }
                } else {
                    verdicts
                }
            }
            None => {
                stats.perf.full_checks += 1;
                stats.perf.edges_relaxed_full += graph.num_edges() as u64;
                find_violations(graph, problem, &r_tent)
            }
        };
        stats.perf.check_nanos += t_check.elapsed().as_nanos() as u64;
        if verdicts.is_empty() {
            let t_commit = Instant::now();
            debug_assert!(
                problem.objective(&r_tent) > problem.objective(&r),
                "commits must strictly improve the objective"
            );
            std::mem::swap(&mut r, &mut r_tent);
            stats.commits += 1;
            stats.perf.commit_nanos += t_commit.elapsed().as_nanos() as u64;
        } else {
            let t_attr = Instant::now();
            if trace {
                eprintln!(
                    "iter {} {direction:?} |I|={} batch={} first {:?} [arcs={}]",
                    stats.iterations,
                    move_set.len(),
                    verdicts.len(),
                    verdicts.first(),
                    system.num_arcs(),
                );
            }
            // Batched constraint learning: attribute every violation of
            // this tentative move and apply all the requests before the
            // next closure selection. Each request is justified by its
            // violation under the *same* r_tent (requests only raise
            // weights, add arcs or freeze — all monotone — so applying
            // them together preserves the termination argument), and
            // the processing order is the canonical violation order, so
            // both engines learn identically.
            debug_assert!(move_set.is_sorted(), "attribute binary-searches it");
            let mut changed = false;
            let mut anchor: Option<VertexId> = None;
            for violation in &verdicts {
                match violation {
                    Violation::P0 { .. } => stats.p0_fixes += 1,
                    Violation::P1(_) => stats.p1_fixes += 1,
                    Violation::P2(_) => stats.p2_fixes += 1,
                }
                stats.perf.violations_batched += 1;
                let request = attribute(
                    graph, &system, &move_set, &r_tent, violation, direction, stats,
                );
                if anchor.is_none() {
                    anchor = Some(match request {
                        Request::Link { p, .. } | Request::Freeze(p) => p,
                    });
                }
                changed |= apply_request(&mut system, request, weight_cap, stats);
            }
            if !changed {
                // The whole batch was a no-op: the same violations would
                // recur forever. Freeze a move-set member — the first
                // violation's anchor when possible (closure members are
                // never frozen: a frozen vertex's INF sink arc would
                // leave an augmenting path if it were source-reachable)
                // — to guarantee progress, exactly like the old
                // single-violation escape hatch.
                let anchor = anchor.expect("non-empty batch has an anchor");
                let p = if system.is_frozen(anchor) {
                    *move_set
                        .iter()
                        .find(|&&v| !system.is_frozen(v))
                        .expect("closure members are never frozen")
                } else {
                    anchor
                };
                system.freeze(p);
                stats.freezes += 1;
            }
            stats.perf.attribute_nanos += t_attr.elapsed().as_nanos() as u64;
        }
        if rt.checkpoint_due(stats.iterations) {
            let cp = rt.snapshot(
                &r,
                Some(&system),
                direction_increase,
                stats.iterations,
                stats.commits,
                false,
            );
            rt.save(&cp);
        }
    }
    Ok(r)
}

/// `(p, q, total_weight)` derived from a violation, or a freeze of `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Link {
        p: VertexId,
        q: VertexId,
        weight: i64,
    },
    Freeze(VertexId),
}

/// Applies one learned constraint request; a link heavier than
/// `weight_cap` freezes `q` instead. Returns whether the system
/// effectively changed — a batch in which *no* request changed
/// anything would recur forever, and the caller's escape hatch freezes
/// the anchor vertex to guarantee progress.
fn apply_request(
    system: &mut ConstraintSystem,
    request: Request,
    weight_cap: i64,
    stats: &mut SolverStats,
) -> bool {
    match request {
        Request::Freeze(p) => {
            if system.is_frozen(p) {
                return false;
            }
            system.freeze(p);
            stats.freezes += 1;
            true
        }
        Request::Link { p, q, weight } => {
            if weight > weight_cap {
                if system.is_frozen(q) {
                    return false;
                }
                system.freeze(q);
                stats.freezes += 1;
                return true;
            }
            let raised = system.raise_weight(q, weight);
            let added = system.add_arc(p, q);
            if raised {
                stats.weight_updates += 1;
            }
            if added {
                stats.constraints_added += 1;
            }
            raised || added
        }
    }
}

/// Derives the active-constraint request for a violation found under
/// the tentative move (`move_set` in ascending vertex order).
fn attribute(
    graph: &RetimeGraph,
    system: &ConstraintSystem,
    move_set: &[VertexId],
    r_tent: &Retiming,
    violation: &Violation,
    direction: Direction,
    stats: &mut SolverStats,
) -> Request {
    let in_move = |v: VertexId| move_set.binary_search(&v).is_ok();
    let planned = |v: VertexId| if in_move(v) { system.weight(v) } else { 0 };
    let pick_p = |candidates: &[VertexId], stats: &mut SolverStats| -> VertexId {
        for &c in candidates {
            if in_move(c) {
                return c;
            }
        }
        stats.fallback_attributions += 1;
        move_set[0]
    };
    match *violation {
        Violation::P0 { edge, weight } => {
            let e = graph.edge(edge);
            // Decrease phase: only the head's decrease can drain the
            // edge, and the tail must follow. Increase phase: the tail's
            // increase drains it, and the head must follow.
            let (cause, q) = match direction {
                Direction::Decrease => (e.to, e.from),
                Direction::Increase => (e.from, e.to),
            };
            let p = pick_p(&[cause], stats);
            if q.is_host() {
                return Request::Freeze(p);
            }
            Request::Link {
                p,
                q,
                weight: planned(q) - weight, // weight < 0: deficit
            }
        }
        Violation::P1(v) => {
            // Decrease phase: move a register out of the path *head* to
            // cut the critical longest path at its start (Fig. 2(b)).
            // Increase phase: pull a register into the path *end*
            // (lt(v), which owns the terminating register/PO window) to
            // cut it at its end.
            let q = match direction {
                Direction::Decrease => v.vertex,
                Direction::Increase => v.lt,
            };
            let p = pick_p(&[v.lt, v.vertex], stats);
            if q.is_host() || q == p {
                return Request::Freeze(p);
            }
            Request::Link {
                p,
                q,
                weight: planned(q) + 1,
            }
        }
        Violation::P2(v) => {
            let t = graph.edge(v.edge).from;
            match direction {
                Direction::Decrease => {
                    // Extend the critical shortest path beyond its
                    // terminating register: move all registers off one
                    // registered out-edge (z, y) of z = rt(u)
                    // (Fig. 2(c)).
                    let z = v.rt;
                    let y_edge = graph.out_edges(z).iter().copied().find(|&e| {
                        let edge = graph.edge(e);
                        !edge.to.is_host() && graph.retimed_weight(e, r_tent) > 0
                    });
                    let p = pick_p(&[v.vertex, t, z], stats);
                    match y_edge {
                        None => {
                            // z's window comes from a primary output: no
                            // register can move past the host.
                            Request::Freeze(p)
                        }
                        Some(e) => {
                            let y = graph.edge(e).to;
                            let deficit = graph.retimed_weight(e, r_tent);
                            Request::Link {
                                p,
                                q: y,
                                weight: planned(y) + deficit,
                            }
                        }
                    }
                }
                Direction::Increase => {
                    // Extend the path at its start instead: pull the
                    // launching register on (t, u) further back by
                    // increasing the tail t (clearing the edge).
                    let p = pick_p(&[v.vertex, t, v.rt], stats);
                    if t.is_host() {
                        return Request::Freeze(p);
                    }
                    let deficit = graph.retimed_weight(v.edge, r_tent);
                    Request::Link {
                        p,
                        q: t,
                        weight: planned(t) + deficit.max(1),
                    }
                }
            }
        }
    }
}

/// Freezes every vertex that cannot reach the host (dead logic): its
/// registers never reach an observation point, and unconstrained
/// decreases there would otherwise grow without bound.
fn freeze_dead_vertices(graph: &RetimeGraph, system: &mut ConstraintSystem) {
    let n = graph.num_vertices();
    let mut reaches = vec![false; n];
    reaches[RetimeGraph::HOST.index()] = true;
    let mut stack = vec![RetimeGraph::HOST];
    while let Some(v) = stack.pop() {
        for &e in graph.in_edges(v) {
            let from = graph.edge(e).from;
            if !reaches[from.index()] {
                reaches[from.index()] = true;
                stack.push(from);
            }
        }
    }
    for v in graph.vertices() {
        if !reaches[v.index()] {
            system.freeze(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SolverSession;
    use netlist::{samples, DelayModel};
    use retime::ElwParams;

    fn uniform_problem(g: &RetimeGraph, phi: i64, r_min: i64) -> Problem {
        let counts = vec![1i64; g.num_vertices()];
        Problem::from_observability_counts(g, &counts, ElwParams::with_phi(phi), r_min)
    }

    #[test]
    fn solves_pipeline_without_constraints_binding() {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let p = uniform_problem(&g, 20, 1);
        let sol = SolverSession::new(&g, &p).run().unwrap();
        assert!(sol.objective_gain >= 0);
        assert!(check_feasible(&g, &p, &sol.retiming).is_ok());
    }

    #[test]
    fn infeasible_initial_rejected() {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let p = uniform_problem(&g, 2, 1); // phi too tight for r = 0
        let err = SolverSession::new(&g, &p).run().unwrap_err();
        assert!(matches!(err, SolveError::InfeasibleInitial(_)));
    }

    #[test]
    fn p2_constraints_limit_gains() {
        // Same instance, with and without P2: P2 can only reduce the
        // achievable gain. R_min is chosen as §V does — the minimum
        // short path of the starting retiming — so the start is
        // feasible but further shrinkage is forbidden.
        let c = samples::s27_like();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let phi = 8;
        let r0 = Retiming::zero(&g);
        let labels = retime::LrLabels::compute(&g, &r0, ElwParams::with_phi(phi)).unwrap();
        let r_min = labels.min_short_path(&g, &r0).unwrap();
        let p2_problem = uniform_problem(&g, phi, r_min);
        let with_p2 = SolverSession::new(&g, &p2_problem)
            .initial(r0.clone())
            .run()
            .unwrap();
        let without = SolverSession::new(&g, &p2_problem)
            .config(SolverConfig::default().with_p2(false))
            .initial(r0)
            .run()
            .unwrap();
        assert!(with_p2.objective_gain <= without.objective_gain);
        // The P2-constrained result satisfies the full constraint set.
        assert!(check_feasible(&g, &uniform_problem(&g, phi, r_min), &with_p2.retiming).is_ok());
    }

    #[test]
    fn final_retiming_has_no_positive_move() {
        // Local optimality: after termination, no single positive-gain
        // vertex can decrease by one feasibly.
        let c = samples::s27_like();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let p = uniform_problem(&g, 8, 1);
        let sol = SolverSession::new(&g, &p).run().unwrap();
        for v in p.positive_gain_vertices() {
            let mut r = sol.retiming.clone();
            r.add(v, -1);
            assert!(
                check_feasible(&g, &p, &r).is_err(),
                "single decrease of {v} still feasible: not even 1-locally optimal"
            );
        }
    }

    #[test]
    fn stats_are_consistent() {
        let c = samples::s27_like();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let r0 = Retiming::zero(&g);
        let labels = retime::LrLabels::compute(&g, &r0, ElwParams::with_phi(8)).unwrap();
        let r_min = labels.min_short_path(&g, &r0).unwrap();
        let p = uniform_problem(&g, 8, r_min);
        let sol = SolverSession::new(&g, &p).initial(r0).run().unwrap();
        assert!(sol.stats.iterations >= sol.stats.commits);
        // Batched learning can add several constraints per iteration,
        // but never more than the violations it attributed.
        assert!(sol.stats.perf.violations_batched as usize >= sol.stats.constraints_added);
    }

    /// `a → x → [FF] → y → z → PO`: one register; returns the graph
    /// and the vertices of `a`, `x`, `y`, `z`.
    fn chain() -> (RetimeGraph, [VertexId; 4]) {
        let mut b = netlist::CircuitBuilder::new("chain");
        b.input("a");
        b.gate("x", netlist::GateKind::Not, &["a"]).unwrap();
        b.dff("r", "x").unwrap();
        b.gate("y", netlist::GateKind::Not, &["r"]).unwrap();
        b.gate("z", netlist::GateKind::Not, &["y"]).unwrap();
        b.output("z").unwrap();
        let c = b.build().unwrap();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let v = |name: &str| g.vertex_of(c.find(name).unwrap()).unwrap();
        let vs = [v("a"), v("x"), v("y"), v("z")];
        assert!(vs.is_sorted(), "move sets below list them in this order");
        (g, vs)
    }

    /// Attributes a P1 violation headed at `x` whose window ends at `y`
    /// (decrease phase: the candidates are `[lt, vertex] = [y, x]`, and
    /// the link target is `x`).
    fn attribute_p1(move_set: &[VertexId], stats: &mut SolverStats) -> Request {
        let (g, [_, x, y, _]) = chain();
        let system = ConstraintSystem::new(vec![1; g.num_vertices()]);
        let violation = Violation::P1(retime::P1Violation {
            vertex: x,
            lt: y,
            slack: -1,
        });
        let r = Retiming::zero(&g);
        attribute(
            &g,
            &system,
            move_set,
            &r,
            &violation,
            Direction::Decrease,
            stats,
        )
    }

    #[test]
    fn attribute_takes_the_first_candidate_in_the_move_set() {
        let (_, [a, x, y, z]) = chain();
        let mut stats = SolverStats::default();
        // Both candidates move: the first one, lt = y, is blamed.
        let request = attribute_p1(&[x, y], &mut stats);
        assert_eq!(
            request,
            Request::Link {
                p: y,
                q: x,
                weight: 2
            }
        );
        // y stays put: the next candidate, x, is blamed, and a link
        // from x to itself degenerates into a freeze.
        assert_eq!(attribute_p1(&[a, x, z], &mut stats), Request::Freeze(x));
        assert_eq!(stats.fallback_attributions, 0);
    }

    #[test]
    fn attribute_falls_back_to_the_first_move_set_member() {
        let (_, [a, x, _, z]) = chain();
        let mut stats = SolverStats::default();
        // Neither candidate moves: the move is blamed collectively
        // through its first member, and x (not moving) needs weight 1.
        let request = attribute_p1(&[a, z], &mut stats);
        assert_eq!(
            request,
            Request::Link {
                p: a,
                q: x,
                weight: 1
            }
        );
        assert_eq!(stats.fallback_attributions, 1);
    }

    #[test]
    fn apply_request_freezes_links_heavier_than_the_cap() {
        let (g, [_, x, y, z]) = chain();
        assert_eq!(g.total_registers(), 1);
        let cap = 1 + g.num_vertices() as i64;
        let mut system = ConstraintSystem::new(vec![1; g.num_vertices()]);
        let mut stats = SolverStats::default();
        // At the cap: a weight raise plus an arc.
        let at_cap = Request::Link {
            p: y,
            q: x,
            weight: cap,
        };
        assert!(apply_request(&mut system, at_cap, cap, &mut stats));
        assert_eq!((system.weight(x), system.num_arcs()), (cap, 1));
        assert!(!apply_request(&mut system, at_cap, cap, &mut stats));
        // Past the cap: q is frozen instead, and nothing else changes.
        let heavy = Request::Link {
            p: y,
            q: z,
            weight: cap + 1,
        };
        assert!(apply_request(&mut system, heavy, cap, &mut stats));
        assert!(system.is_frozen(z));
        assert_eq!((system.weight(z), system.num_arcs()), (1, 1));
        assert!(!apply_request(&mut system, heavy, cap, &mut stats));
        assert_eq!(
            (stats.freezes, stats.weight_updates, stats.constraints_added),
            (1, 1, 1)
        );
    }

    #[test]
    fn generated_circuits_solve_and_stay_feasible() {
        for seed in 0..5 {
            let c = netlist::generator::GeneratorConfig::new("alg", seed)
                .gates(80)
                .registers(16)
                .build();
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            let phi = retime::timing::clock_period(&g, &Retiming::zero(&g)).unwrap();
            let p = uniform_problem(&g, phi, 1);
            let sol = SolverSession::new(&g, &p)
                .run()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(check_feasible(&g, &p, &sol.retiming).is_ok(), "seed {seed}");
            assert!(sol.objective_gain >= 0, "seed {seed}");
        }
    }
}
