//! Resilience tests for the solve supervisor: a sabotaged warm closure
//! engine must trip its circuit breaker and self-heal onto the
//! from-scratch engine without changing the result; budgets must
//! degrade gracefully to a feasible retiming; checkpoint/resume must
//! reach the same answer as an uninterrupted run.

use std::io;
use std::sync::{Arc, Mutex};

use minobswin::algorithm::SolverConfig;
use minobswin::closure_inc::ClosureEngine;
use minobswin::supervisor::{Sabotage, TripCause};
use minobswin::verify::check_feasible;
use minobswin::{
    Checkpoint, CheckpointSink, Problem, SolveBudget, SolveError, SolveOutcome, SolverSession,
    StopReason, Supervision,
};
use netlist::{samples, DelayModel};
use proptest::prelude::*;
use retime::{ElwParams, RetimeGraph};

fn instance(phi: i64) -> (RetimeGraph, Problem) {
    let c = samples::pipeline(9, 3);
    let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
    let counts = vec![1i64; g.num_vertices()];
    let p = Problem::from_observability_counts(&g, &counts, ElwParams::with_phi(phi), 1);
    (g, p)
}

fn fresh_config() -> SolverConfig {
    SolverConfig::default().with_closure_engine(ClosureEngine::Fresh)
}

/// A checkpoint sink whose contents outlive the solver run.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<Checkpoint>>>);

impl SharedSink {
    fn last(&self) -> Option<Checkpoint> {
        self.0.lock().unwrap().last().cloned()
    }

    fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

impl CheckpointSink for SharedSink {
    fn save(&mut self, checkpoint: &Checkpoint) -> io::Result<()> {
        self.0.lock().unwrap().push(checkpoint.clone());
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Panic isolation and self-healing fallback
// ---------------------------------------------------------------------

#[test]
fn closure_panic_trips_breaker_and_matches_all_fresh() {
    let (g, p) = instance(10);
    let baseline = SolverSession::new(&g, &p)
        .config(fresh_config())
        .run()
        .unwrap();
    let outcome = SolverSession::new(&g, &p)
        .config(SolverConfig::default().with_sabotage(Sabotage::PanicClosure { at: 1 }))
        .run_supervised(Supervision::new().audit_every(1))
        .unwrap();
    let sol = outcome.into_solution();
    let trip = sol
        .stats
        .degradation
        .closure_trip
        .expect("forced panic must trip the closure breaker");
    assert_eq!(trip.cause, TripCause::Panic);
    assert!(sol.stats.perf.breaker_trips >= 1);
    assert_eq!(sol.retiming, baseline.retiming);
    assert_eq!(sol.objective_gain, baseline.objective_gain);
    assert!(check_feasible(&g, &p, &sol.retiming).is_ok());
}

#[test]
fn closure_divergence_is_caught_by_audit_and_matches_all_fresh() {
    let (g, p) = instance(10);
    let baseline = SolverSession::new(&g, &p)
        .config(fresh_config())
        .run()
        .unwrap();
    let outcome = SolverSession::new(&g, &p)
        .config(SolverConfig::default().with_sabotage(Sabotage::WrongClosure { at: 1 }))
        .run_supervised(Supervision::new().audit_every(1))
        .unwrap();
    let sol = outcome.into_solution();
    let trip = sol
        .stats
        .degradation
        .closure_trip
        .expect("a corrupted closure must be caught by the every-call audit");
    assert_eq!(trip.cause, TripCause::Divergence);
    assert_eq!(sol.retiming, baseline.retiming);
    assert_eq!(sol.objective_gain, baseline.objective_gain);
}

proptest! {
    /// However the closure engine is poisoned and whenever the poison
    /// fires, the every-call audit guarantees the final answer is
    /// bit-identical to an all-from-scratch run, and any trip is
    /// recorded.
    #[test]
    fn sabotage_never_changes_the_answer(
        kind in prop::sample::select(vec![0usize, 1]),
        at in 1u64..6,
    ) {
        let sabotage = match kind {
            0 => Sabotage::PanicClosure { at },
            _ => Sabotage::WrongClosure { at },
        };
        let (g, p) = instance(10);
        let baseline = SolverSession::new(&g, &p)
            .config(fresh_config())
            .run()
            .unwrap();
        let outcome = SolverSession::new(&g, &p)
            .config(SolverConfig::default().with_sabotage(sabotage))
            .run_supervised(Supervision::new().audit_every(1))
            .unwrap();
        let sol = outcome.into_solution();
        prop_assert_eq!(&sol.retiming, &baseline.retiming);
        prop_assert_eq!(sol.objective_gain, baseline.objective_gain);
        let report = sol.stats.degradation;
        // The breaker counter agrees with the report, and the final
        // gate never had to restart the solve.
        prop_assert!(!report.full_restart);
        prop_assert_eq!(
            sol.stats.perf.breaker_trips,
            u64::from(report.closure_trip.is_some())
        );
    }
}

// ---------------------------------------------------------------------
// Budgets and graceful degradation
// ---------------------------------------------------------------------

#[test]
fn zero_iteration_budget_degrades_to_feasible_start() {
    let (g, p) = instance(20);
    let outcome = SolverSession::new(&g, &p)
        .run_supervised(Supervision::new().budget(SolveBudget::new().with_max_iterations(Some(0))))
        .unwrap();
    match &outcome {
        SolveOutcome::Degraded(d) => {
            assert_eq!(d.reason, StopReason::Iterations);
            assert!(check_feasible(&g, &p, &d.solution.retiming).is_ok());
            assert_eq!(
                d.solution.stats.degradation.budget_stop,
                Some(StopReason::Iterations)
            );
        }
        other => panic!("expected a degraded outcome, got {other:?}"),
    }
    assert!(outcome.is_degraded());
}

#[test]
fn zero_wall_time_budget_degrades() {
    let (g, p) = instance(20);
    let outcome = SolverSession::new(&g, &p)
        .run_supervised(
            Supervision::new()
                .budget(SolveBudget::new().with_wall_time(Some(std::time::Duration::ZERO))),
        )
        .unwrap();
    assert_eq!(outcome.stop_reason(), Some(StopReason::WallTime));
    let sol = outcome.into_solution();
    assert!(check_feasible(&g, &p, &sol.retiming).is_ok());
}

#[test]
fn tiny_memory_budget_degrades() {
    let (g, p) = instance(20);
    let outcome = SolverSession::new(&g, &p)
        .run_supervised(
            Supervision::new().budget(SolveBudget::new().with_max_memory_estimate(Some(1))),
        )
        .unwrap();
    assert_eq!(outcome.stop_reason(), Some(StopReason::Memory));
}

#[test]
fn cancelled_token_stops_the_solve() {
    let (g, p) = instance(20);
    let budget = SolveBudget::new();
    budget.token().cancel();
    let outcome = SolverSession::new(&g, &p)
        .run_supervised(Supervision::new().budget(budget))
        .unwrap();
    assert_eq!(outcome.stop_reason(), Some(StopReason::Cancelled));
}

#[test]
fn unlimited_budget_is_complete_and_identical_to_run() {
    let (g, p) = instance(20);
    let plain = SolverSession::new(&g, &p).run().unwrap();
    let outcome = SolverSession::new(&g, &p)
        .run_supervised(Supervision::default())
        .unwrap();
    assert!(!outcome.is_degraded());
    let sol = outcome.into_solution();
    assert_eq!(sol.retiming, plain.retiming);
    assert_eq!(sol.objective_gain, plain.objective_gain);
    assert!(sol.stats.degradation.is_clean());
}

// ---------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------

#[test]
fn interrupted_solve_resumes_to_the_same_answer() {
    let (g, p) = instance(10);
    let baseline = SolverSession::new(&g, &p).run().unwrap();

    // Truncate the solve after 2 iterations, checkpointing every one.
    let sink = SharedSink::default();
    let outcome = SolverSession::new(&g, &p)
        .run_supervised(
            Supervision::new()
                .budget(SolveBudget::new().with_max_iterations(Some(2)))
                .checkpoint_to(sink.clone())
                .checkpoint_every(1),
        )
        .unwrap();
    assert!(outcome.is_degraded());
    assert!(sink.len() > 0, "the truncated run must have checkpointed");
    let checkpoint = sink.last().unwrap();
    assert!(!checkpoint.complete);

    // Resume without a budget: same final answer as never stopping.
    let resumed = SolverSession::new(&g, &p)
        .run_supervised(Supervision::new().resume_from(checkpoint))
        .unwrap();
    assert!(!resumed.is_degraded());
    let sol = resumed.into_solution();
    assert_eq!(sol.retiming, baseline.retiming);
    assert_eq!(sol.objective_gain, baseline.objective_gain);
}

#[test]
fn completed_solve_writes_a_terminal_checkpoint_that_resumes_instantly() {
    let (g, p) = instance(10);
    let sink = SharedSink::default();
    let first = SolverSession::new(&g, &p)
        .run_supervised(
            Supervision::new()
                .checkpoint_to(sink.clone())
                .checkpoint_every(1),
        )
        .unwrap()
        .into_solution();
    let last = sink.last().expect("a completed run leaves a checkpoint");
    assert!(last.complete);

    let resumed = SolverSession::new(&g, &p)
        .run_supervised(Supervision::new().resume_from(last))
        .unwrap();
    let sol = resumed.into_solution();
    assert_eq!(sol.retiming, first.retiming);
    assert_eq!(sol.objective_gain, first.objective_gain);
    assert_eq!(sol.stats.iterations, first.stats.iterations);
}

#[test]
fn checkpoint_from_another_instance_is_rejected() {
    let (g10, p10) = instance(10);
    let (g20, p20) = instance(20);
    let sink = SharedSink::default();
    SolverSession::new(&g10, &p10)
        .run_supervised(
            Supervision::new()
                .checkpoint_to(sink.clone())
                .checkpoint_every(1),
        )
        .unwrap();
    let foreign = sink.last().unwrap();
    let err = SolverSession::new(&g20, &p20)
        .run_supervised(Supervision::new().resume_from(foreign))
        .unwrap_err();
    match err {
        SolveError::Checkpoint(why) => assert!(why.contains("instance"), "{why}"),
        other => panic!("expected a checkpoint error, got {other}"),
    }
}

#[test]
fn checkpoint_serialization_round_trips_through_text() {
    let (g, p) = instance(10);
    let sink = SharedSink::default();
    SolverSession::new(&g, &p)
        .run_supervised(
            Supervision::new()
                .checkpoint_to(sink.clone())
                .checkpoint_every(1),
        )
        .unwrap();
    let cp = sink.last().unwrap();
    let reparsed = Checkpoint::parse(&cp.serialize()).unwrap();
    assert_eq!(reparsed, cp);
}
