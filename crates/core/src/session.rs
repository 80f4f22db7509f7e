//! The builder-style solver facade: the one solver entry point (the
//! loose `initialize`/`solve`/`min_obs` free functions it replaced
//! are gone as of 0.3).
//!
//! ```
//! use minobswin::{Problem, SolverSession};
//! use minobswin::algorithm::SolverConfig;
//! use netlist::{samples, DelayModel};
//! use retime::{ElwParams, RetimeGraph};
//!
//! # fn main() -> Result<(), minobswin::SolveError> {
//! let circuit = samples::pipeline(9, 3);
//! let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit())?;
//! let counts = vec![1i64; graph.num_vertices()];
//! let problem =
//!     Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(20), 1);
//! let solution = SolverSession::new(&graph, &problem)
//!     .config(SolverConfig::default().with_p2(false))
//!     .run()?;
//! assert!(solution.objective_gain >= 0);
//! # Ok(())
//! # }
//! ```

use retime::{RetimeGraph, Retiming};

use crate::algorithm::{run_solver, run_supervised_solver, Solution, SolverConfig};
use crate::problem::Problem;
use crate::supervisor::{SolveOutcome, Supervision};
use crate::SolveError;

/// A configured solver run over one instance.
///
/// Construct with [`SolverSession::new`], refine with the builder
/// methods, and execute with [`SolverSession::run`]. The default
/// configuration is MinObsWin ([`SolverConfig::default`]) starting
/// from the zero retiming; disable P2 via
/// [`SolverConfig::with_p2`] for the Efficient MinObs baseline.
#[derive(Debug, Clone)]
#[must_use = "a SolverSession does nothing until `run()` is called"]
pub struct SolverSession<'a> {
    graph: &'a RetimeGraph,
    problem: &'a Problem,
    config: SolverConfig,
    initial: Option<Retiming>,
}

impl<'a> SolverSession<'a> {
    /// Creates a session over `graph` and `problem` with the default
    /// configuration and the zero starting retiming.
    pub fn new(graph: &'a RetimeGraph, problem: &'a Problem) -> Self {
        Self {
            graph,
            problem,
            config: SolverConfig::default(),
            initial: None,
        }
    }

    /// Replaces the solver configuration.
    pub fn config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the starting retiming (it must be feasible for the
    /// instance; [`crate::init::InitConfig`] produces one). Defaults
    /// to the zero retiming.
    pub fn initial(mut self, retiming: Retiming) -> Self {
        self.initial = Some(retiming);
        self
    }

    /// Runs the solver.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InfeasibleInitial`] if the starting retiming
    ///   violates the instance (P2 violations are ignored when
    ///   `enable_p2` is off).
    /// * [`SolveError::IterationLimit`] if the iteration safety cap is
    ///   hit (would indicate a bug; the cap is far above the paper's
    ///   `|V|²` bound).
    /// * [`SolveError::Verification`] if the solved retiming fails the
    ///   final feasibility gate, or a restarted warm closure engine
    ///   fails its certificate (either would indicate a bug).
    pub fn run(self) -> Result<Solution, SolveError> {
        let initial = self.initial.unwrap_or_else(|| Retiming::zero(self.graph));
        run_solver(self.graph, self.problem, initial, self.config)
    }

    /// Runs the solver under [`Supervision`]: budgets and
    /// checkpoint/resume (see [`crate::supervisor`]). With the default
    /// supervision this behaves exactly like [`SolverSession::run`]
    /// and the outcome is always [`SolveOutcome::Complete`].
    ///
    /// # Errors
    ///
    /// Everything [`SolverSession::run`] reports, plus
    /// [`SolveError::Checkpoint`] when resuming from a checkpoint that
    /// is unreadable or does not match this instance. A budget expiry
    /// is **not** an error: it yields [`SolveOutcome::Degraded`] with
    /// the best feasible retiming found so far.
    pub fn run_supervised(self, supervision: Supervision) -> Result<SolveOutcome, SolveError> {
        let initial = self.initial.unwrap_or_else(|| Retiming::zero(self.graph));
        run_supervised_solver(self.graph, self.problem, initial, self.config, supervision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_feasible;
    use netlist::{samples, DelayModel};
    use retime::ElwParams;

    fn instance(phi: i64) -> (RetimeGraph, Problem) {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let counts = vec![1i64; g.num_vertices()];
        let p = Problem::from_observability_counts(&g, &counts, ElwParams::with_phi(phi), 1);
        (g, p)
    }

    #[test]
    fn session_defaults_to_zero_retiming() {
        let (g, p) = instance(20);
        let sol = SolverSession::new(&g, &p).run().unwrap();
        assert!(check_feasible(&g, &p, &sol.retiming).is_ok());
        assert!(sol.objective_gain >= 0);
    }

    #[test]
    fn explicit_zero_initial_matches_default() {
        let (g, p) = instance(20);
        let explicit = SolverSession::new(&g, &p)
            .initial(Retiming::zero(&g))
            .run()
            .unwrap();
        let defaulted = SolverSession::new(&g, &p).run().unwrap();
        assert_eq!(explicit.retiming, defaulted.retiming);
        assert_eq!(explicit.objective_gain, defaulted.objective_gain);
    }

    #[test]
    fn infeasible_initial_reported() {
        let (g, p) = instance(2); // phi too tight for r = 0
        let err = SolverSession::new(&g, &p).run().unwrap_err();
        assert!(matches!(err, SolveError::InfeasibleInitial(_)));
        assert_eq!(err.exit_code(), 1);
    }
}
