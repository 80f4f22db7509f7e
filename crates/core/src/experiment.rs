//! End-to-end experiment driver: circuit → SER analysis → Problem 1 →
//! MinObs / MinObsWin → retimed netlists → SER re-analysis. One call
//! produces everything a row of the paper's Table I reports.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use netlist::{Circuit, DelayModel};
use retime::apply::apply_retiming;
use retime::{ElwParams, RetimeGraph, Retiming};
use ser_engine::odc::Observability;
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{
    analyze, analyze_with_observability, propprob_report_with_trace, vertex_observabilities,
    ErrorRateModel, SerConfig,
};

use crate::algorithm::{SolverConfig, SolverStats};
use crate::init::InitConfig;
use crate::problem::Problem;
use crate::session::SolverSession;
use crate::supervisor::{Checkpoint, FileCheckpointSink, SolveBudget, Supervision};
use crate::SolveError;

/// Configuration of a full experiment run.
///
/// Construct with [`RunConfig::default`] (or [`RunConfig::small`]) and
/// set what differs through its `with_*` builders or public fields. The
/// struct is `#[non_exhaustive]`, so literals do not compile outside
/// this crate and future knobs are non-breaking.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct RunConfig {
    /// Simulation parameters (K vectors, n frames, warm-up, seed).
    pub sim: SimConfig,
    /// Gate delay model.
    pub delays: DelayModel,
    /// Raw rate characterization.
    pub rates: ErrorRateModel,
    /// §V initialization knobs (T_s, T_h, ε).
    pub init: InitConfig,
    /// Overrides the §V-derived `R_min` bound (the `retimer --r-min`
    /// flag). §V always chooses a bound the starting retiming
    /// satisfies, so an over-tight override is the supported way to
    /// drive the pipeline into [`SolveError::InfeasibleInitial`].
    pub r_min_override: Option<i64>,
    /// Resource budget shared by both solver runs (MinObs and
    /// MinObsWin race the same deadline through the budget's shared
    /// cancellation token). An expired budget degrades the affected
    /// method to its best-so-far retiming; see
    /// [`MethodResult::stats`]'s degradation report.
    pub budget: SolveBudget,
    /// Checkpoint path prefix: each method writes
    /// `<prefix>.<method>.ckpt` periodically (the `retimer
    /// --checkpoint` flag).
    pub checkpoint: Option<PathBuf>,
    /// Resume each method from its checkpoint file when one exists
    /// (the `retimer --resume` flag; requires [`RunConfig::checkpoint`]).
    pub resume: bool,
    /// Base solver configuration shared by both methods (the MinObs
    /// baseline additionally applies `with_p2(false)`).
    pub solver: SolverConfig,
    /// Phase/progress event stream (see [`ExperimentEvent`]); unset by
    /// default.
    pub progress: ProgressHook,
}

/// A pipeline notification streamed by [`Experiment::run`] through
/// [`RunConfig::with_progress`]. The serve daemon maps these onto its
/// per-job `iteration` protocol events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentEvent {
    /// Periodic solver progress (method is `"minobs"` or
    /// `"minobswin"`).
    SolveProgress {
        /// Which method is solving.
        method: &'static str,
        /// Total solver iterations so far.
        iterations: usize,
        /// Committed improvement rounds so far.
        commits: usize,
    },
}

/// A shareable experiment progress callback.
pub type ExperimentProgressFn = dyn Fn(ExperimentEvent) + Send + Sync;

/// An optional [`ExperimentProgressFn`], wrapped so [`RunConfig`]
/// stays `Debug + Clone + Default`.
#[derive(Clone, Default)]
pub struct ProgressHook(Option<Arc<ExperimentProgressFn>>);

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ProgressHook")
            .field(&self.0.is_some())
            .finish()
    }
}

impl ProgressHook {
    /// Wraps a callback.
    pub fn new(f: Arc<ExperimentProgressFn>) -> Self {
        Self(Some(f))
    }

    /// Emits one event (a no-op when unset).
    pub fn emit(&self, event: ExperimentEvent) {
        if let Some(f) = &self.0 {
            f(event);
        }
    }

    /// Whether a callback is registered.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }
}

impl RunConfig {
    /// A light configuration for tests.
    pub fn small() -> Self {
        Self::default().with_sim(SimConfig::small())
    }

    /// Sets the simulation parameters.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Overrides the `R_min` bound instead of deriving it per §V.
    pub fn with_r_min_override(mut self, r_min: Option<i64>) -> Self {
        self.r_min_override = r_min;
        self
    }

    /// Sets the solver budget (shared by both methods).
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the checkpoint path prefix.
    pub fn with_checkpoint(mut self, prefix: Option<PathBuf>) -> Self {
        self.checkpoint = prefix;
        self
    }

    /// Resumes from existing checkpoint files.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Streams [`ExperimentEvent`]s through `f` as the pipeline runs.
    pub fn with_progress(mut self, f: Arc<ExperimentProgressFn>) -> Self {
        self.progress = ProgressHook::new(f);
        self
    }

    /// The SER analysis settings of this run at clock period `phi`: its
    /// simulation and its delay and rate models, with the latching
    /// window taken from the §V setup and hold times.
    pub fn ser_config(&self, phi: i64) -> SerConfig {
        SerConfig {
            sim: self.sim,
            delays: self.delays.clone(),
            rates: self.rates.clone(),
            elw: ElwParams {
                phi,
                t_setup: self.init.t_setup,
                t_hold: self.init.t_hold,
            },
        }
    }
}

/// The per-method checkpoint file for a `--checkpoint` prefix.
pub fn checkpoint_path(prefix: &Path, method: &str) -> PathBuf {
    PathBuf::from(format!("{}.{method}.ckpt", prefix.display()))
}

/// Result of one optimization method on one circuit.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// The final retiming.
    pub retiming: Retiming,
    /// The original circuit rebuilt under [`MethodResult::retiming`]
    /// (the netlist the method's SER and register count describe).
    pub netlist: Circuit,
    /// Registers in the rebuilt netlist.
    pub registers: usize,
    /// Relative register change vs. the original circuit
    /// (`Δ#FF` column; negative = fewer registers).
    pub delta_ff: f64,
    /// SER of the rebuilt netlist (eq. (4)).
    pub ser: f64,
    /// Relative SER change vs. the original circuit (`ΔSER` column;
    /// negative = improvement).
    pub delta_ser: f64,
    /// Wall-clock seconds spent inside the retiming solver.
    pub solve_seconds: f64,
    /// Solver counters (`#J` = `stats.commits`).
    pub stats: SolverStats,
}

/// Everything one Table I row reports.
#[derive(Debug, Clone)]
pub struct CircuitRun {
    /// Circuit name.
    pub name: String,
    /// `|V|`: retiming-graph vertices (excluding the host).
    pub v: usize,
    /// `|E|`: retiming-graph edges.
    pub e: usize,
    /// `#FF`: registers in the original circuit.
    pub ff: usize,
    /// The period constraint Φ chosen by §V.
    pub phi: i64,
    /// The `R_min` bound chosen by §V.
    pub r_min: i64,
    /// Whether the setup-and-hold initialization succeeded.
    pub used_setup_hold: bool,
    /// SER of the original circuit at Φ.
    pub ser_original: f64,
    /// SER of the original circuit per the independent
    /// propagation-probability engine (a built-in second opinion on
    /// `ser_original`; see [`ser_engine::propprob`]).
    pub ser_propprob: f64,
    /// The Efficient MinObs baseline result.
    pub minobs: MethodResult,
    /// The MinObsWin result.
    pub minobswin: MethodResult,
}

impl CircuitRun {
    /// The paper's `SER_ref / SER_new` comparison column.
    pub fn ser_ratio(&self) -> f64 {
        ratio(self.minobs.ser, self.minobswin.ser)
    }
}

/// `new / old`, reading a change from 0 to 0 as no change (1) instead
/// of the NaN of `0 / 0`: the Δ#FF, ΔSER and SER-ratio columns of a
/// register-free or zero-SER circuit.
fn ratio(new: f64, old: f64) -> f64 {
    if new == 0.0 && old == 0.0 {
        1.0
    } else {
        new / old
    }
}

/// A configured end-to-end experiment over one circuit, built in the
/// same builder style as [`SolverSession`]:
///
/// ```no_run
/// use minobswin::experiment::{Experiment, RunConfig};
/// # use netlist::samples;
/// # fn main() -> Result<(), minobswin::SolveError> {
/// let run = Experiment::new(&samples::s27_like())
///     .config(RunConfig::small())
///     .run()?;
/// println!("{}: SER ratio {:.3}", run.name, run.ser_ratio());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[must_use = "an Experiment does nothing until `run()` is called"]
pub struct Experiment<'a> {
    circuit: &'a Circuit,
    config: RunConfig,
}

impl<'a> Experiment<'a> {
    /// Creates an experiment over `circuit` with the default
    /// [`RunConfig`].
    pub fn new(circuit: &'a Circuit) -> Self {
        Self {
            circuit,
            config: RunConfig::default(),
        }
    }

    /// Replaces the experiment configuration.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the full pipeline: simulate → Problem 1 → MinObs and
    /// MinObsWin → rebuild → SER re-analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] on infeasible initialization or solver
    /// failure, and wraps retiming/netlist errors from the substrate
    /// crates.
    pub fn run(self) -> Result<CircuitRun, SolveError> {
        run_experiment(self.circuit, &self.config)
    }
}

fn run_experiment(circuit: &Circuit, config: &RunConfig) -> Result<CircuitRun, SolveError> {
    let graph = RetimeGraph::from_circuit(circuit, &config.delays)?;
    let init = config.init.initialize(&graph)?;
    let r_min = config.r_min_override.unwrap_or(init.r_min);
    let ser_config = config.ser_config(init.phi);
    let params = ser_config.elw;

    // The simulation data plane dominates memory at scale (frames ×
    // gates × vectors); check it against the budget's memory cap
    // before allocating anything, so an over-budget instance fails
    // with a structured error instead of an OOM abort.
    if let Some(cap) = config.budget.max_memory_estimate {
        let bytes = FrameTrace::data_plane_bytes(circuit, &config.sim);
        if bytes > cap {
            return Err(SolveError::Initialization(format!(
                "simulation data plane needs ~{bytes} bytes \
                 ({} frames x {} gates x {} vectors), over the \
                 {cap}-byte memory budget",
                config.sim.frames,
                circuit.len(),
                config.sim.num_vectors
            )));
        }
    }

    // One simulation serves everything: retiming does not change the
    // observability of combinational gates (§III.B).
    let trace = FrameTrace::simulate(circuit, config.sim);
    let observability = Observability::compute(circuit, &trace);
    let vertex_obs = vertex_observabilities(circuit, &graph, &observability);
    let problem =
        Problem::from_observabilities(&graph, &vertex_obs, config.sim.num_vectors, params, r_min);

    let original_report = analyze_with_observability(circuit, &ser_config, &observability)?;
    // Second opinion from the propagation-probability engine, reusing
    // the one simulation above for its signal densities.
    let propprob_report = propprob_report_with_trace(circuit, &ser_config, &trace)?;
    let ff = circuit.num_registers();

    // Any SER engine breaker trip (the per-frame ODC audit caught the
    // blocked kernel diverging from its word oracle; results came from
    // the scalar fallback) is surfaced on each method's degradation
    // report. The original circuit's report carries its one ODC pass.
    let sim_engine = original_report.engine;
    let evaluate = |retiming: &Retiming,
                    seconds: f64,
                    mut stats: SolverStats|
     -> Result<MethodResult, SolveError> {
        let rebuilt = apply_retiming(circuit, &graph, retiming)?;
        let report = analyze(&rebuilt, &ser_config)?;
        let engine = sim_engine.merged(report.engine);
        if !engine.is_clean() {
            stats.degradation.ser_trip = true;
        }
        Ok(MethodResult {
            retiming: retiming.clone(),
            registers: rebuilt.num_registers(),
            delta_ff: ratio(rebuilt.num_registers() as f64, ff as f64) - 1.0,
            ser: report.ser,
            delta_ser: ratio(report.ser, original_report.ser) - 1.0,
            solve_seconds: seconds,
            stats,
            netlist: rebuilt,
        })
    };

    // Both methods run under the same budget: wall-time expiry in one
    // cancels the shared token, so the other degrades promptly instead
    // of doubling the overrun.
    let supervise = |method: &'static str| -> Result<Supervision, SolveError> {
        // The static memory model covers graph/labels/arcs; the live
        // arena probe adds the SER trace planes, so the cap governs
        // the run's real dominant allocation at 50k-gate scale.
        let mut sup = Supervision::new()
            .budget(config.budget.clone())
            .with_memory_probe(Arc::new(ser_engine::SignatureArena::live_bytes));
        if let Some(prefix) = &config.checkpoint {
            let path = checkpoint_path(prefix, method);
            if config.resume && path.exists() {
                match Checkpoint::read_file(&path) {
                    Ok(checkpoint) => sup = sup.resume_from(checkpoint),
                    Err(e) => {
                        // Self-healing: a checkpoint that fails its
                        // seal or parse is moved aside (preserved for
                        // inspection, never rewritten in place) and
                        // the solve starts fresh — recomputing is
                        // always safe, resuming corrupt state never is.
                        let quarantined = path.with_extension("ckpt.corrupt");
                        let _ = netlist::fio::rename(&path, &quarantined);
                        eprintln!(
                            "warning: ignoring corrupt checkpoint ({e}); \
                             moved to {} and solving from scratch",
                            quarantined.display()
                        );
                    }
                }
            }
            sup = sup.checkpoint_to(FileCheckpointSink::new(path));
        }
        if config.progress.is_set() {
            let hook = config.progress.clone();
            sup = sup.on_progress(Arc::new(move |p: crate::SolveProgress| {
                hook.emit(ExperimentEvent::SolveProgress {
                    method,
                    iterations: p.iterations,
                    commits: p.commits,
                });
            }));
        }
        Ok(sup)
    };

    let t0 = Instant::now();
    let ref_sol = SolverSession::new(&graph, &problem)
        .config(config.solver.with_p2(false))
        .initial(init.retiming.clone())
        .run_supervised(supervise("minobs")?)?
        .into_solution();
    let ref_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let win_sol = SolverSession::new(&graph, &problem)
        .config(config.solver)
        .initial(init.retiming.clone())
        .run_supervised(supervise("minobswin")?)?
        .into_solution();
    let win_secs = t1.elapsed().as_secs_f64();

    Ok(CircuitRun {
        name: circuit.name().to_string(),
        v: graph.num_vertices() - 1,
        e: graph.num_edges(),
        ff,
        phi: init.phi,
        r_min,
        used_setup_hold: init.used_setup_hold,
        ser_original: original_report.ser,
        ser_propprob: propprob_report.ser,
        minobs: evaluate(&ref_sol.retiming, ref_secs, ref_sol.stats)?,
        minobswin: evaluate(&win_sol.retiming, win_secs, win_sol.stats)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn s27_runs_end_to_end() {
        let c = samples::s27_like();
        let run = Experiment::new(&c)
            .config(RunConfig::small())
            .run()
            .unwrap();
        assert!(run.ser_original > 0.0);
        assert!(run.ser_propprob > 0.0);
        assert!(run.minobs.ser > 0.0);
        assert!(run.minobswin.ser > 0.0);
        assert_eq!(run.ff, 3);
        assert_eq!(run.v, c.num_combinational());
    }

    #[test]
    fn generated_circuit_runs_end_to_end() {
        let c = netlist::generator::GeneratorConfig::new("exp", 11)
            .gates(120)
            .registers(24)
            .build();
        let run = Experiment::new(&c)
            .config(RunConfig::small())
            .run()
            .unwrap();
        // The optimizers only ever improve (or match) the scaled
        // register-observability objective; SER usually follows, but is
        // evaluated with fresh ELWs so we only sanity-check structure.
        assert!(run.minobs.registers > 0);
        assert!(run.minobswin.registers > 0);
        assert!(run.minobswin.stats.commits <= run.minobswin.stats.iterations);
    }

    #[test]
    fn r_min_override_can_force_infeasibility() {
        let c = samples::s27_like();
        let err = Experiment::new(&c)
            .config(RunConfig::small().with_r_min_override(Some(1_000_000)))
            .run()
            .unwrap_err();
        assert!(matches!(err, SolveError::InfeasibleInitial(_)));
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn memory_cap_below_data_plane_fails_structured() {
        let c = samples::s27_like();
        // A cap of 1 byte is below any data plane: the run must fail
        // with a structured initialization error (exit 1), not abort.
        let budget = SolveBudget::new().with_max_memory_estimate(Some(1));
        let err = Experiment::new(&c)
            .config(RunConfig::small().with_budget(budget))
            .run()
            .unwrap_err();
        assert!(matches!(err, SolveError::Initialization(_)), "{err}");
        assert!(err.to_string().contains("memory budget"), "{err}");
        assert_eq!(err.exit_code(), 1);
        // A generous cap admits the same run.
        let budget = SolveBudget::new().with_max_memory_estimate(Some(1 << 30));
        Experiment::new(&c)
            .config(RunConfig::small().with_budget(budget))
            .run()
            .unwrap();
    }

    #[test]
    fn deterministic_runs() {
        let c = samples::s27_like();
        let a = Experiment::new(&c)
            .config(RunConfig::small())
            .run()
            .unwrap();
        let b = Experiment::new(&c)
            .config(RunConfig::small())
            .run()
            .unwrap();
        assert_eq!(a.ser_original, b.ser_original);
        assert_eq!(a.minobswin.ser, b.minobswin.ser);
        assert_eq!(a.minobswin.retiming, b.minobswin.retiming);
    }
}
