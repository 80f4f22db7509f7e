//! The resilient solve supervisor: cooperative budgets, panic
//! isolation with self-healing engine fallback, and checkpoint/resume.
//!
//! The warm closure engine ([`crate::closure_inc`]) is protected in
//! debug builds by a differential oracle that vanishes in release
//! builds. This module is the release-mode safety net around it, plus
//! the operational controls a long-running solve needs:
//!
//! * **Budgets** — [`SolveBudget`] bounds wall time, iterations and an
//!   estimated memory footprint. Expiry is communicated through a
//!   shared [`CancelToken`] and checked cooperatively at iteration and
//!   phase boundaries; the solver then returns
//!   [`SolveOutcome::Degraded`] carrying the best feasible retiming
//!   found so far instead of erroring.
//! * **Circuit breaker** — each warm closure call runs under
//!   `catch_unwind`, and every Nth call is audited against the
//!   from-scratch engine. A panic or a divergence trips the breaker,
//!   which permanently falls back Warm→Fresh for the rest of the
//!   solve. Trips are recorded in the [`DegradationReport`] surfaced
//!   through [`crate::algorithm::SolverStats`].
//! * **Checkpoints** — [`Checkpoint`] serializes the solver state
//!   (retiming labels, constraint weights, frozen set, active arcs,
//!   iteration counts) to a caller-supplied [`CheckpointSink`] so an
//!   interrupted solve can resume where it left off.
//!
//! The degradation ladder, from fastest to most conservative:
//!
//! ```text
//! warm closure                            (default)
//!   └─ breaker trip ──▶ fresh closure
//!        └─ final verification failure ──▶ full from-scratch re-solve
//! ```

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netlist::digest::{format_digest, parse_digest, Fnv1a};
use retime::{RetimeGraph, Retiming, VertexId};

use crate::closure::ConstraintSystem;
use crate::problem::Problem;
use crate::SolveError;

/// A shared cancellation flag. Clones observe the same flag, so one
/// token can supervise several solver runs (the experiment driver runs
/// MinObs and MinObsWin under the same deadline).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every clone observes it at the next
    /// iteration boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource bounds for one solver run. All limits are optional; the
/// default budget is unlimited. Construct with [`SolveBudget::new`]
/// and the `with_*` builders.
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Wall-clock bound, measured from the start of the solve. Expiry
    /// cancels the shared token, so sibling solves under the same
    /// budget stop too.
    pub wall_time: Option<Duration>,
    /// Total solver iterations allowed (distinct from the
    /// [`crate::algorithm::SolverConfig::max_iterations`] safety cap:
    /// exceeding the budget degrades instead of erroring).
    pub max_iterations: Option<usize>,
    /// Bound on the solver's estimated memory footprint in bytes (a
    /// coarse model of the graph, labels and constraint arcs — not an
    /// allocator measurement).
    pub max_memory_estimate: Option<usize>,
    token: CancelToken,
}

impl SolveBudget {
    /// An unlimited budget with a fresh cancellation token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds wall-clock time.
    #[must_use]
    pub fn with_wall_time(mut self, limit: Option<Duration>) -> Self {
        self.wall_time = limit;
        self
    }

    /// Bounds total solver iterations.
    #[must_use]
    pub fn with_max_iterations(mut self, limit: Option<usize>) -> Self {
        self.max_iterations = limit;
        self
    }

    /// Bounds the estimated memory footprint in bytes.
    #[must_use]
    pub fn with_max_memory_estimate(mut self, limit: Option<usize>) -> Self {
        self.max_memory_estimate = limit;
        self
    }

    /// Shares an externally owned cancellation token.
    #[must_use]
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// The budget's cancellation token (a clone; cancelling it stops
    /// every solve sharing this budget).
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Whether any limit is set (an unlimited budget never degrades a
    /// solve on its own; external cancellation still can).
    pub fn is_limited(&self) -> bool {
        self.wall_time.is_some()
            || self.max_iterations.is_some()
            || self.max_memory_estimate.is_some()
    }
}

/// Why a supervised solve stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock budget expired.
    WallTime,
    /// The iteration budget was exhausted.
    Iterations,
    /// The estimated memory footprint exceeded its bound.
    Memory,
    /// The shared [`CancelToken`] was cancelled externally (or by a
    /// sibling solve's expired deadline).
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::WallTime => write!(f, "wall-time budget expired"),
            StopReason::Iterations => write!(f, "iteration budget exhausted"),
            StopReason::Memory => write!(f, "memory-estimate budget exceeded"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// What tripped a circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripCause {
    /// The engine panicked; the panic was caught and isolated.
    Panic,
    /// A sampled audit found the engine's answer diverging from the
    /// from-scratch oracle.
    Divergence,
}

impl fmt::Display for TripCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripCause::Panic => write!(f, "panic"),
            TripCause::Divergence => write!(f, "divergence"),
        }
    }
}

/// One circuit-breaker trip. Breakers are permanent for the rest of
/// the solve, so each breaker trips at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTrip {
    /// The solver iteration (total, across phases) at which the
    /// breaker tripped.
    pub iteration: usize,
    /// Panic or audited divergence.
    pub cause: TripCause,
}

/// How far a solve degraded from its configured fast paths. Surfaced
/// through [`crate::algorithm::SolverStats::degradation`] and printed
/// by the `retimer` CLI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// The warm closure engine's breaker (fallback: fresh builds).
    pub closure_trip: Option<BreakerTrip>,
    /// The parallel SER engine's sampled-audit breaker (fallback: the
    /// scalar simulation/ODC engine). `iteration` is 0: the trip
    /// happens during simulation, before the solve loop starts.
    pub ser_trip: Option<BreakerTrip>,
    /// Set when a budget stopped the solve early.
    pub budget_stop: Option<StopReason>,
    /// The final verification gate found the result infeasible and the
    /// whole solve was redone with the from-scratch closure engine (the
    /// last rung of the degradation ladder).
    pub full_restart: bool,
    /// Checkpoint writes that failed (the solve continues; the sink
    /// error is not fatal).
    pub checkpoint_write_failures: u32,
}

impl DegradationReport {
    /// `true` when nothing degraded: no trips, no budget stop, no
    /// restart, no failed checkpoint writes.
    pub fn is_clean(&self) -> bool {
        self.closure_trip.is_none()
            && self.ser_trip.is_none()
            && self.budget_stop.is_none()
            && !self.full_restart
            && self.checkpoint_write_failures == 0
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        let mut sep = "";
        if let Some(t) = self.closure_trip {
            write!(
                f,
                "closure breaker tripped ({}, iter {})",
                t.cause, t.iteration
            )?;
            sep = "; ";
        }
        if let Some(t) = self.ser_trip {
            write!(f, "{sep}SER engine breaker tripped ({})", t.cause)?;
            sep = "; ";
        }
        if self.full_restart {
            write!(f, "{sep}full from-scratch re-solve")?;
            sep = "; ";
        }
        if let Some(reason) = self.budget_stop {
            write!(f, "{sep}{reason}")?;
            sep = "; ";
        }
        if self.checkpoint_write_failures > 0 {
            write!(
                f,
                "{sep}{} checkpoint write(s) failed",
                self.checkpoint_write_failures
            )?;
        }
        Ok(())
    }
}

/// Test-only fault injection, reachable through
/// `SolverConfig::with_sabotage`. `at` is the 1-based closure call
/// index from which the fault fires (every call from there on). Public
/// so integration tests can poison the warm closure engine; hidden
/// from docs and never set by production code.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Sabotage {
    /// No fault injection (the default).
    #[default]
    None,
    /// The warm closure engine panics on every call ≥ `at`.
    PanicClosure {
        /// First affected call (1-based).
        at: u64,
    },
    /// The warm closure engine returns a corrupted member set on every
    /// call ≥ `at`.
    WrongClosure {
        /// First affected call (1-based).
        at: u64,
    },
}

impl Sabotage {
    /// Corrupts (or panics on) a closure selection. Returns `true` if
    /// the member set was modified, so the debug-build oracle knows to
    /// stand down and let the sampled audit catch it.
    pub(crate) fn corrupt_closure(self, call: u64, members: &mut Vec<VertexId>) -> bool {
        match self {
            Sabotage::PanicClosure { at } if call >= at => {
                panic!("sabotage: forced closure-engine panic at call {call}")
            }
            Sabotage::WrongClosure { at } if call >= at => {
                if members.pop().is_none() {
                    members.push(VertexId::new(1));
                }
                true
            }
            _ => false,
        }
    }
}

/// A serializable snapshot of the solver's state, sufficient to resume
/// an interrupted solve: the committed retiming, the current phase's
/// constraint-system state (monotone weights, frozen set, active
/// arcs), and progress counters. The format is a versioned line-based
/// text document (the workspace deliberately has no serde dependency);
/// see `DESIGN.md` §10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Instance fingerprint (graph + problem + solve-shape config);
    /// resume refuses a checkpoint whose digest does not match.
    pub digest: u64,
    /// `true` when the checkpoint was taken during an ascent phase.
    pub direction_increase: bool,
    /// `stats.commits` at the start of the current descent/ascent
    /// round (the outer loop's termination test needs it).
    pub round_start_commits: usize,
    /// The objective of the original starting retiming (so a resumed
    /// solve reports the same total gain).
    pub start_objective: i64,
    /// Total solver iterations so far.
    pub iterations: usize,
    /// Committed improvement rounds so far.
    pub commits: usize,
    /// `true` when the solve had finished; resuming a complete
    /// checkpoint returns its retiming immediately.
    pub complete: bool,
    /// The committed retiming labels, indexed by vertex (entry 0 is
    /// the host and must be 0).
    pub retiming: Vec<i64>,
    /// Constraint-system move weights, indexed by vertex.
    pub weights: Vec<i64>,
    /// Frozen vertex indices (excluding the host, which is always
    /// frozen).
    pub frozen: Vec<u32>,
    /// Active constraint arcs `(p, q)` in insertion order.
    pub arcs: Vec<(u32, u32)>,
}

/// The checkpoint format's magic first line.
const CHECKPOINT_MAGIC: &str = "minobswin-checkpoint v1";

impl Checkpoint {
    /// Serializes to the versioned text format.
    pub fn serialize(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(CHECKPOINT_MAGIC);
        out.push('\n');
        let _ = writeln!(out, "digest {}", format_digest(self.digest));
        let _ = writeln!(
            out,
            "phase {}",
            if self.direction_increase {
                "increase"
            } else {
                "decrease"
            }
        );
        let _ = writeln!(out, "round_start_commits {}", self.round_start_commits);
        let _ = writeln!(out, "start_objective {}", self.start_objective);
        let _ = writeln!(out, "iterations {}", self.iterations);
        let _ = writeln!(out, "commits {}", self.commits);
        let _ = writeln!(out, "complete {}", u8::from(self.complete));
        let join = |xs: &mut dyn Iterator<Item = String>| xs.collect::<Vec<_>>().join(" ");
        let _ = writeln!(
            out,
            "r {}",
            join(&mut self.retiming.iter().map(|x| x.to_string()))
        );
        let _ = writeln!(
            out,
            "weights {}",
            join(&mut self.weights.iter().map(|x| x.to_string()))
        );
        let _ = writeln!(
            out,
            "frozen {}",
            join(&mut self.frozen.iter().map(|x| x.to_string()))
        );
        let _ = writeln!(
            out,
            "arcs {}",
            join(&mut self.arcs.iter().map(|(p, q)| format!("{p}>{q}")))
        );
        out.push_str("end\n");
        out
    }

    /// Parses the text format. Returns a message describing the first
    /// problem found; the caller wraps it in
    /// [`SolveError::Checkpoint`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some(CHECKPOINT_MAGIC) {
            return Err(format!(
                "not a checkpoint file (expected `{CHECKPOINT_MAGIC}`)"
            ));
        }
        let mut digest = None;
        let mut direction_increase = None;
        let mut round_start_commits = None;
        let mut start_objective = None;
        let mut iterations = None;
        let mut commits = None;
        let mut complete = None;
        let mut retiming = None;
        let mut weights = None;
        let mut frozen = None;
        let mut arcs = None;
        let mut ended = false;
        for line in lines {
            let line = line.trim_end();
            if line == "end" {
                ended = true;
                break;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let ints = |rest: &str| -> Result<Vec<i64>, String> {
                rest.split_whitespace()
                    .map(|t| {
                        t.parse::<i64>()
                            .map_err(|_| format!("bad integer `{t}` in `{key}`"))
                    })
                    .collect()
            };
            match key {
                // Digests are stored self-describing (`fnv1a-v1:<hex>`);
                // an untagged or foreign-tagged digest is refused so a
                // checkpoint from an incompatible digest scheme can
                // never validate by hex coincidence.
                "digest" => digest = Some(parse_digest(rest)?),
                "phase" => {
                    direction_increase = Some(match rest {
                        "increase" => true,
                        "decrease" => false,
                        other => return Err(format!("bad phase `{other}`")),
                    })
                }
                "round_start_commits" => {
                    round_start_commits = Some(
                        rest.parse()
                            .map_err(|_| format!("bad round_start_commits `{rest}`"))?,
                    )
                }
                "start_objective" => {
                    start_objective = Some(
                        rest.parse()
                            .map_err(|_| format!("bad start_objective `{rest}`"))?,
                    )
                }
                "iterations" => {
                    iterations = Some(
                        rest.parse()
                            .map_err(|_| format!("bad iterations `{rest}`"))?,
                    )
                }
                "commits" => {
                    commits = Some(rest.parse().map_err(|_| format!("bad commits `{rest}`"))?)
                }
                "complete" => {
                    complete = Some(match rest {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("bad complete flag `{other}`")),
                    })
                }
                "r" => retiming = Some(ints(rest)?),
                "weights" => weights = Some(ints(rest)?),
                "frozen" => {
                    frozen = Some(
                        rest.split_whitespace()
                            .map(|t| {
                                t.parse::<u32>()
                                    .map_err(|_| format!("bad frozen index `{t}`"))
                            })
                            .collect::<Result<Vec<u32>, String>>()?,
                    )
                }
                "arcs" => {
                    arcs = Some(
                        rest.split_whitespace()
                            .map(|t| {
                                let (p, q) =
                                    t.split_once('>').ok_or_else(|| format!("bad arc `{t}`"))?;
                                Ok((
                                    p.parse::<u32>()
                                        .map_err(|_| format!("bad arc tail `{t}`"))?,
                                    q.parse::<u32>()
                                        .map_err(|_| format!("bad arc head `{t}`"))?,
                                ))
                            })
                            .collect::<Result<Vec<(u32, u32)>, String>>()?,
                    )
                }
                other => return Err(format!("unknown checkpoint key `{other}`")),
            }
        }
        if !ended {
            return Err("truncated checkpoint (missing `end`)".to_string());
        }
        let missing = |what: &str| format!("checkpoint is missing `{what}`");
        Ok(Self {
            digest: digest.ok_or_else(|| missing("digest"))?,
            direction_increase: direction_increase.ok_or_else(|| missing("phase"))?,
            round_start_commits: round_start_commits
                .ok_or_else(|| missing("round_start_commits"))?,
            start_objective: start_objective.ok_or_else(|| missing("start_objective"))?,
            iterations: iterations.ok_or_else(|| missing("iterations"))?,
            commits: commits.ok_or_else(|| missing("commits"))?,
            complete: complete.ok_or_else(|| missing("complete"))?,
            retiming: retiming.ok_or_else(|| missing("r"))?,
            weights: weights.ok_or_else(|| missing("weights"))?,
            frozen: frozen.ok_or_else(|| missing("frozen"))?,
            arcs: arcs.ok_or_else(|| missing("arcs"))?,
        })
    }

    /// Reads and parses a checkpoint file, verifying its sealed
    /// content digest when one is present ([`FileCheckpointSink`]
    /// always writes one; headerless files are accepted as legacy
    /// checkpoints and rely on the strict text format alone).
    ///
    /// # Errors
    ///
    /// [`SolveError::Checkpoint`] on read, seal-verification or parse
    /// failure.
    pub fn read_file(path: &Path) -> Result<Self, SolveError> {
        let text = netlist::fio::read_to_string(path)
            .map_err(|e| SolveError::Checkpoint(format!("{}: {e}", path.display())))?;
        let body = match netlist::fio::unseal(&text) {
            Ok(payload) => payload,
            Err(netlist::fio::SealError::Missing) => &text,
            Err(e) => {
                return Err(SolveError::Checkpoint(format!("{}: {e}", path.display())));
            }
        };
        Self::parse(body).map_err(|m| SolveError::Checkpoint(format!("{}: {m}", path.display())))
    }

    /// Validates the checkpoint against the instance it is about to
    /// resume: matching digest, consistent lengths, in-range indices,
    /// no host-targeted arcs (the constraint system rejects those).
    pub(crate) fn validate(&self, num_vertices: usize, digest: u64) -> Result<(), String> {
        if self.digest != digest {
            return Err(format!(
                "checkpoint digest {} does not match this instance ({}); \
                 the circuit, problem or solve configuration changed",
                format_digest(self.digest),
                format_digest(digest)
            ));
        }
        if self.retiming.len() != num_vertices {
            return Err(format!(
                "checkpoint has {} retiming labels, instance has {num_vertices} vertices",
                self.retiming.len()
            ));
        }
        if !self.complete && self.weights.len() != num_vertices {
            return Err(format!(
                "checkpoint has {} weights, instance has {num_vertices} vertices",
                self.weights.len()
            ));
        }
        // The host's weight is pinned to 0 by `ConstraintSystem::new`;
        // every other weight starts at 1 and only rises.
        if self.weights.first().is_some_and(|&w| w != 0) {
            return Err("checkpoint host weight must be 0".to_string());
        }
        if self.weights.iter().skip(1).any(|&w| w < 1) {
            return Err("checkpoint contains a weight below 1".to_string());
        }
        let in_range = |i: u32| (i as usize) < num_vertices;
        if let Some(&i) = self.frozen.iter().find(|&&i| !in_range(i)) {
            return Err(format!("frozen index {i} out of range"));
        }
        for &(p, q) in &self.arcs {
            if !in_range(p) || !in_range(q) {
                return Err(format!("arc {p}>{q} out of range"));
            }
            if q == 0 {
                return Err(format!("arc {p}>{q} targets the host"));
            }
        }
        if self.round_start_commits > self.commits {
            return Err("round_start_commits exceeds commits".to_string());
        }
        Ok(())
    }
}

/// Where periodic checkpoints go. Implementations must be atomic from
/// the reader's point of view (a crash mid-save must not leave a
/// half-written checkpoint where a resume would find it).
pub trait CheckpointSink {
    /// Persists one checkpoint, replacing any previous one.
    ///
    /// # Errors
    ///
    /// I/O failure; the solver records it in
    /// [`DegradationReport::checkpoint_write_failures`] and continues.
    fn save(&mut self, checkpoint: &Checkpoint) -> io::Result<()>;
}

/// A [`CheckpointSink`] writing atomically to one file (temp file in
/// the same directory, then rename) through the fault-injectable
/// `netlist::fio` shim, with the payload sealed under its content
/// digest so a torn or bit-flipped checkpoint is detected at resume
/// instead of silently resuming wrong state.
#[derive(Debug, Clone)]
pub struct FileCheckpointSink {
    path: PathBuf,
}

impl FileCheckpointSink {
    /// A sink writing to `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CheckpointSink for FileCheckpointSink {
    fn save(&mut self, checkpoint: &Checkpoint) -> io::Result<()> {
        netlist::fio::write_atomic(&self.path, &netlist::fio::seal(&checkpoint.serialize()))
    }
}

/// A [`CheckpointSink`] keeping every checkpoint in memory (tests and
/// embedding callers).
#[derive(Debug, Clone, Default)]
pub struct MemoryCheckpointSink {
    /// All checkpoints saved, in order.
    pub saved: Vec<Checkpoint>,
}

impl MemoryCheckpointSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointSink for MemoryCheckpointSink {
    fn save(&mut self, checkpoint: &Checkpoint) -> io::Result<()> {
        self.saved.push(checkpoint.clone());
        Ok(())
    }
}

/// Periodic solver progress, streamed through
/// [`Supervision::on_progress`] at iteration boundaries. The serve
/// daemon forwards these as per-job `iteration` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveProgress {
    /// Total solver iterations so far (across phases).
    pub iterations: usize,
    /// Committed improvement rounds so far (`#J`).
    pub commits: usize,
}

/// A shareable progress callback (the solver calls it from whichever
/// thread runs the solve).
pub type ProgressFn = dyn Fn(SolveProgress) + Send + Sync;

/// A live memory measurement in bytes, added on top of the planning
/// [`memory_estimate`] at every budget check. The canonical probe is
/// `ser_engine::SignatureArena::live_bytes` — the trace arena is the
/// dominant allocation of a large run and is invisible to the static
/// estimate.
pub type MemoryProbe = dyn Fn() -> usize + Send + Sync;

/// Supervision controls for one solver run: a budget, an optional
/// checkpoint sink, an optional checkpoint to resume from, the
/// sampled-audit interval, and an optional progress stream. Pass to
/// [`crate::SolverSession::run_supervised`].
pub struct Supervision {
    pub(crate) budget: SolveBudget,
    pub(crate) sink: Option<Box<dyn CheckpointSink>>,
    pub(crate) checkpoint_every: usize,
    pub(crate) resume: Option<Checkpoint>,
    pub(crate) audit_interval: u64,
    pub(crate) progress: Option<Arc<ProgressFn>>,
    pub(crate) progress_every: usize,
    pub(crate) memory_probe: Option<Arc<MemoryProbe>>,
}

impl fmt::Debug for Supervision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervision")
            .field("budget", &self.budget)
            .field("sink", &self.sink.is_some())
            .field("checkpoint_every", &self.checkpoint_every)
            .field("resume", &self.resume.is_some())
            .field("audit_interval", &self.audit_interval)
            .field("progress", &self.progress.is_some())
            .field("progress_every", &self.progress_every)
            .field("memory_probe", &self.memory_probe.is_some())
            .finish()
    }
}

impl Default for Supervision {
    fn default() -> Self {
        Self {
            budget: SolveBudget::default(),
            sink: None,
            checkpoint_every: 16,
            resume: None,
            audit_interval: DEFAULT_AUDIT_INTERVAL,
            progress: None,
            progress_every: DEFAULT_PROGRESS_INTERVAL,
            memory_probe: None,
        }
    }
}

/// Default sampled-audit interval: every Nth warm closure call is
/// re-run on the from-scratch engine and compared bit-for-bit.
pub const DEFAULT_AUDIT_INTERVAL: u64 = 64;

/// Default progress-stream interval: [`Supervision::on_progress`]
/// fires every Nth solver iteration.
pub const DEFAULT_PROGRESS_INTERVAL: usize = 32;

impl Supervision {
    /// Default supervision: unlimited budget, no checkpoints, audits
    /// every [`DEFAULT_AUDIT_INTERVAL`]th engine call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the budget.
    #[must_use]
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sends periodic checkpoints to `sink`.
    #[must_use]
    pub fn checkpoint_to(mut self, sink: impl CheckpointSink + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Checkpoint every `every` solver iterations (default 16; clamped
    /// to at least 1).
    #[must_use]
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Resumes from a previously saved checkpoint.
    #[must_use]
    pub fn resume_from(mut self, checkpoint: Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Audits every `n`th warm closure call against the
    /// from-scratch oracle (default [`DEFAULT_AUDIT_INTERVAL`];
    /// clamped to at least 1 — 1 audits every call).
    #[must_use]
    pub fn audit_every(mut self, n: u64) -> Self {
        self.audit_interval = n.max(1);
        self
    }

    /// Streams [`SolveProgress`] through `f` at iteration boundaries.
    #[must_use]
    pub fn on_progress(mut self, f: Arc<ProgressFn>) -> Self {
        self.progress = Some(f);
        self
    }

    /// Fires the progress stream every `every` iterations (default
    /// [`DEFAULT_PROGRESS_INTERVAL`]; clamped to at least 1 — 1
    /// reports every iteration).
    #[must_use]
    pub fn progress_every(mut self, every: usize) -> Self {
        self.progress_every = every.max(1);
        self
    }

    /// Adds a live memory probe: its reading joins the planning
    /// estimate at every [`SolveBudget::max_memory_estimate`] check,
    /// so allocations the static model cannot see (the SER trace
    /// arena, above all) count against the cap.
    #[must_use]
    pub fn with_memory_probe(mut self, probe: Arc<MemoryProbe>) -> Self {
        self.memory_probe = Some(probe);
        self
    }
}

/// A coarse model of the solver's memory footprint in bytes: graph
/// adjacency, per-vertex labels, and the constraint system with its
/// closure network. Used for [`SolveBudget::max_memory_estimate`]; it
/// is a planning estimate, not an allocator measurement.
pub fn memory_estimate(graph: &RetimeGraph, system: &ConstraintSystem) -> usize {
    graph.num_vertices() * 96 + graph.num_edges() * 48 + system.num_arcs() * 64
}

/// The supervisor's per-run state: resolved deadline, breaker flags,
/// checkpoint plumbing and the accumulating [`DegradationReport`].
pub(crate) struct SupervisorRt {
    budget: SolveBudget,
    deadline: Option<Instant>,
    audit_interval: u64,
    sink: Option<Box<dyn CheckpointSink>>,
    checkpoint_every: usize,
    resume: Option<Checkpoint>,
    progress: Option<Arc<ProgressFn>>,
    progress_every: usize,
    memory_probe: Option<Arc<MemoryProbe>>,
    /// The instance fingerprint stamped into every checkpoint.
    pub(crate) digest: u64,
    /// Objective of the original starting retiming.
    pub(crate) start_objective: i64,
    /// `stats.commits` at the start of the current round.
    pub(crate) round_start_commits: usize,
    /// Accumulated degradation.
    pub(crate) report: DegradationReport,
    /// Set once a budget stop fires; phases unwind cooperatively.
    pub(crate) stop: Option<StopReason>,
}

impl SupervisorRt {
    pub(crate) fn new(supervision: Supervision, digest: u64) -> Self {
        let deadline = supervision.budget.wall_time.map(|d| Instant::now() + d);
        Self {
            deadline,
            audit_interval: supervision.audit_interval,
            sink: supervision.sink,
            checkpoint_every: supervision.checkpoint_every,
            resume: supervision.resume,
            progress: supervision.progress,
            progress_every: supervision.progress_every,
            memory_probe: supervision.memory_probe,
            budget: supervision.budget,
            digest,
            start_objective: 0,
            round_start_commits: 0,
            report: DegradationReport::default(),
            stop: None,
        }
    }

    pub(crate) fn take_resume(&mut self) -> Option<Checkpoint> {
        self.resume.take()
    }

    /// The cooperative budget check, run at iteration and phase
    /// boundaries. Records the first stop reason, cancels the shared
    /// token on deadline expiry, and returns `true` when the solve
    /// should unwind with its best-so-far result.
    pub(crate) fn should_stop(
        &mut self,
        iterations: usize,
        mem_estimate: impl FnOnce() -> usize,
    ) -> bool {
        if self.stop.is_some() {
            return true;
        }
        let reason = if self.deadline.is_some_and(|d| Instant::now() >= d) {
            // The deadline is shared state: siblings under the same
            // budget must stop too.
            self.budget.token.cancel();
            Some(StopReason::WallTime)
        } else if self.budget.token.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self
            .budget
            .max_iterations
            .is_some_and(|cap| iterations >= cap)
        {
            Some(StopReason::Iterations)
        } else if self.budget.max_memory_estimate.is_some_and(|cap| {
            let probed = self.memory_probe.as_ref().map_or(0, |p| p());
            mem_estimate() + probed > cap
        }) {
            Some(StopReason::Memory)
        } else {
            None
        };
        if let Some(reason) = reason {
            self.stop = Some(reason);
            self.report.budget_stop = Some(reason);
        }
        self.stop.is_some()
    }

    /// Whether call number `calls` (1-based) is a sampled-audit point.
    pub(crate) fn audit_due(&self, calls: u64) -> bool {
        calls.is_multiple_of(self.audit_interval)
    }

    /// Streams progress to the registered callback at the configured
    /// cadence (a no-op without one).
    pub(crate) fn tick_progress(&self, iterations: usize, commits: usize) {
        if let Some(f) = &self.progress {
            if iterations.is_multiple_of(self.progress_every) {
                f(SolveProgress {
                    iterations,
                    commits,
                });
            }
        }
    }

    pub(crate) fn closure_allowed(&self) -> bool {
        self.report.closure_trip.is_none()
    }

    pub(crate) fn trip_closure(&mut self, iteration: usize, cause: TripCause) {
        if self.report.closure_trip.is_none() {
            self.report.closure_trip = Some(BreakerTrip { iteration, cause });
        }
    }

    /// Whether iteration `iterations` is a periodic-checkpoint point.
    pub(crate) fn checkpoint_due(&self, iterations: usize) -> bool {
        self.sink.is_some() && iterations.is_multiple_of(self.checkpoint_every)
    }

    pub(crate) fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Saves a checkpoint; failures are recorded, not fatal.
    pub(crate) fn save(&mut self, checkpoint: &Checkpoint) {
        if let Some(sink) = self.sink.as_mut() {
            if sink.save(checkpoint).is_err() {
                self.report.checkpoint_write_failures =
                    self.report.checkpoint_write_failures.saturating_add(1);
            }
        }
    }

    /// Builds a checkpoint of the current solver state.
    pub(crate) fn snapshot(
        &self,
        r: &Retiming,
        system: Option<&ConstraintSystem>,
        direction_increase: bool,
        iterations: usize,
        commits: usize,
        complete: bool,
    ) -> Checkpoint {
        let (weights, frozen, arcs) = match system {
            Some(system) => (
                (0..system.len())
                    .map(|i| system.weight(VertexId::new(i)))
                    .collect(),
                (1..system.len())
                    .filter(|&i| system.is_frozen(VertexId::new(i)))
                    .map(|i| i as u32)
                    .collect(),
                system.arc_log().to_vec(),
            ),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        Checkpoint {
            digest: self.digest,
            direction_increase,
            round_start_commits: self.round_start_commits,
            start_objective: self.start_objective,
            iterations,
            commits,
            complete,
            retiming: r.as_slice().to_vec(),
            weights,
            frozen,
            arcs,
        }
    }
}

/// FNV-1a fingerprint of the instance a solve runs over: graph
/// structure, delays, problem coefficients and the solve-shape
/// configuration bits. Checkpoints embed it so a resume against a
/// different instance is refused instead of corrupting the solve.
pub(crate) fn instance_digest(
    graph: &RetimeGraph,
    problem: &Problem,
    enable_p2: bool,
    bidirectional: bool,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(graph.num_vertices() as u64);
    h.write_u64(graph.num_edges() as u64);
    for e in graph.edges() {
        h.write_u64(e.from.index() as u64);
        h.write_u64(e.to.index() as u64);
        h.write_u64(u64::from(e.weight));
    }
    for v in graph.vertices() {
        h.write_i64(graph.delay(v));
    }
    for &b in &problem.b {
        h.write_i64(b);
    }
    h.write_i64(problem.r_min);
    h.write_i64(problem.params.phi);
    h.write_i64(problem.params.t_setup);
    h.write_i64(problem.params.t_hold);
    h.write_u64(u64::from(enable_p2));
    h.write_u64(u64::from(bidirectional));
    h.finish()
}

/// Outcome of a supervised solve.
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    /// The solve ran to local optimality.
    Complete(crate::algorithm::Solution),
    /// A budget stopped the solve early; the carried solution is the
    /// best feasible retiming found so far.
    Degraded(DegradedSolution),
}

/// A budget-stopped solve's result: feasible, but not necessarily
/// locally optimal.
#[derive(Debug, Clone)]
pub struct DegradedSolution {
    /// The best feasible retiming committed before the stop, with the
    /// objective progress made so far.
    pub solution: crate::algorithm::Solution,
    /// What stopped the solve.
    pub reason: StopReason,
}

impl SolveOutcome {
    /// The carried solution, complete or degraded.
    pub fn solution(&self) -> &crate::algorithm::Solution {
        match self {
            SolveOutcome::Complete(s) => s,
            SolveOutcome::Degraded(d) => &d.solution,
        }
    }

    /// Consumes the outcome, returning the carried solution.
    pub fn into_solution(self) -> crate::algorithm::Solution {
        match self {
            SolveOutcome::Complete(s) => s,
            SolveOutcome::Degraded(d) => d.solution,
        }
    }

    /// `true` for [`SolveOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, SolveOutcome::Degraded(_))
    }

    /// The stop reason of a degraded outcome.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            SolveOutcome::Complete(_) => None,
            SolveOutcome::Degraded(d) => Some(d.reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            digest: 0xdead_beef_cafe_f00d,
            direction_increase: true,
            round_start_commits: 3,
            start_objective: -41,
            iterations: 120,
            commits: 7,
            complete: false,
            retiming: vec![0, -1, 2, 0],
            weights: vec![0, 2, 1, 3],
            frozen: vec![2],
            arcs: vec![(1, 2), (3, 1)],
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let cp = sample_checkpoint();
        let text = cp.serialize();
        assert_eq!(Checkpoint::parse(&text).unwrap(), cp);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("some other file\n").is_err());
        let mut truncated = sample_checkpoint().serialize();
        truncated.truncate(truncated.len() - 5); // drop "end\n" and more
        assert!(Checkpoint::parse(&truncated)
            .unwrap_err()
            .contains("truncated"));
        let bad_int = sample_checkpoint()
            .serialize()
            .replace("commits 7", "commits x");
        assert!(Checkpoint::parse(&bad_int).is_err());
    }

    #[test]
    fn checkpoint_validation_catches_mismatches() {
        let cp = sample_checkpoint();
        assert!(cp.validate(4, cp.digest).is_ok());
        assert!(cp
            .validate(4, cp.digest + 1)
            .unwrap_err()
            .contains("digest"));
        assert!(cp.validate(5, cp.digest).unwrap_err().contains("labels"));
        let mut host_arc = cp.clone();
        host_arc.arcs.push((1, 0));
        assert!(host_arc
            .validate(4, cp.digest)
            .unwrap_err()
            .contains("host"));
        let mut bad_weight = cp.clone();
        bad_weight.weights[1] = 0;
        assert!(bad_weight.validate(4, cp.digest).is_err());
        let mut bad_host = cp.clone();
        bad_host.weights[0] = 1;
        assert!(bad_host
            .validate(4, cp.digest)
            .unwrap_err()
            .contains("host weight"));
    }

    #[test]
    fn memory_probe_reading_joins_the_estimate_at_the_cap_check() {
        // Cap 100: estimate 60 alone passes, probe 50 on top trips.
        let sup = Supervision::new()
            .budget(SolveBudget::new().with_max_memory_estimate(Some(100)))
            .with_memory_probe(Arc::new(|| 50));
        let mut rt = SupervisorRt::new(sup, 0);
        assert!(rt.should_stop(0, || 60));
        assert_eq!(rt.stop, Some(StopReason::Memory));

        // Without the probe the same estimate stays under the cap.
        let sup = Supervision::new().budget(SolveBudget::new().with_max_memory_estimate(Some(100)));
        let mut rt = SupervisorRt::new(sup, 0);
        assert!(!rt.should_stop(0, || 60));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn budget_limits_are_detected() {
        assert!(!SolveBudget::new().is_limited());
        assert!(SolveBudget::new().with_max_iterations(Some(5)).is_limited());
        assert!(SolveBudget::new()
            .with_wall_time(Some(Duration::from_secs(1)))
            .is_limited());
    }

    #[test]
    fn degradation_report_displays() {
        let clean = DegradationReport::default();
        assert!(clean.is_clean());
        assert_eq!(clean.to_string(), "clean");
        let report = DegradationReport {
            closure_trip: Some(BreakerTrip {
                iteration: 9,
                cause: TripCause::Panic,
            }),
            budget_stop: Some(StopReason::WallTime),
            ..DegradationReport::default()
        };
        let text = report.to_string();
        assert!(text.contains("closure breaker"));
        assert!(text.contains("wall-time"));
        let ser = DegradationReport {
            ser_trip: Some(BreakerTrip {
                iteration: 0,
                cause: TripCause::Divergence,
            }),
            ..DegradationReport::default()
        };
        assert!(!ser.is_clean());
        assert!(ser.to_string().contains("SER engine breaker"));
    }

    #[test]
    fn file_sink_writes_atomically_renamed_file() {
        let dir = std::env::temp_dir().join(format!("minobswin_ckpt_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solve.ckpt");
        let mut sink = FileCheckpointSink::new(&path);
        let cp = sample_checkpoint();
        sink.save(&cp).unwrap();
        assert_eq!(Checkpoint::read_file(&path).unwrap(), cp);
        assert!(!path.with_extension("ckpt.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
