//! # minobswin — retiming for soft error minimization under
//! error-latching window constraints
//!
//! A from-scratch Rust reproduction of **Lu & Zhou, DATE 2013**. The
//! paper formulates *Problem 1* — minimize the total observability of a
//! sequential circuit's registers (the logic-masking share of its soft
//! error rate) by retiming, subject to error-latching-window (ELW)
//! constraints that stop the retiming from degrading timing masking —
//! and solves it with an incremental algorithm over a **weighted
//! regular forest**.
//!
//! This crate provides:
//!
//! * [`Problem`]: the instance (gain coefficients `b(v)` from
//!   observability counts, clocking parameters, `R_min`),
//! * [`forest::WeightedRegularForest`]: the paper's §IV data structure,
//! * [`SolverSession`]: **Algorithm 1 (MinObsWin)** — and, with
//!   [`algorithm::SolverConfig::with_p2`]`(false)`, the *Efficient
//!   MinObs* baseline of ref \[17\],
//! * [`closure_inc::IncrementalClosure`]: the warm-started max-gain
//!   closure engine (select with
//!   [`algorithm::SolverConfig::with_closure_engine`]),
//! * [`init::InitConfig`]: the §V choice of `Φ`, `R_min` and the
//!   starting retiming,
//! * [`experiment::Experiment`]: the end-to-end driver producing a
//!   Table-I row (SER before/after both methods, Δ#FF, timings, `#J`).
//!
//! # Examples
//!
//! ```
//! use minobswin::experiment::{Experiment, RunConfig};
//! use netlist::samples;
//! # fn main() -> Result<(), minobswin::SolveError> {
//! let circuit = samples::s27_like();
//! let run = Experiment::new(&circuit).config(RunConfig::small()).run()?;
//! println!(
//!     "SER {:.3e} -> MinObs {:.3e} / MinObsWin {:.3e}",
//!     run.ser_original, run.minobs.ser, run.minobswin.ser
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod closure;
pub mod closure_inc;
pub mod experiment;
pub mod forest;
pub mod init;
pub mod minobs;
pub mod perf;
mod problem;
pub mod session;
pub mod supervisor;
pub mod verify;

pub use problem::Problem;
pub use session::SolverSession;
pub use supervisor::{
    CancelToken, Checkpoint, CheckpointSink, DegradationReport, FileCheckpointSink,
    MemoryCheckpointSink, SolveBudget, SolveOutcome, SolveProgress, StopReason, Supervision,
};

use std::error::Error;
use std::fmt;
use std::io;

/// Errors of the MinObsWin solver pipeline.
///
/// This is the unifying error type of the suite: the substrate crates'
/// errors ([`netlist::NetlistError`], [`retime::RetimeError`], and the
/// `ser` engine's, which *are* `RetimeError`) convert into it via
/// `From`, so pipeline code — including the `retimer` CLI — composes
/// with `?`. [`SolveError::exit_code`] maps every variant onto the
/// CLI's stable exit codes.
#[derive(Debug)]
#[non_exhaustive]
pub enum SolveError {
    /// The provided starting retiming violates the instance.
    InfeasibleInitial(String),
    /// The iteration safety cap was hit (indicates a bug: the cap is
    /// far above the paper's `|V|²` bound).
    IterationLimit(usize),
    /// §V initialization failed.
    Initialization(String),
    /// A netlist-level failure (parsing, structure, or wrapped I/O).
    Netlist(netlist::NetlistError),
    /// A retiming-substrate failure (also covers the `ser` engine,
    /// whose analyses report [`retime::RetimeError`]).
    Retime(retime::RetimeError),
    /// An I/O failure outside the netlist parser.
    Io(io::Error),
    /// A checkpoint file could not be read or parsed, or does not
    /// match the instance being resumed.
    Checkpoint(String),
    /// The solver's final verification gate failed even after the
    /// from-scratch re-solve (indicates a bug in the core algorithm,
    /// not the warm closure engine).
    Verification(String),
}

impl SolveError {
    /// The stable CLI exit code for this error: `1` infeasible
    /// instance, `2` I/O or parse failure, `3` internal error.
    /// (Success is `0` and "budget exceeded, degraded result emitted"
    /// is `4`; neither is an error.)
    pub fn exit_code(&self) -> u8 {
        match self {
            SolveError::InfeasibleInitial(_) | SolveError::Initialization(_) => 1,
            SolveError::Retime(retime::RetimeError::Infeasible(_)) => 1,
            SolveError::Netlist(_) | SolveError::Io(_) | SolveError::Checkpoint(_) => 2,
            SolveError::IterationLimit(_) | SolveError::Retime(_) | SolveError::Verification(_) => {
                3
            }
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InfeasibleInitial(why) => {
                write!(f, "initial retiming is infeasible: {why}")
            }
            SolveError::IterationLimit(n) => {
                write!(f, "iteration safety cap hit after {n} iterations")
            }
            SolveError::Initialization(why) => write!(f, "initialization failed: {why}"),
            SolveError::Netlist(e) => write!(f, "netlist error: {e}"),
            SolveError::Retime(e) => write!(f, "retiming error: {e}"),
            SolveError::Io(e) => write!(f, "i/o error: {e}"),
            SolveError::Checkpoint(why) => write!(f, "checkpoint error: {why}"),
            SolveError::Verification(why) => write!(f, "verification failed: {why}"),
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Netlist(e) => Some(e),
            SolveError::Retime(e) => Some(e),
            SolveError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<netlist::NetlistError> for SolveError {
    fn from(e: netlist::NetlistError) -> Self {
        SolveError::Netlist(e)
    }
}

impl From<retime::RetimeError> for SolveError {
    fn from(e: retime::RetimeError) -> Self {
        SolveError::Retime(e)
    }
}

impl From<io::Error> for SolveError {
    fn from(e: io::Error) -> Self {
        SolveError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SolveError::IterationLimit(42);
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolveError>();
    }

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(SolveError::InfeasibleInitial(String::new()).exit_code(), 1);
        assert_eq!(SolveError::Initialization(String::new()).exit_code(), 1);
        assert_eq!(
            SolveError::from(retime::RetimeError::Infeasible("no slack".into())).exit_code(),
            1
        );
        assert_eq!(
            SolveError::from(io::Error::other("disk on fire")).exit_code(),
            2
        );
        assert_eq!(
            SolveError::from(netlist::NetlistError::EmptyCircuit).exit_code(),
            2
        );
        assert_eq!(SolveError::IterationLimit(1).exit_code(), 3);
        assert_eq!(
            SolveError::from(retime::RetimeError::ZeroWeightCycle).exit_code(),
            3
        );
        assert_eq!(SolveError::Checkpoint(String::new()).exit_code(), 2);
        assert_eq!(SolveError::Verification(String::new()).exit_code(), 3);
    }

    #[test]
    fn wrapped_errors_expose_source() {
        use std::error::Error as _;
        let e = SolveError::from(retime::RetimeError::ZeroWeightCycle);
        assert!(e.source().is_some());
        assert!(SolveError::IterationLimit(0).source().is_none());
    }
}
