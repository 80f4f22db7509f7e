//! # ser_engine — soft error rate analysis for sequential circuits
//!
//! Published as the package `minobswin-ser`; the library (and thus the
//! import path in every example below) is `ser_engine`, and its
//! workspace siblings are imported as `netlist`, `retime`, `minobswin`
//! and `faultsim` — the doctests compile against these actual lib
//! names, not the package names.
//!
//! Substrate crate of the **minobswin** suite (a reproduction of
//! Lu & Zhou, *Retiming for Soft Error Minimization Under Error-Latching
//! Window Constraints*, DATE 2013). It implements the paper's §II SER
//! model end to end:
//!
//! * [`Signature`] and [`sim::FrameTrace`]: bit-parallel logic
//!   simulation with time-frame expansion (refs \[11\], \[17\], \[21\]),
//! * [`odc::Observability`]: ODC-mask observabilities `obs(g, n)` with
//!   an exact fault-injection validator,
//! * [`IntervalSet`] and [`elw::compute_elws`]: exact error-latching
//!   windows, eq. (3) (ref \[15\]),
//! * [`ErrorRateModel`]: raw per-gate rates `err(g)` (synthetic
//!   SPICE-characterization stand-in for ref \[25\]; see DESIGN.md),
//! * [`analyze`]: the full SER of a sequential circuit, eq. (4),
//! * [`propprob::PropProb`]: an independent propagation-probability
//!   estimator (Asadi & Tahoori style) of the same quantity,
//! * [`exact::exact_report`]: an exhaustive truth-table oracle for
//!   small circuits,
//! * [`SerEstimator`]: the one trait all estimation engines (including
//!   `faultsim`'s Monte-Carlo engine) stand behind.
//!
//! # Examples
//!
//! ```
//! use netlist::samples;
//! use ser_engine::{analyze, SerConfig};
//! # fn main() -> Result<(), retime::RetimeError> {
//! let circuit = samples::s27_like();
//! let report = analyze(&circuit, &SerConfig::small(20))?;
//! println!("SER = {:.3e}", report.ser);
//! assert!(report.ser > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod arena;
pub mod elw;
pub mod equiv;
mod error_rate;
pub mod estimate;
pub mod exact;
pub mod odc;
pub mod propprob;
pub mod scalar;
mod signature;
pub mod sim;

pub use analysis::{
    analyze, analyze_with_observability, register_driver, report_from_observabilities,
    vertex_observabilities, SerConfig, SerReport,
};
pub use arena::{SigRef, SignatureArena};
pub use elw::IntervalSet;
pub use error_rate::ErrorRateModel;
pub use estimate::{
    AnalyticEstimator, EngineKind, EstimateError, ExactEstimator, PropProbEstimator, SerEstimate,
    SerEstimator,
};
pub use exact::{exact_feasible, exact_report, exact_source_bits, DEFAULT_MAX_SOURCE_BITS};
pub use propprob::{propprob_report, propprob_report_with_trace, PropProb};
pub use signature::{eval_gate, signature_allocs, Signature};
pub use sim::EngineReport;
