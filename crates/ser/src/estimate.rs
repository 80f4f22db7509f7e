//! The [`SerEstimator`] trait: one front door over every SER engine.
//!
//! Four structurally independent estimators of the paper's eq. (4)
//! live in this workspace:
//!
//! | engine       | logic masking                         | crate      |
//! |--------------|---------------------------------------|------------|
//! | `analytic`   | backward ODC mask composition         | `ser`      |
//! | `propprob`   | propagation-probability products      | `ser`      |
//! | `exact`      | full `2^S` truth-table enumeration    | `ser`      |
//! | `montecarlo` | sampled fault-injection campaigns     | `faultsim` |
//!
//! They share the simulation substrate and the exact ELW timing factor
//! but approximate logic masking in unrelated ways, so agreement among
//! them is strong evidence against a shared modeling bug — the
//! three-way cross-check built on this trait (see
//! `faultsim::agreement`) is the workspace's first-class correctness
//! oracle. The first three implementations live here; the Monte-Carlo
//! implementation lives in `faultsim` (which depends on this crate).

use std::fmt;
use std::str::FromStr;

use netlist::{Circuit, GateId};

use crate::analysis::{analyze, SerConfig, SerReport};
use crate::exact::{exact_report, DEFAULT_MAX_SOURCE_BITS};
use crate::propprob::propprob_report;
use crate::sim::EngineReport;

/// Which estimation engine produced (or should produce) an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Backward ODC mask composition (the paper's analytic model).
    Analytic,
    /// Monte-Carlo fault-injection campaigns (`faultsim`).
    MonteCarlo,
    /// Propagation-probability products (Asadi & Tahoori style).
    PropProb,
    /// Exhaustive truth-table enumeration (small circuits only).
    Exact,
}

impl EngineKind {
    /// All engines, in canonical order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Analytic,
        EngineKind::MonteCarlo,
        EngineKind::PropProb,
        EngineKind::Exact,
    ];

    /// The canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Analytic => "analytic",
            EngineKind::MonteCarlo => "montecarlo",
            EngineKind::PropProb => "propprob",
            EngineKind::Exact => "exact",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytic" => Ok(EngineKind::Analytic),
            "montecarlo" | "monte-carlo" | "mc" => Ok(EngineKind::MonteCarlo),
            "propprob" | "prop-prob" | "pp" => Ok(EngineKind::PropProb),
            "exact" => Ok(EngineKind::Exact),
            other => Err(format!(
                "unknown engine `{other}` (use analytic, montecarlo, propprob or exact)"
            )),
        }
    }
}

/// Why an estimator could not produce an estimate.
#[derive(Debug)]
pub enum EstimateError {
    /// The circuit cannot be modeled as a retiming graph.
    Retime(retime::RetimeError),
    /// Exhaustive enumeration would exceed the source-bit cap.
    TooLarge {
        /// `R + I·n` for the requested expansion.
        source_bits: usize,
        /// The effective cap: the configured one, or the lower count
        /// whose trace still fits [`crate::exact::MAX_TRACE_BYTES`].
        cap: u32,
    },
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::Retime(e) => write!(f, "{e}"),
            EstimateError::TooLarge { source_bits, cap } => write!(
                f,
                "exhaustive enumeration needs {source_bits} source bits \
                 (registers + inputs × frames), over the cap of {cap}; \
                 use a sampled engine or fewer frames"
            ),
        }
    }
}

impl std::error::Error for EstimateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimateError::Retime(e) => Some(e),
            EstimateError::TooLarge { .. } => None,
        }
    }
}

impl From<retime::RetimeError> for EstimateError {
    fn from(e: retime::RetimeError) -> Self {
        EstimateError::Retime(e)
    }
}

/// One engine's complete estimate of a circuit's SER, in a shape every
/// engine can fill: the scalar eq. (4) total, an optional sampling
/// confidence interval, and the per-gate quantities the agreement
/// oracle and the hardening advisor compare site by site.
#[derive(Debug, Clone)]
pub struct SerEstimate {
    /// Which engine produced this estimate.
    pub engine: EngineKind,
    /// Total SER under eq. (4).
    pub ser: f64,
    /// A 95% sampling interval on `ser` (Monte-Carlo only).
    pub ser_ci: Option<(f64, f64)>,
    /// Per-gate logic-masking estimates `obs(g, n)`, indexed by
    /// [`GateId`] (registers carry their driver's value; gates the
    /// engine cannot see — e.g. rate-0 sites under Monte-Carlo —
    /// hold 0).
    pub obs: Vec<f64>,
    /// Per-gate latch probabilities `obs(g, n) · |ELW(g)|/Φ`,
    /// indexed by [`GateId`] — the per-site quantity the hardening
    /// advisor cross-scores.
    pub site_p: Vec<f64>,
    /// Clock period used.
    pub phi: i64,
    /// Engine diagnostics (audits, breaker activity).
    pub report: EngineReport,
}

impl SerEstimate {
    /// Builds an estimate from a deterministic engine's [`SerReport`].
    pub fn from_report(engine: EngineKind, report: &SerReport) -> Self {
        let site_p = report
            .obs
            .iter()
            .enumerate()
            .map(|(i, &o)| o * report.elw_size[i] as f64 / report.phi as f64)
            .collect();
        Self {
            engine,
            ser: report.ser,
            ser_ci: None,
            obs: report.obs.clone(),
            site_p,
            phi: report.phi,
            report: report.engine,
        }
    }

    /// The latch probability of one gate.
    pub fn site_p(&self, gate: GateId) -> f64 {
        self.site_p[gate.index()]
    }
}

/// A source of [`SerEstimate`]s — the one front door over all four
/// engines. Implementations must be pure functions of `(circuit,
/// config)` so estimates are reproducible and cacheable.
pub trait SerEstimator {
    /// Which engine this estimator runs.
    fn kind(&self) -> EngineKind;

    /// Estimates the circuit's SER under `config`.
    ///
    /// # Errors
    ///
    /// [`EstimateError::Retime`] when the circuit cannot be modeled,
    /// [`EstimateError::TooLarge`] when an exhaustive engine is asked
    /// for an infeasibly large enumeration.
    fn estimate(&self, circuit: &Circuit, config: &SerConfig)
        -> Result<SerEstimate, EstimateError>;
}

/// The analytic ODC engine behind the [`SerEstimator`] front door.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticEstimator;

impl SerEstimator for AnalyticEstimator {
    fn kind(&self) -> EngineKind {
        EngineKind::Analytic
    }

    fn estimate(
        &self,
        circuit: &Circuit,
        config: &SerConfig,
    ) -> Result<SerEstimate, EstimateError> {
        let report = analyze(circuit, config)?;
        Ok(SerEstimate::from_report(EngineKind::Analytic, &report))
    }
}

/// The propagation-probability engine behind the front door.
#[derive(Debug, Clone, Copy, Default)]
pub struct PropProbEstimator;

impl SerEstimator for PropProbEstimator {
    fn kind(&self) -> EngineKind {
        EngineKind::PropProb
    }

    fn estimate(
        &self,
        circuit: &Circuit,
        config: &SerConfig,
    ) -> Result<SerEstimate, EstimateError> {
        let report = propprob_report(circuit, config)?;
        Ok(SerEstimate::from_report(EngineKind::PropProb, &report))
    }
}

/// The exhaustive-enumeration oracle behind the front door.
#[derive(Debug, Clone, Copy)]
pub struct ExactEstimator {
    /// Cap on `R + I·n` source bits (default
    /// [`DEFAULT_MAX_SOURCE_BITS`]).
    pub max_source_bits: u32,
}

impl Default for ExactEstimator {
    fn default() -> Self {
        Self {
            max_source_bits: DEFAULT_MAX_SOURCE_BITS,
        }
    }
}

impl SerEstimator for ExactEstimator {
    fn kind(&self) -> EngineKind {
        EngineKind::Exact
    }

    fn estimate(
        &self,
        circuit: &Circuit,
        config: &SerConfig,
    ) -> Result<SerEstimate, EstimateError> {
        let report = exact_report(circuit, config, self.max_source_bits)?;
        Ok(SerEstimate::from_report(EngineKind::Exact, &report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn engine_names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.name().parse::<EngineKind>().unwrap(), kind);
        }
        assert!("warp-drive".parse::<EngineKind>().is_err());
        assert_eq!("mc".parse::<EngineKind>().unwrap(), EngineKind::MonteCarlo);
    }

    #[test]
    fn deterministic_engines_estimate_the_sample() {
        let c = samples::s27_like();
        let cfg = SerConfig::small(20);
        for est in [&AnalyticEstimator as &dyn SerEstimator, &PropProbEstimator] {
            let e = est.estimate(&c, &cfg).unwrap();
            assert_eq!(e.engine, est.kind());
            assert!(e.ser > 0.0, "{}", e.engine);
            assert!(e.ser_ci.is_none());
            assert_eq!(e.obs.len(), c.len());
            assert_eq!(e.site_p.len(), c.len());
            // site_p is obs damped by the timing factor.
            for i in 0..c.len() {
                assert!(e.site_p[i] <= e.obs[i] + 1e-12, "{}: site {i}", e.engine);
            }
        }
    }

    #[test]
    fn exact_estimator_respects_its_cap() {
        let c = samples::s27_like();
        let cfg = SerConfig {
            sim: crate::sim::SimConfig {
                frames: 2,
                ..crate::sim::SimConfig::small()
            },
            ..SerConfig::small(20)
        };
        let ok = ExactEstimator::default().estimate(&c, &cfg).unwrap();
        assert!(ok.ser > 0.0);
        let err = ExactEstimator { max_source_bits: 4 }
            .estimate(&c, &cfg)
            .unwrap_err();
        assert!(matches!(err, EstimateError::TooLarge { .. }), "{err}");
    }
}
