//! Three-way (and, on small circuits, four-way) estimator agreement —
//! the suite's first-class correctness oracle.
//!
//! The analytic ODC engine, the propagation-probability engine and the
//! Monte-Carlo campaign estimate the same eq. (4) quantity from
//! structurally unrelated machinery. A bug shared by two of them would
//! have to be a *modeling* bug reproduced independently three times —
//! so pairwise agreement within documented tolerance bands is strong
//! evidence of correctness, and any pair diverging past its band is a
//! structured, reportable event rather than a silent drift. Where the
//! exhaustive oracle is feasible (`R + I·n` source bits under the
//! cap), every engine is additionally judged against ground truth.
//!
//! Tolerances are per *pair class*, not one global knob, because the
//! legitimate disagreement mechanisms differ:
//!
//! * two deterministic engines (analytic vs propprob, or either vs the
//!   exact oracle) differ only by their reconvergence approximations —
//!   a relative gap band;
//! * a deterministic engine vs Monte-Carlo differs by sampling noise
//!   *plus* approximation — the campaign's Wilson interval widened by
//!   a relative tolerance (the same scheme as [`crate::CrossCheck`]).

use netlist::{Circuit, GateId};
use ser_engine::{
    AnalyticEstimator, EngineKind, EstimateError, ExactEstimator, PropProbEstimator, SerConfig,
    SerEstimate, SerEstimator,
};

use crate::crosscheck::inside_widened;
use crate::estimator::MonteCarloEstimator;

/// Per-pair-class tolerance bands of the agreement oracle. The
/// defaults are calibrated on the Table I twin circuits (see
/// `tests/cross_check.rs` for the per-circuit values used in CI).
#[derive(Debug, Clone, Copy)]
pub struct ToleranceBands {
    /// Allowed relative SER gap between two deterministic sampled
    /// estimators (analytic vs propprob): both approximate
    /// reconvergent fanout, in different directions.
    pub deterministic_pair: f64,
    /// Relative widening of the Monte-Carlo Wilson interval when a
    /// deterministic estimate is checked against the campaign.
    pub sampled_pair: f64,
    /// Allowed relative SER gap between a deterministic estimator and
    /// the exhaustive oracle.
    pub exact_pair: f64,
}

impl Default for ToleranceBands {
    fn default() -> Self {
        Self {
            deterministic_pair: 0.25,
            sampled_pair: 0.25,
            exact_pair: 0.25,
        }
    }
}

impl ToleranceBands {
    /// One uniform relative band for all three pair classes.
    pub fn uniform(tol: f64) -> Self {
        assert!(tol >= 0.0, "tolerance must be non-negative");
        Self {
            deterministic_pair: tol,
            sampled_pair: tol,
            exact_pair: tol,
        }
    }
}

/// The worst per-site latch-probability gaps of a disagreeing pair —
/// the actionable half of a disagreement report.
#[derive(Debug, Clone)]
pub struct SiteDivergence {
    /// The struck gate.
    pub gate: GateId,
    /// Its name in the netlist.
    pub name: String,
    /// Latch probability under the first engine.
    pub p_a: f64,
    /// Latch probability under the second engine.
    pub p_b: f64,
}

impl SiteDivergence {
    /// Absolute latch-probability gap.
    pub fn gap(&self) -> f64 {
        (self.p_a - self.p_b).abs()
    }
}

/// One pairwise verdict of the agreement oracle.
#[derive(Debug, Clone)]
pub struct PairVerdict {
    /// First engine of the pair.
    pub a: EngineKind,
    /// Second engine of the pair.
    pub b: EngineKind,
    /// First engine's SER.
    pub ser_a: f64,
    /// Second engine's SER.
    pub ser_b: f64,
    /// Relative gap `|a − b| / max(|a|, |b|)` (0 when both are 0).
    pub gap: f64,
    /// The band this pair was judged against.
    pub band: f64,
    /// Whether the pair agrees within its band (CI-widened when one
    /// side is Monte-Carlo).
    pub agrees: bool,
    /// The three worst per-site latch-probability gaps, largest first.
    pub worst_sites: Vec<SiteDivergence>,
}

/// The full agreement report over every engine that ran.
#[derive(Debug, Clone)]
pub struct AgreementReport {
    /// Circuit name.
    pub circuit: String,
    /// The estimates, in [`EngineKind::ALL`] order (exact last, absent
    /// when infeasible).
    pub estimates: Vec<SerEstimate>,
    /// Every pairwise verdict.
    pub pairs: Vec<PairVerdict>,
    /// Whether the exhaustive oracle participated.
    pub exact_included: bool,
    /// The bands used.
    pub bands: ToleranceBands,
}

impl AgreementReport {
    /// Whether every pair agrees within its band.
    pub fn agrees(&self) -> bool {
        self.pairs.iter().all(|p| p.agrees)
    }

    /// The pairs that diverged past their band.
    pub fn divergent(&self) -> Vec<&PairVerdict> {
        self.pairs.iter().filter(|p| !p.agrees).collect()
    }

    /// The estimate produced by one engine, if it ran.
    pub fn estimate(&self, kind: EngineKind) -> Option<&SerEstimate> {
        self.estimates.iter().find(|e| e.engine == kind)
    }

    /// Human-readable multi-line report: every pair's verdict, and for
    /// each diverging pair the worst per-site gaps.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let verdict = if self.agrees() { "AGREE" } else { "DIVERGE" };
        out.push_str(&format!(
            "agreement {}: {} engines ({}) — {}\n",
            self.circuit,
            self.estimates.len(),
            self.estimates
                .iter()
                .map(|e| e.engine.name())
                .collect::<Vec<_>>()
                .join(", "),
            verdict
        ));
        for e in &self.estimates {
            match e.ser_ci {
                Some((lo, hi)) => out.push_str(&format!(
                    "  {:<10} SER {:.4e} [{:.4e}, {:.4e}]\n",
                    e.engine.name(),
                    e.ser,
                    lo,
                    hi
                )),
                None => out.push_str(&format!("  {:<10} SER {:.4e}\n", e.engine.name(), e.ser)),
            }
        }
        for p in &self.pairs {
            out.push_str(&format!(
                "  {} vs {}: gap {:.1}% (band {:.1}%) — {}\n",
                p.a,
                p.b,
                p.gap * 100.0,
                p.band * 100.0,
                if p.agrees { "agree" } else { "DIVERGE" }
            ));
            if !p.agrees {
                for s in &p.worst_sites {
                    out.push_str(&format!(
                        "    {}: {:.4} vs {:.4} (gap {:.4})\n",
                        s.name,
                        s.p_a,
                        s.p_b,
                        s.gap()
                    ));
                }
            }
        }
        out
    }
}

/// Relative gap between two SER totals (0 when both are 0).
fn relative_gap(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// The three worst per-site latch-probability gaps between two
/// estimates, restricted to gates with a positive raw rate (gates no
/// engine can be struck at — markers, constants — carry no signal).
fn worst_sites(
    circuit: &Circuit,
    config: &SerConfig,
    a: &SerEstimate,
    b: &SerEstimate,
) -> Vec<SiteDivergence> {
    let mut sites: Vec<SiteDivergence> = circuit
        .iter()
        .filter(|&(id, _)| config.rates.rate(circuit, id) > 0.0)
        .map(|(id, gate)| SiteDivergence {
            gate: id,
            name: gate.name().to_string(),
            p_a: a.site_p[id.index()],
            p_b: b.site_p[id.index()],
        })
        .collect();
    sites.sort_by(|x, y| y.gap().total_cmp(&x.gap()));
    sites.truncate(3);
    sites
}

/// Judges one pair: a deterministic pair compares relative gaps; a
/// pair with a Monte-Carlo side checks the deterministic value against
/// the campaign's tolerance-widened Wilson interval.
fn judge_pair(
    circuit: &Circuit,
    config: &SerConfig,
    a: &SerEstimate,
    b: &SerEstimate,
    bands: &ToleranceBands,
) -> PairVerdict {
    let exact_side = a.engine == EngineKind::Exact || b.engine == EngineKind::Exact;
    let band = if a.ser_ci.is_some() || b.ser_ci.is_some() {
        bands.sampled_pair
    } else if exact_side {
        bands.exact_pair
    } else {
        bands.deterministic_pair
    };
    let gap = relative_gap(a.ser, b.ser);
    let agrees = match (a.ser_ci, b.ser_ci) {
        (Some(ci), None) => inside_widened(b.ser, ci, band),
        (None, Some(ci)) => inside_widened(a.ser, ci, band),
        // Two sampled engines never meet today (there is one
        // Monte-Carlo engine); compare the usual relative way.
        _ => gap <= band,
    };
    PairVerdict {
        a: a.engine,
        b: b.engine,
        ser_a: a.ser,
        ser_b: b.ser,
        gap,
        band,
        agrees,
        worst_sites: worst_sites(circuit, config, a, b),
    }
}

/// Runs the agreement oracle: analytic, propagation-probability and
/// Monte-Carlo always; the exhaustive oracle too when the enumeration
/// fits under `exact.max_source_bits`. Every pair of engines that ran
/// is judged by [`judge_agreement`].
///
/// # Errors
///
/// [`EstimateError`] from any engine (the exact engine's
/// [`EstimateError::TooLarge`] is *not* an error here — the oracle is
/// simply skipped).
pub fn check_agreement(
    circuit: &Circuit,
    config: &SerConfig,
    campaign: &MonteCarloEstimator,
    bands: ToleranceBands,
) -> Result<AgreementReport, EstimateError> {
    let mut estimates = vec![
        AnalyticEstimator.estimate(circuit, config)?,
        campaign.estimate(circuit, config)?,
        PropProbEstimator.estimate(circuit, config)?,
    ];
    let exact = ExactEstimator::default();
    if ser_engine::exact_feasible(circuit, config.sim.frames, exact.max_source_bits) {
        estimates.push(exact.estimate(circuit, config)?);
    }
    Ok(judge_agreement(circuit, config, estimates, bands))
}

/// Judges every pair of `estimates` of `circuit` against [`ToleranceBands`]
/// — the verdict half of [`check_agreement`], public so a caller can
/// judge estimates it produced (or deliberately skewed) itself.
pub fn judge_agreement(
    circuit: &Circuit,
    config: &SerConfig,
    estimates: Vec<SerEstimate>,
    bands: ToleranceBands,
) -> AgreementReport {
    // Sanity audit: every estimate's per-site probabilities must be
    // probabilities. A violation here is an estimator bug, not a
    // tolerance question.
    #[cfg(debug_assertions)]
    for e in &estimates {
        for (i, &p) in e.site_p.iter().enumerate() {
            debug_assert!(
                (-1e-9..=1.0 + 1e-9).contains(&p),
                "{}: site {i} latch probability {p} outside [0, 1]",
                e.engine
            );
        }
    }
    let mut pairs = Vec::new();
    for i in 0..estimates.len() {
        for j in (i + 1)..estimates.len() {
            pairs.push(judge_pair(
                circuit,
                config,
                &estimates[i],
                &estimates[j],
                &bands,
            ));
        }
    }
    AgreementReport {
        circuit: circuit.name().to_string(),
        exact_included: estimates.iter().any(|e| e.engine == EngineKind::Exact),
        estimates,
        pairs,
        bands,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn sample_circuits_agree_three_ways() {
        for (name, c, phi) in [
            ("s27", samples::s27_like(), 30),
            ("fig1", samples::fig1_like(), 25),
        ] {
            let mut config = SerConfig::small(phi);
            // Few enough frames that the exhaustive oracle fits under
            // its source-bit cap on both samples.
            config.sim.frames = 3;
            let mc = MonteCarloEstimator::new(30_000);
            let report = check_agreement(&c, &config, &mc, ToleranceBands::default()).unwrap();
            assert!(report.agrees(), "{name} diverged:\n{}", report.summary());
            assert!(report.estimates.len() >= 3);
            // Small samples fit the exhaustive oracle too.
            assert!(report.exact_included, "{name} should enumerate");
            assert_eq!(report.estimates.len(), 4);
            assert_eq!(report.pairs.len(), 6);
            assert!(report.summary().contains("AGREE"));
        }
    }

    #[test]
    fn verdicts_cover_every_pair_once() {
        let c = samples::s27_like();
        let config = SerConfig::small(30);
        let report = check_agreement(
            &c,
            &config,
            &MonteCarloEstimator::new(5_000),
            ToleranceBands::default(),
        )
        .unwrap();
        for (i, p) in report.pairs.iter().enumerate() {
            assert_ne!(p.a, p.b);
            for q in &report.pairs[i + 1..] {
                assert!(
                    !(p.a == q.a && p.b == q.b),
                    "duplicate pair {} {}",
                    p.a,
                    p.b
                );
            }
            assert!(p.worst_sites.len() <= 3);
            for w in &p.worst_sites {
                assert!(w.gap() >= 0.0);
            }
        }
    }

    #[test]
    fn zero_band_flags_sampling_noise() {
        // With zero tolerance and a tiny campaign, at least one pair
        // should diverge — proving the verdict logic can say no.
        let c = samples::fig1_like();
        let config = SerConfig::small(25);
        let report = check_agreement(
            &c,
            &config,
            &MonteCarloEstimator::new(200),
            ToleranceBands::uniform(0.0),
        )
        .unwrap();
        assert!(
            !report.divergent().is_empty(),
            "zero band over 200 injections should flag noise:\n{}",
            report.summary()
        );
        assert!(report.summary().contains("DIVERGE"));
    }
}
