//! The Monte-Carlo implementation of [`ser_engine::SerEstimator`] —
//! the fourth engine behind the suite's one estimation front door.
//!
//! Wraps a fault-injection campaign: the SER estimate is
//! `total_rate × latches/injections`, per-gate observabilities are the
//! per-site empirical hit fractions, and (uniquely among the engines)
//! the estimate carries a Wilson confidence interval, which the
//! agreement oracle uses instead of a fixed relative band.

use netlist::Circuit;
use ser_engine::{EngineKind, EstimateError, SerConfig, SerEstimate, SerEstimator};

use crate::campaign::{run_campaign, CampaignConfig};

/// Monte-Carlo SER estimation behind the [`SerEstimator`] front door.
#[derive(Debug, Clone)]
pub struct MonteCarloEstimator {
    /// The campaign to run (injections, seed, workers, pulse width).
    pub campaign: CampaignConfig,
}

impl MonteCarloEstimator {
    /// An estimator drawing `injections` strikes with campaign
    /// defaults.
    pub fn new(injections: u64) -> Self {
        Self {
            campaign: CampaignConfig::new(injections),
        }
    }
}

impl SerEstimator for MonteCarloEstimator {
    fn kind(&self) -> EngineKind {
        EngineKind::MonteCarlo
    }

    fn estimate(
        &self,
        circuit: &Circuit,
        config: &SerConfig,
    ) -> Result<SerEstimate, EstimateError> {
        let result = run_campaign(circuit, config, &self.campaign).map_err(EstimateError::from)?;
        let mut obs = vec![0.0; circuit.len()];
        let mut site_p = vec![0.0; circuit.len()];
        for s in &result.sites {
            obs[s.gate.index()] = s.empirical_obs();
            site_p[s.gate.index()] = s.latch_probability();
        }
        Ok(SerEstimate {
            engine: EngineKind::MonteCarlo,
            ser: result.ser(),
            ser_ci: Some(result.ser_ci()),
            obs,
            site_p,
            phi: result.phi,
            report: ser_engine::EngineReport::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn estimate_matches_the_campaign_it_wraps() {
        let c = samples::s27_like();
        let ser = SerConfig::small(30);
        let est = MonteCarloEstimator::new(20_000);
        let e = est.estimate(&c, &ser).unwrap();
        let direct = run_campaign(&c, &ser, &est.campaign).unwrap();
        assert_eq!(e.engine, EngineKind::MonteCarlo);
        assert_eq!(e.ser, direct.ser());
        assert_eq!(e.ser_ci, Some(direct.ser_ci()));
        assert_eq!(e.phi, direct.phi);
        let (lo, hi) = e.ser_ci.unwrap();
        assert!(lo <= e.ser && e.ser <= hi);
        // Per-site values land where the campaign put them.
        for s in &direct.sites {
            assert_eq!(e.obs[s.gate.index()], s.empirical_obs());
            assert_eq!(e.site_p[s.gate.index()], s.latch_probability());
        }
    }
}
