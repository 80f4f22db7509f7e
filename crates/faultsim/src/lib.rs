//! # faultsim — Monte-Carlo SEU fault injection for the minobswin suite
//!
//! A parallel single-event-transient injection engine that
//! cross-validates the analytic SER model of [`ser_engine`] (the
//! paper's eq. (4)) by *counting* instead of *multiplying*: strikes are
//! sampled over (site, vector, arrival time, pulse width), propagated
//! exactly through the time-frame-expanded circuit, and latched only
//! when the transient overlaps the struck node's error-latching window.
//!
//! The engine is organized as three layers:
//!
//! * [`FaultAtlas`] — campaign precompute: one bit-parallel faulty
//!   resimulation per distinct injection node (all `K` vectors at
//!   once), plus the node's exact ELW. Makes the per-injection cost two
//!   table lookups and an interval test.
//! * [`run_campaign`] — the sampling loop, fanned out over
//!   `std::thread::scope` workers with per-worker PRNG streams split
//!   from the campaign seed. Bit-for-bit deterministic for a fixed
//!   `(seed, workers)` pair.
//! * [`CrossCheck`] — per-site and total comparison against a
//!   [`ser_engine::SerReport`], with Wilson confidence intervals and a
//!   documented tolerance for the ODC reconvergence approximation.
//!
//! On top of those sit the estimator-facing layers:
//!
//! * [`MonteCarloEstimator`] — the campaign behind the suite's one
//!   [`ser_engine::SerEstimator`] front door,
//! * [`check_agreement`] — the three-way (analytic / propprob /
//!   Monte-Carlo, plus the exhaustive oracle when feasible) agreement
//!   oracle with per-pair-class tolerance bands, whose verdict half is
//!   [`judge_agreement`],
//! * [`advise`] — the selective-hardening advisor, cross-scoring each
//!   strike site's SER contribution by two independent engines and
//!   greedily spending an area budget on the best payoff.
//!
//! No external dependencies: the PRNG is [`netlist::rng`] (the same
//! deterministic xoshiro256\*\* the rest of the suite uses).
//!
//! # Examples
//!
//! ```
//! use faultsim::{run_campaign, CampaignConfig, CrossCheck};
//! use netlist::samples;
//! use ser_engine::{analyze, SerConfig};
//! # fn main() -> Result<(), retime::RetimeError> {
//! let circuit = samples::s27_like();
//! let ser = SerConfig::small(30);
//!
//! let analytic = analyze(&circuit, &ser)?;
//! let campaign = run_campaign(&circuit, &ser, &CampaignConfig::new(5_000))?;
//! let check = CrossCheck::compare(&circuit, &analytic, &campaign, 0.05);
//!
//! let (lo, hi) = campaign.ser_ci();
//! assert!(lo <= campaign.ser() && campaign.ser() <= hi);
//! println!("{}", check.summary());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod agreement;
mod atlas;
mod campaign;
mod crosscheck;
mod estimator;
mod harden;
mod stats;

pub use agreement::{
    check_agreement, judge_agreement, AgreementReport, PairVerdict, SiteDivergence, ToleranceBands,
};
pub use atlas::{FaultAtlas, Site};
pub use campaign::{
    folded_elw_fraction, run_campaign, run_campaign_on, CampaignConfig, CampaignResult, SiteStats,
};
pub use crosscheck::{CrossCheck, SiteComparison, DEFAULT_TOLERANCE};
pub use estimator::MonteCarloEstimator;
pub use harden::{advise, cell_area, plan_from_scores, HardenCandidate, HardenConfig, HardenPlan};
pub use stats::wilson_interval;
