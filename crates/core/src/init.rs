//! §V initialization: choosing `Φ`, `R_min` and a feasible starting
//! retiming.
//!
//! The paper's recipe:
//!
//! 1. Retime for minimum period under **setup and hold** constraints
//!    (`\[23\]`), giving `Φ_sh`. If no such retiming exists (reconvergent
//!    paths), fall back to plain min-period retiming (`\[24\]`) for
//!    `Φ_min`: the same search with no hold constraint (`T_h = 0`).
//! 2. Relax the (very tight) period by a small factor `ε` (10%).
//! 3. Choose `R_min` as the minimum register-launched short path in the
//!    retimed circuit; in the fallback case, the minimum gate delay.

use retime::labels::ElwParams;
use retime::{setup_hold, LrLabels, RetimeGraph, Retiming};

use crate::SolveError;

/// The initialization outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct InitResult {
    /// The relaxed clock period `Φ`.
    pub phi: i64,
    /// The ELW lower bound `R_min`.
    pub r_min: i64,
    /// A feasible starting retiming at `Φ`/`R_min`.
    pub retiming: Retiming,
    /// Whether the setup-and-hold retiming succeeded (`false` = the
    /// paper's fallback path was taken).
    pub used_setup_hold: bool,
    /// The unrelaxed minimum period found.
    pub phi_min: i64,
}

/// Initialization knobs.
///
/// Construct with [`InitConfig::default`] and refine with the `with_*`
/// builders (the struct is `#[non_exhaustive]`); run with
/// [`InitConfig::initialize`]:
///
/// ```
/// use minobswin::init::InitConfig;
/// # use netlist::{samples, DelayModel};
/// # use retime::RetimeGraph;
/// # fn main() -> Result<(), minobswin::SolveError> {
/// # let graph =
/// #     RetimeGraph::from_circuit(&samples::pipeline(9, 3), &DelayModel::unit())?;
/// let init = InitConfig::default().with_hold_time(3).initialize(&graph)?;
/// assert!(init.phi > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct InitConfig {
    /// Register setup time `T_s` (paper: 0).
    pub t_setup: i64,
    /// Register hold time `T_h` (paper: 2).
    pub t_hold: i64,
    /// Period relaxation in percent (paper: 10).
    pub epsilon_percent: u32,
}

impl Default for InitConfig {
    fn default() -> Self {
        Self {
            t_setup: 0,
            t_hold: 2,
            epsilon_percent: 10,
        }
    }
}

impl InitConfig {
    /// Sets the register setup time `T_s`.
    pub fn with_setup_time(mut self, t_setup: i64) -> Self {
        self.t_setup = t_setup;
        self
    }

    /// Sets the register hold time `T_h`.
    pub fn with_hold_time(mut self, t_hold: i64) -> Self {
        self.t_hold = t_hold;
        self
    }

    /// Sets the period relaxation `ε` in percent.
    pub fn with_epsilon_percent(mut self, percent: u32) -> Self {
        self.epsilon_percent = percent;
        self
    }

    /// Runs the §V initialization with these knobs.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Initialization`] if even plain min-period
    /// retiming fails (impossible for graphs built from valid
    /// circuits).
    pub fn initialize(self, graph: &RetimeGraph) -> Result<InitResult, SolveError> {
        run_init(graph, self)
    }
}

fn run_init(graph: &RetimeGraph, config: InitConfig) -> Result<InitResult, SolveError> {
    let relax = |phi: i64| phi + (phi * config.epsilon_percent as i64 + 99) / 100;
    // The fallback, plain min-period retiming, is the same search
    // without the hold constraint, under the same cycle-ratio bound.
    let (found, used_setup_hold) =
        setup_hold::min_period_with_fallback(graph, config.t_setup, config.t_hold).ok_or_else(
            || SolveError::Initialization("no retiming meets even the trivial period bound".into()),
        )?;
    let t_hold = if used_setup_hold { config.t_hold } else { 0 };
    let phi = relax(found.phi);
    // Re-derive the retiming at the relaxed period for slack.
    let retiming = setup_hold::feasible_setup_hold(graph, phi, config.t_setup, t_hold)
        .unwrap_or(found.retiming);
    // R_min is the minimum register-launched short path; in the fallback
    // it is the minimum gate delay (P2 then never binds beyond what any
    // single gate provides).
    let short_path = if used_setup_hold {
        let params = ElwParams {
            phi,
            t_setup: config.t_setup,
            t_hold,
        };
        LrLabels::compute(graph, &retiming, params)
            .map_err(|e| SolveError::Initialization(e.to_string()))?
            .min_short_path(graph, &retiming)
    } else {
        None
    };
    Ok(InitResult {
        phi,
        r_min: short_path.unwrap_or_else(|| min_gate_delay(graph)),
        retiming,
        used_setup_hold,
        phi_min: found.phi,
    })
}

fn min_gate_delay(graph: &RetimeGraph) -> i64 {
    graph
        .vertices()
        .map(|v| graph.delay(v))
        .filter(|&d| d > 0)
        .min()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::verify::check_feasible;
    use netlist::{samples, DelayModel};

    #[test]
    fn initialization_is_feasible_for_the_solver() {
        for (name, c) in [
            ("pipeline", samples::pipeline(9, 3)),
            ("s27", samples::s27_like()),
        ] {
            let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
            let init = InitConfig::default().initialize(&g).unwrap();
            let params = ElwParams {
                phi: init.phi,
                t_setup: 0,
                t_hold: 2,
            };
            let counts = vec![1i64; g.num_vertices()];
            let p = Problem::from_observability_counts(&g, &counts, params, init.r_min);
            assert!(
                check_feasible(&g, &p, &init.retiming).is_ok(),
                "{name}: initialization must satisfy its own constraints"
            );
        }
    }

    #[test]
    fn relaxation_adds_ten_percent() {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let init = InitConfig::default().initialize(&g).unwrap();
        assert!(init.phi > init.phi_min);
        assert!(init.phi <= init.phi_min + init.phi_min / 10 + 1);
    }

    #[test]
    fn fallback_uses_min_gate_delay() {
        // Force the fallback with an impossible hold time.
        let c = samples::pipeline(4, 4);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let init = InitConfig::default()
            .with_hold_time(100)
            .initialize(&g)
            .unwrap();
        assert!(!init.used_setup_hold);
        assert_eq!(init.r_min, 1, "minimum unit gate delay");
    }

    #[test]
    fn fallback_respects_setup_time() {
        // The impossible hold time forces the fallback; its starting
        // retiming must meet setup at the returned period.
        let c = samples::pipeline(4, 4);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let init = InitConfig::default()
            .with_hold_time(100)
            .with_setup_time(3)
            .initialize(&g)
            .unwrap();
        assert!(!init.used_setup_hold);
        assert_eq!(init.phi_min, 4 + 3, "min period 4 plus T_s");
        let params = ElwParams {
            phi: init.phi,
            t_setup: 3,
            t_hold: 100,
        };
        let counts = vec![1i64; g.num_vertices()];
        let p = Problem::from_observability_counts(&g, &counts, params, init.r_min);
        assert_eq!(check_feasible(&g, &p, &init.retiming), Ok(()));
    }

    #[test]
    fn generated_circuits_initialize() {
        for seed in 0..4 {
            let c = netlist::generator::GeneratorConfig::new("init", seed)
                .gates(100)
                .registers(20)
                .build();
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            let init = InitConfig::default().initialize(&g).unwrap();
            assert!(g.check_nonnegative(&init.retiming).is_ok(), "seed {seed}");
            assert!(init.r_min >= 1, "seed {seed}");
        }
    }
}
