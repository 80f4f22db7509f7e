//! Min-period retiming via the FEAS relaxation of Leiserson and Saxe
//! (the `\[24\]` ingredient of the paper's §V initialization).
//!
//! Memory use is `O(|E|)` — no `W`/`D` matrices — so this scales to the
//! paper's largest (b19-sized) circuits.

use crate::error::RetimeError;
use crate::graph::{RetimeGraph, Retiming};
use crate::timing::{clock_period, ArrivalScratch, FeasWitness};

/// Runs the FEAS relaxation: starting from `r = 0`, repeatedly
/// increments `r(v)` for every vertex whose arrival time exceeds `phi`.
/// Returns a verified-feasible retiming with clock period ≤ `phi`, or
/// `None` if FEAS fails to converge (for `phi` below the true minimum,
/// or — rarely — for feasible `phi` that require register moves FEAS's
/// increment-only schedule cannot reach; see DESIGN.md).
///
/// A run stops early, with `None`, once a verified negative cycle of
/// critical segments proves `phi` infeasible (DESIGN.md §13.2); the
/// answer is the same as after all `|V|` rounds.
pub fn feasible_retiming(graph: &RetimeGraph, phi: i64) -> Option<Retiming> {
    feasible_retiming_with::<true>(graph, phi)
}

/// [`feasible_retiming`], with the witness compiled out when `WITNESS`
/// is `false` (the test oracle).
pub(crate) fn feasible_retiming_with<const WITNESS: bool>(
    graph: &RetimeGraph,
    phi: i64,
) -> Option<Retiming> {
    let mut r = Retiming::zero(graph);
    let n = graph.num_vertices();
    let mut scratch = ArrivalScratch::new();
    let mut witness = FeasWitness::new();
    for _ in 0..n {
        let period = scratch.compute(graph, &r)?;
        if period <= phi {
            break;
        }
        if WITNESS && witness.record(graph, &scratch, phi) {
            return None;
        }
        for v in graph.vertices() {
            if scratch.arrival(v) > phi {
                r.add(v, 1);
            }
        }
    }
    if graph.check_nonnegative(&r).is_err() {
        return None;
    }
    match clock_period(graph, &r) {
        Ok(cp) if cp <= phi => Some(r),
        _ => None,
    }
}

/// The result of min-period retiming.
#[derive(Debug, Clone, PartialEq)]
pub struct MinPeriodResult {
    /// The smallest verified-feasible clock period.
    pub phi: i64,
    /// A retiming achieving it.
    pub retiming: Retiming,
}

/// Finds the minimum clock period achievable by retiming (binary search
/// over integer periods, feasibility by [`feasible_retiming`]).
///
/// # Errors
///
/// Returns [`RetimeError::Infeasible`] if even the upper bound (the sum
/// of all gate delays) is infeasible — impossible for graphs built from
/// valid circuits, kept for robustness.
pub fn min_period(graph: &RetimeGraph) -> Result<MinPeriodResult, RetimeError> {
    let max_delay: i64 = graph.vertices().map(|v| graph.delay(v)).max().unwrap_or(0);
    let total_delay: i64 = graph.vertices().map(|v| graph.delay(v)).sum();
    let hi_bound = total_delay.max(max_delay).max(1);

    // The identity retiming is always feasible at the current period.
    let current = clock_period(graph, &Retiming::zero(graph))?;
    let mut hi = current.min(hi_bound);
    let mut best = feasible_retiming(graph, hi)
        .map(|r| MinPeriodResult {
            phi: hi,
            retiming: r,
        })
        .unwrap_or(MinPeriodResult {
            phi: current,
            retiming: Retiming::zero(graph),
        });
    let mut lo = max_delay; // no period can beat the slowest gate
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match feasible_retiming(graph, mid) {
            Some(r) => {
                best = MinPeriodResult {
                    phi: mid,
                    retiming: r,
                };
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    if best.phi > hi_bound {
        return Err(RetimeError::Infeasible(
            "no retiming meets even the trivial period bound".into(),
        ));
    }
    Ok(best)
}

/// Lower bound on the clock period that **no** retiming can beat: the
/// maximum delay of a path whose endpoints cannot be separated by a
/// register (any host-to-host combinational path, since host edges keep
/// total I/O latency fixed). Used by tests to confirm optimality on
/// small circuits.
pub fn period_lower_bound(graph: &RetimeGraph) -> i64 {
    // Longest path from host to host counting total register weight 0 is
    // NP-hard-ish in general; we use the simple vertex-delay bound here.
    graph.vertices().map(|v| graph.delay(v)).max().unwrap_or(0)
}

/// Returns whether `r` is feasible for period `phi` (P0 + setup).
pub fn is_feasible(graph: &RetimeGraph, r: &Retiming, phi: i64) -> bool {
    graph.check_nonnegative(r).is_ok() && matches!(clock_period(graph, r), Ok(cp) if cp <= phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{samples, DelayModel};

    #[test]
    fn pipeline_rebalances_to_optimal() {
        // 6 unit gates in one segment + feedback register: the loop has
        // 2 registers (r after stage? no: pipeline(6,6) has only the fb
        // register) — one register on a 6-delay loop: min period 6.
        let c = samples::pipeline(6, 6);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let res = min_period(&g).unwrap();
        // Loop: s0..s5 + fb(1 register). Total loop delay 6, one
        // register: no retiming can beat 6.
        assert_eq!(res.phi, 6);
        assert!(is_feasible(&g, &res.retiming, res.phi));
    }

    #[test]
    fn pipeline_with_more_registers_gets_faster() {
        let c = samples::pipeline(9, 3); // loop with 3 registers, delay 9
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let res = min_period(&g).unwrap();
        assert_eq!(res.phi, 3, "3 registers over 9 delay unit loop");
        assert!(is_feasible(&g, &res.retiming, res.phi));
    }

    #[test]
    fn unbalanced_pipeline_improves() {
        // Put all the slack in one segment: registers every 1 then a
        // long tail — pipeline(8, 2): registers after s1, s3, s5 + fb:
        // 4 registers on an 8-delay loop: min period 2.
        let c = samples::pipeline(8, 2);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let initial = clock_period(&g, &Retiming::zero(&g)).unwrap();
        let res = min_period(&g).unwrap();
        assert_eq!(initial, 2);
        assert_eq!(res.phi, 2);
    }

    #[test]
    fn s27_min_period_feasible_and_not_worse() {
        let c = samples::s27_like();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
        let initial = clock_period(&g, &Retiming::zero(&g)).unwrap();
        let res = min_period(&g).unwrap();
        assert!(res.phi <= initial);
        assert!(is_feasible(&g, &res.retiming, res.phi));
        assert!(res.phi >= period_lower_bound(&g));
    }

    #[test]
    fn infeasible_below_min() {
        let c = samples::pipeline(6, 6);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        assert!(feasible_retiming(&g, 5).is_none());
        assert!(feasible_retiming(&g, 6).is_some());
    }

    #[test]
    fn generated_circuits_round_trip() {
        for seed in 0..5 {
            let c = netlist::generator::GeneratorConfig::new("mp", seed)
                .gates(120)
                .registers(25)
                .build();
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            let res = min_period(&g).unwrap();
            assert!(is_feasible(&g, &res.retiming, res.phi), "seed {seed}");
            let initial = clock_period(&g, &Retiming::zero(&g)).unwrap();
            assert!(res.phi <= initial, "seed {seed}");
        }
    }
}
