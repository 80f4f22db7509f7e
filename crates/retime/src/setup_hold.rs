//! Retiming under simultaneous setup **and** hold constraints — the
//! `\[23\]` (Lin & Zhou, DAC'06) ingredient of the paper's §V
//! initialization — and, at `T_h = 0`, plain min-period retiming by the
//! FEAS relaxation of Leiserson and Saxe (`\[24\]`, §V's fallback).
//!
//! The full Lin–Zhou algorithm is a research artifact of its own; this
//! module implements a conservative joint-repair scheme that produces
//! the two outcomes §V needs: either a retiming meeting both
//! constraints at a minimized period `Φ_sh`, or a report of
//! infeasibility (the paper observes genuine infeasibility on several
//! circuits, caused by reconvergent paths). Our scheme may declare
//! infeasibility for instances the exact algorithm could solve; that
//! only switches §V to its documented fallback (`Φ_min` from the same
//! search at `T_h = 0` and `R_min` = minimum gate delay), so the
//! pipeline behaves exactly as the paper describes in both cases.
//!
//! Setup: every register-to-register combinational path ≤ `Φ − T_s`.
//! Hold: every combinational path launched by a register has delay
//! ≥ `T_h` (data must not race through before the capturing register's
//! hold window closes).
//!
//! At `T_h = 0` no hold repair can fire: `R(u) ≤ Φ + T_h` and `d ≥ 0`
//! give `short_path(u) ≥ d(u) ≥ 0`. Every probe is then FEAS alone, and
//! [`min_period_setup_hold`]`(graph, T_s, 0)` is min-period retiming at
//! `Φ − T_s`. Memory use is `O(|E|)` — no `W`/`D` matrices — so this
//! scales to the paper's largest (b19-sized) circuits.

use crate::graph::{RetimeGraph, Retiming, VertexId};
use crate::labels::{ElwParams, LrLabels};
use crate::timing::{max_cycle_ratio, ArrivalScratch};

/// Result of [`min_period_setup_hold`].
#[derive(Debug, Clone, PartialEq)]
pub struct SetupHoldResult {
    /// The minimized period `Φ_sh`.
    pub phi: i64,
    /// A retiming meeting setup at `phi` and hold at `t_hold`.
    pub retiming: Retiming,
}

/// Attempts to find a retiming meeting setup at period `phi` and hold
/// time `t_hold`. Conservative: `None` means "could not find", not a
/// proof of infeasibility.
pub fn feasible_setup_hold(
    graph: &RetimeGraph,
    phi: i64,
    t_setup: i64,
    t_hold: i64,
) -> Option<Retiming> {
    feasible_setup_hold_capped(graph, phi, t_setup, t_hold, graph.num_vertices() + 2, None)
}

/// [`feasible_setup_hold`] with an explicit cap on *consecutive* setup
/// FEAS iterations. A `Some` answer is sound at any cap (the retiming
/// is fully verified and independent of the cap); a `None` under a cap
/// below `|V| + 2` may be premature. [`min_period_setup_hold`] exploits
/// this asymmetry: it scans with a small cap — deep-infeasible probes
/// then cost tens of iterations instead of `|V|` — and re-confirms the
/// final floor at the full Bellman–Ford bound, so the minimized period
/// is provably the same as an all-full-cap search.
///
/// `bound` is a lower bound on the clock period of every retiming with
/// non-negative edge weights (the search passes `⌈λ*⌉`, the maximum
/// cycle ratio's). Below it no probe can return `Some`, so one with
/// `phi − t_setup < bound` returns `None` before its first pass.
pub(crate) fn feasible_setup_hold_capped(
    graph: &RetimeGraph,
    phi: i64,
    t_setup: i64,
    t_hold: i64,
    feas_cap: usize,
    bound: Option<i64>,
) -> Option<Retiming> {
    let trace = std::env::var_os("MINOBSWIN_TRACE").is_some();
    let t0 = std::time::Instant::now();
    let mut feas_steps = 0u64;
    let mut hold_repairs = 0u64;
    let report = |outcome: &str, feas: u64, holds: u64| {
        if trace {
            eprintln!(
                "  feasible_setup_hold phi {phi}: {outcome} after {feas} FEAS + {holds} hold repairs in {:.3}s",
                t0.elapsed().as_secs_f64()
            );
        }
    };
    if let Some(bound) = bound.filter(|&bound| phi - t_setup < bound) {
        report(&format!("bound {bound}"), 0, 0);
        return None;
    }
    let mut r = Retiming::zero(graph);
    let params = ElwParams {
        phi,
        t_setup,
        t_hold,
    };
    let n = graph.num_vertices();
    let budget = 4 * n + 16;
    // FEAS converges within |V| iterations whenever the period is
    // achievable from the current retiming (the Bellman–Ford bound of
    // Leiserson & Saxe), so a run of more than |V| + 1 *consecutive*
    // setup steps that never reaches the period is a proof of
    // non-convergence. Bailing out then — instead of burning the whole
    // 4|V| budget — cannot flip a feasible probe, and it is what keeps
    // the infeasible probes of the binary search affordable at 10k+
    // gates.
    let mut consecutive_feas = 0usize;
    let mut scratch = ArrivalScratch::new();
    for _ in 0..budget {
        let period = scratch.compute(graph, &r)?;
        if period > phi - t_setup {
            // FEAS step for setup.
            feas_steps += 1;
            consecutive_feas += 1;
            if consecutive_feas > feas_cap {
                report("feas-cap", feas_steps, hold_repairs);
                return None;
            }
            let mut moved = false;
            for v in graph.vertices() {
                if scratch.arrival(v) > phi - t_setup {
                    r.add(v, 1);
                    moved = true;
                }
            }
            if !moved {
                report("stuck", feas_steps, hold_repairs);
                return None;
            }
            continue;
        }
        consecutive_feas = 0;
        let labels = LrLabels::compute_with_order(graph, &r, params, scratch.order());
        // Hold is P2 at `R_min = T_h`.
        match labels.find_p2_violation(graph, &r, t_hold) {
            Some(violation) => {
                hold_repairs += 1;
                // Two symmetric repairs: push the launching register
                // backward over the edge's tail (lengthens the path at
                // its start), or push the register terminating the
                // short path forward over the head `y` of an out-edge
                // of `rt` that carries exactly one register (lengthens
                // it at its end; heavier edges are left to the solver).
                let tail = graph.edge(violation.edge).from;
                let repaired = shift_zero_weight_closure(graph, &mut r, tail, 1) || {
                    let y = graph.out_edges(violation.rt).iter().find_map(|&e| {
                        let edge = graph.edge(e);
                        (!edge.to.is_host() && graph.retimed_weight(e, &r) == 1).then_some(edge.to)
                    });
                    y.is_some_and(|y| shift_zero_weight_closure(graph, &mut r, y, -1))
                };
                if !repaired {
                    report("unrepairable", feas_steps, hold_repairs);
                    return None;
                }
            }
            None => {
                // Fixpoint: verify everything before returning.
                if graph.check_nonnegative(&r).is_ok() {
                    report("feasible", feas_steps, hold_repairs);
                    return Some(r);
                }
                report("nonneg-fail", feas_steps, hold_repairs);
                return None;
            }
        }
    }
    report("budget", feas_steps, hold_repairs);
    None
}

/// Shifts `r` by `step` on `start` and on every vertex `start` reaches
/// through zero-weight edges, walking out-edges for `step = 1` and
/// in-edges for `step = -1`: the edges a shift of `start` alone would
/// drain below zero (P0). `r` changes only once the walk succeeds; it
/// fails, leaving `r` as it was, when the closure meets the host (a
/// register would have to move past an I/O).
fn shift_zero_weight_closure(
    graph: &RetimeGraph,
    r: &mut Retiming,
    start: VertexId,
    step: i64,
) -> bool {
    if start.is_host() {
        return false;
    }
    let mut closure = vec![false; graph.num_vertices()];
    let mut stack = vec![start];
    closure[start.index()] = true;
    while let Some(v) = stack.pop() {
        let edges = if step > 0 {
            graph.out_edges(v)
        } else {
            graph.in_edges(v)
        };
        for &e in edges {
            if graph.retimed_weight(e, r) > 0 {
                continue; // a register already separates us
            }
            let edge = graph.edge(e);
            let next = if step > 0 { edge.to } else { edge.from };
            if next.is_host() {
                return false;
            }
            if !closure[next.index()] {
                closure[next.index()] = true;
                stack.push(next);
            }
        }
    }
    for v in graph.vertices() {
        if closure[v.index()] {
            r.add(v, step);
        }
    }
    true
}

/// Verifies setup and hold of a retiming: P0, a clock period within
/// `Φ − T_s`, and no P2 violation at `R_min = T_h`.
pub fn meets_setup_hold(
    graph: &RetimeGraph,
    r: &Retiming,
    phi: i64,
    t_setup: i64,
    t_hold: i64,
) -> bool {
    if graph.check_nonnegative(r).is_err() {
        return false;
    }
    let mut scratch = ArrivalScratch::new();
    if scratch
        .compute(graph, r)
        .is_none_or(|period| period > phi - t_setup)
    {
        return false;
    }
    let params = ElwParams {
        phi,
        t_setup,
        t_hold,
    };
    LrLabels::compute_with_order(graph, r, params, scratch.order())
        .find_p2_violation(graph, r, t_hold)
        .is_none()
}

/// Minimizes the clock period under setup and hold constraints
/// (binary search over [`feasible_setup_hold`]). Returns `None` when no
/// retiming is found even at a generous period — the paper's
/// "no valid retiming under setup and hold" outcome. At `t_hold = 0`
/// this is min-period retiming, and `None` is then impossible for
/// graphs built from valid circuits (the `r = 0` retiming meets the
/// upper bound).
///
/// The search runs in two tiers. The scan tier probes with a small
/// FEAS cap (feasible probes converge almost immediately in practice,
/// so their `Some` answers — which are cap-independent — are unharmed,
/// while deep-infeasible probes stop after tens of iterations instead
/// of `|V|`). The confirm tier then re-probes one step below the scan
/// optimum at the full `|V| + 2` Bellman–Ford bound: if that is
/// infeasible the scan answer is proven optimal, and if the scan cap
/// turned out to be truncating a genuinely feasible probe, the search
/// resumes below it. The result is therefore identical to an
/// all-full-cap search, at a fraction of the cost on 10k+-gate graphs.
/// In both tiers a probe with `Φ − T_s` below `⌈λ*⌉`, the verified
/// maximum cycle ratio of the host-free graph, returns `None` before
/// its first pass (DESIGN.md §13.2), which cannot change its answer.
pub fn min_period_setup_hold(
    graph: &RetimeGraph,
    t_setup: i64,
    t_hold: i64,
) -> Option<SetupHoldResult> {
    search(graph, t_setup, t_hold, period_bound(graph))
}

/// §V's period search with its fallback: [`min_period_setup_hold`] at
/// `t_hold`, and when that finds nothing, the same search at `T_h = 0`
/// (plain min-period retiming). The two searches share one `⌈λ*⌉`, so
/// Howard's policy iteration runs once. Returns the result and whether
/// it meets hold at `t_hold` (`false`: the fallback answered); `None`
/// only when the fallback finds nothing either.
pub fn min_period_with_fallback(
    graph: &RetimeGraph,
    t_setup: i64,
    t_hold: i64,
) -> Option<(SetupHoldResult, bool)> {
    let bound = period_bound(graph);
    match search(graph, t_setup, t_hold, bound) {
        Some(found) => Some((found, true)),
        None => search(graph, t_setup, 0, bound).map(|found| (found, false)),
    }
}

/// `⌈λ*⌉`, the verified maximum cycle ratio's period bound, or `None`
/// when no cycle avoids the host or the cycle fails its check.
fn period_bound(graph: &RetimeGraph) -> Option<i64> {
    max_cycle_ratio(graph)
        .filter(|ratio| ratio.check(graph))
        .map(|ratio| ratio.period_bound())
}

/// The two-tier search of [`min_period_setup_hold`] under `bound`.
fn search(
    graph: &RetimeGraph,
    t_setup: i64,
    t_hold: i64,
    bound: Option<i64>,
) -> Option<SetupHoldResult> {
    let n = graph.num_vertices();
    let full_cap = n + 2;
    let quick_cap = full_cap.min(64);
    let max_delay: i64 = graph.vertices().map(|v| graph.delay(v)).max().unwrap_or(0);
    let total_delay: i64 = graph.vertices().map(|v| graph.delay(v)).sum();
    let hi_bound = (total_delay + t_setup).max(1);
    let floor = (max_delay + t_setup).max(t_hold);
    // Establish an upper-bound solution first, at full rigor.
    let mut best =
        feasible_setup_hold(graph, hi_bound, t_setup, t_hold).map(|r| SetupHoldResult {
            phi: hi_bound,
            retiming: r,
        })?;
    loop {
        // Scan tier: bisect below the current best with the quick cap.
        let mut lo = floor;
        let mut hi = best.phi;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match feasible_setup_hold_capped(graph, mid, t_setup, t_hold, quick_cap, bound) {
                Some(r) => {
                    best = SetupHoldResult {
                        phi: mid,
                        retiming: r,
                    };
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        // Confirm tier: a quick-cap `None` may be premature, so prove
        // the floor below the scan optimum at the full bound.
        if quick_cap >= full_cap || best.phi <= floor {
            return Some(best);
        }
        match feasible_setup_hold_capped(graph, best.phi - 1, t_setup, t_hold, full_cap, bound) {
            None => return Some(best),
            Some(r) => {
                best = SetupHoldResult {
                    phi: best.phi - 1,
                    retiming: r,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::tests::ring;
    use crate::timing::{clock_period, max_cycle_ratio, MAX_CYCLE_RATIO_CALLS};
    use netlist::generator::{table1_twins, GeneratorConfig};
    use netlist::{samples, DelayModel};
    use proptest::prelude::*;

    #[test]
    fn pipeline_meets_both_constraints() {
        let c = samples::pipeline(9, 3);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        // Unit delays, segments of 3: hold of 2 requires every launched
        // path >= 2 — initial segments have short_path 3, fine.
        let res = min_period_setup_hold(&g, 0, 2).expect("feasible");
        assert!(meets_setup_hold(&g, &res.retiming, res.phi, 0, 2));
        assert!(res.phi >= 3);
    }

    #[test]
    fn hold_repair_moves_register() {
        // A loop where one segment is a single unit-delay gate: hold=2
        // violated initially; the repair must move a register.
        let c = samples::two_stage_loop();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let r0 = Retiming::zero(&g);
        assert!(
            !meets_setup_hold(&g, &r0, 20, 0, 2),
            "initial placement should violate hold (g1 segment has delay 1)"
        );
        if let Some(res) = min_period_setup_hold(&g, 0, 2) {
            assert!(meets_setup_hold(&g, &res.retiming, res.phi, 0, 2));
        }
        // (If the conservative solver reports None that is acceptable —
        // the caller falls back per §V — but it should not return an
        // invalid retiming.)
    }

    #[test]
    fn impossible_hold_reports_none() {
        // Hold time larger than the total loop delay can never be met.
        let c = samples::pipeline(4, 4);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        assert!(min_period_setup_hold(&g, 0, 100).is_none());
    }

    #[test]
    fn the_fallback_shares_one_cycle_ratio_run() {
        let calls = || MAX_CYCLE_RATIO_CALLS.with(|calls| calls.get());
        // An impossible hold time forces the fallback.
        let g = RetimeGraph::from_circuit(&samples::pipeline(4, 4), &DelayModel::unit()).unwrap();
        let before = calls();
        let (found, met_hold) = min_period_with_fallback(&g, 0, 100).unwrap();
        assert_eq!(calls() - before, 1, "both searches share one bound");
        assert!(!met_hold);
        assert_eq!(Some(found), min_period_setup_hold(&g, 0, 0));
        // Without the fallback it is the setup+hold search.
        let g = RetimeGraph::from_circuit(&samples::pipeline(9, 3), &DelayModel::unit()).unwrap();
        let before = calls();
        let (found, met_hold) = min_period_with_fallback(&g, 0, 2).unwrap();
        assert_eq!(calls() - before, 1);
        assert!(met_hold);
        assert_eq!(Some(found), min_period_setup_hold(&g, 0, 2));
    }

    #[test]
    fn generated_circuits_give_valid_results() {
        for seed in 0..4 {
            let c = GeneratorConfig::new("sh", seed)
                .gates(100)
                .registers(20)
                .build();
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            if let Some(res) = min_period_setup_hold(&g, 0, 2) {
                assert!(
                    meets_setup_hold(&g, &res.retiming, res.phi, 0, 2),
                    "seed {seed}"
                );
            }
        }
    }

    // Min-period retiming: the search at `T_h = 0`.

    #[test]
    fn pipeline_rebalances_to_optimal() {
        // 6 unit gates in one segment + feedback register: the loop has
        // 2 registers (r after stage? no: pipeline(6,6) has only the fb
        // register) — one register on a 6-delay loop: min period 6.
        let c = samples::pipeline(6, 6);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let res = min_period_setup_hold(&g, 0, 0).unwrap();
        // Loop: s0..s5 + fb(1 register). Total loop delay 6, one
        // register: no retiming can beat 6.
        assert_eq!(res.phi, 6);
        assert!(meets_setup_hold(&g, &res.retiming, res.phi, 0, 0));
    }

    #[test]
    fn pipeline_with_more_registers_gets_faster() {
        let c = samples::pipeline(9, 3); // loop with 3 registers, delay 9
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let res = min_period_setup_hold(&g, 0, 0).unwrap();
        assert_eq!(res.phi, 3, "3 registers over 9 delay unit loop");
        assert!(meets_setup_hold(&g, &res.retiming, res.phi, 0, 0));
    }

    #[test]
    fn unbalanced_pipeline_improves() {
        // Put all the slack in one segment: registers every 1 then a
        // long tail — pipeline(8, 2): registers after s1, s3, s5 + fb:
        // 4 registers on an 8-delay loop: min period 2.
        let c = samples::pipeline(8, 2);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        let initial = clock_period(&g, &Retiming::zero(&g)).unwrap();
        let res = min_period_setup_hold(&g, 0, 0).unwrap();
        assert_eq!(initial, 2);
        assert_eq!(res.phi, 2);
    }

    #[test]
    fn s27_min_period_feasible_and_not_worse() {
        let c = samples::s27_like();
        let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
        let initial = clock_period(&g, &Retiming::zero(&g)).unwrap();
        let res = min_period_setup_hold(&g, 0, 0).unwrap();
        assert!(res.phi <= initial);
        assert!(meets_setup_hold(&g, &res.retiming, res.phi, 0, 0));
        // No retiming beats the slowest gate.
        assert!(res.phi >= g.vertices().map(|v| g.delay(v)).max().unwrap());
    }

    #[test]
    fn infeasible_below_min() {
        let c = samples::pipeline(6, 6);
        let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
        assert!(feasible_setup_hold(&g, 5, 0, 0).is_none());
        assert!(feasible_setup_hold(&g, 6, 0, 0).is_some());
    }

    #[test]
    fn generated_circuits_round_trip() {
        for seed in 0..5 {
            let c = GeneratorConfig::new("mp", seed)
                .gates(120)
                .registers(25)
                .build();
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            let res = min_period_setup_hold(&g, 0, 0).unwrap();
            assert!(
                meets_setup_hold(&g, &res.retiming, res.phi, 0, 0),
                "seed {seed}"
            );
            let initial = clock_period(&g, &Retiming::zero(&g)).unwrap();
            assert!(res.phi <= initial, "seed {seed}");
        }
    }

    // The two-tier search against an all-full-cap search.

    /// A plain bisection over [`feasible_setup_hold`] at the full
    /// `|V| + 2` cap, over the range [`min_period_setup_hold`] searches:
    /// the oracle for its quick-cap scan and full-cap confirm. Like the
    /// search, it takes every period below the cycle-ratio bound as
    /// infeasible without a probe; the timing tests' sweep checks that
    /// the full-cap probe agrees there.
    fn full_cap_bisection(g: &RetimeGraph, t_setup: i64, t_hold: i64) -> Option<SetupHoldResult> {
        let bound = max_cycle_ratio(g).map_or(i64::MIN, |ratio| ratio.period_bound());
        let max_delay = g.vertices().map(|v| g.delay(v)).max().unwrap_or(0);
        let total_delay: i64 = g.vertices().map(|v| g.delay(v)).sum();
        let mut hi = (total_delay + t_setup).max(1);
        let mut best = SetupHoldResult {
            phi: hi,
            retiming: feasible_setup_hold(g, hi, t_setup, t_hold)?,
        };
        let mut lo = (max_delay + t_setup).max(t_hold);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let found = if mid - t_setup < bound {
                None
            } else {
                feasible_setup_hold(g, mid, t_setup, t_hold)
            };
            match found {
                Some(retiming) => {
                    best = SetupHoldResult { phi: mid, retiming };
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        Some(best)
    }

    /// [`min_period_setup_hold`] returns the oracle's `(Φ, retiming)`
    /// at every `T_s ∈ {0, 1}` and `T_h ∈ {0, 2}`.
    fn assert_search_matches_oracle(g: &RetimeGraph, what: &str) {
        for t_setup in [0, 1] {
            for t_hold in [0, 2] {
                assert_eq!(
                    min_period_setup_hold(g, t_setup, t_hold),
                    full_cap_bisection(g, t_setup, t_hold),
                    "{what}: T_s {t_setup}, T_h {t_hold}"
                );
            }
        }
    }

    #[test]
    fn search_matches_full_cap_bisection_on_samples_and_rings() {
        for c in &[
            samples::s27_like(),
            samples::pipeline(9, 3),
            samples::pipeline(24, 8),
            samples::fig1_like(),
            samples::two_stage_loop(),
        ] {
            for delays in [DelayModel::unit(), DelayModel::default()] {
                let g = RetimeGraph::from_circuit(c, &delays).unwrap();
                assert_search_matches_oracle(&g, c.name());
            }
        }
        // Bunched registers: FEAS needs many rounds to move them apart,
        // and past 62 vertices the scan's quick cap is below the full
        // cap, so a premature quick-cap `None` would show.
        for (stages, regs_after) in [(64, &[0, 1][..]), (96, &[0, 1, 2]), (150, &[0, 1, 2, 3])] {
            let c = ring(stages, regs_after);
            let g = RetimeGraph::from_circuit(&c, &DelayModel::unit()).unwrap();
            assert!(g.num_vertices() > 62, "quick cap below the full cap");
            assert_search_matches_oracle(&g, &format!("ring({stages})"));
        }
    }

    #[test]
    fn search_matches_full_cap_bisection_on_the_table1_twins() {
        for c in table1_twins(64) {
            let g = RetimeGraph::from_circuit(&c, &DelayModel::default()).unwrap();
            assert_search_matches_oracle(&g, c.name());
        }
    }

    proptest! {
        #[test]
        fn search_matches_full_cap_bisection_on_generated_circuits(
            seed in 0u64..1_000_000,
            gates in 12usize..120,
            registers in 2usize..30,
            unit in 0u32..2,
        ) {
            let c = GeneratorConfig::new("oracle", seed)
                .gates(gates)
                .registers(registers)
                .build();
            let delays = if unit == 1 { DelayModel::unit() } else { DelayModel::default() };
            let g = RetimeGraph::from_circuit(&c, &delays).unwrap();
            assert_search_matches_oracle(&g, &format!("seed {seed}"));
        }
    }
}
