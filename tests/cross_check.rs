//! Optimality cross-checks: the paper's incremental algorithm against
//! the exact W/D-matrix + min-cost-flow reference, and against
//! exhaustive enumeration on tiny instances (including the
//! P2-constrained problem, where no convex reference exists) — plus
//! the three-way SER estimator agreement suite over the Table I twin
//! circuits, including a sabotage test proving the suite actually
//! fails when an estimator is wrong.

use faultsim::{check_agreement, judge_agreement, MonteCarloEstimator, ToleranceBands};
use minobswin::algorithm::SolverConfig;
use minobswin::experiment::RunConfig;
use minobswin::verify::check_feasible;
use minobswin::{Problem, SolverSession};
use netlist::generator::{table1_twin, GeneratorConfig, TABLE1_ROWS};
use netlist::rng::Xoshiro256;
use netlist::{samples, Circuit, DelayModel};
use retime::minarea_ref::{exhaustive_minimize, solve_exact};
use retime::timing::clock_period;
use retime::{ElwParams, LrLabels, RetimeGraph, Retiming, VertexId};
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{
    report_from_observabilities, EngineKind, EngineReport, PropProb, SerConfig, SerEstimate,
};

fn objective(graph: &RetimeGraph, b: &[i64], r: &Retiming) -> i64 {
    (1..graph.num_vertices())
        .map(|v| b[v] * r.get(VertexId::new(v)))
        .sum()
}

#[test]
fn minobs_matches_exact_reference_on_many_circuits() {
    for seed in 0..10u64 {
        let circuit = GeneratorConfig::new("xc", seed)
            .gates(60)
            .registers(14)
            .inputs(4)
            .outputs(4)
            .target_edges(130)
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::default()).unwrap();
        let phi = clock_period(&graph, &Retiming::zero(&graph)).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(seed * 31 + 5);
        let counts: Vec<i64> = (0..graph.num_vertices())
            .map(|i| {
                if i == 0 {
                    128
                } else {
                    rng.gen_range(129) as i64
                }
            })
            .collect();
        let problem =
            Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(phi), 1);
        let sol = SolverSession::new(&graph, &problem)
            .config(SolverConfig::default().with_p2(false))
            .run()
            .unwrap();
        let exact = solve_exact(&graph, &problem.b, Some(phi)).unwrap();
        assert_eq!(
            objective(&graph, &problem.b, &sol.retiming),
            exact.objective,
            "seed {seed}: incremental MinObs must match the exact LP optimum"
        );
    }
}

#[test]
fn minobswin_matches_exhaustive_on_tiny_circuits() {
    // The P2-constrained problem is non-convex; exhaustively enumerate
    // retimings in a box and compare. The solver is a monotone-descent
    // method (the paper's), so we check (a) feasibility, (b) it never
    // beats the true optimum, and (c) it reaches it on these instances.
    let mut optimal_hits = 0;
    let mut cases = 0;
    for seed in 0..6u64 {
        let circuit = GeneratorConfig::new("tiny", seed)
            .gates(5)
            .registers(3)
            .inputs(1)
            .outputs(1)
            .target_edges(10)
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit()).unwrap();
        if graph.num_vertices() > 10 {
            continue;
        }
        let r0 = Retiming::zero(&graph);
        let phi = clock_period(&graph, &r0).unwrap() + 1;
        let params = ElwParams::with_phi(phi);
        let labels = LrLabels::compute(&graph, &r0, params).unwrap();
        let Some(r_min) = labels.min_short_path(&graph, &r0) else {
            continue;
        };
        let mut rng = Xoshiro256::seed_from_u64(seed + 1000);
        let counts: Vec<i64> = (0..graph.num_vertices())
            .map(|i| if i == 0 { 16 } else { rng.gen_range(17) as i64 })
            .collect();
        let problem = Problem::from_observability_counts(&graph, &counts, params, r_min);
        let sol = SolverSession::new(&graph, &problem)
            .initial(r0.clone())
            .run()
            .unwrap();
        assert!(
            check_feasible(&graph, &problem, &sol.retiming).is_ok(),
            "seed {seed}"
        );

        let brute = exhaustive_minimize(
            &graph,
            2,
            |r| check_feasible(&graph, &problem, r).is_ok(),
            |r| objective(&graph, &problem.b, r),
        )
        .expect("r = 0 is feasible");
        let got = objective(&graph, &problem.b, &sol.retiming);
        assert!(
            got >= brute.1,
            "seed {seed}: solver objective {got} beats the exhaustive optimum {} — impossible",
            brute.1
        );
        cases += 1;
        if got == brute.1 {
            optimal_hits += 1;
        }
    }
    assert!(cases >= 3, "need enough comparable cases, got {cases}");
    // The paper claims optimality (Theorem 2, stated without proof),
    // but the P2-constrained feasible set is non-convex and the greedy
    // closed-set schedule can stop at a local optimum; with the
    // bidirectional schedule we observe 5/6 global hits on these
    // instances (see EXPERIMENTS.md, "optimality findings"). Guard the
    // current quality level without overclaiming.
    assert!(
        optimal_hits + 1 >= cases,
        "solver found the exhaustive optimum on only {optimal_hits}/{cases} tiny instances"
    );
}

#[test]
fn p2_never_binds_when_rmin_is_trivial() {
    // With R_min = minimal gate delay (the paper's fallback), MinObsWin
    // must behave exactly like MinObs (observed in the paper for
    // s15850.1 etc.).
    for seed in 0..4u64 {
        let circuit = GeneratorConfig::new("triv", seed)
            .gates(80)
            .registers(16)
            .build();
        let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit()).unwrap();
        let phi = clock_period(&graph, &Retiming::zero(&graph)).unwrap();
        let counts = vec![1i64; graph.num_vertices()];
        let problem =
            Problem::from_observability_counts(&graph, &counts, ElwParams::with_phi(phi), 1);
        let win = SolverSession::new(&graph, &problem).run().unwrap();
        let base = SolverSession::new(&graph, &problem)
            .config(SolverConfig::default().with_p2(false))
            .run()
            .unwrap();
        assert_eq!(
            win.objective_gain, base.objective_gain,
            "seed {seed}: with unit delays R_min = 1 never binds"
        );
    }
}

#[test]
fn descent_is_monotone_and_final_state_stable() {
    let circuit = samples::s27_like();
    let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::default()).unwrap();
    let r0 = Retiming::zero(&graph);
    let phi = clock_period(&graph, &r0).unwrap() + 3;
    let params = ElwParams::with_phi(phi);
    let labels = LrLabels::compute(&graph, &r0, params).unwrap();
    let r_min = labels.min_short_path(&graph, &r0).unwrap();
    let counts = vec![7i64; graph.num_vertices()];
    let problem = Problem::from_observability_counts(&graph, &counts, params, r_min);
    // The paper-literal schedule (descent only).
    let paper_config = SolverConfig::default().with_bidirectional(false);
    let sol = SolverSession::new(&graph, &problem)
        .config(paper_config)
        .initial(r0.clone())
        .run()
        .unwrap();
    // Descent: r only decreases from the start.
    for v in graph.vertices() {
        assert!(sol.retiming.get(v) <= r0.get(v), "{v} increased");
    }
    // Re-running from the final point makes no further progress, and
    // the bidirectional schedule can only match or improve.
    let again = SolverSession::new(&graph, &problem)
        .config(paper_config)
        .initial(sol.retiming.clone())
        .run()
        .unwrap();
    assert_eq!(again.objective_gain, 0);
    let bidir = SolverSession::new(&graph, &problem)
        .initial(r0)
        .run()
        .unwrap();
    assert!(bidir.objective_gain >= sol.objective_gain);
}

// ---------------------------------------------------------------------------
// Three-way SER estimator agreement (PR 8)
// ---------------------------------------------------------------------------

/// A Φ-fitted estimation config for the agreement suite: small
/// deterministic simulation, Φ from the same initialization the
/// experiment pipeline uses.
fn agreement_config(circuit: &Circuit, vectors: usize, frames: usize) -> SerConfig {
    let defaults = RunConfig::default();
    let graph = RetimeGraph::from_circuit(circuit, &defaults.delays).unwrap();
    let init = defaults.init.initialize(&graph).unwrap();
    SerConfig {
        sim: SimConfig {
            num_vectors: vectors,
            frames,
            warmup: 4,
            seed: 0xC0FFEE,
            threads: 0,
        },
        delays: defaults.delays.clone(),
        rates: defaults.rates.clone(),
        elw: ElwParams {
            phi: init.phi,
            t_setup: defaults.init.t_setup,
            t_hold: defaults.init.t_hold,
        },
    }
}

/// Documented per-circuit tolerance bands for the Table I twins
/// (calibrated 2026-08 at scale 192, 256 vectors × 6 frames, 12k
/// injections, fixed seeds — the whole pipeline is bit-deterministic,
/// so the measured gaps below are reproducible, and each band carries
/// ≥ 1.2× headroom over its measured gap).
///
/// Two regimes:
///
/// * **Deterministic pairs** (analytic vs propprob): both engines make
///   the same independence approximation, so they track each other
///   tightly everywhere — worst measured gap 15.5% (b18 twin); the
///   default 25% band holds for all 21 circuits.
/// * **Sampled pairs** (anything vs Monte-Carlo): the gap *is* the
///   reconvergence error of the independence approximation, because
///   the campaign actually propagates each fault. On most twins it
///   stays under 25%, but dense arithmetic cones (XOR-heavy
///   reconvergent fanout in the `b`-series twins) make the analytic
///   observabilities saturate toward 1 where correlated paths really
///   cancel: measured 57% on the b21 twin and 83% on the b18_1 twin
///   (e.g. site n60: analytic latch probability 0.81, campaign 0.00).
///   Those circuits carry wide documented bands — the agreement check
///   there guards the order of magnitude, while the deterministic
///   pairs stay sharp.
fn bands_for(name: &str) -> ToleranceBands {
    let sampled_pair = match name {
        "b18_1_opt" => 0.90,            // measured 0.83
        "b21_opt" => 0.75,              // measured 0.57
        "b22_1_opt" => 0.45,            // measured 0.27
        "s13207" | "b17_1_opt" => 0.35, // measured 0.23
        _ => 0.30,                      // measured ≤ 0.19
    };
    ToleranceBands {
        sampled_pair,
        ..ToleranceBands::default()
    }
}

#[test]
fn table1_twins_three_way_agreement() {
    // Every Table I circuit (tiny twins, as in `table1_smoke`): the
    // analytic, Monte-Carlo and propagation-probability engines must
    // agree pairwise within the documented bands. The exact oracle
    // joins automatically on twins small enough to enumerate.
    let mut checked = 0usize;
    for row in &TABLE1_ROWS {
        let circuit = table1_twin(row, 192);
        let config = agreement_config(&circuit, 256, 6);
        let campaign = MonteCarloEstimator::new(12_000);
        let report = check_agreement(&circuit, &config, &campaign, bands_for(row.name)).unwrap();
        assert!(
            report.agrees(),
            "{}: estimators disagree\n{}",
            row.name,
            report.summary()
        );
        // All-vs-all: n engines yield n(n-1)/2 verdicts.
        let n = report.estimates.len();
        assert_eq!(report.pairs.len(), n * (n - 1) / 2, "{}", row.name);
        checked += 1;
    }
    assert_eq!(
        checked,
        TABLE1_ROWS.len(),
        "every Table I circuit must be judged"
    );
}

/// A propagation-probability estimate with a deliberate bug: every
/// gate's propagation probability is skewed toward ½
/// (`obs ↦ 0.5·obs + 0.25`) before the eq. (4) report is assembled.
fn skewed_propprob_estimate(circuit: &Circuit, config: &SerConfig) -> SerEstimate {
    let trace = FrameTrace::simulate(circuit, config.sim);
    let skewed: Vec<f64> = PropProb::compute(circuit, &trace)
        .as_slice()
        .iter()
        .map(|obs| 0.5 * obs + 0.25)
        .collect();
    let report =
        report_from_observabilities(circuit, config, &skewed, EngineReport::default()).unwrap();
    SerEstimate::from_report(EngineKind::PropProb, &report)
}

#[test]
fn sabotaged_estimator_is_caught_by_the_agreement_suite() {
    // Fault drill for the suite itself: the propagation-probability
    // estimate is replaced by a skewed one (obs ↦ 0.5·obs + 0.25). If
    // the agreement oracle cannot catch that, its bands are too loose
    // to catch a real bug.
    //
    // The drill circuit is a deep AND chain with a fresh input per
    // stage: logical masking decays geometrically with depth, so the
    // early gates have true observability ~2^-29 (all engines report
    // ~0 there), while the skew floors every site at 0.25 — inflating
    // the propprob SER several-fold. Exactly the kind of silent
    // per-site corruption the oracle exists to catch. (A dead cone
    // would not work here: unobservable gates have an empty
    // error-latching window, so eq. (4) zeroes them no matter how the
    // observability is skewed.)
    let circuit = {
        let mut b = netlist::CircuitBuilder::new("sabotage_drill");
        b.input("i0");
        b.dff("q", "i0").unwrap();
        let mut prev = "q".to_string();
        for k in 0..30 {
            let input = format!("i{}", k + 1);
            b.input(&input);
            let name = format!("c{k}");
            b.gate(&name, netlist::GateKind::And, &[&prev, &input])
                .unwrap();
            prev = name;
        }
        b.output(&prev).unwrap();
        b.build().unwrap()
    };
    let config = agreement_config(&circuit, 256, 6);
    let campaign = MonteCarloEstimator::new(20_000);
    let control = check_agreement(&circuit, &config, &campaign, ToleranceBands::default()).unwrap();
    let estimates = control
        .estimates
        .iter()
        .map(|e| match e.engine {
            EngineKind::PropProb => skewed_propprob_estimate(&circuit, &config),
            _ => e.clone(),
        })
        .collect();
    let report = judge_agreement(&circuit, &config, estimates, ToleranceBands::default());
    assert!(
        !report.agrees(),
        "sabotaged propprob engine slipped past the oracle\n{}",
        report.summary()
    );
    // The divergence must implicate the sabotaged engine specifically.
    assert!(
        report
            .divergent()
            .iter()
            .all(|p| p.a == EngineKind::PropProb || p.b == EngineKind::PropProb),
        "divergence blamed on the wrong engines\n{}",
        report.summary()
    );
    // And the healthy engines still agree with each other.
    assert!(
        report
            .pairs
            .iter()
            .filter(|p| p.a != EngineKind::PropProb && p.b != EngineKind::PropProb)
            .all(|p| p.agrees),
        "healthy pairs should stay in agreement\n{}",
        report.summary()
    );
    // Control: the unskewed estimates of the same circuit agree — the
    // divergence above is caused by the injected bug, nothing else.
    assert!(
        control.agrees(),
        "control run without sabotage must agree\n{}",
        control.summary()
    );
}
