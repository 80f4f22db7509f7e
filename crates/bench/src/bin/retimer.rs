//! `retimer` — the end-user command line tool: read a gate-level
//! netlist, analyze its SER, retime it for soft error minimization
//! (MinObsWin, or the MinObs baseline), verify equivalence, and write
//! the retimed netlist plus a machine-readable report. [`USAGE`] is the
//! synopsis `--help` prints.
//!
//! - `solve` (the default): §V init, both optimizers, a bounded
//!   equivalence check, then `--out` (format from the extension) and a
//!   `--report` CSV row. `--r-min` overrides the §V bound (an
//!   over-tight one exits 1); `--checkpoint PATH` saves solver state to
//!   `PATH.<method>.ckpt` and `--resume` continues from it.
//! - `fault-sim`: a Monte-Carlo SEU campaign cross-validating the
//!   analytic SER model before and after retiming (crates/faultsim).
//! - `estimate`: the SER from one engine, or from every engine under
//!   the three-way agreement oracle (`--engine all`, the default;
//!   engines diverging past their band exit 1). `exact` over
//!   `--max-source-bits` (registers + inputs × frames, default 20)
//!   exits 2; `all` skips it.
//! - `harden`: the selective-hardening advisor; it ranks cells by SER
//!   payoff per unit of hardened area, spends the area budget, and
//!   validates the plan with a same-seed campaign (`--no-validate`
//!   skips it). `estimate` and `harden` read one flag set.
//! - `bench-solve` / `bench-ser`: the solver and SER data-plane
//!   benchmarks, written as JSON (`BENCH_solver.json`, `BENCH_ser.json`).
//!   `--max-memory` over budget is a degraded exit 4, never an abort.
//! - `serve`: the daemon (crates/serve, DESIGN.md §12); `--fsck` runs
//!   one cache-integrity pass and exits.
//!
//! # Values and their rules
//!
//! Every value is parsed and range-checked once, by `bench_harness::args`
//! or the one subcommand that reads it; a flag given twice takes its
//! last value. Anything else exits 2 with the flag named, never a panic.
//! The `table1` binary reads `--vectors`/`--frames` the same way.
//!
//! | value | rule | read by (serve job key) |
//! |---|---|---|
//! | `--vectors K` | a positive multiple of 64 (`SimConfig::validate`) | solve, fault-sim, estimate, harden, bench-ser, table1 (`vectors`) |
//! | `--frames N` | positive (`SimConfig::validate`) | as `--vectors` (`frames`) |
//! | `--seed S` | any `u64` | solve, fault-sim, estimate, harden (`seed`) |
//! | `--threads T` | any `usize`, see below | solve, fault-sim, estimate, harden, serve |
//! | `--time-budget SECS` | finite, ≥ 0, fits a `Duration` (`minobswin::budget_seconds`) | solve, bench-solve, serve (`time_budget`) |
//! | `--max-iters N` | any `usize` | solve, bench-solve, serve (`max_iters`) |
//! | `--r-min R` | any `i64` | solve (`r_min`) |
//! | `--method` | `both`, `minobs`, `minobswin` (fault-sim: no `both`) | solve, fault-sim (`method`) |
//! | `--injections N` | positive | fault-sim, estimate, harden |
//! | `--campaign-seed S` | any `u64` | fault-sim, estimate, harden |
//! | `--tolerance F` | finite, ≥ 0 | fault-sim, estimate, harden |
//! | `--pulse-width F` | finite, ≥ 0 | fault-sim |
//! | `--phi P` | 1 ..= `i64::MAX / 4`, so `Φ + T_h` cannot overflow | estimate, harden |
//! | `--area-budget F`, `--hardening-factor F` | in [0, 1] | estimate, harden |
//! | `--area-overhead F` | finite, > 0 | estimate, harden |
//! | `--max-source-bits B`, `--max-picks N` | any `u32` / `usize` (0 picks = unlimited) | estimate, harden |
//! | `--max-memory BYTES` | any `usize` | bench-solve |
//! | `--gates N,…`, `--tier` | gate counts; `small`, `large`/`10k`, `xlarge`/`50k` | bench-solve, bench-ser |
//! | `--queue N` | positive | serve |
//! | `--cache-max-bytes SIZE` | positive, bytes or a `k`/`m`/`g` suffix | serve |
//! | `--scale N`, `--giant-extra N` | positive, product fits `usize` | table1 |
//!
//! # Thread counts
//!
//! The SER simulation, ODC and propagation-probability passes run on
//! one thread. The worker pools are the Monte-Carlo fault-injection
//! campaign (`fault-sim`, `estimate`, `harden`) and the serve daemon's
//! solve pool, and each is sized with the one canonical `--threads N`
//! flag (`--workers` is kept as a hidden alias for scripts written
//! against older releases). `0` — the default — defers to the
//! `SER_THREADS` environment variable, then to all available cores;
//! the resolution rule lives in one place,
//! `netlist::parallel::resolve_workers`. `solve` accepts `--threads`
//! so scripts keep working, but it has no effect there.
//!
//! # Exit codes
//!
//! Exit codes are stable: 0 = success, 1 = infeasible instance,
//! 2 = I/O or usage error, 3 = internal error (e.g. iteration limit),
//! 4 = a solve budget expired and a degraded (but feasible) result was
//! emitted.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench_harness::args::{any, non_negative, positive, Args, Read};
use faultsim::{
    advise, check_agreement, run_campaign, CrossCheck, HardenConfig, MonteCarloEstimator,
    ToleranceBands, DEFAULT_TOLERANCE,
};
use minobswin::experiment::{Experiment, MethodResult, RunConfig};
use minobswin::SolveError;
use netlist::{bench_format, blif, verilog, Circuit, NetlistError, ParseLimits};
use retime::RetimeGraph;
use ser_engine::equiv::{check_equivalence, EquivConfig};
use ser_engine::sim::SimConfig;
use ser_engine::{
    analyze, AnalyticEstimator, EngineKind, EstimateError, ExactEstimator, PropProbEstimator,
    SerConfig, SerEstimate, SerEstimator, DEFAULT_MAX_SOURCE_BITS,
};

/// The synopsis `--help` prints for every subcommand.
const USAGE: &str = "\
usage: retimer [solve] INPUT [--method both|minobs|minobswin] [--out FILE] [--report FILE.csv]
         [--r-min R] [--no-equiv] [--checkpoint PATH] [--resume] [SIM] [BUDGET]
       retimer fault-sim INPUT [--method minobswin|minobs] [--pulse-width F] [--tolerance F]
         [CAMPAIGN] [SIM]
       retimer estimate|harden INPUT [--engine analytic|montecarlo|propprob|exact|all]
         [--tolerance F] [--max-source-bits B] [--phi P] [--area-budget F] [--hardening-factor F]
         [--area-overhead F] [--max-picks N] [--plan FILE.csv] [--no-validate] [CAMPAIGN] [SIM]
       retimer bench-solve [BENCH] [--fail-on-degraded] [--max-memory BYTES] [BUDGET]
       retimer bench-ser [BENCH] [--vectors K] [--frames N]
       retimer serve [--cache DIR] [--threads T] [--queue N] [--cache-max-bytes SIZE]
         [--socket PATH] [--fsck] [BUDGET]
  SIM       --vectors K --frames N --seed S --threads T
  BUDGET    --time-budget SECS --max-iters N
  CAMPAIGN  --injections N --campaign-seed S
  BENCH     --out FILE --gates N,N,... --tier small|large|xlarge --samples-only --profile";

/// A command-line failure: a usage error or a wrapped pipeline error,
/// mapped onto the stable exit codes documented above.
enum CliError {
    Usage(String),
    Solve(SolveError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Solve(e) => write!(f, "{e}"),
        }
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Solve(e) => e.exit_code(),
        }
    }
}

impl From<SolveError> for CliError {
    fn from(e: SolveError) -> Self {
        CliError::Solve(e)
    }
}

impl From<NetlistError> for CliError {
    fn from(e: NetlistError) -> Self {
        CliError::Solve(e.into())
    }
}

impl From<retime::RetimeError> for CliError {
    fn from(e: retime::RetimeError) -> Self {
        CliError::Solve(e.into())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Solve(e.into())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<EstimateError> for CliError {
    fn from(e: EstimateError) -> Self {
        match e {
            EstimateError::Retime(err) => CliError::Solve(err.into()),
            e @ EstimateError::TooLarge { .. } => CliError::Usage(e.to_string()),
        }
    }
}

/// Exit code for "a solve budget expired; a degraded but feasible
/// result was emitted".
const EXIT_DEGRADED: u8 = 4;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (subcommand, rest) = match argv.first().map(String::as_str) {
        Some(
            name @ ("solve" | "fault-sim" | "estimate" | "harden" | "bench-solve" | "bench-ser"
            | "serve"),
        ) => (name, &argv[1..]),
        _ => ("solve", &argv[..]),
    };
    let mut args = Args::new(rest.iter().cloned());
    args.help(USAGE);
    let result = match subcommand {
        "fault-sim" => run_fault_sim(args),
        "estimate" => run_estimate(args),
        "harden" => run_harden(args),
        "bench-solve" => run_bench_solve(args),
        "bench-ser" => run_bench_ser(args),
        "serve" => run_serve(args),
        _ => run(args),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// The simulation every analysis subcommand runs unless its flags say
/// otherwise: 1024 vectors over 15 frames after a 16-cycle warm-up.
fn default_sim() -> SimConfig {
    SimConfig {
        num_vectors: 1024,
        ..SimConfig::default()
    }
}

/// `--method NAME`, one of `names`; the first is the default.
fn read_method(args: &mut Args, names: &[&'static str]) -> Result<&'static str, String> {
    let what = format!("one of {}", names.join(", "));
    let method = args.value_with(&["--method"], &what, |s| {
        names.iter().copied().find(|&n| n == s)
    })?;
    Ok(method.unwrap_or(names[0]))
}

/// `--tolerance F`: a relative band, finite and at least 0 (what
/// `CrossCheck::compare` and `ToleranceBands::uniform` assert).
fn read_tolerance(args: &mut Args) -> Read<f64> {
    args.value("--tolerance", "a finite number >= 0", non_negative)
}

/// Reads the input netlist through the unified, streaming front door
/// (`netlist::read_path`): format sniffed from the extension, default
/// parse limits.
fn read_netlist(path: &str) -> Result<Circuit, NetlistError> {
    let circuit = netlist::read_path(path, &ParseLimits::default())?;
    eprintln!("read {circuit}");
    Ok(circuit)
}

fn write_netlist(circuit: &Circuit, path: &str) -> Result<(), NetlistError> {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("bench") => bench_format::write_file(circuit, path),
        Some("blif") => blif::write_file(circuit, path),
        Some("v") | Some("verilog") => verilog::write_file(circuit, path),
        _ => Err(NetlistError::Parse {
            line: 0,
            col: 0,
            message: "unknown output format (use .bench, .blif or .v)".into(),
        }),
    }
}

fn run(mut args: Args) -> Result<u8, CliError> {
    let method = read_method(&mut args, &["both", "minobs", "minobswin"])?;
    let out = args.string("--out")?;
    let report = args.string("--report")?;
    let equiv = !args.switch("--no-equiv");
    let checkpoint = args.string("--checkpoint")?;
    let resume = args.switch("--resume");
    if resume && checkpoint.is_none() {
        return Err(String::from("--resume requires --checkpoint PATH").into());
    }
    let config = RunConfig::default()
        .with_sim(args.sim(default_sim())?)
        .with_r_min_override(args.value("--r-min", "an integer", any)?)
        .with_budget(args.budget()?)
        .with_checkpoint(checkpoint.map(PathBuf::from))
        .with_resume(resume);
    let circuit = read_netlist(&args.input()?)?;
    let run = Experiment::new(&circuit).config(config).run()?;

    println!(
        "Phi = {} ({}), R_min = {}",
        run.phi,
        if run.used_setup_hold {
            "setup+hold init"
        } else {
            "min-period fallback"
        },
        run.r_min
    );
    println!("original : #FF {:>6}  SER {:.4e}", run.ff, run.ser_original);
    let show = |label: &str, m: &MethodResult| {
        println!(
            "{label}: #FF {:>6}  SER {:.4e}  (dSER {:+.2}%, dFF {:+.2}%, {:.3}s, #J {})",
            m.registers,
            m.ser,
            m.delta_ser * 100.0,
            m.delta_ff * 100.0,
            m.solve_seconds,
            m.stats.commits
        );
    };
    if method != "minobswin" {
        show("minobs   ", &run.minobs);
    }
    if method != "minobs" {
        show("minobswin", &run.minobswin);
    }
    if method == "both" {
        println!("SER_ref / SER_new = {:.0}%", run.ser_ratio() * 100.0);
    }

    let chosen = if method == "minobs" {
        &run.minobs
    } else {
        &run.minobswin
    };
    if equiv {
        let verdict = check_equivalence(&circuit, &chosen.netlist, EquivConfig::default());
        if verdict.is_equivalent() {
            println!("equivalence: OK (bounded random check)");
        } else {
            println!(
                "equivalence: INCONCLUSIVE ({verdict:?}) — likely an initial-state \
                 phase difference; inspect before signoff"
            );
        }
    }

    if let Some(out) = &out {
        write_netlist(&chosen.netlist, out)?;
        println!("wrote {out}");
    }
    if let Some(report) = &report {
        append_csv(report, &run)?;
        println!("appended {report}");
    }

    // Report any degradation (tripped engine breakers, budget stops)
    // on the methods the user asked for; a budget stop exits 4.
    let mut degraded = false;
    let reported: &[(&str, &MethodResult)] = match method {
        "minobs" => &[("minobs", &run.minobs)],
        "minobswin" => &[("minobswin", &run.minobswin)],
        _ => &[("minobs", &run.minobs), ("minobswin", &run.minobswin)],
    };
    for (label, m) in reported {
        let report = m.stats.degradation;
        if !report.is_clean() {
            eprintln!("degradation [{label}]: {report}");
        }
        degraded |= report.budget_stop.is_some();
    }
    if degraded {
        eprintln!("budget exceeded: emitted the best feasible retiming found so far (exit 4)");
        return Ok(EXIT_DEGRADED);
    }
    Ok(0)
}

/// Scores a circuit with a Monte-Carlo injection campaign before and
/// after retiming, cross-checking each campaign against the analytic
/// model.
fn run_fault_sim(mut args: Args) -> Result<u8, CliError> {
    let method = read_method(&mut args, &["minobswin", "minobs"])?;
    let sim = args.sim(default_sim())?;
    let pulse_width = args.value("--pulse-width", "a finite number >= 0", non_negative)?;
    let campaign_config = args
        .campaign(sim.threads)?
        .with_pulse_width(pulse_width.unwrap_or(0.0));
    let tolerance = read_tolerance(&mut args)?.unwrap_or(DEFAULT_TOLERANCE);
    let circuit = read_netlist(&args.input()?)?;

    let config = RunConfig::default().with_sim(sim);
    let run = Experiment::new(&circuit).config(config.clone()).run()?;
    let ser_config = config.ser_config(run.phi);

    let score = |label: &str, c: &Circuit| -> Result<f64, CliError> {
        let report = analyze(c, &ser_config)?;
        let campaign = run_campaign(c, &ser_config, &campaign_config)?;
        let check = CrossCheck::compare(c, &report, &campaign, tolerance);
        println!("== {label} ==");
        print!("{}", check.summary());
        let (lo, hi) = campaign.ser_ci();
        println!(
            "  empirical SER {:.4e} [{:.4e}, {:.4e}] over {} injections, {} workers",
            campaign.ser(),
            lo,
            hi,
            campaign.injections,
            campaign.workers
        );
        let mut regs: Vec<_> = campaign
            .register_latches
            .iter()
            .filter(|&&(_, n)| n > 0)
            .collect();
        regs.sort_by_key(|&&(_, n)| std::cmp::Reverse(n));
        for &&(r, n) in regs.iter().take(5) {
            println!("  register {:>12}: {} latches", c.gate(r).name(), n);
        }
        Ok(campaign.ser())
    };

    let before = score("original", &circuit)?;
    let chosen = if method == "minobs" {
        &run.minobs
    } else {
        &run.minobswin
    };
    let after = score(&format!("retimed ({method})"), &chosen.netlist)?;

    if before > 0.0 {
        println!(
            "empirical SER change: {:+.2}% (analytic {:+.2}%)",
            (after / before - 1.0) * 100.0,
            chosen.delta_ser * 100.0
        );
    }
    Ok(0)
}

/// The one flag set `estimate` and `harden` read: one circuit, one
/// simulation, one campaign, one Φ policy, and each subcommand's own
/// knobs.
struct EstimateArgs {
    circuit: Circuit,
    ser_config: SerConfig,
    campaign: faultsim::CampaignConfig,
    engine: String,
    tolerance: Option<f64>,
    max_source_bits: u32,
    harden: HardenConfig,
    plan: Option<String>,
    validate: bool,
}

/// Reads the flags of [`EstimateArgs`] and then the netlist, and prints
/// the Φ the SER is taken at: `--phi`, or the setup/hold
/// initialization `solve` uses.
fn prepare_estimate(mut args: Args) -> Result<EstimateArgs, CliError> {
    let sim = args.sim(default_sim())?;
    let campaign = args.campaign(sim.threads)?;
    let phi_rule = |&phi: &i64| phi > 0 && phi <= i64::MAX / 4;
    let phi = args.value("--phi", "a positive integer below 2^61", phi_rule)?;
    let fraction = |v: &f64| (0.0..=1.0).contains(v);
    let area_budget = args.value("--area-budget", "a fraction in [0, 1]", fraction)?;
    let hardening_factor = args.value("--hardening-factor", "a fraction in [0, 1]", fraction)?;
    let finite_positive = |v: &f64| v.is_finite() && *v > 0.0;
    let area_overhead = args.value("--area-overhead", "a finite number > 0", finite_positive)?;
    let max_picks = args.value("--max-picks", "a non-negative integer", any)?;
    let base = HardenConfig::default();
    let harden = HardenConfig {
        area_budget: area_budget.unwrap_or(base.area_budget),
        hardening_factor: hardening_factor.unwrap_or(base.hardening_factor),
        area_overhead: area_overhead.unwrap_or(base.area_overhead),
        max_picks: max_picks.unwrap_or(base.max_picks),
    };
    let engine = args.string("--engine")?.unwrap_or_else(|| "all".into());
    let tolerance = read_tolerance(&mut args)?;
    let max_source_bits = (args.value("--max-source-bits", "a non-negative integer", any)?)
        .unwrap_or(DEFAULT_MAX_SOURCE_BITS);
    let plan = args.string("--plan")?;
    let validate = !args.switch("--no-validate");
    let circuit = read_netlist(&args.input()?)?;

    let config = RunConfig::default().with_sim(sim);
    let phi = match phi {
        Some(phi) => phi,
        None => {
            let graph = RetimeGraph::from_circuit(&circuit, &config.delays)?;
            config.init.initialize(&graph)?.phi
        }
    };
    println!("Phi = {phi}");
    let ser_config = config.ser_config(phi);
    Ok(EstimateArgs {
        circuit,
        ser_config,
        campaign,
        engine,
        tolerance,
        max_source_bits,
        harden,
        plan,
        validate,
    })
}

fn print_estimate(estimate: &SerEstimate) {
    match estimate.ser_ci {
        Some((lo, hi)) => println!(
            "{:<10} SER {:.4e} [{:.4e}, {:.4e}]",
            estimate.engine.name(),
            estimate.ser,
            lo,
            hi
        ),
        None => println!("{:<10} SER {:.4e}", estimate.engine.name(), estimate.ser),
    }
}

/// `retimer estimate`: one engine, or all of them under the three-way
/// agreement oracle.
fn run_estimate(args: Args) -> Result<u8, CliError> {
    let EstimateArgs {
        circuit,
        ser_config,
        campaign,
        engine,
        tolerance,
        max_source_bits,
        ..
    } = prepare_estimate(args)?;
    let montecarlo = MonteCarloEstimator { campaign };
    if engine == "all" {
        let bands = tolerance.map(ToleranceBands::uniform).unwrap_or_default();
        let report = check_agreement(&circuit, &ser_config, &montecarlo, bands)?;
        print!("{}", report.summary());
        if !report.agrees() {
            eprintln!(
                "estimators disagree: {} of {} pairs outside their band (exit 1)",
                report.divergent().len(),
                report.pairs.len()
            );
            return Ok(1);
        }
        return Ok(0);
    }

    let kind: EngineKind = engine.parse().map_err(CliError::Usage)?;
    let estimate = match kind {
        EngineKind::Analytic => AnalyticEstimator.estimate(&circuit, &ser_config)?,
        EngineKind::PropProb => PropProbEstimator.estimate(&circuit, &ser_config)?,
        EngineKind::MonteCarlo => montecarlo.estimate(&circuit, &ser_config)?,
        EngineKind::Exact => ExactEstimator { max_source_bits }.estimate(&circuit, &ser_config)?,
    };
    print_estimate(&estimate);
    // The heaviest contributors, so a lone engine run is actionable.
    let mut sites: Vec<_> = circuit
        .iter()
        .map(|(id, g)| (ser_config.rates.rate(&circuit, id) * estimate.site_p(id), g))
        .filter(|&(contribution, _)| contribution > 0.0)
        .collect();
    sites.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (contribution, gate) in sites.iter().take(5) {
        println!(
            "  {:>12} ({}): {:.4e} ({:.1}% of total)",
            gate.name(),
            gate.kind(),
            contribution,
            contribution / estimate.ser * 100.0
        );
    }
    Ok(0)
}

/// `retimer harden`: rank cells by hardening payoff, spend the area
/// budget, validate with a same-seed campaign.
fn run_harden(args: Args) -> Result<u8, CliError> {
    let EstimateArgs {
        circuit,
        ser_config,
        campaign,
        harden,
        plan: plan_path,
        validate,
        ..
    } = prepare_estimate(args)?;
    let plan = advise(&circuit, &ser_config, &campaign, &harden)?;
    print!("{}", plan.summary());

    if let Some(path) = &plan_path {
        std::fs::write(path, plan.to_csv())?;
        println!("wrote {path}");
    }
    if validate && !plan.selected().is_empty() {
        let (before, after) = plan.validate(&circuit, &ser_config, &campaign)?;
        println!(
            "validation: SER {:.4e} -> {:.4e} measured ({:+.1}%)",
            before,
            after,
            (after / before - 1.0) * 100.0
        );
    }
    Ok(0)
}

/// Times one MinObsWin solve per circuit and writes its answers and
/// counters as JSON (`BENCH_solver.json`).
fn run_bench_solve(mut args: Args) -> Result<u8, CliError> {
    use bench_harness::solver_bench;

    let (out, gates, profile) = args.bench("BENCH_solver.json", vec![300, 1000])?;
    let max_memory = args.value("--max-memory", "a byte count", any)?;
    let budget = args.budget()?.with_max_memory_estimate(max_memory);
    let fail_on_degraded = args.switch("--fail-on-degraded");
    args.finish()?;
    let mut instances = solver_bench::sample_instances();
    for &size in &gates {
        instances.push(solver_bench::generated_instance(size)?);
    }

    let mut degraded = false;
    let mut records = Vec::new();
    for instance in &instances {
        let record = solver_bench::measure_with_budget(instance, &budget)?;
        degraded |= record.degraded;
        println!(
            "{:<16} |V| {:>5} |E| {:>5}  closure {:>8.0} arcs/call, solve {:.3}s; \
             init Phi {} R_min {} setup+hold {} in {:.3}s",
            record.name,
            record.vertices,
            record.edges,
            record.solve.stats.perf.arcs_per_closure(),
            record.solve.solve_seconds,
            record.init.phi,
            record.init.r_min,
            record.init.used_setup_hold,
            record.init.seconds,
        );
        if profile {
            print!("{}", solver_bench::profile_table(&record));
        }
        records.push(record);
    }

    // `--fail-on-degraded` is the baseline-refresh guard: a truncated
    // run must never overwrite the tracked JSON, so refuse the write
    // entirely instead of writing-then-signalling via the exit code.
    if degraded && fail_on_degraded {
        eprintln!(
            "budget exceeded: some runs were truncated; refusing to write {} (exit {})",
            out, EXIT_DEGRADED
        );
        return Ok(EXIT_DEGRADED);
    }
    std::fs::write(&out, solver_bench::to_json(&records))?;
    println!("wrote {out}");
    if degraded {
        eprintln!("budget exceeded: some runs were truncated (exit 4)");
        return Ok(EXIT_DEGRADED);
    }
    Ok(0)
}

/// Benchmarks the SER data plane — scalar per-signature engine vs. flat
/// arena engine — and writes the timings as JSON (`BENCH_ser.json`).
fn run_bench_ser(mut args: Args) -> Result<u8, CliError> {
    use bench_harness::ser_bench;

    let (out, gates, profile) = args.bench("BENCH_ser.json", vec![400, 1500])?;
    let defaults = ser_bench::BenchSerConfig::default();
    let sim = args.sim_size(defaults.sim())?;
    args.finish()?;
    let config = ser_bench::BenchSerConfig {
        num_vectors: sim.num_vectors,
        frames: sim.frames,
        ..defaults
    };
    let mut instances = ser_bench::sample_instances();
    for &size in &gates {
        instances.push(ser_bench::generated_instance(size));
    }

    let mut records = Vec::new();
    for instance in &instances {
        let record = ser_bench::measure(instance, &config);
        println!(
            "{:<16} |V| {:>6} gates  scalar {:>9.3} ms ({:>6} allocs), arena {:>9.3} ms \
             ({:>5} allocs, {:>5.2}x, {:>6.2} ns/g·f·v), propprob {:>7.3} ms ({:>6.2} ns/g·f)",
            record.name,
            record.gates,
            record.scalar_nanos as f64 / 1e6,
            record.scalar_allocs,
            record.arena_nanos as f64 / 1e6,
            record.arena_allocs,
            record.arena_speedup(),
            record.arena_nanos_per_gfv(),
            record.propprob_nanos as f64 / 1e6,
            record.propprob_nanos_per_gf(),
        );
        if profile {
            print!("{}", ser_bench::profile_table(&record));
        }
        records.push(record);
    }

    std::fs::write(&out, ser_bench::to_json(&records))?;
    println!("wrote {out}");
    Ok(0)
}

/// The environment variable that gives `retimer serve` a filesystem
/// fault plan for chaos drills (`netlist::fio::FaultPlan::parse`
/// syntax), e.g. `seed=0xC0FFEE,enospc=7,tear=11,flip=5,orphan=13`.
const FAULT_PLAN_ENV: &str = "SABOTAGE_FIO_PLAN";

/// `retimer serve`: boots the daemon (crates/serve) on stdin/stdout or
/// a unix socket and runs it until drained. `--fsck` instead runs one
/// standalone cache-integrity pass and exits.
fn run_serve(mut args: Args) -> Result<u8, CliError> {
    // A malformed plan is not silently ignored: it warns, naming the
    // rejected value, and installs nothing.
    if let Ok(spec) = std::env::var(FAULT_PLAN_ENV) {
        match netlist::fio::FaultPlan::parse(&spec) {
            Ok(plan) => {
                netlist::fio::install(plan);
                eprintln!("warning: filesystem fault injection active: {plan:?}");
            }
            Err(reason) => eprintln!(
                "warning: ignoring {FAULT_PLAN_ENV}=\"{spec}\": {reason} \
                 (no faults will be injected)"
            ),
        }
    }
    let cache = args.string("--cache")?;
    let mut config = serve::ServeConfig::new(cache.as_deref().unwrap_or(".retimer-cache"));
    config.workers = args.threads()?.unwrap_or(config.workers);
    config.queue_capacity =
        (args.value("--queue", "a positive integer", positive)?).unwrap_or(config.queue_capacity);
    let budget = args.budget()?;
    config.default_time_budget = budget.wall_time;
    config.default_max_iters = budget.max_iterations;
    let what = "a positive size (bytes, or with k/m/g)";
    config.cache_max_bytes = args.value_with(&["--cache-max-bytes"], what, parse_byte_size)?;
    let fsck = args.switch("--fsck");
    let socket = args.string("--socket")?;
    args.finish()?;

    if fsck {
        let cache = serve::ResultCache::open(&config.cache_dir)
            .map_err(|e| CliError::Usage(format!("--fsck: {}: {e}", config.cache_dir.display())))?
            .with_max_bytes(config.cache_max_bytes);
        println!("{}", cache.fsck().to_json());
        return Ok(0);
    }
    let outcome = match socket {
        Some(path) => serve::run_socket(config, Path::new(&path)),
        None => serve::run_stdio(config),
    };
    outcome.map_err(CliError::Usage)
}

/// Parses a byte size: plain bytes, or with a `k`/`m`/`g` suffix
/// (binary multiples, case-insensitive).
fn parse_byte_size(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    let (digits, shift) = match s.char_indices().last()? {
        (i, 'k') => (&s[..i], 10),
        (i, 'm') => (&s[..i], 20),
        (i, 'g') => (&s[..i], 30),
        _ => (&s[..], 0),
    };
    let n: u64 = digits.parse().ok().filter(|&n| n > 0)?;
    n.checked_mul(1 << shift)
}

fn append_csv(path: &str, run: &minobswin::experiment::CircuitRun) -> std::io::Result<()> {
    use std::io::Write;
    let exists = Path::new(path).exists();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if !exists {
        writeln!(
            file,
            "circuit,v,e,ff,phi,rmin,setup_hold,ser_original,ser_propprob,\
             minobs_ff,minobs_ser,minobs_seconds,minobs_commits,\
             minobswin_ff,minobswin_ser,minobswin_seconds,minobswin_commits,ser_ratio"
        )?;
    }
    writeln!(
        file,
        "{},{},{},{},{},{},{},{:e},{:e},{},{:e},{},{},{},{:e},{},{},{}",
        run.name,
        run.v,
        run.e,
        run.ff,
        run.phi,
        run.r_min,
        run.used_setup_hold,
        run.ser_original,
        run.ser_propprob,
        run.minobs.registers,
        run.minobs.ser,
        run.minobs.solve_seconds,
        run.minobs.stats.commits,
        run.minobswin.registers,
        run.minobswin.ser,
        run.minobswin.solve_seconds,
        run.minobswin.stats.commits,
        run.ser_ratio(),
    )
}
