//! `retimer` — the end-user command line tool: read a gate-level
//! netlist, analyze its SER, retime it for soft error minimization
//! (MinObsWin, or the MinObs baseline), verify equivalence, and write
//! the retimed netlist plus a machine-readable report.
//!
//! ```text
//! retimer [solve] INPUT[.bench|.blif|.v] [options]
//!
//!   --method minobs|minobswin|both   optimizer (default: both)
//!   --out FILE                       write the (MinObsWin) retimed netlist
//!                                    (format from the extension)
//!   --report FILE.csv                append a CSV result row
//!   --vectors K  --frames N          simulation size (default 1024 / 15)
//!   --seed S                         stimulus seed
//!   --threads T                      worker threads (see "Thread counts")
//!   --r-min R                        override the §V-derived R_min bound
//!                                    (an over-tight bound exits 1: infeasible)
//!   --no-equiv                       skip the bounded equivalence check
//!   --time-budget SECS               wall-clock budget; on expiry the best
//!                                    feasible retiming so far is emitted and
//!                                    the tool exits 4
//!   --max-iters N                    iteration budget (same degraded-exit
//!                                    semantics)
//!   --checkpoint PATH                periodically save solver state to
//!                                    PATH.<method>.ckpt
//!   --resume                         continue from the checkpoint files if
//!                                    they exist
//!
//! retimer fault-sim INPUT[.bench|.blif|.v] [options]
//!
//!   Monte-Carlo SEU campaign cross-validating the analytic SER model,
//!   before and after retiming (see crates/faultsim).
//!
//!   --injections N                   strikes per campaign (default 100000)
//!   --method minobs|minobswin        retiming to score (default minobswin)
//!   --campaign-seed S                injection sampling seed
//!   --pulse-width F                  transient width in delay units
//!   --tolerance F                    relative CI widening (default 0.05)
//!   --vectors K  --frames N  --seed S  --threads T   as above (the one
//!                                    pool size drives both the campaign and
//!                                    the simulation workers)
//!
//! retimer estimate INPUT[.bench|.blif|.v] [options]
//!
//!   Estimates the circuit's SER with one engine, or (default) with
//!   every engine at once, cross-checked by the three-way agreement
//!   oracle (see crates/faultsim). Engines diverging past their
//!   tolerance band exit 1 with a per-site divergence report.
//!
//!   --engine analytic|montecarlo|propprob|exact|all   (default: all)
//!   --injections N                   Monte-Carlo campaign size
//!                                    (default 100000)
//!   --campaign-seed S                injection sampling seed
//!   --tolerance F                    uniform relative tolerance band
//!                                    (default: per-pair-class bands)
//!   --max-source-bits B              exhaustive-oracle cap on
//!                                    registers + inputs x frames
//!                                    (default 20; over it, `exact`
//!                                    exits 2 and `all` skips it)
//!   --phi P                          clock period override (default:
//!                                    setup/hold initialization)
//!   --vectors K  --frames N  --seed S  --threads T   as above
//!
//! retimer harden INPUT[.bench|.blif|.v] [options]
//!
//!   Selective-hardening advisor: ranks cells by SER payoff per unit
//!   of hardened area (cross-scored by the Monte-Carlo campaign and
//!   the propagation-probability engine), greedily spends the area
//!   budget, and validates the plan with a same-seed campaign under
//!   the hardened rate model.
//!
//!   --area-budget F                  fraction of total cell area to
//!                                    spend (default 0.1)
//!   --hardening-factor F             residual rate of a hardened cell
//!                                    (default 0.1)
//!   --area-overhead F                hardening cost as a multiple of
//!                                    the cell's area (default 1.0)
//!   --max-picks N                    cap on hardened cells (default:
//!                                    unlimited)
//!   --plan FILE.csv                  write the ranked plan as CSV
//!   --no-validate                    skip the validation campaign
//!   --injections N  --campaign-seed S  --phi P
//!   --vectors K  --frames N  --seed S  --threads T   as above
//!
//! retimer bench-solve [options]
//!
//!   Benchmarks the solver's warm-started closure engine against
//!   fresh Dinic builds over sample and generated circuits, writing
//!   per-run counters as JSON.
//!
//!   --out FILE                       output path (default BENCH_solver.json)
//!   --gates N,N,...                  generated circuit sizes (default 300,1000)
//!   --tier small|large|xlarge        named size tier: small keeps the default
//!                                    list, large = 10k gates (the CI-gated
//!                                    `generated_10k` workload), xlarge = 50k
//!   --samples-only                   skip the generated circuits
//!   --time-budget SECS               wall-clock budget per solver run
//!   --max-iters N                    iteration budget per solver run
//!   --max-memory BYTES               memory-estimate budget per solver run
//!                                    (over it: degraded exit 4, never an
//!                                    abort)
//!
//! retimer serve [options]
//!
//!   Runs as a daemon: newline-delimited JSON requests on stdin (or a
//!   unix socket), concurrent solves, per-job progress events, and a
//!   content-addressed result cache. Closing stdin (or `{"op":"drain"}`)
//!   drains gracefully. See crates/serve and DESIGN.md §12.
//!
//!   --cache DIR                      cache + recovery directory
//!                                    (default .retimer-cache)
//!   --threads T                      concurrent solve workers (see
//!                                    "Thread counts")
//!   --queue N                        admission bound on waiting jobs
//!                                    (default 64; over it: backpressure)
//!   --time-budget SECS               default per-job wall-clock budget
//!   --max-iters N                    default per-job iteration budget
//!   --cache-max-bytes SIZE           LRU-evict cache stages past SIZE
//!                                    (plain bytes or k/m/g suffix)
//!   --fsck                           run one cache-integrity pass (remove
//!                                    tmp orphans, quarantine corrupt
//!                                    entries), print a report, exit
//!   --socket PATH                    listen on a unix socket instead of stdin
//!
//! retimer bench-ser [options]
//!
//!   Benchmarks the SER simulation data plane: the legacy per-signature
//!   scalar engine vs. the flat arena engine (single-threaded) vs. the
//!   arena engine with a worker pool, over sample and generated
//!   circuits, writing timings and allocation counts as JSON.
//!
//!   --out FILE                       output path (default BENCH_ser.json)
//!   --gates N,N,...                  generated circuit sizes (default 400,1500)
//!   --tier small|large|xlarge        named size tier, as for bench-solve
//!   --samples-only                   skip the generated circuits
//!   --vectors K  --frames N          simulation size (default 1024 / 15)
//!   --threads T                      threaded column's pool size (see
//!                                    "Thread counts")
//! ```
//!
//! # Thread counts
//!
//! Every subcommand sizes its worker pool with the one canonical
//! `--threads N` flag (`--workers` is kept as a hidden alias for
//! scripts written against older releases). `0` — the default — defers
//! to the `SER_THREADS` environment variable, then to all available
//! cores; the resolution rule lives in one place,
//! `netlist::parallel::resolve_workers`, and every threaded stage
//! (simulation, ODC passes, fault-injection campaigns, the serve
//! daemon's solve pool) goes through it.
//!
//! # Exit codes
//!
//! Exit codes are stable: 0 = success, 1 = infeasible instance,
//! 2 = I/O or usage error, 3 = internal error (e.g. iteration limit),
//! 4 = a solve budget expired and a degraded (but feasible) result was
//! emitted.

use std::path::Path;
use std::process::ExitCode;

use faultsim::{
    advise, check_agreement, run_campaign, CampaignConfig, CrossCheck, HardenConfig,
    MonteCarloEstimator, ToleranceBands, DEFAULT_TOLERANCE,
};
use minobswin::experiment::{Experiment, MethodResult, RunConfig};
use minobswin::{SolveBudget, SolveError};
use netlist::{bench_format, blif, verilog, Circuit, DelayModel, NetlistError, ParseLimits};
use retime::apply::apply_retiming;
use retime::{ElwParams, RetimeGraph};
use ser_engine::equiv::{check_equivalence, EquivConfig};
use ser_engine::sim::SimConfig;
use ser_engine::{
    analyze, AnalyticEstimator, EngineKind, EstimateError, ExactEstimator, PropProbEstimator,
    SerConfig, SerEstimate, SerEstimator, DEFAULT_MAX_SOURCE_BITS,
};

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
    let subcommand = std::env::args().nth(1);
    let result = match subcommand.as_deref() {
        Some("estimate") => run_estimate(),
        Some("harden") => run_harden(),
        Some("fault-sim") => run_fault_sim(),
        Some("bench-solve") => run_bench_solve(),
        Some("bench-ser") => run_bench_ser(),
        Some("serve") => run_serve(),
        Some("solve") => run(true),
        _ => run(false),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

struct Options {
    input: String,
    method: String,
    out: Option<String>,
    report: Option<String>,
    vectors: usize,
    frames: usize,
    seed: u64,
    threads: usize,
    r_min: Option<i64>,
    equiv: bool,
    time_budget: Option<f64>,
    max_iters: Option<usize>,
    checkpoint: Option<String>,
    resume: bool,
}

fn parse_args(skip_subcommand: bool) -> Result<Options, String> {
    let mut args = std::env::args().skip(if skip_subcommand { 2 } else { 1 });
    let mut options = Options {
        input: String::new(),
        method: "both".into(),
        out: None,
        report: None,
        vectors: 1024,
        frames: 15,
        seed: 0xC0FFEE,
        threads: 0,
        r_min: None,
        equiv: true,
        time_budget: None,
        max_iters: None,
        checkpoint: None,
        resume: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--method" => options.method = args.next().ok_or("--method needs a value")?,
            "--out" => options.out = Some(args.next().ok_or("--out needs a path")?),
            "--report" => options.report = Some(args.next().ok_or("--report needs a path")?),
            "--vectors" => {
                options.vectors = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--vectors needs a positive integer")?
            }
            "--frames" => {
                options.frames = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--frames needs a positive integer")?
            }
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?
            }
            "--threads" | "--workers" => {
                options.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a non-negative integer")?
            }
            "--r-min" => {
                options.r_min = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--r-min needs an integer")?,
                )
            }
            "--no-equiv" => options.equiv = false,
            "--time-budget" => {
                let secs: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--time-budget needs a number of seconds")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--time-budget needs a non-negative number".into());
                }
                options.time_budget = Some(secs);
            }
            "--max-iters" => {
                options.max_iters = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--max-iters needs a non-negative integer")?,
                )
            }
            "--checkpoint" => {
                options.checkpoint = Some(args.next().ok_or("--checkpoint needs a path")?)
            }
            "--resume" => options.resume = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: retimer [solve] INPUT[.bench|.blif|.v] \
                     [--method minobs|minobswin|both] \
                     [--out FILE] [--report FILE.csv] [--vectors K] [--frames N] \
                     [--seed S] [--threads T] [--r-min R] [--no-equiv] \
                     [--time-budget SECS] [--max-iters N] [--checkpoint PATH] [--resume]"
                );
                std::process::exit(0);
            }
            other if options.input.is_empty() && !other.starts_with('-') => {
                options.input = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.input.is_empty() {
        return Err("missing input netlist (try --help)".into());
    }
    if !matches!(options.method.as_str(), "minobs" | "minobswin" | "both") {
        return Err(format!("unknown method `{}`", options.method));
    }
    if options.resume && options.checkpoint.is_none() {
        return Err("--resume requires --checkpoint PATH".into());
    }
    Ok(options)
}

/// Reads the input netlist through the unified, streaming front door
/// (`netlist::read_path`): format sniffed from the extension, default
/// parse limits.
fn read_netlist(path: &str) -> Result<Circuit, NetlistError> {
    netlist::read_path(path, &ParseLimits::default())
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

fn run(skip_subcommand: bool) -> Result<u8, CliError> {
    let options = parse_args(skip_subcommand)?;
    let circuit = read_netlist(&options.input)?;
    eprintln!("read {circuit}");

    let budget = SolveBudget::new()
        .with_wall_time(options.time_budget.map(std::time::Duration::from_secs_f64))
        .with_max_iterations(options.max_iters);
    let config = RunConfig::default()
        .with_sim(SimConfig {
            num_vectors: options.vectors,
            frames: options.frames,
            warmup: 16,
            seed: options.seed,
            threads: options.threads,
        })
        .with_r_min_override(options.r_min)
        .with_budget(budget)
        .with_checkpoint(options.checkpoint.as_ref().map(std::path::PathBuf::from))
        .with_resume(options.resume);
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
    if options.method != "minobswin" {
        show("minobs   ", &run.minobs);
    }
    if options.method != "minobs" {
        show("minobswin", &run.minobswin);
    }
    if options.method == "both" {
        println!("SER_ref / SER_new = {:.0}%", run.ser_ratio() * 100.0);
    }

    let chosen = if options.method == "minobs" {
        &run.minobs
    } else {
        &run.minobswin
    };
    let delays = DelayModel::default();
    let graph = RetimeGraph::from_circuit(&circuit, &delays)?;
    let rebuilt = apply_retiming(&circuit, &graph, &chosen.retiming)?;

    if options.equiv {
        let verdict = check_equivalence(&circuit, &rebuilt, EquivConfig::default());
        if verdict.is_equivalent() {
            println!("equivalence: OK (bounded random check)");
        } else {
            println!(
                "equivalence: INCONCLUSIVE ({verdict:?}) — likely an initial-state \
                 phase difference; inspect before signoff"
            );
        }
    }

    if let Some(out) = &options.out {
        write_netlist(&rebuilt, out)?;
        println!("wrote {out}");
    }
    if let Some(report) = &options.report {
        append_csv(report, &run)?;
        println!("appended {report}");
    }

    // Report any degradation (tripped engine breakers, budget stops)
    // on the methods the user asked for; a budget stop exits 4.
    let mut degraded = false;
    let reported: &[(&str, &MethodResult)] = match options.method.as_str() {
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

struct FaultSimOptions {
    input: String,
    injections: u64,
    method: String,
    campaign_seed: u64,
    pulse_width: f64,
    tolerance: f64,
    vectors: usize,
    frames: usize,
    seed: u64,
    threads: usize,
}

fn parse_fault_sim_args() -> Result<FaultSimOptions, String> {
    let mut args = std::env::args().skip(2); // binary name + "fault-sim"
    let mut options = FaultSimOptions {
        input: String::new(),
        injections: 100_000,
        method: "minobswin".into(),
        campaign_seed: 0x5EED_FA17,
        pulse_width: 0.0,
        tolerance: DEFAULT_TOLERANCE,
        vectors: 1024,
        frames: 15,
        seed: 0xC0FFEE,
        threads: 0,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--injections" => {
                options.injections = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--injections needs a positive integer")?
            }
            "--method" => options.method = args.next().ok_or("--method needs a value")?,
            "--campaign-seed" => {
                options.campaign_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--campaign-seed needs an integer")?
            }
            "--pulse-width" => {
                options.pulse_width = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--pulse-width needs a number")?
            }
            "--tolerance" => {
                options.tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--tolerance needs a number")?
            }
            "--vectors" => {
                options.vectors = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--vectors needs a positive integer")?
            }
            "--frames" => {
                options.frames = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--frames needs a positive integer")?
            }
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?
            }
            "--threads" | "--workers" => {
                options.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a non-negative integer")?
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: retimer fault-sim INPUT[.bench|.blif|.v] [--injections N] \
                     [--method minobs|minobswin] [--campaign-seed S] \
                     [--pulse-width F] [--tolerance F] [--vectors K] [--frames N] \
                     [--seed S] [--threads T]"
                );
                std::process::exit(0);
            }
            other if options.input.is_empty() && !other.starts_with('-') => {
                options.input = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.input.is_empty() {
        return Err("missing input netlist (try `retimer fault-sim --help`)".into());
    }
    if !matches!(options.method.as_str(), "minobs" | "minobswin") {
        return Err(format!("unknown method `{}`", options.method));
    }
    Ok(options)
}

/// Scores a circuit with a Monte-Carlo injection campaign before and
/// after retiming, cross-checking each campaign against the analytic
/// model.
fn run_fault_sim() -> Result<u8, CliError> {
    let options = parse_fault_sim_args()?;
    let circuit = read_netlist(&options.input)?;
    eprintln!("read {circuit}");

    let config = RunConfig::default().with_sim(SimConfig {
        num_vectors: options.vectors,
        frames: options.frames,
        warmup: 16,
        seed: options.seed,
        threads: options.threads,
    });
    let run = Experiment::new(&circuit).config(config.clone()).run()?;
    let ser_config = SerConfig {
        sim: config.sim,
        delays: config.delays.clone(),
        rates: config.rates.clone(),
        elw: ElwParams {
            phi: run.phi,
            t_setup: config.init.t_setup,
            t_hold: config.init.t_hold,
        },
    };
    let campaign_config = CampaignConfig::new(options.injections)
        .with_seed(options.campaign_seed)
        .with_workers(options.threads)
        .with_pulse_width(options.pulse_width);

    let score = |label: &str, c: &Circuit| -> Result<f64, CliError> {
        let report = analyze(c, &ser_config)?;
        let campaign = run_campaign(c, &ser_config, &campaign_config)?;
        let check = CrossCheck::compare(c, &report, &campaign, options.tolerance);
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

    let chosen = if options.method == "minobs" {
        &run.minobs
    } else {
        &run.minobswin
    };
    let delays = DelayModel::default();
    let graph = RetimeGraph::from_circuit(&circuit, &delays)?;
    let rebuilt = apply_retiming(&circuit, &graph, &chosen.retiming)?;
    let after = score(&format!("retimed ({})", options.method), &rebuilt)?;

    if before > 0.0 {
        println!(
            "empirical SER change: {:+.2}% (analytic {:+.2}%)",
            (after / before - 1.0) * 100.0,
            chosen.delta_ser * 100.0
        );
    }
    Ok(0)
}

/// Options shared by the `estimate` and `harden` subcommands: one
/// circuit, one simulation size, one campaign size, one Φ policy.
struct EstimateOptions {
    input: String,
    engine: String,
    injections: u64,
    campaign_seed: u64,
    tolerance: Option<f64>,
    max_source_bits: u32,
    phi: Option<i64>,
    area_budget: f64,
    hardening_factor: f64,
    area_overhead: f64,
    max_picks: usize,
    plan: Option<String>,
    validate: bool,
    vectors: usize,
    frames: usize,
    seed: u64,
    threads: usize,
}

fn parse_estimate_args(usage: &str) -> Result<EstimateOptions, String> {
    let mut args = std::env::args().skip(2); // binary name + subcommand
    let mut options = EstimateOptions {
        input: String::new(),
        engine: "all".into(),
        injections: 100_000,
        campaign_seed: 0x5EED_FA17,
        tolerance: None,
        max_source_bits: DEFAULT_MAX_SOURCE_BITS,
        phi: None,
        area_budget: 0.1,
        hardening_factor: 0.1,
        area_overhead: 1.0,
        max_picks: 0,
        plan: None,
        validate: true,
        vectors: 1024,
        frames: 15,
        seed: 0xC0FFEE,
        threads: 0,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--engine" => options.engine = args.next().ok_or("--engine needs a value")?,
            "--injections" => {
                options.injections = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--injections needs a positive integer")?
            }
            "--campaign-seed" => {
                options.campaign_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--campaign-seed needs an integer")?
            }
            "--tolerance" => {
                let tol: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--tolerance needs a number")?;
                if !tol.is_finite() || tol < 0.0 {
                    return Err("--tolerance needs a non-negative number".into());
                }
                options.tolerance = Some(tol);
            }
            "--max-source-bits" => {
                options.max_source_bits = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-source-bits needs a positive integer")?
            }
            "--phi" => {
                options.phi = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&phi: &i64| phi > 0)
                        .ok_or("--phi needs a positive integer")?,
                )
            }
            "--area-budget" => {
                let budget: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--area-budget needs a number")?;
                if !(0.0..=1.0).contains(&budget) {
                    return Err("--area-budget is a fraction in [0, 1]".into());
                }
                options.area_budget = budget;
            }
            "--hardening-factor" => {
                let factor: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--hardening-factor needs a number")?;
                if !(0.0..=1.0).contains(&factor) {
                    return Err("--hardening-factor is a fraction in [0, 1]".into());
                }
                options.hardening_factor = factor;
            }
            "--area-overhead" => {
                let overhead: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--area-overhead needs a number")?;
                if !overhead.is_finite() || overhead <= 0.0 {
                    return Err("--area-overhead needs a positive number".into());
                }
                options.area_overhead = overhead;
            }
            "--max-picks" => {
                options.max_picks = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-picks needs a non-negative integer")?
            }
            "--plan" => options.plan = Some(args.next().ok_or("--plan needs a path")?),
            "--no-validate" => options.validate = false,
            "--vectors" => {
                options.vectors = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--vectors needs a positive integer")?
            }
            "--frames" => {
                options.frames = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--frames needs a positive integer")?
            }
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?
            }
            "--threads" | "--workers" => {
                options.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a non-negative integer")?
            }
            "--help" | "-h" => {
                eprintln!("{usage}");
                std::process::exit(0);
            }
            other if options.input.is_empty() && !other.starts_with('-') => {
                options.input = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.input.is_empty() {
        return Err(format!("missing input netlist\n{usage}"));
    }
    Ok(options)
}

/// Builds the one [`SerConfig`] the estimation subcommands share: the
/// experiment pipeline's default models, Φ from the same setup/hold
/// initialization `solve` uses (or the `--phi` override).
fn build_estimate_config(
    circuit: &Circuit,
    options: &EstimateOptions,
) -> Result<SerConfig, CliError> {
    let defaults = RunConfig::default();
    let phi = match options.phi {
        Some(phi) => phi,
        None => {
            let graph = RetimeGraph::from_circuit(circuit, &defaults.delays)?;
            defaults.init.initialize(&graph)?.phi
        }
    };
    Ok(SerConfig {
        sim: SimConfig {
            num_vectors: options.vectors,
            frames: options.frames,
            warmup: 16,
            seed: options.seed,
            threads: options.threads,
        },
        delays: defaults.delays.clone(),
        rates: defaults.rates.clone(),
        elw: ElwParams {
            phi,
            t_setup: defaults.init.t_setup,
            t_hold: defaults.init.t_hold,
        },
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
fn run_estimate() -> Result<u8, CliError> {
    const USAGE: &str = "usage: retimer estimate INPUT[.bench|.blif|.v] \
         [--engine analytic|montecarlo|propprob|exact|all] [--injections N] \
         [--campaign-seed S] [--tolerance F] [--max-source-bits B] [--phi P] \
         [--vectors K] [--frames N] [--seed S] [--threads T]";
    let options = parse_estimate_args(USAGE)?;
    let circuit = read_netlist(&options.input)?;
    eprintln!("read {circuit}");
    let ser_config = build_estimate_config(&circuit, &options)?;
    println!("Phi = {}", ser_config.elw.phi);

    let montecarlo = MonteCarloEstimator {
        campaign: CampaignConfig::new(options.injections)
            .with_seed(options.campaign_seed)
            .with_workers(options.threads),
    };
    if options.engine == "all" {
        let bands = options
            .tolerance
            .map(ToleranceBands::uniform)
            .unwrap_or_default();
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

    let kind: EngineKind = options.engine.parse().map_err(CliError::Usage)?;
    let estimate = match kind {
        EngineKind::Analytic => AnalyticEstimator.estimate(&circuit, &ser_config)?,
        EngineKind::PropProb => PropProbEstimator.estimate(&circuit, &ser_config)?,
        EngineKind::MonteCarlo => montecarlo.estimate(&circuit, &ser_config)?,
        EngineKind::Exact => ExactEstimator {
            max_source_bits: options.max_source_bits,
        }
        .estimate(&circuit, &ser_config)?,
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
fn run_harden() -> Result<u8, CliError> {
    const USAGE: &str = "usage: retimer harden INPUT[.bench|.blif|.v] \
         [--area-budget F] [--hardening-factor F] [--area-overhead F] \
         [--max-picks N] [--plan FILE.csv] [--no-validate] [--injections N] \
         [--campaign-seed S] [--phi P] [--vectors K] [--frames N] [--seed S] \
         [--threads T]";
    let options = parse_estimate_args(USAGE)?;
    let circuit = read_netlist(&options.input)?;
    eprintln!("read {circuit}");
    let ser_config = build_estimate_config(&circuit, &options)?;
    println!("Phi = {}", ser_config.elw.phi);

    let campaign = CampaignConfig::new(options.injections)
        .with_seed(options.campaign_seed)
        .with_workers(options.threads);
    let harden = HardenConfig {
        area_budget: options.area_budget,
        hardening_factor: options.hardening_factor,
        area_overhead: options.area_overhead,
        max_picks: options.max_picks,
    };
    let plan = advise(&circuit, &ser_config, &campaign, &harden)?;
    print!("{}", plan.summary());

    if let Some(path) = &options.plan {
        std::fs::write(path, plan.to_csv())?;
        println!("wrote {path}");
    }
    if options.validate && !plan.selected().is_empty() {
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

struct BenchSolveOptions {
    out: String,
    gates: Vec<usize>,
    samples_only: bool,
    time_budget: Option<f64>,
    max_iters: Option<usize>,
    max_memory: Option<usize>,
    profile: bool,
    fail_on_degraded: bool,
}

fn parse_bench_solve_args() -> Result<BenchSolveOptions, String> {
    let mut args = std::env::args().skip(2); // binary name + "bench-solve"
    let mut options = BenchSolveOptions {
        out: "BENCH_solver.json".into(),
        gates: vec![300, 1000],
        samples_only: false,
        time_budget: None,
        max_iters: None,
        max_memory: None,
        profile: false,
        fail_on_degraded: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => options.out = args.next().ok_or("--out needs a path")?,
            "--gates" => {
                let list = args.next().ok_or("--gates needs a comma-separated list")?;
                options.gates = list
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("invalid --gates list `{list}`"))?;
            }
            "--tier" => {
                let tier = args.next().ok_or("--tier needs a name")?;
                options.gates = bench_harness::tier_gates(&tier, options.gates)?;
            }
            "--samples-only" => options.samples_only = true,
            "--profile" => options.profile = true,
            "--fail-on-degraded" => options.fail_on_degraded = true,
            "--max-memory" => {
                options.max_memory = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--max-memory needs a byte count")?,
                )
            }
            "--time-budget" => {
                let secs: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--time-budget needs a number of seconds")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--time-budget needs a non-negative number".into());
                }
                options.time_budget = Some(secs);
            }
            "--max-iters" => {
                options.max_iters = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--max-iters needs a non-negative integer")?,
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: retimer bench-solve [--out FILE] [--gates N,N,...] \
                     [--tier small|large|xlarge] [--samples-only] [--profile] \
                     [--fail-on-degraded] \
                     [--time-budget SECS] [--max-iters N] [--max-memory BYTES]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// Benchmarks the warm-started closure engine against fresh Dinic
/// builds and writes the counters as JSON (`BENCH_solver.json`).
fn run_bench_solve() -> Result<u8, CliError> {
    use bench_harness::solver_bench;

    let options = parse_bench_solve_args()?;
    let mut instances = solver_bench::sample_instances();
    if !options.samples_only {
        for &gates in &options.gates {
            instances.push(solver_bench::generated_instance(gates)?);
        }
    }
    let budget = minobswin::SolveBudget::new()
        .with_wall_time(options.time_budget.map(std::time::Duration::from_secs_f64))
        .with_max_iterations(options.max_iters)
        .with_max_memory_estimate(options.max_memory);

    let mut degraded = false;
    let mut records = Vec::new();
    for instance in &instances {
        let record = solver_bench::measure_with_budget(instance, &budget)?;
        degraded |= record.warm.stats.degradation.budget_stop.is_some()
            || record.fresh.stats.degradation.budget_stop.is_some();
        println!(
            "{:<16} |V| {:>5} |E| {:>5}  closure warm {:>8.0} arcs/call, \
             fresh {:>9.0} ({:>5.1}x), {:.3}s vs {:.3}s",
            record.name,
            record.vertices,
            record.edges,
            record.warm.stats.perf.arcs_per_closure(),
            record.fresh.stats.perf.arcs_per_closure(),
            record.closure_arc_ratio(),
            record.warm.solve_seconds,
            record.fresh.solve_seconds,
        );
        if options.profile {
            print!("{}", solver_bench::profile_table(&record));
        }
        records.push(record);
    }

    // `--fail-on-degraded` is the baseline-refresh guard: a truncated
    // run must never overwrite the tracked JSON, so refuse the write
    // entirely instead of writing-then-signalling via the exit code.
    if degraded && options.fail_on_degraded {
        eprintln!(
            "budget exceeded: some runs were truncated; refusing to write {} (exit {})",
            options.out, EXIT_DEGRADED
        );
        return Ok(EXIT_DEGRADED);
    }
    std::fs::write(&options.out, solver_bench::to_json(&records))?;
    println!("wrote {}", options.out);
    if degraded {
        eprintln!("budget exceeded: some runs were truncated (exit 4)");
        return Ok(EXIT_DEGRADED);
    }
    Ok(0)
}

struct BenchSerOptions {
    out: String,
    gates: Vec<usize>,
    samples_only: bool,
    vectors: usize,
    frames: usize,
    threads: usize,
    profile: bool,
}

fn parse_bench_ser_args() -> Result<BenchSerOptions, String> {
    let mut args = std::env::args().skip(2); // binary name + "bench-ser"
    let mut options = BenchSerOptions {
        out: "BENCH_ser.json".into(),
        gates: vec![400, 1500],
        samples_only: false,
        vectors: 1024,
        frames: 15,
        threads: 0,
        profile: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => options.out = args.next().ok_or("--out needs a path")?,
            "--gates" => {
                let list = args.next().ok_or("--gates needs a comma-separated list")?;
                options.gates = list
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("invalid --gates list `{list}`"))?;
            }
            "--tier" => {
                let tier = args.next().ok_or("--tier needs a name")?;
                options.gates = bench_harness::tier_gates(&tier, options.gates)?;
            }
            "--samples-only" => options.samples_only = true,
            "--profile" => options.profile = true,
            "--vectors" => {
                options.vectors = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--vectors needs a positive integer")?
            }
            "--frames" => {
                options.frames = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--frames needs a positive integer")?
            }
            "--threads" | "--workers" => {
                options.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a non-negative integer")?
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: retimer bench-ser [--out FILE] [--gates N,N,...] \
                     [--tier small|large|xlarge] [--samples-only] [--profile] \
                     [--vectors K] [--frames N] [--threads T]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// Benchmarks the SER data plane — scalar per-signature engine vs. flat
/// arena engine vs. arena + worker pool — and writes the timings as
/// JSON (`BENCH_ser.json`).
fn run_bench_ser() -> Result<u8, CliError> {
    use bench_harness::ser_bench;

    let options = parse_bench_ser_args()?;
    let mut instances = ser_bench::sample_instances();
    if !options.samples_only {
        for &gates in &options.gates {
            instances.push(ser_bench::generated_instance(gates));
        }
    }
    let config = ser_bench::BenchSerConfig {
        num_vectors: options.vectors,
        frames: options.frames,
        threads: options.threads,
        ..ser_bench::BenchSerConfig::default()
    };

    let mut records = Vec::new();
    for instance in &instances {
        let record = ser_bench::measure(instance, &config);
        println!(
            "{:<16} |V| {:>6} gates  scalar {:>9.3} ms ({:>6} allocs), arena {:>9.3} ms \
             ({:>5} allocs, {:>5.2}x, {:>6.2} ns/g·f·v), arena+{} threads {:>9.3} ms ({:>5.2}x), \
             propprob {:>7.3} ms ({:>6.2} ns/g·f)",
            record.name,
            record.gates,
            record.scalar_nanos as f64 / 1e6,
            record.scalar_allocs,
            record.arena_nanos as f64 / 1e6,
            record.arena_allocs,
            record.arena_speedup(),
            record.arena_nanos_per_gfv(),
            record.threads,
            record.threaded_nanos as f64 / 1e6,
            record.threaded_speedup(),
            record.propprob_nanos as f64 / 1e6,
            record.propprob_nanos_per_gf(),
        );
        if options.profile {
            print!("{}", ser_bench::profile_table(&record));
        }
        records.push(record);
    }

    std::fs::write(&options.out, ser_bench::to_json(&records))?;
    println!("wrote {}", options.out);
    Ok(0)
}

/// `retimer serve`: boots the daemon (crates/serve) on stdin/stdout or
/// a unix socket and runs it until drained. `--fsck` instead runs one
/// standalone cache-integrity pass and exits.
fn run_serve() -> Result<u8, CliError> {
    // Chaos and soak harnesses opt into filesystem fault injection
    // via SABOTAGE_FIO_PLAN (a malformed plan warns and stays inert).
    if let Some(plan) = netlist::fio::install_from_env() {
        eprintln!("warning: filesystem fault injection active: {plan:?}");
    }
    let (config, socket, fsck) = parse_serve_args()?;
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
    let (digits, mult) = match s.trim().to_ascii_lowercase() {
        t if t.ends_with('k') => (t[..t.len() - 1].to_string(), 1u64 << 10),
        t if t.ends_with('m') => (t[..t.len() - 1].to_string(), 1u64 << 20),
        t if t.ends_with('g') => (t[..t.len() - 1].to_string(), 1u64 << 30),
        t => (t, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .and_then(|n| n.checked_mul(mult))
}

fn parse_serve_args() -> Result<(serve::ServeConfig, Option<String>, bool), String> {
    let mut args = std::env::args().skip(2); // binary name + "serve"
    let mut config = serve::ServeConfig::new(".retimer-cache");
    let mut socket: Option<String> = None;
    let mut fsck = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache" => config.cache_dir = args.next().ok_or("--cache needs a directory")?.into(),
            "--threads" | "--workers" => {
                config.workers = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a non-negative integer")?
            }
            "--queue" => {
                config.queue_capacity = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--queue needs a positive integer")?
            }
            "--time-budget" => {
                config.default_time_budget = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&secs: &f64| secs.is_finite() && secs > 0.0)
                        .ok_or("--time-budget needs a positive number of seconds")?,
                )
            }
            "--max-iters" => {
                config.default_max_iters = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--max-iters needs a positive integer")?,
                )
            }
            "--cache-max-bytes" => {
                config.cache_max_bytes = Some(
                    args.next()
                        .as_deref()
                        .and_then(parse_byte_size)
                        .ok_or("--cache-max-bytes needs a positive size (bytes, or with k/m/g)")?,
                )
            }
            "--fsck" => fsck = true,
            "--socket" => socket = Some(args.next().ok_or("--socket needs a path")?),
            "--help" | "-h" => {
                eprintln!(
                    "usage: retimer serve [--cache DIR] [--threads T] [--queue N] \
                     [--time-budget SECS] [--max-iters N] [--cache-max-bytes SIZE] \
                     [--socket PATH] [--fsck]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((config, socket, fsck))
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
