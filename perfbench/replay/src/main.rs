//! Input generator and in-process replay for the end-to-end benchmark
//! (`perfbench/run.py`).
//!
//! ```text
//! perfbench-replay gen-twins DIR
//! perfbench-replay gen-circuits DIR NAME:GATES:SEED...
//! perfbench-replay solve TRACE OUT_JSON SEED THREADS OUT_DIR FILE...
//! perfbench-replay estimate TRACE OUT_JSON SEED THREADS PHI FILE
//! perfbench-replay serve-hits TRACE OUT_JSON CACHE_DIR SUBMITS
//! perfbench-replay serve-store TRACE OUT_JSON SRC_CACHE DST_CACHE SUBMITS
//! ```
//!
//! The replay subcommands redo one `retimer` operation through the
//! same public library calls the program makes, in the program's own
//! order, and wrap every call into a layer in a named span. `TRACE` is
//! `1` to record spans or `0` to make the same calls without them (the
//! baseline for the tracing overhead). Spans stay in memory and are
//! written to `OUT_JSON` with the op's counters and outputs when the
//! replay ends; `run.py` checks the outputs against the real program's
//! and turns the spans into per-layer self times.

use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use minobswin::algorithm::{Solution, SolverStats};
use minobswin::experiment::RunConfig;
use minobswin::supervisor::Supervision;
use minobswin::{Problem, SolveBudget, SolverSession};
use netlist::digest::{circuit_digest, format_digest};
use netlist::generator::{table1_twin, GeneratorConfig, TABLE1_ROWS};
use netlist::{bench_format, Circuit, DelayModel, Levelization, ParseLimits};
use retime::apply::apply_retiming;
use retime::{ElwParams, RetimeGraph};
use ser_engine::equiv::{check_equivalence, EquivConfig};
use ser_engine::odc::Observability;
use ser_engine::sim::{FrameTrace, SimConfig};
use ser_engine::{
    analyze, analyze_with_observability, propprob_report_with_trace, signature_allocs,
    vertex_observabilities, EngineKind, SerConfig, SerEstimate, SignatureArena,
};
use serve::cache::{config_fingerprint, ResultCache};
use serve::job::JobSpec;
use serve::json::Json;

/// The simulation size `retimer solve` and `retimer estimate` use when
/// no `--vectors`/`--frames` flag is given.
const VECTORS: usize = 1024;
const FRAMES: usize = 15;

/// Circuit name serve parses every job under (`serve::daemon`).
const SERVE_NAME: &str = "serve";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    cpu_start: u64,
    cpu_end: u64,
    parent: Option<usize>,
    op: usize,
}

struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

thread_local! {
    static TRACE: RefCell<Trace> = RefCell::new(Trace {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        op: 0,
    });
}

/// Process CPU time (user + system, all threads, exited ones included)
/// in clock ticks, from `/proc/self/stat`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    field(11).unwrap_or(0) + field(12).unwrap_or(0)
}

/// Runs `f` inside a span named `name` (a no-op wrapper with tracing
/// off). Spans nest: the innermost open span is the new one's parent.
/// CPU time is read only around `ser.*` spans, the one layer with a
/// worker pool, and inside the span's interval, so the reads are never
/// counted as unattributed time.
fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let cpu = name.starts_with("ser.");
    let idx = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let idx = t.spans.len();
        let span = Span {
            name,
            start_ns: t.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            cpu_start: if cpu { cpu_ticks() } else { 0 },
            cpu_end: 0,
            parent: t.stack.last().copied(),
            op: t.op,
        };
        t.spans.push(span);
        t.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            t.stack.pop();
            let cpu_end = if cpu { cpu_ticks() } else { 0 };
            let end = t.t0.elapsed().as_nanos() as u64;
            let span = &mut t.spans[idx];
            span.end_ns = end;
            span.cpu_end = cpu_end;
        });
    }
    out
}

/// Runs one op: `f` under a root `op` span, with the SER arena's
/// high-water mark and signature allocation count read at its
/// boundaries. Returns the op's wall seconds, counters and output.
fn op(id: usize, f: impl FnOnce() -> Result<Json, String>) -> Result<Json, String> {
    TRACE.with(|t| t.borrow_mut().op = id);
    SignatureArena::reset_high_water();
    let allocs = signature_allocs();
    let t = Instant::now();
    let output = span("op", f)?;
    let wall = t.elapsed().as_secs_f64();
    Ok(Json::obj(vec![
        ("id", num(id)),
        ("wall_s", Json::Num(wall)),
        (
            "arena_high_water_bytes",
            num(SignatureArena::high_water_bytes()),
        ),
        ("signature_allocs", num(signature_allocs() - allocs)),
        ("output", output),
    ]))
}

fn num(n: impl TryInto<u64>) -> Json {
    Json::Num(n.try_into().map_or(f64::NAN, |n: u64| n as f64))
}

fn spans_json() -> Json {
    TRACE.with(|t| {
        let t = t.borrow();
        Json::Arr(
            t.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", num(s.start_ns)),
                        ("end_ns", num(s.end_ns)),
                        ("cpu_start", num(s.cpu_start)),
                        ("cpu_end", num(s.cpu_end)),
                        ("parent", s.parent.map_or(Json::Null, num)),
                        ("op", num(s.op)),
                    ])
                })
                .collect(),
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench-replay: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument {i} (see the module docs for usage)"))
    };
    let parse_u64 = |i: usize| -> Result<u64, String> {
        arg(i)?.parse().map_err(|e| format!("argument {i}: {e}"))
    };
    match arg(0)? {
        "gen-twins" => gen_twins(Path::new(arg(1)?)),
        "gen-circuits" => gen_circuits(Path::new(arg(1)?), &args[2..]),
        cmd @ ("solve" | "estimate" | "serve-hits" | "serve-store") => {
            let on = match arg(1)? {
                "1" => true,
                "0" => false,
                other => return Err(format!("TRACE must be 0 or 1, got `{other}`")),
            };
            TRACE.with(|t| {
                let mut t = t.borrow_mut();
                t.on = on;
                t.t0 = Instant::now();
            });
            let ops = match cmd {
                "solve" => {
                    let out_dir = Path::new(arg(5)?);
                    vec![op(0, || {
                        replay_solves(parse_u64(3)?, parse_u64(4)? as usize, out_dir, &args[6..])
                    })?]
                }
                "estimate" => vec![op(0, || {
                    replay_estimate(
                        parse_u64(3)?,
                        parse_u64(4)? as usize,
                        arg(5)?.parse().map_err(|e| format!("PHI: {e}"))?,
                        arg(6)?,
                    )
                })?],
                "serve-hits" => replay_serve_hits(Path::new(arg(3)?), arg(4)?)?,
                _ => vec![op(0, || {
                    replay_serve_store(Path::new(arg(3)?), Path::new(arg(4)?), arg(5)?)
                })?],
            };
            let doc = Json::obj(vec![("ops", Json::Arr(ops)), ("spans", spans_json())]);
            std::fs::write(arg(2)?, doc.to_string())
                .map_err(|e| format!("writing {}: {e}", arg(2).unwrap_or("")))
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn write_bench(circuit: &Circuit, path: &Path) -> Result<(), String> {
    bench_format::write_file(circuit, path).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Writes the 21 Table I twins at the `table1` binary's default scale:
/// 1/16, and 1/64 for the four giants (paper |V| over 60k).
fn gen_twins(dir: &Path) -> Result<(), String> {
    for row in &TABLE1_ROWS {
        let scale = if row.v > 60_000 { 64 } else { 16 };
        let circuit = table1_twin(row, scale);
        write_bench(&circuit, &dir.join(format!("{}.bench", circuit.name())))?;
    }
    Ok(())
}

/// Writes circuits with the generator recipe of `retimer bench-solve`
/// and `bench-ser`: `gates/5` registers, 12 inputs and outputs, fanin
/// density 2.2.
fn gen_circuits(dir: &Path, specs: &[String]) -> Result<(), String> {
    for spec in specs {
        let parts: Vec<&str> = spec.split(':').collect();
        let [name, gates, seed] = parts[..] else {
            return Err(format!("circuit spec `{spec}` is not NAME:GATES:SEED"));
        };
        let gates: usize = gates.parse().map_err(|e| format!("`{spec}`: {e}"))?;
        let seed: u64 = seed.parse().map_err(|e| format!("`{spec}`: {e}"))?;
        let circuit = GeneratorConfig::new(name, seed)
            .gates(gates)
            .registers(gates / 5)
            .inputs(12)
            .outputs(12)
            .target_edges(gates * 22 / 10)
            .build();
        write_bench(&circuit, &dir.join(format!("{name}.bench")))?;
    }
    Ok(())
}

/// One `retimer solve FILE --threads T --seed S --out OUT` per file, as
/// `Experiment::run` and the CLI's `run` make the calls.
fn replay_solves(
    seed: u64,
    threads: usize,
    out_dir: &Path,
    files: &[String],
) -> Result<Json, String> {
    let mut outputs = Vec::new();
    let mut fallbacks = 0usize;
    let mut stats = Vec::new();
    let mut units = 0u64;
    for file in files {
        let stem = Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("bad input path `{file}`"))?;
        let out = out_dir.join(format!("{stem}.bench"));
        let solved = replay_solve(file, seed, threads, &out)?;
        fallbacks += usize::from(!solved.used_setup_hold);
        units += solved.units;
        stats.extend(solved.stats);
        outputs.push(Json::obj(vec![
            ("file", Json::str(file.as_str())),
            ("stdout", Json::str(solved.stdout)),
            ("out", Json::str(out.display().to_string())),
        ]));
    }
    let sum = |f: &dyn Fn(&SolverStats) -> u64| num(stats.iter().map(f).sum::<u64>());
    Ok(Json::obj(vec![
        ("solves", Json::Arr(outputs)),
        ("init_fallbacks", num(fallbacks)),
        ("ser_units", num(units)),
        ("iterations", sum(&|s| s.iterations as u64)),
        ("commits", sum(&|s| s.commits as u64)),
        ("check_ns", sum(&|s| s.perf.check_nanos)),
        ("closure_ns", sum(&|s| s.perf.closure_nanos)),
        ("attribute_ns", sum(&|s| s.perf.attribute_nanos)),
        ("commit_ns", sum(&|s| s.perf.commit_nanos)),
        ("closure_calls", sum(&|s| s.perf.closure_calls)),
        (
            "closure_arcs_touched",
            sum(&|s| s.perf.closure_arcs_touched),
        ),
        ("closure_skips", sum(&|s| s.perf.closure_skips)),
        ("violations_batched", sum(&|s| s.perf.violations_batched)),
    ]))
}

struct Solved {
    stdout: String,
    used_setup_hold: bool,
    stats: [SolverStats; 2],
    /// gates x frames x vectors of the one standalone simulation.
    units: u64,
}

fn replay_solve(file: &str, seed: u64, threads: usize, out: &Path) -> Result<Solved, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let circuit = span("netlist.read", || {
        netlist::read_path(file, &ParseLimits::default())
    })
    .map_err(|x| e(&x))?;
    let config = RunConfig::default()
        .with_sim(SimConfig {
            num_vectors: VECTORS,
            frames: FRAMES,
            warmup: 16,
            seed,
            threads,
        })
        .with_budget(SolveBudget::new());

    // `Experiment::run`.
    let graph = span("retime.graph", || {
        RetimeGraph::from_circuit(&circuit, &config.delays)
    })
    .map_err(|x| e(&x))?;
    let init = span("init.initialize", || config.init.initialize(&graph)).map_err(|x| e(&x))?;
    let r_min = init.r_min;
    let params = ElwParams {
        phi: init.phi,
        t_setup: config.init.t_setup,
        t_hold: config.init.t_hold,
    };
    span("netlist.levelize", || {
        Levelization::of(&circuit).num_levels()
    });
    let trace = span("ser.simulate", || {
        FrameTrace::simulate(&circuit, config.sim)
    });
    let observability = span("ser.odc", || Observability::compute(&circuit, &trace));
    let vertex_obs = span("ser.vertex_obs", || {
        vertex_observabilities(&circuit, &graph, &observability)
    });
    let problem = span("solver.problem", || {
        Problem::from_observabilities(&graph, &vertex_obs, config.sim.num_vectors, params, r_min)
    });
    let ser_config = SerConfig {
        sim: config.sim,
        delays: config.delays.clone(),
        rates: config.rates.clone(),
        elw: params,
    };
    let original = span("ser.analyze", || analyze(&circuit, &ser_config)).map_err(|x| e(&x))?;
    span("ser.propprob", || {
        propprob_report_with_trace(&circuit, &ser_config, &trace)
    })
    .map_err(|x| e(&x))?;
    let ff = circuit.num_registers();
    let solve = |minobs: bool| -> Result<(Solution, f64), String> {
        let solver = if minobs {
            config.solver.with_p2(false)
        } else {
            config.solver
        };
        span("solver.solve", || {
            let t = Instant::now();
            let supervision = Supervision::new()
                .budget(config.budget.clone())
                .with_memory_probe(Arc::new(SignatureArena::live_bytes));
            let solution = SolverSession::new(&graph, &problem)
                .config(solver)
                .initial(init.retiming.clone())
                .run_supervised(supervision)
                .map(|outcome| outcome.into_solution())
                .map_err(|x| e(&x))?;
            Ok((solution, t.elapsed().as_secs_f64()))
        })
    };
    let (ref_sol, ref_secs) = solve(true)?;
    let (win_sol, win_secs) = solve(false)?;
    let evaluate = |solution: &Solution| -> Result<(usize, f64, f64, f64), String> {
        let rebuilt = span("retime.apply", || {
            apply_retiming(&circuit, &graph, &solution.retiming)
        })
        .map_err(|x| e(&x))?;
        let report = span("ser.analyze", || analyze(&rebuilt, &ser_config)).map_err(|x| e(&x))?;
        let registers = rebuilt.num_registers();
        let delta_ff = registers as f64 / ff.max(1) as f64 - 1.0;
        Ok((
            registers,
            report.ser,
            report.ser / original.ser - 1.0,
            delta_ff,
        ))
    };
    let minobs = evaluate(&ref_sol)?;
    let minobswin = evaluate(&win_sol)?;
    drop((trace, observability));

    // The CLI's `run`, after `Experiment::run` returns.
    let mut stdout = format!(
        "Phi = {} ({}), R_min = {}\noriginal : #FF {:>6}  SER {:.4e}\n",
        init.phi,
        if init.used_setup_hold {
            "setup+hold init"
        } else {
            "min-period fallback"
        },
        r_min,
        ff,
        original.ser
    );
    for (label, (registers, ser, delta_ser, delta_ff), secs, sol) in [
        ("minobs   ", minobs, ref_secs, &ref_sol),
        ("minobswin", minobswin, win_secs, &win_sol),
    ] {
        stdout += &format!(
            "{label}: #FF {:>6}  SER {:.4e}  (dSER {:+.2}%, dFF {:+.2}%, {:.3}s, #J {})\n",
            registers,
            ser,
            delta_ser * 100.0,
            delta_ff * 100.0,
            secs,
            sol.stats.commits
        );
    }
    stdout += &format!(
        "SER_ref / SER_new = {:.0}%\n",
        minobs.1 / minobswin.1 * 100.0
    );
    let delays = DelayModel::default();
    let graph = span("retime.graph", || {
        RetimeGraph::from_circuit(&circuit, &delays)
    })
    .map_err(|x| e(&x))?;
    let rebuilt = span("retime.apply", || {
        apply_retiming(&circuit, &graph, &win_sol.retiming)
    })
    .map_err(|x| e(&x))?;
    let verdict = span("equiv.check", || {
        check_equivalence(&circuit, &rebuilt, EquivConfig::default())
    });
    if verdict.is_equivalent() {
        stdout += "equivalence: OK (bounded random check)\n";
    } else {
        stdout += &format!(
            "equivalence: INCONCLUSIVE ({verdict:?}) — likely an initial-state \
             phase difference; inspect before signoff\n"
        );
    }
    span("netlist.write", || write_bench(&rebuilt, out))?;
    stdout += &format!("wrote {}\n", out.display());
    Ok(Solved {
        stdout,
        used_setup_hold: init.used_setup_hold,
        stats: [ref_sol.stats, win_sol.stats],
        units: (circuit.len() * FRAMES * VECTORS) as u64,
    })
}

/// `retimer estimate FILE --engine analytic --phi PHI --threads T
/// --seed S`: `AnalyticEstimator::estimate` is `analyze`, replayed
/// here as its three public steps.
fn replay_estimate(seed: u64, threads: usize, phi: i64, file: &str) -> Result<Json, String> {
    let circuit = span("netlist.read", || {
        netlist::read_path(file, &ParseLimits::default())
    })
    .map_err(|e| e.to_string())?;
    let defaults = RunConfig::default();
    let config = SerConfig {
        sim: SimConfig {
            num_vectors: VECTORS,
            frames: FRAMES,
            warmup: 16,
            seed,
            threads,
        },
        delays: defaults.delays.clone(),
        rates: defaults.rates.clone(),
        elw: ElwParams {
            phi,
            t_setup: defaults.init.t_setup,
            t_hold: defaults.init.t_hold,
        },
    };
    let mut stdout = format!("Phi = {phi}\n");
    let trace = span("ser.simulate", || {
        FrameTrace::simulate(&circuit, config.sim)
    });
    let observability = span("ser.odc", || Observability::compute(&circuit, &trace));
    let estimate = span("ser.analyze", || {
        analyze_with_observability(&circuit, &config, &observability)
            .map(|report| SerEstimate::from_report(EngineKind::Analytic, &report))
    })
    .map_err(|e| e.to_string())?;
    drop((trace, observability));
    stdout += &format!("{:<10} SER {:.4e}\n", estimate.engine.name(), estimate.ser);
    span("ser.analyze", || {
        let mut sites: Vec<_> = circuit
            .iter()
            .map(|(id, g)| (config.rates.rate(&circuit, id) * estimate.site_p(id), g))
            .filter(|&(contribution, _)| contribution > 0.0)
            .collect();
        sites.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (contribution, gate) in sites.iter().take(5) {
            stdout += &format!(
                "  {:>12} ({}): {:.4e} ({:.1}% of total)\n",
                gate.name(),
                gate.kind(),
                contribution,
                contribution / estimate.ser * 100.0
            );
        }
    });
    Ok(Json::obj(vec![
        ("stdout", Json::str(stdout)),
        ("ser_units", num(circuit.len() * FRAMES * VECTORS)),
    ]))
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    Ok(std::fs::read_to_string(path)
        .map_err(|e| format!("reading {path}: {e}"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(String::from)
        .collect())
}

fn open_cache(dir: &Path) -> Result<ResultCache, String> {
    ResultCache::open(dir).map_err(|e| format!("opening cache {}: {e}", dir.display()))
}

/// One cache-hit job per submit line, as serve's request handler and
/// worker make the calls, then the `result` fetch.
fn replay_serve_hits(cache_dir: &Path, submits: &str) -> Result<Vec<Json>, String> {
    let cache = open_cache(cache_dir)?;
    let lines = read_lines(submits)?;
    let mut ops = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        ops.push(op(i, || {
            let request = span("serve.decode", || Json::parse(line))?;
            let spec = span("serve.spec", || JobSpec::from_json(&request))?;
            span("serve.persist_job", || cache.persist_job(&spec))
                .map_err(|e| format!("persist_job: {e}"))?;
            let netlist_key = span("netlist.digest", || ResultCache::netlist_key(&spec.source));
            let canonical = span("serve.cache_read", || cache.lookup_netlist(&netlist_key))
                .ok_or("netlist stage missed")?;
            let circuit = span("netlist.canonical_parse", || {
                bench_format::parse(&canonical, SERVE_NAME)
            })
            .map_err(|e| e.to_string())?;
            let circuit_key = span("netlist.digest", || format_digest(circuit_digest(&circuit)));
            span("serve.cache_read", || cache.lookup_levels(&circuit_key))
                .ok_or("levels stage missed")?;
            let result_key = ResultCache::result_key(&circuit_key, config_fingerprint(&spec));
            span("serve.cache_read", || cache.lookup_result(&result_key))
                .ok_or("result stage missed")?;
            span("serve.persist_job", || cache.remove_job(&spec.id));
            let (netlist, report) = span("serve.result_read", || {
                let (netlist, report) = cache.peek_result(&result_key)?;
                // The `result` event line the frontend writes.
                let line = Json::obj(vec![
                    ("event", Json::str("result")),
                    ("id", Json::str(&spec.id)),
                    ("netlist", Json::Str(netlist.clone())),
                    ("report", report.clone()),
                ])
                .to_string();
                std::hint::black_box(line);
                Some((netlist, report))
            })
            .ok_or("result fetch missed")?;
            Ok(Json::obj(vec![
                ("id", Json::str(&spec.id)),
                ("netlist", Json::Str(netlist)),
                ("report", report),
            ]))
        })?);
    }
    Ok(ops)
}

/// The cache writes of serve's cold pass: each submitted circuit's
/// netlist, levels and result entries, read back from a filled cache
/// and stored into an empty one.
fn replay_serve_store(src_dir: &Path, dst_dir: &Path, submits: &str) -> Result<Json, String> {
    let src = open_cache(src_dir)?;
    let dst = open_cache(dst_dir)?;
    let mut stored = 0usize;
    for line in read_lines(submits)? {
        let spec = JobSpec::from_json(&Json::parse(&line)?)?;
        let netlist_key = ResultCache::netlist_key(&spec.source);
        let canonical = src
            .lookup_netlist(&netlist_key)
            .ok_or("netlist stage missed")?;
        let circuit = bench_format::parse(&canonical, SERVE_NAME).map_err(|e| e.to_string())?;
        let circuit_key = format_digest(circuit_digest(&circuit));
        let levels = src
            .lookup_levels(&circuit_key)
            .ok_or("levels stage missed")?;
        let result_key = ResultCache::result_key(&circuit_key, config_fingerprint(&spec));
        let (bench, meta) = src
            .lookup_result(&result_key)
            .ok_or("result stage missed")?;
        let io = |e: std::io::Error| format!("store: {e}");
        span("serve.store", || {
            dst.store_netlist(&netlist_key, &canonical)
        })
        .map_err(io)?;
        span("serve.store", || dst.store_levels(&circuit_key, levels)).map_err(io)?;
        span("serve.store", || {
            dst.store_result(&result_key, &bench, &meta)
        })
        .map_err(io)?;
        stored += 1;
    }
    Ok(Json::obj(vec![("stored", num(stored))]))
}
