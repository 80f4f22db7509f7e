#!/usr/bin/env python3
"""End-to-end benchmark of the `retimer` binary.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. It builds the
release `retimer` binary and the benchmark's replay helper
(`perfbench/replay`) into `$CARGO_TARGET_DIR` (default `.bench_build`),
makes the workload's inputs from the seed, runs one closed-loop client
(one op in flight) for S seconds after an untimed set-up, checks every
op's output, and prints one JSON result as the last stdout line.

`--workload all` runs the four workloads in turn, lists every metric
by name with its unit, and prints one result whose metric names carry
the workload as a prefix (`table1/latency_p50_s`).

With `--trace 0` the result holds the end-to-end metrics. With
`--trace 1` each op is also replayed in-process through the layers'
public functions with spans on and off, and the result holds the
per-layer metrics. NOTES.md says why each workload exists and what
the traced runs found.
"""

import argparse
import collections
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import lib  # noqa: E402

DEFAULT_SEED = 1
# Stop starting ops past this many seconds, so a slow machine still
# exits inside the 180 s a run may take.
RUN_DEADLINE_S = 150
OP_TIMEOUT_S = 60
FIXTURE_10K = "tests/fixtures/generated_10k.bench"
FIXTURE_50K = "tests/fixtures/generated_50k.bench"
# The Φ §V initialization computes for the 50k fixture; passing it keeps
# the ~390 s init out of the estimate op (see NOTES.md).
PHI_50K = 5430
# `--threads` of each workload. All run one thread: at `--threads 2`
# the SER pool spawns and joins workers per level, so an op waits on
# the slower vCPU every time and its wall time follows the host's
# scheduling (5-13 s per estimate_50k op across runs, 1 s at one
# thread); see NOTES.md.
THREADS = {"solve_10k": 1, "table1": 1, "estimate_50k": 1, "serve_hit": 1}
# solve_10k's stimulus seed: `retimer solve`'s default, for every
# benchmark seed. The solver's path on this fixture is bimodal in the
# stimulus (7 of seeds 1-20 commit 8 times in ~160 iterations instead
# of 6 in ~108, +45% wall), which would make the spread across seeds a
# property of the draw rather than of the program; see NOTES.md.
SOLVE_10K_STIMULUS = 0xC0FFEE
SERVE_CIRCUITS = 32
# serve's job defaults (`JobSpec::new`), recorded in the provenance.
SERVE_VECTORS, SERVE_FRAMES = 256, 8
CLI_VECTORS, CLI_FRAMES = 1024, 15

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_ops_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_frac": "fraction",
}
PER_LAYER = {
    **{f"solver.{n}_s": "s" for n in ("solve", "closure", "attribute", "check", "commit", "other")},
    **{f"solver.{n}": "count" for n in (
        "iterations", "commits", "closure_calls", "closure_arcs_touched",
        "closure_skips", "violations_batched")},
    "init.initialize_s": "s",
    "init.fallbacks": "count",
    **{f"ser.{n}_s": "s" for n in ("simulate", "odc", "analyze", "propprob", "cpu")},
    "ser.ns_per_gate_frame_vector": "ns",
    "ser.arena_high_water_mib": "MiB",
    "ser.signature_allocs": "count",
    **{f"netlist.{n}_s": "s" for n in ("read", "levelize", "write", "canonical_parse", "digest")},
    "retime.graph_s": "s",
    "retime.apply_s": "s",
    "equiv.check_s": "s",
    **{f"serve.{n}_s": "s" for n in (
        "admit", "queue_wait", "netlist_stage", "levels_stage", "result_stage", "fetch",
        "decode", "persist_job", "cache_read", "store")},
    "serve.hit_ratio": "fraction",
    "cli.other_s": "s",
    **{f"share.{layer}": "fraction" for layer in lib.LAYERS},
    "trace.coverage": "fraction",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The workload could not be set up; the run prints no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build


def build():
    """Builds `retimer` and the replay helper; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / FIXTURE_10K).is_file():
        raise SetupError(f"{ROOT} is not a checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "minobswin-bench",
         "--bin", "retimer"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(HERE / "replay" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SetupError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "retimer", target / "release" / "perfbench-replay"


def provenance(ctx, retimer_bin):
    args, sizes = ctx.args, ctx.sizes
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "crates").rglob("*.rs")) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "stimulus_seed": ctx.seed,
        "threads": THREADS[args.workload],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "build_profile": "release",
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "binary": str(retimer_bin),
        "inputs": sizes,
    }


# ------------------------------------------------------------ processes


def run_proc(argv, stdout_path, timeout=OP_TIMEOUT_S):
    """Runs `argv` from the repository root with stdout to a file.
    Returns (exit code or None on timeout, wall seconds, peak RSS MiB)."""
    killed = []
    t0 = time.perf_counter()
    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err, cwd=ROOT)

    def kill():
        killed.append(True)
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed else proc.returncode), wall, usage.ru_maxrss / 1024


def helper(ctx, *args):
    """Runs the replay helper (input generation or a replay)."""
    code, _, _ = run_proc([ctx.replay_bin, *args], ctx.work / "helper.out", timeout=120)
    if code != 0:
        raise SetupError(f"perfbench-replay {args[0]} exited {code}: "
                         + (ctx.work / "helper.out.err").read_text()[-500:])


def replay(ctx, args):
    """Runs one replay and returns its JSON document."""
    out = ctx.work / "replay.json"
    helper(ctx, *args[:2], out, *args[2:])
    return json.loads(out.read_text())


class Ctx:
    """One run: arguments, binaries, work directory and op accounting."""

    def __init__(self, args, retimer_bin, replay_bin):
        self.args = args
        # The stimulus seed the program receives.
        self.seed = SOLVE_10K_STIMULUS if args.workload == "solve_10k" else args.seed
        self.retimer = retimer_bin
        self.replay_bin = replay_bin
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.t_start = time.perf_counter()

    def account(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log(f"FAIL {label}: {p}")

    def time_left(self):
        return time.perf_counter() - self.t_start < RUN_DEADLINE_S

    def expected(self):
        """The committed expected outputs, or None while recording them."""
        if self.args.update_expected:
            return None
        return json.loads(self.expected_path().read_text())

    def expected_path(self):
        return HERE / "expected" / f"{self.args.workload}.json"

    def write_expected(self, doc):
        self.expected_path().write_text(json.dumps(dict(seed=self.seed, **doc), indent=1) + "\n")
        log(f"wrote {self.expected_path()}")


# ------------------------------------------------------- CLI workloads


def solve_op(ctx, files, expected, reference, tag):
    """`retimer solve` over `files` in turn; returns (wall, peak MiB,
    problems, {stem: (record, written path)})."""
    problems, results, peak = [], {}, 0.0
    t0 = time.perf_counter()
    for f in files:
        stem = Path(f).stem
        out = ctx.work / f"{tag}-{stem}.bench"
        stdout = ctx.work / f"{tag}-{stem}.out"
        code, _, mib = run_proc([ctx.retimer, "solve", f, "--threads", THREADS[ctx.args.workload],
                                 "--seed", ctx.seed, "--out", out], stdout)
        peak = max(peak, mib)
        if code != 0:
            problems.append(f"{stem}: exit {code}")
            continue
        try:
            rec = lib.parse_solve(stdout.read_text())
            written = out.read_text()
        except (ValueError, OSError) as e:
            problems.append(f"{stem}: {e}")
            continue
        want = expected and dict(expected["circuits"][stem], seed=expected["seed"])
        ref = reference.get(stem, (None,))[0] if reference else None
        problems += [f"{stem}: {p}" for p in lib.check_solve(rec, written, want, ctx.seed, ref)]
        results[stem] = (rec, out)
    return time.perf_counter() - t0, peak, problems, results


def estimate_op(ctx, expected, reference, tag):
    stdout = ctx.work / f"{tag}.out"
    code, wall, mib = run_proc(
        [ctx.retimer, "estimate", FIXTURE_50K, "--engine", "analytic", "--phi", PHI_50K,
         "--threads", THREADS["estimate_50k"], "--seed", ctx.seed], stdout)
    if code != 0:
        return wall, mib, [f"exit {code}"], None
    try:
        rec = lib.parse_estimate(stdout.read_text())
    except ValueError as e:
        return wall, mib, [str(e)], None
    return wall, mib, lib.check_estimate(rec, expected, ctx.seed, reference), rec


def cli_workload(ctx):
    """Set-up (inputs plus one untimed warm-up op), then the timed
    closed loop. Returns the end-to-end metrics, or the per-layer
    metrics when tracing."""
    name = ctx.args.workload
    expected = ctx.expected()
    if name == "estimate_50k":
        files = [FIXTURE_50K]

        def one(tag, reference):
            return estimate_op(ctx, expected, reference, tag)
    else:
        if name == "table1":
            twins = ctx.work / "twins"
            twins.mkdir()
            helper(ctx, "gen-twins", twins)
            files = sorted(str(p) for p in twins.glob("*.bench"))
            if len(files) != 21:
                raise SetupError(f"expected 21 Table I twins, got {len(files)}")
        else:
            files = [FIXTURE_10K]

        def one(tag, reference):
            return solve_op(ctx, files, expected, reference, tag)

    _, _, problems, reference = one("warmup", None)
    ctx.account("warm-up op", problems)
    if expected is None:
        if problems:
            raise SetupError("the warm-up op failed; nothing recorded")
        if name == "estimate_50k":
            return ctx.write_expected({"invariants": {"phi": reference["phi"]},
                                       "record": reference})
        return ctx.write_expected({"circuits": {
            stem: {"invariants": {k: rec[k] for k in lib.SOLVE_INVARIANTS}, "record": rec}
            for stem, (rec, _) in reference.items()}})
    if name == "estimate_50k":
        ctx.sizes = {"generated_50k": gates_in(ctx.work / "warmup.out.err")}
    else:
        ctx.sizes = {Path(f).stem: gates_in(ctx.work / f"warmup-{Path(f).stem}.out.err")
                     for f in files}
    ctx.sizes.update(vectors=CLI_VECTORS, frames=CLI_FRAMES)
    t_timed = time.perf_counter()
    setup_s = t_timed - ctx.t_start

    if ctx.args.trace:
        return traced_cli(ctx, files, one, reference)

    walls, peaks = [], []
    while not walls or (time.perf_counter() - t_timed < ctx.args.seconds and ctx.time_left()):
        wall, mib, problems, _ = one(f"op{len(walls)}", reference)
        ctx.account(f"op {len(walls)}", problems)
        walls.append(wall)
        peaks.append(mib)
    elapsed = time.perf_counter() - t_timed
    return end_to_end(ctx, setup_s, walls, len(walls) / elapsed, max(peaks))


def gates_in(err_path):
    """Gate count from the `read NAME: N gates ...` line `retimer`
    prints to stderr."""
    for line in Path(err_path).read_text().splitlines():
        if line.startswith("read ") and " gates " in line:
            return int(line.split(": ", 1)[1].split()[0])
    return None


def end_to_end(ctx, setup_s, walls, throughput, peak_mib):
    try:
        p90, note = lib.tail_percentile(walls, 90), "the nearest-rank p90"
    except ValueError:
        # A CLI run repeats one deterministic op a few times, too few for
        # any percentile above the median to have ten samples beyond it
        # (its spread is the machine's noise, not the program's), so the
        # metric falls back to the median; see NOTES.md.
        p90, note = statistics.median(walls), "the median (no tail percentile has 10 samples beyond it)"
    print(f"{len(walls)} timed ops; latency_p90_s is {note}")
    return {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": p90,
        "throughput_ops_s": throughput,
        "peak_rss_mib": peak_mib,
        "ok_frac": (ctx.attempted - ctx.failed) / ctx.attempted,
    }


# --------------------------------------------------------- serve_hit


class Daemon:
    """`retimer serve` over pipes, one request in flight."""

    def __init__(self, ctx):
        self.err = open(ctx.work / "serve.err", "wb")
        self.proc = subprocess.Popen(
            [str(ctx.retimer), "serve", "--threads", str(THREADS["serve_hit"]),
             "--cache", str(ctx.work / "cache")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err, cwd=ROOT)
        self.fd = self.proc.stdout.fileno()
        self.buf = b""
        self.lines = collections.deque()

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def event(self, timeout=OP_TIMEOUT_S):
        deadline = time.monotonic() + timeout
        while not self.lines:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.fd], [], [], remaining)[0]:
                raise TimeoutError("no event from the daemon")
            chunk = os.read(self.fd, 1 << 20)
            if not chunk:
                raise EOFError("the daemon closed its output")
            *complete, self.buf = (self.buf + chunk).split(b"\n")
            self.lines.extend(complete)
        return json.loads(self.lines.popleft())

    def wait_for(self, name, job_id=None, times=None):
        while True:
            ev = self.event()
            if times is not None and ev.get("id") == job_id:
                times.setdefault(ev["event"], time.perf_counter())
            if ev.get("event") in ("error", "rejected"):
                raise RuntimeError(f"daemon answered {ev}")
            if ev.get("event") == name and (job_id is None or ev.get("id") == job_id):
                return ev

    def job(self, line, job_id):
        """Submits one job and fetches its result: (latency, done event,
        result event, event receipt times)."""
        times = {}
        t0 = times["submit"] = time.perf_counter()
        self.send(line)
        done = self.wait_for("done", job_id, times)
        times["request"] = time.perf_counter()
        self.send(json.dumps({"op": "result", "id": job_id}))
        result = self.wait_for("result", job_id, times)
        return time.perf_counter() - t0, done, result, times

    def peak_rss_mib(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise SetupError("no VmHWM for the daemon")

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def submit_line(source, seed, job_id):
    return json.dumps({"op": "submit", "id": job_id, "format": "bench", "seed": seed,
                       "threads": THREADS["serve_hit"], "source": source})


def serve_hit(ctx):
    expected = ctx.expected()
    draw = lib.serve_circuits(ctx.seed, SERVE_CIRCUITS)
    circuits = ctx.work / "circuits"
    circuits.mkdir()
    names = [f"c{i:02d}" for i in range(len(draw))]
    helper(ctx, "gen-circuits", circuits, *(f"{n}:{g}:{s}" for n, (g, s) in zip(names, draw)))
    sources = [(circuits / f"{n}.bench").read_text() for n in names]
    ctx.sizes = {"gates": [g for g, _ in draw], "vectors": SERVE_VECTORS, "frames": SERVE_FRAMES}
    # Everything but the id is fixed per circuit, so the timed loop only
    # splices ids into pre-encoded lines.
    templates = [submit_line(src, ctx.seed, "\0").split('"\\u0000"') for src in sources]

    daemon = Daemon(ctx)
    try:
        daemon.wait_for("ready")
        refs = []
        for i, template in enumerate(templates):
            _, done, result, _ = daemon.job(f'"c{i}"'.join(template), f"c{i}")
            problems = [] if done.get("status") == "done" and done.get("cached") is False else [
                f"cold job {done}"]
            want = expected and {"seed": expected["seed"], "record": expected["circuits"][i]}
            problems += lib.check_serve_result(result["report"], result["netlist"], want, ctx.seed)
            ctx.account(f"cold job c{i}", problems)
            refs.append((result["netlist"], result["report"]))
        if expected is None:
            if ctx.failed:
                raise SetupError("a cold job failed; nothing recorded")
            return ctx.write_expected({"circuits": [lib.serve_record(r, n) for n, r in refs]})
        hits = Hits(ctx, daemon, templates, refs)
        if ctx.args.trace:
            return traced_serve(ctx, daemon, hits, sources, refs)
        setup_s = hits.t0 - ctx.t_start
        while len(hits.walls) < len(templates) or (
                hits.elapsed() < ctx.args.seconds and ctx.time_left()):
            hits.one()
            if len(hits.walls) == len(templates):
                # The daemon keeps every job's spec, source included, so
                # its RSS grows with the hits served; reading it after a
                # fixed amount of work keeps a faster daemon from
                # showing as a bigger one.
                peak = daemon.peak_rss_mib()
        throughput = len(hits.walls) / hits.elapsed()
    finally:
        daemon.close()
    return end_to_end(ctx, setup_s, hits.walls, throughput, peak)


class Hits:
    """serve_hit's timed ops: resubmissions of the cold-solved circuits
    in round-robin order, each checked against its cold result."""

    def __init__(self, ctx, daemon, templates, refs):
        self.ctx, self.daemon, self.templates, self.refs = ctx, daemon, templates, refs
        self.walls, self.gaps = [], collections.defaultdict(list)
        self.t0 = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.t0

    def one(self):
        i = len(self.walls) % len(self.templates)
        job_id = f"h{len(self.walls)}"
        wall, done, result, times = self.daemon.job(f'"{job_id}"'.join(self.templates[i]), job_id)
        self.walls.append(wall)
        problems = []
        if done.get("status") != "done" or done.get("cached") is not True:
            problems.append(f"hit was not a cached done: {done}")
        if (result["netlist"], result["report"]) != self.refs[i]:
            problems.append("cached result differs from the cold solve's")
        self.ctx.account(f"hit {job_id}", problems)
        for gap, (a, b) in SERVE_GAPS.items():
            if a in times and b in times:
                self.gaps[gap].append(times[b] - times[a])


# Client-side event gaps of one hit, by receipt time.
SERVE_GAPS = {
    "serve.admit_s": ("submit", "accepted"),
    "serve.queue_wait_s": ("queued", "parsing"),
    "serve.netlist_stage_s": ("parsing", "parsed"),
    "serve.levels_stage_s": ("parsed", "levelized"),
    "serve.result_stage_s": ("levelized", "done"),
    "serve.fetch_s": ("request", "result"),
}


# ---------------------------------------------------------- traced runs


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(docs_on, docs_off, op_wall_s):
    """Per-layer metrics from replay documents (spans on / off) and the
    mean wall seconds of the real program's op, or None when an op runs
    no process of its own (serve). Times are per op."""
    m = {name: 0.0 for name in PER_LAYER}
    ops = [o for doc in docs_on for o in doc["ops"]]
    attributed = [lib.attribute(doc["spans"]) for doc in docs_on]
    per_op = [a for by_op in attributed for a in by_op.values()]
    n = len(per_op)
    tick = os.sysconf("SC_CLK_TCK")

    for name in SPAN_TIMES:
        m[f"{name}_s"] = sum(a["names"].get(name, 0) for a in per_op) / n / 1e9
    m["ser.cpu_s"] = sum(c for a in per_op for s, c in a["cpu"].items()
                         if s.startswith("ser.")) / tick / n
    units = sum(o["output"].get("ser_units", 0) for o in ops)
    if units:
        m["ser.ns_per_gate_frame_vector"] = (
            sum(a["names"].get(s, 0) for a in per_op for s in ("ser.simulate", "ser.odc")) / units)
    m["ser.arena_high_water_mib"] = max(o["arena_high_water_bytes"] for o in ops) / 2**20
    m["ser.signature_allocs"] = mean([o["signature_allocs"] for o in ops])
    for key in SOLVER_COUNTERS:
        m[f"solver.{key}"] = mean([o["output"].get(key, 0) for o in ops])
    for phase in SOLVER_PHASES:
        m[f"solver.{phase}_s"] = mean([o["output"].get(f"{phase}_ns", 0) for o in ops]) / 1e9
    if m["solver.solve_s"]:
        m["solver.other_s"] = m["solver.solve_s"] - sum(m[f"solver.{p}_s"] for p in SOLVER_PHASES)
    m["init.fallbacks"] = mean([o["output"].get("init_fallbacks", 0) for o in ops])

    replay_on = mean([o["wall_s"] for o in ops])
    replay_off = mean([o["wall_s"] for doc in docs_off for o in doc["ops"]])
    if op_wall_s is not None:
        m["cli.other_s"] = op_wall_s - replay_off
        m["share.cli"] = m["cli.other_s"] / op_wall_s
    m["trace.overhead_s"] = replay_on - replay_off
    m["trace.coverage"] = min(1 - a["layers"].get("other", 0) / a["wall_ns"] for a in per_op)
    # Layer shares are of the replayed op, so with `other` they sum to
    # one; the CLI's share is of the real op it was measured against.
    for layer in lib.LAYERS:
        if layer != "cli":
            own = sum(a["layers"].get(layer, 0) for a in per_op) / n / 1e9
            m[f"share.{layer}"] = own / replay_on
    return m


# Replay spans whose total time per op is the per-layer metric `<name>_s`.
SPAN_TIMES = (
    "solver.solve", "init.initialize", "ser.simulate", "ser.odc", "ser.analyze",
    "ser.propprob", "netlist.read", "netlist.levelize", "netlist.write",
    "netlist.canonical_parse", "netlist.digest", "retime.graph", "retime.apply",
    "equiv.check", "serve.decode", "serve.persist_job", "serve.cache_read",
)
# `SolverStats` counters and phase timers the replay reports per op.
SOLVER_COUNTERS = ("iterations", "commits", "closure_calls", "closure_arcs_touched",
                   "closure_skips", "violations_batched")
SOLVER_PHASES = ("check", "closure", "attribute", "commit")


def traced_cli(ctx, files, one, reference):
    """Alternates the real op with its replay (spans on, then off) for
    the run's seconds, checking that the replay's outputs equal the
    op's. Returns the per-layer metrics."""
    name = ctx.args.workload
    out_dir = ctx.work / "replay-out"
    out_dir.mkdir()
    if name == "estimate_50k":
        cmd = ["estimate", ctx.seed, THREADS[name], PHI_50K, FIXTURE_50K]
    else:
        cmd = ["solve", ctx.seed, THREADS[name], out_dir, *files]
    walls, docs_on, docs_off = [], [], []
    t_timed = time.perf_counter()
    while not walls or (time.perf_counter() - t_timed < ctx.args.seconds and ctx.time_left()):
        tag = f"op{len(walls)}"
        wall, _, problems, results = one(tag, reference)
        ctx.account(f"op {len(walls)}", problems)
        walls.append(wall)
        doc = replay(ctx, [cmd[0], "1", *cmd[1:]])
        ctx.account(f"replay {len(walls)}", replay_problems(name, doc, results))
        docs_on.append(doc)
        docs_off.append(replay(ctx, [cmd[0], "0", *cmd[1:]]))
    return layer_metrics(docs_on, docs_off, mean(walls))


def replay_problems(name, doc, results):
    """Differences between the replay's outputs and the real op's."""
    output = doc["ops"][0]["output"]
    if name == "estimate_50k":
        return [] if lib.parse_estimate(output["stdout"]) == results else [
            "replayed estimate differs from the op's"]
    problems = []
    for solve in output["solves"]:
        stem = Path(solve["file"]).stem
        if stem not in results:
            problems.append(f"{stem}: the op failed, nothing to compare")
            continue
        rec, written = results[stem]
        if lib.parse_solve(solve["stdout"]) != rec:
            problems.append(f"{stem}: replayed record differs from the op's")
        if Path(solve["out"]).read_bytes() != Path(written).read_bytes():
            problems.append(f"{stem}: replay wrote a different netlist")
    return problems


def traced_serve(ctx, daemon, hits, sources, refs):
    """Alternates a round of hits (one per circuit) with its replay
    against a copy of the daemon's cache, spans on then off; then
    replays the cold pass's cache writes into an empty cache. Returns
    the per-layer metrics."""
    submits = ctx.work / "submits.ndjson"
    submits.write_text("".join(submit_line(src, ctx.seed, f"r{i}") + "\n"
                               for i, src in enumerate(sources)))
    copy = ctx.work / "cache-replay"
    shutil.copytree(ctx.work / "cache", copy)
    docs_on, docs_off = [], []
    while not docs_on or (hits.elapsed() < ctx.args.seconds and ctx.time_left()):
        for _ in refs:
            hits.one()
        doc = replay(ctx, ["serve-hits", "1", copy, submits])
        for o, ref in zip(doc["ops"], refs):
            same = (o["output"]["netlist"], o["output"]["report"]) == ref
            ctx.account(f"replayed hit {o['id']}", [] if same else ["replayed hit differs"])
        docs_on.append(doc)
        docs_off.append(replay(ctx, ["serve-hits", "0", copy, submits]))
    daemon.send(json.dumps({"op": "stats"}))
    cache = daemon.wait_for("stats")["cache"]
    store = replay(ctx, ["serve-store", "1", copy, ctx.work / "cache-store", submits])

    # A hit runs inside the daemon: no process of its own to charge.
    m = layer_metrics(docs_on, docs_off, None)
    m["serve.store_s"] = sum(a["names"].get("serve.store", 0)
                             for a in lib.attribute(store["spans"]).values()) / 1e9
    m["serve.hit_ratio"] = cache["result_hits"] / (cache["result_hits"] + cache["result_misses"])
    for gap, values in hits.gaps.items():
        m[gap] = mean(values)
    return m


def print_layer_table(metrics):
    print(f"{'layer':<8} {'share':>7}   (cli: of the real op; the rest: of the replayed op)")
    for layer in lib.LAYERS:
        print(f"{layer:<8} {metrics[f'share.{layer}']:>7.1%}")
    print(f"spans cover {metrics['trace.coverage']:.1%} of each replayed op; "
          f"tracing overhead {metrics['trace.overhead_s'] * 1e3:.1f} ms/op")


# ------------------------------------------------------------------ main


def run_workload(args, retimer_bin, replay_bin):
    """Runs one workload. Returns (ctx, {metric: {"value", "unit"}}), or
    (ctx, None) after recording expected outputs."""
    ctx = Ctx(args, retimer_bin, replay_bin)
    try:
        metrics = serve_hit(ctx) if args.workload == "serve_hit" else cli_workload(ctx)
        if metrics is None:
            return ctx, None
        print("provenance " + json.dumps(provenance(ctx, retimer_bin)))
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if args.trace:
        print_layer_table(metrics)
    units = PER_LAYER if args.trace else END_TO_END
    return ctx, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*THREADS, "all"],
                        help="one workload, or `all` to run the four in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected/WORKLOAD.json from the set-up ops "
                             f"(seed {DEFAULT_SEED} only) and stop")
    args = parser.parse_args(argv)
    if args.update_expected and args.seed != DEFAULT_SEED:
        parser.error(f"--update-expected records seed {DEFAULT_SEED}")
    try:
        bins = build()
    except SetupError as e:
        log(f"error: {e}")
        return 2
    names = list(THREADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            ctx, metrics = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                        *bins)
        except (SetupError, OSError, RuntimeError, TimeoutError, EOFError, KeyError,
                ValueError) as e:
            log(f"error: {name}: {e}")
            return 1
        if metrics is not None:
            results[name] = (ctx, metrics)
    if not results:
        return 0
    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {f"{n}/{k}": v for n, (_, ms) in results.items() for k, v in ms.items()}
        for key, v in metrics.items():
            print(f"{key:<45} {v['value']:>14.6g} {v['unit']}")
    ctxs = [ctx for ctx, _ in results.values()]
    print(json.dumps({
        "correct": all(c.failed == 0 for c in ctxs),
        "attempted": sum(c.attempted for c in ctxs),
        "failed": sum(c.failed for c in ctxs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
