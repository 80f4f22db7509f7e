"""Pure helpers of the end-to-end benchmark: statistics, parsing and
checking of `retimer` output, span attribution, and the seeded draws
that make the inputs. Nothing here starts a process; `test_lib.py`
covers it."""

import hashlib
import math
import random
import re

# A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10

# Layer of each span-name prefix. `equiv` shares a row with `retime`;
# the root `op` span's self time is the unattributed `other` bucket.
LAYER_OF_PREFIX = {
    "netlist": "netlist",
    "retime": "retime",
    "equiv": "retime",
    "init": "init",
    "solver": "solver",
    "ser": "ser",
    "serve": "serve",
    "op": "other",
}
LAYERS = ["netlist", "retime", "init", "solver", "ser", "serve", "cli", "other"]


def tail_percentile(xs, p):
    """Nearest-rank `p`-th percentile of `xs`, refused (ValueError) when
    fewer than TAIL_MIN_BEYOND samples lie beyond it."""
    xs = sorted(xs)
    rank = max(1, math.ceil(p / 100 * len(xs)))
    beyond = len(xs) - rank
    if beyond < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{p} of {len(xs)} samples has {beyond} beyond it, "
            f"fewer than {TAIL_MIN_BEYOND}"
        )
    return xs[rank - 1]


# ---------------------------------------------------------------- inputs


def serve_circuits(seed, count=32, lo=300, hi=3000):
    """(gates, generator seed) of serve_hit's circuits. Sizes are the
    midpoints of `count` log-uniform strata of [lo, hi], the same for
    every seed, so no percentile falls on a gap and a seed cannot move
    the size mix; the seed draws each circuit's structure."""
    rng = random.Random(seed)
    return [(round(lo * (hi / lo) ** ((i + 0.5) / count)), rng.getrandbits(32))
            for i in range(count)]


# ----------------------------------------------------------- parsing


_PHI = re.compile(
    r"^Phi = (\d+) \((setup\+hold init|min-period fallback)\), R_min = (-?\d+)$"
)
_ORIGINAL = re.compile(r"^original : #FF\s+(\d+)  SER (\S+)$")
_METHOD = re.compile(
    r"^(minobs|minobswin)\s*: #FF\s+(\d+)  SER (\S+)  "
    r"\(dSER ([+-]\d+\.\d+)%, dFF ([+-]\d+\.\d+)%, \d+\.\d+s, #J (\d+)\)$"
)
_RATIO = re.compile(r"^SER_ref / SER_new = (\d+)%$")
_EQUIV = re.compile(r"^equivalence: (.+)$")


def parse_solve(text):
    """The record of one `retimer solve` stdout: every printed field
    except the solver seconds and the output path. Numbers stay the
    strings the program printed. Raises ValueError on a missing line."""
    rec = {}
    for line in text.splitlines():
        if m := _PHI.match(line):
            rec["phi"], rec["init"], rec["r_min"] = int(m[1]), m[2], int(m[3])
        elif m := _ORIGINAL.match(line):
            rec["ff"], rec["ser"] = int(m[1]), m[2]
        elif m := _METHOD.match(line):
            rec[m[1]] = {
                "ff": int(m[2]),
                "ser": m[3],
                "dser": m[4],
                "dff": m[5],
                "commits": int(m[6]),
            }
        elif m := _RATIO.match(line):
            rec["ratio"] = m[1]
        elif m := _EQUIV.match(line):
            rec["equiv"] = m[1]
    missing = {"phi", "ff", "minobs", "minobswin", "ratio", "equiv"} - rec.keys()
    if missing:
        raise ValueError(f"solve output lacks {sorted(missing)}")
    return rec


def parse_estimate(text):
    """The record of one `retimer estimate --engine analytic` stdout."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("Phi = "):
        raise ValueError("estimate output lacks the Phi line")
    m = re.match(r"^analytic\s+SER (\S+)$", lines[1])
    if not m:
        raise ValueError("estimate output lacks the analytic SER line")
    return {"phi": int(lines[0][6:]), "ser": m[1], "sites": lines[2:]}


def bench_registers(text):
    """Registers in `.bench` text, counted by its DFF lines."""
    return len(re.findall(r"=\s*DFF\s*\(", text, flags=re.IGNORECASE))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------- checking


SOLVE_INVARIANTS = ("phi", "init", "r_min", "ff")


def check_solve(rec, written, expected, seed, reference=None):
    """Problems (an empty list when correct) with one solve record.

    `written` is the netlist text the op wrote; `expected` holds the
    seed-independent invariants (`phi`, `init`, `r_min`, `ff`) and, for
    `expected["seed"]`, the whole record (None while recording them);
    `reference` is an earlier op's record in the same run, which a
    deterministic program repeats.
    """
    problems = []
    if bench_registers(written) != rec["minobswin"]["ff"]:
        problems.append(
            f"written netlist has {bench_registers(written)} registers, "
            f"report says {rec['minobswin']['ff']}"
        )
    if reference is not None and rec != reference:
        problems.append("record differs from this run's first op")
    if expected is None:
        return problems
    for key in SOLVE_INVARIANTS:
        if rec.get(key) != expected["invariants"].get(key):
            problems.append(
                f"{key} {rec.get(key)!r} != expected {expected['invariants'].get(key)!r}"
            )
    if seed == expected["seed"] and rec != expected["record"]:
        problems.append("record differs from the expected record")
    return problems


def check_estimate(rec, expected, seed, reference=None):
    """Problems with one estimate record; arguments as for check_solve."""
    problems = []
    if reference is not None and rec != reference:
        problems.append("record differs from this run's first op")
    if expected is None:
        return problems
    if rec["phi"] != expected["invariants"]["phi"]:
        problems.append(f"Phi {rec['phi']} != {expected['invariants']['phi']}")
    if not float(rec["ser"]) > 0:
        problems.append(f"SER {rec['ser']} is not positive")
    if seed == expected["seed"] and rec != expected["record"]:
        problems.append("record differs from the expected record")
    return problems


def serve_record(report, netlist):
    """What the expected outputs lock for one serve result."""
    return {"registers": report.get("registers"), "ser": report.get("ser"),
            "netlist_sha256": sha256(netlist)}


def check_serve_result(report, netlist, expected, seed):
    """Problems with one circuit's serve result; `expected` holds its
    `seed` and `record` (None while recording them)."""
    problems = []
    if bench_registers(netlist) != report.get("registers"):
        problems.append(
            f"result netlist has {bench_registers(netlist)} registers, "
            f"report says {report.get('registers')}"
        )
    if expected is not None and seed == expected["seed"]:
        want = expected["record"]
        got = serve_record(report, netlist)
        if got != want:
            problems.append(f"result {got} differs from expected {want}")
    return problems


# --------------------------------------------------------- attribution


def _union_length(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover
    (children that overlap each other are subtracted once)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    return [
        s["end_ns"] - s["start_ns"]
        - _union_length(children.get(i, []), s["start_ns"], s["end_ns"])
        for i, s in enumerate(spans)
    ]


def layer_of(name):
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


def attribute(spans):
    """Per-op attribution of a replay's spans: {op: {"wall_ns",
    "layers": {layer: self ns}, "names": {span name: total ns},
    "cpu": {span name: ticks}}}. The root `op` span's self time is the
    `other` bucket."""
    ops = {}
    for s, own in zip(spans, self_times(spans)):
        o = ops.setdefault(s["op"], {"wall_ns": 0, "layers": {}, "names": {}, "cpu": {}})
        if s["name"] == "op":
            o["wall_ns"] += s["end_ns"] - s["start_ns"]
        layer = layer_of(s["name"])
        o["layers"][layer] = o["layers"].get(layer, 0) + own
        o["names"][s["name"]] = o["names"].get(s["name"], 0) + (s["end_ns"] - s["start_ns"])
        o["cpu"][s["name"]] = o["cpu"].get(s["name"], 0) + (s["cpu_end"] - s["cpu_start"])
    return ops
