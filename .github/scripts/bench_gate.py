#!/usr/bin/env python3
"""Regression gates of the CI bench jobs.

Each subcommand compares a fresh bench JSON against a committed
baseline, prints one line per compared value, and exits 1 (listing
every failure on stderr) when a gate fails:

    bench_gate.py solver BASELINE NEW         solver answers + warm closure time
    bench_gate.py solver-phases BASELINE NEW  per-phase solver time + §V init time
    bench_gate.py ser BASELINE NEW            SER arena + propprob time

BASELINE is the committed BENCH_solver.json or BENCH_ser.json; NEW is
what `retimer bench-solve` or `retimer bench-ser` just wrote. Wall-clock
on shared CI runners is noisy, so every timing gate fails only on a >2x
slowdown.
"""

import json
import sys

# The solver's answer is deterministic: on rows undegraded on both
# sides, any change of these fields of the `solve` block is a behaviour
# change, not timing noise, and fails the job.
ANSWER = ("objective_gain", "commits", "iterations", "violations_batched")
# §V init's answers are deterministic too, and no solve budget applies
# to init, so they are compared on every row.
INIT = ("phi", "r_min", "used_setup_hold")

PHASES = ("check_nanos", "closure_nanos", "attribute_nanos", "commit_nanos")
# Baseline totals under 10 ms are noise-dominated: below that,
# run-to-run noise alone crosses 2x (commit_nanos totals ~1 us and moved
# 9 -> 18 ns/iter between two baselines with no commit-phase change).
GATE_FLOOR_NANOS = 10_000_000


def rows(baseline_path, new_path):
    """Yields each circuit row of NEW with its BASELINE row (None if absent)."""
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(new_path) as f:
        fresh = json.load(f)
    base_by_name = {c["name"]: c for c in baseline["circuits"]}
    for c in fresh["circuits"]:
        yield c, base_by_name.get(c["name"])


def check_answer(c, b, failures):
    if "init" in b:
        for field in INIT:
            got, want = c["init"][field], b["init"][field]
            if got != want:
                failures.append(f"{c['name']}: init {field} changed {want} -> {got}")
    if c.get("degraded") or b.get("degraded"):
        return
    for field in ANSWER:
        got, want = c["solve"][field], b["solve"][field]
        if got != want:
            failures.append(f"{c['name']}: solve {field} changed {want} -> {got}")


def gate_solver(baseline_path, new_path):
    """Solve answer columns, §V init answers, and the warm closure time."""
    failures = []
    for c, b in rows(baseline_path, new_path):
        if b is None:
            print(f"{c['name']}: no baseline entry, skipping")
            continue
        # Degraded (budget-truncated) rows are not comparable to
        # converged ones: their counters reflect wherever the cap
        # stopped the solve. A flag mismatch means the baseline is
        # stale — regenerate it rather than diffing junk.
        got_deg, want_deg = c.get("degraded", False), b.get("degraded", False)
        if got_deg != want_deg:
            failures.append(
                f"{c['name']}: degraded flag changed {want_deg} -> {got_deg}; "
                "regenerate the committed baseline instead of comparing "
                "a truncated run against a converged one")
            continue
        check_answer(c, b, failures)
        # Informational: the warm engine's work, not gated.
        got, want = c["solve"]["closure_arcs_touched"], b["solve"]["closure_arcs_touched"]
        status = "OK" if got == want else "CHANGED"
        print(f"{c['name']}: closure_arcs_touched {want} -> {got} [{status}]")
        got = c["solve"]["closure_warm_nanos"]
        want = b["solve"]["closure_warm_nanos"]
        ratio = got / want if want else float("inf")
        print(f"{c['name']}: closure_warm_nanos {want} -> {got} ({ratio:.2f}x)")
        if want and got > 2 * want:
            failures.append(f"{c['name']}: closure_warm_nanos regressed {ratio:.2f}x (>2x)")
    return failures


def gate_solver_phases(baseline_path, new_path):
    """The >2x rule per solver phase, so a regression that hides inside
    one phase while the total stays under 2x still fails.

    Nanos are normalized per iteration so converging in a different
    number of steps does not masquerade as a phase regression. §V
    init's init_seconds gets the same >2x rule, unnormalized. Every
    phase, like init, gates only when its baseline total is at least
    GATE_FLOOR_NANOS.
    """
    failures = []
    for c, b in rows(baseline_path, new_path):
        if b is None or c.get("degraded") != b.get("degraded"):
            continue
        for phase in PHASES:
            if phase not in b["solve"]:
                print(f"{c['name']}: baseline predates {phase}, skipping")
                continue
            iters_got = max(c["solve"]["iterations"], 1)
            iters_want = max(b["solve"]["iterations"], 1)
            got = c["solve"][phase] / iters_got
            want = b["solve"][phase] / iters_want
            ratio = got / want if want else float("inf")
            print(f"{c['name']}: {phase}/iter {want:.0f} -> {got:.0f} ({ratio:.2f}x)")
            if b["solve"][phase] >= GATE_FLOOR_NANOS and got > 2 * want:
                failures.append(f"{c['name']}: {phase} regressed {ratio:.2f}x (>2x)")
        # §V init runs once per row, before the solve: compare its wall
        # time as is, under the same 10 ms floor (the samples, 300 and
        # 1k gates stay under it).
        if "init" not in b:
            print(f"{c['name']}: baseline predates init_seconds, skipping")
            continue
        got, want = c["init"]["init_seconds"], b["init"]["init_seconds"]
        ratio = got / want if want else float("inf")
        print(f"{c['name']}: init_seconds {want:.3f} -> {got:.3f} ({ratio:.2f}x)")
        if want * 1e9 >= GATE_FLOOR_NANOS and got > 2 * want:
            failures.append(f"{c['name']}: init_seconds regressed {ratio:.2f}x (>2x)")
    return failures


def gate_ser(baseline_path, new_path):
    """Size-normalized SER arena and propagation-probability times.

    A row must run the simulation size of its baseline row. Every run
    also simulates 8 warm-up frames and pays a fixed set-up, which the
    per-gate·frame·vector normalization leaves out, so rows of two
    sizes differ by more than the program does.
    """
    failures = []
    for c, b in rows(baseline_path, new_path):
        if b is None:
            print(f"{c['name']}: no baseline entry, skipping")
            continue
        size, base_size = (c["num_vectors"], c["frames"]), (b["num_vectors"], b["frames"])
        if size != base_size:
            failures.append(
                f"{c['name']}: ran {size[0]} vectors x {size[1]} frames, but the baseline "
                f"row ran {base_size[0]} vectors x {base_size[1]} frames; rerun at the "
                "baseline's size")
            continue
        got = c["ser_arena_nanos"] / (c["gates"] * c["frames"] * c["num_vectors"])
        want = b["ser_arena_nanos"] / (b["gates"] * b["frames"] * b["num_vectors"])
        ratio = got / want if want else float("inf")
        print(f"{c['name']}: ser_arena ns/g·f·v {want:.3f} -> {got:.3f} ({ratio:.2f}x)")
        if want and got > 2 * want:
            failures.append(f"{c['name']}: ser_arena_nanos regressed {ratio:.2f}x (>2x)")
        # The propagation-probability backward pass is
        # vector-independent, so normalize by gates x frames only.
        got_pp = c["ser_propprob_nanos"] / (c["gates"] * c["frames"])
        want_pp = b["ser_propprob_nanos"] / (b["gates"] * b["frames"])
        pp_ratio = got_pp / want_pp if want_pp else float("inf")
        print(f"{c['name']}: propprob ns/g·f {want_pp:.3f} -> {got_pp:.3f} ({pp_ratio:.2f}x)")
        if want_pp and got_pp > 2 * want_pp:
            failures.append(f"{c['name']}: ser_propprob_nanos regressed {pp_ratio:.2f}x (>2x)")
    return failures


GATES = {"solver": gate_solver, "solver-phases": gate_solver_phases, "ser": gate_ser}


def main(argv):
    if len(argv) != 4 or argv[1] not in GATES:
        print(__doc__, file=sys.stderr)
        return 2
    failures = GATES[argv[1]](argv[2], argv[3])
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
