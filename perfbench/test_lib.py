"""Self-tests of the benchmark's helpers:

    python3 -m unittest discover -s perfbench
"""

import copy
import json
import unittest
from pathlib import Path

import lib
import run

HERE = Path(__file__).resolve().parent


def expected(workload):
    return json.loads((HERE / "expected" / f"{workload}.json").read_text())


def bench_with_registers(n):
    return "INPUT(a)\nOUTPUT(q0)\n" + "".join(f"q{i} = DFF(a)\n" for i in range(n))


SOLVE_STDOUT = """\
Phi = 3287 (setup+hold init), R_min = 2
original : #FF   2000  SER 1.8135e-3
minobs   : #FF   1882  SER 1.5096e-3  (dSER -16.76%, dFF -5.90%, 1.599s, #J 3)
minobswin: #FF   1861  SER 1.5284e-3  (dSER -15.72%, dFF -6.95%, 1.531s, #J 3)
SER_ref / SER_new = 99%
equivalence: INCONCLUSIVE (Mismatch(Mismatch { cycle: 0, output: 6, name: "n9030%out", \
differing_vectors: 62 })) — likely an initial-state phase difference; inspect before signoff
wrote out.bench
"""


class Percentiles(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        for n in range(1, 100):
            with self.assertRaises(ValueError, msg=f"{n} samples"):
                lib.tail_percentile(range(n), 90)

    def test_ten_beyond_is_accepted(self):
        self.assertEqual(lib.tail_percentile(range(1, 101), 90), 90)
        self.assertEqual(lib.tail_percentile(range(1, 21), 50), 10)
        with self.assertRaises(ValueError):
            lib.tail_percentile(range(1, 20), 50)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(start, end, parent):
        return {"start_ns": start, "end_ns": end, "parent": parent}

    def test_overlapping_children_subtracted_once(self):
        spans = [
            self.span(0, 100, None),
            self.span(10, 50, 0),
            self.span(30, 70, 0),  # overlaps the first child by 20
            self.span(80, 90, 0),
        ]
        self.assertEqual(lib.self_times(spans), [100 - 60 - 10, 40, 40, 10])

    def test_children_clipped_to_parent_and_nesting(self):
        spans = [
            self.span(0, 100, None),
            self.span(90, 120, 0),  # runs past its parent's end
            self.span(95, 100, 1),
        ]
        self.assertEqual(lib.self_times(spans), [90, 25, 5])

    def test_attribute_puts_root_self_time_in_other(self):
        spans = [
            dict(self.span(0, 100, None), name="op", op=0, cpu_start=0, cpu_end=0),
            dict(self.span(0, 60, 0), name="solver.solve", op=0, cpu_start=0, cpu_end=0),
            dict(self.span(60, 90, 0), name="equiv.check", op=0, cpu_start=0, cpu_end=0),
        ]
        a = lib.attribute(spans)[0]
        self.assertEqual(a["wall_ns"], 100)
        self.assertEqual(a["layers"], {"other": 10, "solver": 60, "retime": 30})


class ServeDraw(unittest.TestCase):
    def test_reproducible_for_a_seed(self):
        self.assertEqual(lib.serve_circuits(7), lib.serve_circuits(7))
        self.assertNotEqual(lib.serve_circuits(7), lib.serve_circuits(8))

    def test_sizes_one_per_log_stratum_for_every_seed(self):
        sizes = [g for g, _ in lib.serve_circuits(0)]
        self.assertEqual(len(sizes), 32)
        for i, g in enumerate(sizes):
            self.assertLess(300 * 10 ** (i / 32), g)
            self.assertLess(g, 300 * 10 ** ((i + 1) / 32))
        for seed in range(1, 20):
            self.assertEqual([g for g, _ in lib.serve_circuits(seed)], sizes)


class OutputChecks(unittest.TestCase):
    def test_parse_solve_drops_seconds_and_path(self):
        rec = lib.parse_solve(SOLVE_STDOUT)
        self.assertEqual(rec["phi"], 3287)
        self.assertEqual(rec["minobswin"], {
            "ff": 1861, "ser": "1.5284e-3", "dser": "-15.72", "dff": "-6.95", "commits": 3})
        self.assertEqual(rec, lib.parse_solve(SOLVE_STDOUT.replace("1.531s", "9.999s")))
        with self.assertRaises(ValueError):
            lib.parse_solve("Phi = 1 (setup+hold init), R_min = 2\n")

    def test_committed_solve_record_passes(self):
        for workload in ("solve_10k", "table1"):
            exp = expected(workload)
            for stem, c in exp["circuits"].items():
                want = dict(c, seed=exp["seed"])
                written = bench_with_registers(c["record"]["minobswin"]["ff"])
                self.assertEqual(
                    lib.check_solve(c["record"], written, want, exp["seed"], c["record"]), [],
                    stem)

    def test_corrupted_expected_value_fails_the_op(self):
        exp = expected("solve_10k")
        c = exp["circuits"]["generated_10k"]
        written = bench_with_registers(c["record"]["minobswin"]["ff"])
        for path in (("record", "minobswin", "ser"), ("record", "equiv"),
                     ("invariants", "phi"), ("record", "minobs", "commits")):
            bad = copy.deepcopy(c)
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = "corrupted"
            problems = lib.check_solve(c["record"], written, dict(bad, seed=exp["seed"]),
                                       exp["seed"])
            self.assertTrue(problems, path)

    def test_invariants_checked_on_every_seed(self):
        exp = expected("solve_10k")
        c = copy.deepcopy(exp["circuits"]["generated_10k"])
        rec = copy.deepcopy(c["record"])
        written = bench_with_registers(rec["minobswin"]["ff"])
        other_seed = exp["seed"] + 1
        self.assertEqual(lib.check_solve(rec, written, dict(c, seed=exp["seed"]), other_seed), [])
        c["invariants"]["r_min"] += 1
        self.assertTrue(lib.check_solve(rec, written, dict(c, seed=exp["seed"]), other_seed))

    def test_register_count_and_determinism_checked(self):
        exp = expected("solve_10k")
        c = exp["circuits"]["generated_10k"]
        rec = c["record"]
        want = dict(c, seed=exp["seed"])
        short = bench_with_registers(rec["minobswin"]["ff"] - 1)
        self.assertTrue(lib.check_solve(rec, short, want, exp["seed"]))
        other = copy.deepcopy(rec)
        other["minobs"]["commits"] += 1
        written = bench_with_registers(rec["minobswin"]["ff"])
        self.assertTrue(lib.check_solve(rec, written, None, exp["seed"], other))

    def test_corrupted_estimate_and_serve_values_fail(self):
        exp = expected("estimate_50k")
        self.assertEqual(lib.check_estimate(exp["record"], exp, exp["seed"]), [])
        bad = copy.deepcopy(exp)
        bad["record"]["sites"][0] = "corrupted"
        self.assertTrue(lib.check_estimate(exp["record"], bad, exp["seed"]))

        exp = expected("serve_hit")
        want = exp["circuits"][0]
        netlist = bench_with_registers(want["registers"])
        report = {"registers": want["registers"], "ser": want["ser"]}
        want = dict(want, netlist_sha256=lib.sha256(netlist))
        self.assertEqual(
            lib.check_serve_result(report, netlist, {"seed": 1, "record": want}, 1), [])
        bad = dict(want, ser=want["ser"] * 2)
        self.assertTrue(lib.check_serve_result(report, netlist, {"seed": 1, "record": bad}, 1))


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.THREADS))


if __name__ == "__main__":
    unittest.main()
