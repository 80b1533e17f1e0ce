"""Tests of the benchmark itself (not of binmat); run from the checkout root:

    python3 perfbench/selftest.py

Smoke runs of every workload check that each metric named in BENCHMARK.json
is printed with its unit; a synthetic call tree checks the self-time
arithmetic; deliberately wrong results must count as failed ops.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Advances by one second per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class SelfTimeTest(unittest.TestCase):
    def test_nested_calls(self):
        tr = tracer.Tracer(clock=FakeClock())

        def leaf():
            return 1

        leaf_t = tr.wrap(leaf, "x.leaf")

        def gen():
            yield leaf_t()
            yield leaf_t()

        gen_t = tr.wrap(gen, "x.gen")

        def outer():
            return leaf_t() + sum(gen_t())

        outer_t = tr.wrap(outer, "x.outer")
        self.assertEqual(outer_t(), 3)
        names = [tr.names[i] for i in tr.name]
        self.assertEqual(names, ["x.outer", "x.leaf", "x.gen", "x.leaf", "x.gen",
                                 "x.leaf", "x.gen"])
        self.assertEqual(list(tr.parent), [-1, 0, 0, 2, 0, 4, 0])
        # clock readings: outer opens at 1; leaf 2-3; gen next() 4-7 with
        # leaf 5-6 inside; gen 8-11 with leaf 9-10; final gen next() 12-13
        # (StopIteration); outer closes at 14.
        self.assertEqual(list(tr.start), [1, 2, 4, 5, 8, 9, 12])
        self.assertEqual(list(tr.end), [14, 3, 7, 6, 11, 10, 13])
        selfs = tr.self_times()
        self.assertEqual(selfs, [13 - 1 - 3 - 3 - 1, 1, 2, 1, 2, 1, 1])
        self.assertEqual(sum(selfs), tr.end[0] - tr.start[0])
        self.assertEqual(tr.counters["x.gen.items"], 2)
        self.assertEqual(tr.counters["x.leaf.calls"], 3)

    def test_overlapping_and_protruding_children(self):
        start = [0.0, 1.0, 2.0, 8.0]
        end = [10.0, 4.0, 5.0, 12.0]
        parent = [-1, 0, 0, 0]
        # children cover [1, 5] and [8, 10] of the parent's [0, 10]
        self.assertEqual(tracer.self_times(start, end, parent), [4.0, 3.0, 3.0, 4.0])


class WrongResultTest(unittest.TestCase):
    def _failed(self, workload, patch_owner, attr, fake):
        ops = workloads.build(workload, 0, smoke=True)
        orig = getattr(patch_owner, attr)
        setattr(patch_owner, attr, fake(orig))
        try:
            results = workloads.run_pass(ops)[0]
        finally:
            setattr(patch_owner, attr, orig)
        failed, notes = workloads.check(workload, 0, True, ops, results, workloads.load_digests())
        return failed, notes

    def test_correct_results_pass(self):
        for workload in workloads.WORKLOADS:
            ops = workloads.build(workload, 0, smoke=True)
            results = workloads.run_pass(ops)[0]
            failed, notes = workloads.check(workload, 0, True, ops, results,
                                            workloads.load_digests())
            self.assertEqual((failed, notes), (set(), []))

    def test_wrong_census_count_fails(self):
        import binmat.cli
        import binmat.hereditary as hm

        def off_by_one(orig):
            return lambda P, n: hm.CensusRow(n, orig(P, n).count + 1)

        failed, _ = self._failed("count-n5", binmat.cli, "census", off_by_one)
        ops = workloads.build("count-n5", 0, smoke=True)
        self.assertEqual({ops[i].kind for i in failed}, {"census"})

    def test_wrong_require_count_fails(self):
        import binmat.hereditary as hm

        def off_by_one(orig):
            return lambda n, k: orig(n, k) + 1  # still inside the entropy sandwich

        failed, notes = self._failed("count-n5", hm, "count_critical_at_most", off_by_one)
        ops = workloads.build("count-n5", 0, smoke=True)
        self.assertEqual({ops[i].kind for i in failed}, {"count_critical_at_most"})
        self.assertTrue(any("digest" in n for n in notes))

    def test_wrong_instance_count_fails(self):
        import binmat.cli

        def zero(orig):
            return lambda N, M: 0  # contradicts the instance found

        failed, notes = self._failed("enumerate", binmat.cli, "count_instances", zero)
        ops = workloads.build("enumerate", 0, smoke=True)
        self.assertEqual({ops[i].kind for i in failed}, {"queries"})
        self.assertTrue(any("certificate" in n for n in notes))

    def test_wrong_canonical_form_fails(self):
        import binmat.matroid as mat

        def identity(orig):
            return lambda M: M  # every labeled member becomes its own class

        failed, notes = self._failed("enumerate", mat, "canonical_form", identity)
        ops = workloads.build("enumerate", 0, smoke=True)
        self.assertEqual({ops[i].kind for i in failed}, {"isomorphism_class_census"})
        self.assertTrue(any("digest" in n for n in notes))

    def test_raising_op_fails(self):
        import binmat.cli

        def broken(orig):
            def f(*args):
                raise RuntimeError("deliberately broken")
            return f

        failed, notes = self._failed("enumerate", binmat.cli, "rooted_subspace_packing", broken)
        ops = workloads.build("enumerate", 0, smoke=True)
        self.assertEqual({ops[i].kind for i in failed}, {"pack"})
        self.assertTrue(any("raised" in n for n in notes))


class SmokeRunTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for w in spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = subprocess.run(
                        [sys.executable, *spec["command"][1:], "--workload", w["name"],
                         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
                    self.assertEqual(proc.returncode, 0)
                    lines = proc.stdout.strip().splitlines()
                    record, result = json.loads(lines[-2]), json.loads(lines[-1])
                    for key in ("python", "numpy", "nproc", "source_lines"):
                        self.assertIn(key, record)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
