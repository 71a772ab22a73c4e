"""Tests for the benchmark's own arithmetic.

    python3 perfbench/test_perfbench.py          # from the repository root

The last test builds the repository and runs every workload traced twice
with one seed (about a minute on two cores).
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


def span(sid, parent, name, t0, t1):
    return {"id": sid, "parent": parent, "op": 0, "name": name, "t0": t0, "t1": t1}


class Percentile(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(99)), 0.9)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(19)), 0.5)

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile(list(range(100)), 0.9), 89)
        self.assertEqual(stats.percentile(list(range(20)), 0.5), 9)
        self.assertEqual(stats.percentile(list(range(200, 0, -1)), 0.9), 180)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            span(0, -1, "plan", 0, 100),
            span(1, 0, "a", 10, 40),
            span(2, 0, "b", 30, 60),   # overlaps a: the union counts once
            span(3, 0, "c", 90, 120),  # runs past its parent: clipped at 100
            span(4, 1, "d", 15, 20),   # a grandchild: only a loses it
            span(5, 1, "e", 18, 25),   # overlaps its sibling d
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[0], 100 - (60 - 10) - (100 - 90))
        self.assertEqual(selfs[1], 30 - (25 - 15))
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[4], 5)

    def test_child_covering_parent(self):
        selfs = stats.self_times([span(0, -1, "p", 5, 10), span(1, 0, "c", 0, 20)])
        self.assertEqual(selfs[0], 0)

    def test_span_stats_sums_self_per_name(self):
        spans = [span(0, -1, "op", 0, 10), span(1, 0, "x", 2, 4),
                 span(2, -1, "op", 20, 26), span(3, 2, "x", 20, 26)]
        self.assertEqual(stats.span_stats(spans), {"op": (2, 8), "x": (2, 8)})

    def test_obs_tree(self):
        lookup = {"name": "cache_lookup", "count": 2, "total_ns": 20, "children": []}
        build = {"name": "cache_build", "count": 2, "total_ns": 70, "children": [lookup]}
        report = {"spans": [
            {"name": "core_build", "count": 1, "total_ns": 100, "children": [build]}]}
        self.assertEqual(stats.obs_self_ns(report),
                         {"core_build": 30, "cache_build": 50, "cache_lookup": 20})


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        import run
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         stats.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (workload, out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


class Counts(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        for workload in ("verify-tables", "sweep-solver", "reduction-lockstep",
                         "serve-closed"):
            first, second = traced_run(workload, 5), traced_run(workload, 5)
            self.assertTrue(first["correct"] and second["correct"], workload)
            self.assertEqual(set(first["metrics"]), {n for n, _ in stats.PER_LAYER})
            for name in stats.DETERMINISTIC:
                self.assertEqual(first["metrics"][name], second["metrics"][name],
                                 "%s %s" % (workload, name))


if __name__ == "__main__":
    unittest.main()
