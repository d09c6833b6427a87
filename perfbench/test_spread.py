"""Tests of the quartile maths in spread.py and of BENCHMARK.json's shape.

    python3 -m unittest discover -s perfbench
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import spread

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpreadMaths(unittest.TestCase):
    def test_interquartile_spread(self):
        # Exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5.
        self.assertAlmostEqual(spread.spread(list(range(1, 11))), 1.0)
        self.assertEqual(spread.spread([4.0] * 10), 0.0)
        values = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread.spread(values), (q3 - q1) / median)

    def test_worse_by_follows_the_better_direction(self):
        self.assertAlmostEqual(spread.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(spread.worse_by(100.0, 110.0, "higher"), -0.1)
        self.assertAlmostEqual(spread.worse_by(2.0, 1.5, "higher"), 0.25)

    def test_check_flags_wide_spreads_and_regressions(self):
        bench = {"end_to_end": [
            {"name": "minsts_per_s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
        ]}
        steady = {"w": {"minsts_per_s": [1.0, 1.01, 0.99, 1.0, 1.0],
                        "setup_s": [1.0, 3.0, 1.0, 5.0, 1.0]}}
        lines, ok = spread.check(steady, bench)
        self.assertTrue(ok, lines)  # setup_s may spread
        wide = {"w": {"minsts_per_s": [1.0, 2.0, 1.0, 2.0, 1.5], "setup_s": [1.0] * 5}}
        self.assertFalse(spread.check(wide, bench)[1])
        slower = {"w": {"minsts_per_s": [0.8] * 5, "setup_s": [1.0] * 5}}
        self.assertFalse(spread.check(slower, bench, earlier=steady)[1])
        self.assertTrue(spread.check(steady, bench, earlier=slower)[1])


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.text = (ROOT / "BENCHMARK.json").read_text()
        self.bench = json.loads(self.text)

    def test_top_level_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)
        self.assertTrue(1 <= len(b["command"]) <= 32)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for path in b["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for workload in b["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])

    def test_metric_names_units_and_bounds(self):
        b = self.bench
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for metric in b["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25, metric)
        for metric in b["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
