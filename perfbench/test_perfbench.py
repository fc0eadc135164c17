"""The benchmark's own tests: python3 perfbench/test_perfbench.py"""

import json
import math
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import lib  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_known_nested_trace(self):
        # root [0,100) holds a [10,40) and b [50,90); a holds c [15,25) and
        # d [20,35), which overlap; b holds e [80,95), which runs past b.
        spans = [
            ("root", 0, 100, -1, -1),
            ("a", 10, 40, 0, 1),
            ("c", 15, 25, 1, 1),
            ("d", 20, 35, 1, 1),
            ("b", 50, 90, 0, 2),
            ("e", 80, 95, 4, 2),
            ("a", 200, 210, -1, 3),
        ]
        got = lib.self_times(spans)
        self.assertEqual(got["root"], {"count": 1, "self_ns": 100 - 30 - 40})
        # c and d cover [15,35): 20 of a's 30; the second a has no children.
        self.assertEqual(got["a"], {"count": 2, "self_ns": 10 + 10})
        self.assertEqual(got["c"]["self_ns"], 10)
        self.assertEqual(got["d"]["self_ns"], 15)
        # Only e's part inside b, [80,90), is subtracted.
        self.assertEqual(got["b"]["self_ns"], 30)
        self.assertEqual(got["e"]["self_ns"], 15)

    def test_queue_waits_pair_enqueue_and_release_per_request(self):
        spans = [
            ("defense.enqueue", 0, 1000, 0, 7),
            ("defense.enqueue", 0, 1500, 0, 8),
            ("defense.next", 2000, 3000, 0, 8),
            ("defense.next", 3000, 4000, 0, 7),
            ("defense.next", 4000, 4100, 0, -1),
        ]
        self.assertEqual(sorted(lib.queue_waits_us(spans)), [1.5, 3.0])

    def test_ledger(self):
        self.assertAlmostEqual(lib.ledger({"a": 300.0, "b": 500.0}, 1000.0), 0.2)
        self.assertAlmostEqual(lib.ledger({"a": 1200.0}, 1000.0), -0.2)
        self.assertIsNone(lib.ledger({"a": 1.0}, 0.0))


class SteppedMaxTest(unittest.TestCase):
    @staticmethod
    def curve(capacity):
        # Synthetic latency curve: p99 grows as 1 / (1 - load) and crosses
        # 1 ms at 95% of `capacity`.
        def p99_us(rate):
            load = rate / capacity
            return math.inf if load >= 1 else 50.0 / (1.0 - load)
        return p99_us

    def trial_for(self, capacity):
        p99 = self.curve(capacity)

        def trial(rate):
            step = {"p99_us": p99(rate), "fail_ratio": 0.0, "late_p90_us": 1.0}
            return lib.step_passes(step, {"p99_us": 1000.0, "fail_ratio": 0.001,
                                          "late_p90_us": 250.0})
        return trial

    def test_climbs_then_bisects_below_the_limit(self):
        best, steps = lib.stepped_max(10000, self.trial_for(100000))
        # p99 = 1 ms at 95k; coarse steps 10k..74.5k pass, 93.1k passes,
        # 116.4k fails, then three bisections land within 1.25^(1/8).
        self.assertLessEqual(best, 95000)
        self.assertGreater(best, 95000 / 1.25 ** (1 / 8))
        self.assertTrue(all(ok for rate, ok in steps if rate <= best))
        self.assertTrue(all(not ok for rate, ok in steps if rate > best))

    def test_descends_when_the_start_fails(self):
        best, steps = lib.stepped_max(100000, self.trial_for(50000))
        self.assertFalse(steps[0][1])
        self.assertLessEqual(best, 47500)
        self.assertGreater(best, 47500 / 1.25 ** (1 / 8))

    def test_step_budget_is_respected(self):
        _best, steps = lib.stepped_max(1000, self.trial_for(10 ** 9), max_steps=5)
        self.assertEqual(len(steps), 5)

    def test_lateness_and_failures_fail_a_step(self):
        limits = {"p99_us": 1000.0, "fail_ratio": 0.001, "late_p90_us": 250.0}
        ok = {"p99_us": 100.0, "fail_ratio": 0.0, "late_p90_us": 10.0}
        self.assertTrue(lib.step_passes(ok, limits))
        self.assertFalse(lib.step_passes(dict(ok, late_p90_us=300.0), limits))
        self.assertFalse(lib.step_passes(dict(ok, fail_ratio=0.002), limits))
        self.assertFalse(lib.step_passes(dict(ok, p99_us=None), limits))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_sample_count(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        got = lib.summarize(values)
        self.assertEqual(got, {"n": 100, "p50": 50, "p99": 99})
        self.assertEqual(lib.percentile([7], 99), 7)
        self.assertIsNone(lib.percentile([], 50))
        self.assertEqual(lib.summarize([])["n"], 0)

    def test_failures_count_as_infinitely_late(self):
        values = [1.0] * 98
        self.assertEqual(lib.windowed(values, 99, 1, failures=2), math.inf)
        self.assertEqual(lib.windowed(values, 99, 1, failures=0), 1.0)
        # Spread over the slices, not piled into one.
        self.assertEqual(lib.windowed([1.0] * 800, 99, 8, failures=8, q=50), 1.0)

    def test_windowed_reads_the_quiet_slices(self):
        # Eight slices of 100 samples; three of them hold a 50 ms stall.
        values = [10.0] * 800
        for start in (100, 300, 600):
            values[start:start + 100] = [50000.0] * 100
        self.assertEqual(lib.percentile(values, 50), 10.0)
        self.assertEqual(lib.percentile(values, 99), 50000.0)
        self.assertEqual(lib.windowed(values, 99, 8), 10.0)
        self.assertEqual(lib.windowed(values, 99, 8, q=50), 10.0)
        self.assertEqual(lib.windowed(values, 99, 8, q=75), 50000.0)

    def test_windowed_sees_a_slowdown_of_every_slice(self):
        base = [10.0 + (i % 7) for i in range(800)]
        slower = [v + 5.0 for v in base]
        self.assertEqual(lib.windowed(slower, 50, 8) - lib.windowed(base, 50, 8), 5.0)


class OutputTest(unittest.TestCase):
    def setUp(self):
        self.spec = lib.load_spec()

    def test_result_names_every_metric_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            values = {m["name"]: 1.5 for m in self.spec[group]}
            line = lib.result_line(self.spec, trace, True, 10, 0, values)
            got = json.loads(line)
            self.assertEqual(set(got), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual({k: v["unit"] for k, v in got["metrics"].items()},
                             {m["name"]: m["unit"] for m in self.spec[group]})

    def test_missing_or_nonfinite_metric_is_an_error(self):
        values = {m["name"]: 1.0 for m in self.spec["end_to_end"]}
        del values["setup_s"]
        with self.assertRaises(KeyError):
            lib.result_line(self.spec, 0, True, 1, 0, values)
        values["setup_s"] = math.inf
        with self.assertRaises(ValueError):
            lib.result_line(self.spec, 0, True, 1, 0, values)

    def test_run_computes_every_spec_metric(self):
        with open(os.path.join(HERE, "run.py")) as f:
            source = f.read()
        produced = set(re.findall(r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)?)":', source))
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertIn(m["name"], produced, m["name"])

    def test_end_to_end_contract(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        self.assertIn("setup_s", names)
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
