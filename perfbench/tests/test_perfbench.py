"""Self-tests of the moqo benchmark.

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark if needed (like perfbench/run.py does) and run
each workload at the tiny input size, so the whole suite takes well under
a minute after the build.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import stats  # noqa: E402

_binary = None


def binary():
    global _binary
    if _binary is None:
        _binary = run.build()
        if _binary is None:
            raise RuntimeError("benchmark build failed")
    return _binary


class OrderStatTest(unittest.TestCase):
    def test_median_is_nearest_rank(self):
        self.assertEqual(stats.order_stat([3, 1, 2], 50), (2, 200.0 / 3, 3))
        self.assertEqual(stats.order_stat([4, 1, 3, 2], 50)[0], 2)
        self.assertEqual(stats.order_stat([7], 50), (7, 100.0, 1))

    def test_tail_is_an_order_statistic(self):
        samples = list(range(1, 1001))  # 1..1000
        value, used, n = stats.order_stat(samples, 99)
        self.assertEqual((value, used, n), (990, 99.0, 1000))
        self.assertIn(value, samples)
        self.assertEqual(stats.order_stat(samples, 90)[0], 900)

    def test_tail_keeps_ten_samples_beyond(self):
        samples = list(range(1, 201))  # 1..200: p99 would leave 2 beyond
        value, used, n = stats.order_stat(samples, 99)
        self.assertEqual(value, 190)
        self.assertEqual(used, 95.0)
        self.assertEqual(n - 190, stats.MIN_BEYOND)

    def test_small_samples_fall_back_to_the_median(self):
        self.assertEqual(stats.order_stat(list(range(1, 16)), 99)[0], 8)
        self.assertEqual(stats.order_stat([], 99), (0.0, 99, 0))

    def test_order_does_not_matter(self):
        self.assertEqual(stats.order_stat([5, 9, 1, 7, 3], 50),
                         stats.order_stat([1, 3, 5, 7, 9], 50))


class InputStreamTest(unittest.TestCase):
    def stream_hash(self, workload, seed):
        done = subprocess.run(
            [binary(), "--mode", "hash", "--workload", workload, "--seed", str(seed),
             "--size", "tiny"], stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(done.stdout)["hash"]

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.stream_hash(workload, 11)
                self.assertEqual(first, self.stream_hash(workload, 11))
                self.assertNotEqual(first, self.stream_hash(workload, 12))


class CheckerTest(unittest.TestCase):
    def test_checkers_reject_a_tampered_frontier(self):
        done = subprocess.run([binary(), "--mode", "selftest"],
                              stdout=subprocess.PIPE, text=True)
        verdict = json.loads(done.stdout)
        self.assertTrue(verdict["accepts_untampered"])
        self.assertTrue(verdict["bit_identity_rejects_tamper"])
        self.assertTrue(verdict["coverage_rejects_tamper"])
        self.assertEqual(done.returncode, 0)


class SmokeTest(unittest.TestCase):
    """Each workload at the tiny size emits every metric BENCHMARK.json
    names, with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_workload(self, workload, trace):
        binary()
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(done.returncode, 0, done.stdout)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_metric_lists_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, wanted in ((0, self.spec["end_to_end"]), (1, self.spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_workload(workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
                    for metric in wanted:
                        got = result["metrics"][metric["name"]]
                        self.assertEqual(got["unit"], metric["unit"])
                        self.assertIsInstance(got["value"], float)


if __name__ == "__main__":
    unittest.main()
