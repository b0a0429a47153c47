"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

The smoke tests build the benchmark binary (first run: about a minute) and run every
workload, untraced and traced, on tiny inputs.
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN_PY = os.path.join(BENCH_DIR, "run.py")

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class QuantileTest(unittest.TestCase):
    def test_median_matches_statistics(self):
        for samples in ([3.0], [2.0, 1.0], [5.0, 1.0, 4.0], [1.5, 9.0, 2.0, 7.5, 3.0, 3.0]):
            self.assertAlmostEqual(run.median(samples), statistics.median(samples))

    def test_quantile_interpolates(self):
        samples = list(range(1, 201))  # 1..200
        self.assertAlmostEqual(run.quantile(samples, 0.0), 1)
        self.assertAlmostEqual(run.quantile(samples, 1.0), 200)
        self.assertAlmostEqual(run.quantile(samples, 0.95), 1 + 0.95 * 199)
        self.assertAlmostEqual(run.quantile([4.0, 1.0, 3.0, 2.0], 0.25), 1.75)

    def test_quantile_of_empty_sample_raises(self):
        with self.assertRaises(ValueError):
            run.quantile([], 0.5)

    def test_highest_supported_quantile_needs_ten_samples_beyond(self):
        cases = [(200, 0.95, 0.95), (1000, 0.95, 0.95), (1000, 0.999, 0.99),
                 (100, 0.95, 0.90), (50, 0.95, 0.80), (20, 0.95, 0.5), (19, 0.95, 0.5),
                 (5, 0.95, 0.5), (1, 0.95, 0.5)]
        for n, wanted, expected in cases:
            with self.subTest(n=n, wanted=wanted):
                q = run.highest_supported_quantile(n, wanted)
                self.assertAlmostEqual(q, expected)
                if q > 0.5:
                    self.assertGreaterEqual(n * (1 - q), run.MIN_TAIL - 1e-9)

    def test_end_to_end_reports_supported_percentiles(self):
        churn = [float(i) for i in range(1, 101)]  # 100 samples: p90 is the highest
        rates = [float(i) for i in range(100, 0, -1)]
        series = {"setup_s": [0.5, 0.7, 0.6]}
        for h in run.HOSTS:
            series[f"{h}.churn_ms"] = churn
            for mode in ("ext", "native"):
                series[f"{h}.{mode}_routes_per_s"] = [10.0, 30.0, 20.0]
        series["fir.ext_routes_per_s"] = rates
        metrics, notes = run.end_to_end({"series": series, "values": {"peak_rss_mb": 9.0}})
        self.assertAlmostEqual(metrics["fir.churn_p75_ms"][0], run.quantile(churn, 0.75))
        self.assertAlmostEqual(metrics["fir.churn_p95_ms"][0], run.quantile(churn, 0.9))
        self.assertAlmostEqual(notes["fir.churn_p95_quantile"], 0.9)
        self.assertEqual(notes["fir.churn_samples"], 100)
        # 100 feeds: the rate 90% of them reach, with ten feeds below it.
        self.assertAlmostEqual(metrics["fir.ext_routes_per_s"][0], run.quantile(rates, 0.1))
        self.assertAlmostEqual(notes["fir.ext_routes_per_s.feed_share"], 0.9)
        self.assertAlmostEqual(notes["fir.ext_routes_per_s.median"], 50.5)
        # Three feeds support no percentile beyond the median.
        self.assertAlmostEqual(metrics["wren.ext_routes_per_s"][0], 20.0)
        self.assertAlmostEqual(metrics["setup_s"][0], 0.6)


class SpecTest(unittest.TestCase):
    def test_metric_names_are_valid_and_unique(self):
        spec = load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(run.valid_name(name), name)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))

    def test_name_validator_rejects_bad_names(self):
        for bad in ("", ".x", "a b", "a/b", "x" * 65, "p95{host}"):
            self.assertFalse(run.valid_name(bad), bad)

    def test_workloads_and_bounds(self):
        spec = load_spec()
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertLessEqual(m["bound"], setup[0]["bound"])


class SmokeTest(unittest.TestCase):
    """Every workload on tiny inputs: every declared metric is emitted and
    nothing failed."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, RUN_PY, "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        self.assertGreaterEqual(len(lines), 2, proc.stdout)
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        self.assertEqual(proc.returncode, 0, record["problems"])
        return record, result

    def test_every_workload(self):
        spec = load_spec()
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    record, result = self.run_bench(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(record["failed_frac"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in spec[key]}
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)
                    if trace == 0:
                        for name, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, name)
                    self.assertIn(record["host"]["fir.jit"], ("compiled", "declined"))
                    self.assertTrue(record["host"]["cpu_model"])


if __name__ == "__main__":
    unittest.main()
