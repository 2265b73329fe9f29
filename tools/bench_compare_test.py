"""Unit tests for tools/bench_compare.py; they run no benchmark.

  python3 -m unittest discover -s tools -p "bench_compare_test.py"
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "cpu_us_per_req", "unit": "us", "better": "lower", "bound": 0.2},
        {"name": "ok_frac", "unit": "share", "better": "higher", "bound": 0.01},
        {"name": "pipeline_ref_s", "unit": "ref_s", "better": "lower", "bound": 0.25},
    ]
}


def run_line(correct=True, **metrics):
    """A perfbench result line with the given metric values."""
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": 0,
        "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
    })


class ParseRunTest(unittest.TestCase):
    def test_takes_the_last_result_line_of_a_log(self):
        log = "\n".join(["report line", run_line(cpu_us_per_req=1.0), "{not json",
                         run_line(cpu_us_per_req=2.0), "trailing words", ""])
        self.assertEqual(bench_compare.parse_run(log)["metrics"]["cpu_us_per_req"]["value"], 2.0)

    def test_ignores_json_lines_without_metrics(self):
        log = run_line(ok_frac=1.0) + "\n" + json.dumps({"checked": 3})
        self.assertEqual(bench_compare.parse_run(log)["metrics"]["ok_frac"]["value"], 1.0)

    def test_reads_the_host_reference_from_the_report(self):
        log = "  host reference: 61.496 ms per repetition (median of 16 samples)\n" + run_line(a=1.0)
        run = bench_compare.parse_run(log)
        self.assertEqual(run["metrics"]["host.ref_ms"], {"value": 61.496, "unit": "ms"})
        # A traced run's own metric wins over the report line.
        traced = bench_compare.parse_run("host reference: 9 ms per repetition\n" +
                                         run_line(**{"host.ref_ms": 58.0}))
        self.assertEqual(traced["metrics"]["host.ref_ms"]["value"], 58.0)

    def test_rejects_output_without_a_result(self):
        with self.assertRaises(ValueError):
            bench_compare.parse_run("build failed\n")


class VerdictTest(unittest.TestCase):
    LOWER = {"name": "m", "better": "lower", "bound": 0.2}
    HIGHER = {"name": "m", "better": "higher", "bound": 0.01}

    def test_lower_is_better(self):
        self.assertEqual(bench_compare.verdict(self.LOWER, 100.0, 119.0)[0], "ok")
        self.assertEqual(bench_compare.verdict(self.LOWER, 100.0, 121.0)[0], "worse")
        self.assertEqual(bench_compare.verdict(self.LOWER, 100.0, 79.0)[0], "better")
        self.assertAlmostEqual(bench_compare.verdict(self.LOWER, 100.0, 121.0)[1], 0.21)

    def test_higher_is_better(self):
        self.assertEqual(bench_compare.verdict(self.HIGHER, 1.0, 0.995)[0], "ok")
        self.assertEqual(bench_compare.verdict(self.HIGHER, 1.0, 0.98)[0], "worse")
        self.assertEqual(bench_compare.verdict(self.HIGHER, 0.5, 0.6)[0], "better")

    def test_equal_missing_and_zero_baselines(self):
        self.assertEqual(bench_compare.verdict(self.LOWER, 3.0, 3.0), ("ok", 0.0))
        self.assertEqual(bench_compare.verdict(self.LOWER, None, 3.0)[0], "missing")
        self.assertEqual(bench_compare.verdict(self.LOWER, 3.0, None)[0], "missing")
        self.assertEqual(bench_compare.verdict(self.LOWER, 0.0, 0.1)[0], "worse")
        self.assertEqual(bench_compare.verdict(self.HIGHER, 0.0, 0.1)[0], "better")


class MedianTest(unittest.TestCase):
    def test_median_per_metric_over_the_runs_that_have_it(self):
        runs = [json.loads(run_line(a=1.0, b=5.0)), json.loads(run_line(a=3.0)),
                json.loads(run_line(a=2.0, b=7.0))]
        medians = bench_compare.median_metrics(runs)
        self.assertEqual(medians["a"]["value"], 2.0)
        self.assertEqual(medians["b"]["value"], 6.0)
        self.assertEqual(medians["a"]["unit"], "u")


class CommandLineTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.benchmark = self.write("BENCHMARK.json", json.dumps(BENCHMARK))

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def runs(self, prefix, cpu_values, ok=1.0, pipeline=0.4):
        return [self.write("%s%d.txt" % (prefix, i),
                           "log\n" + run_line(cpu_us_per_req=cpu, ok_frac=ok,
                                              pipeline_ref_s=pipeline, **{"host.ref_ms": 50.0 + i}))
                for i, cpu in enumerate(cpu_values)]

    def main(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_compare.main(list(argv))
        return code, out.getvalue()

    def test_record_appends_median_entries(self):
        trajectory = os.path.join(self.dir.name, "BENCH_serve_miss.json")
        self.main("record", "--out", trajectory, "--workload", "serve_miss", "--sha", "aaa",
                  "--seeds", "1,2,3", *self.runs("p", [10.0, 30.0, 20.0]))
        self.main("record", "--out", trajectory, "--workload", "serve_miss", "--sha", "bbb",
                  "--label", "next", *self.runs("c", [5.0, 6.0, 7.0]))
        with open(trajectory) as f:
            data = json.load(f)
        self.assertEqual(data["workload"], "serve_miss")
        first, second = data["trajectory"]
        self.assertEqual(first["git_sha"], "aaa")
        self.assertEqual(first["seeds"], [1, 2, 3])
        self.assertEqual(first["nproc"], os.cpu_count())
        self.assertEqual(first["runs"], 3)
        self.assertTrue(first["all_correct"])
        self.assertEqual(first["host.ref_ms"], 51.0)
        self.assertEqual(first["metrics"]["cpu_us_per_req"]["value"], 20.0)
        self.assertEqual(second["label"], "next")
        self.assertEqual(second["metrics"]["cpu_us_per_req"]["value"], 6.0)

    def test_record_needs_three_runs_and_one_workload(self):
        trajectory = os.path.join(self.dir.name, "BENCH.json")
        with self.assertRaises(SystemExit):
            self.main("record", "--out", trajectory, "--workload", "w", "--sha", "a",
                      *self.runs("p", [1.0, 2.0]))
        self.main("record", "--out", trajectory, "--workload", "w", "--sha", "a",
                  *self.runs("p", [1.0, 2.0, 3.0]))
        with self.assertRaises(SystemExit):
            self.main("record", "--out", trajectory, "--workload", "other", "--sha", "b",
                      *self.runs("q", [1.0, 2.0, 3.0]))

    def test_compare_prints_a_verdict_per_metric_and_fails_on_worse(self):
        trajectory = os.path.join(self.dir.name, "BENCH.json")
        self.main("record", "--out", trajectory, "--workload", "w", "--sha", "parent",
                  *self.runs("p", [100.0, 100.0, 100.0]))
        code, out = self.main("compare", "--baseline", trajectory, "--benchmark",
                              self.benchmark, *self.runs("c", [110.0, 90.0, 105.0]))
        self.assertEqual(code, 0)
        lines = out.strip().splitlines()
        self.assertEqual(len(lines), 1 + len(BENCHMARK["end_to_end"]))
        self.assertTrue(lines[1].startswith("cpu_us_per_req"))
        self.assertIn(" ok ", lines[1])
        code, out = self.main("compare", "--baseline", trajectory, "--benchmark",
                              self.benchmark, *self.runs("w", [130.0, 125.0, 140.0], ok=0.9))
        self.assertEqual(code, 1)
        self.assertIn("worse", out.splitlines()[1])
        self.assertIn("worse", out.splitlines()[2])

    def test_compare_against_the_latest_entry(self):
        trajectory = os.path.join(self.dir.name, "BENCH.json")
        self.main("record", "--out", trajectory, "--workload", "w", "--sha", "old111",
                  *self.runs("p", [100.0, 100.0, 100.0]))
        self.main("record", "--out", trajectory, "--workload", "w", "--sha", "new222",
                  *self.runs("q", [50.0, 50.0, 50.0]))
        code, out = self.main("compare", "--baseline", trajectory, "--benchmark", self.benchmark,
                              *self.runs("c", [65.0, 65.0, 65.0]))
        self.assertEqual(code, 1)  # 30% above the latest entry's 50 is past the bound.
        self.assertTrue(out.startswith("baseline new222"))

    def test_real_benchmark_file_parses(self):
        with open(os.path.join(bench_compare.ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        for spec in benchmark["end_to_end"]:
            self.assertIn(spec["better"], ("lower", "higher"))
            self.assertGreater(spec["bound"], 0)


if __name__ == "__main__":
    unittest.main()
