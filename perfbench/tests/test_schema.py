import json
import os
import unittest

import util
from harness.schema import validate


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(util.ROOT, "BENCHMARK.json")) as spec:
            cls.spec = json.load(spec)

    def test_meets_the_format_rules(self):
        self.assertEqual(validate(self.spec), [])

    def test_file_size(self):
        self.assertLessEqual(os.path.getsize(os.path.join(util.ROOT, "BENCHMARK.json")), 64 << 10)

    def test_paths_hold_the_command(self):
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertTrue(os.path.isfile(os.path.join(util.ROOT, self.spec["command"][1])))


class ValidatorTest(unittest.TestCase):
    def valid(self):
        return {
            "command": ["python3", "perfbench/run.py"],
            "paths": ["perfbench"],
            "run_seconds": 10,
            "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "layer.x_us", "unit": "us", "better": "lower"}],
        }

    def test_accepts_a_valid_spec(self):
        self.assertEqual(validate(self.valid()), [])

    def test_rejects_violations(self):
        cases = [
            lambda s: s["end_to_end"][1].__setitem__("bound", 0.3),
            lambda s: s["end_to_end"].pop(0),
            lambda s: s["end_to_end"][1].__setitem__("bound", 0.5),
            lambda s: s["workloads"].pop(),
            lambda s: s["per_layer"].append({"name": "lat_ms", "unit": "ms", "better": "lower"}),
            lambda s: s["per_layer"][0].__setitem__("unit", "µs"),
            lambda s: s["per_layer"][0].__setitem__("name", "_bad"),
            lambda s: s.__setitem__("run_seconds", 61),
            lambda s: s["command"].append("/abs/path"),
            lambda s: s["paths"].append("../out"),
            lambda s: s.__setitem__("extra", 1),
        ]
        for mutate in cases:
            spec = self.valid()
            mutate(spec)
            self.assertNotEqual(validate(spec), [], spec)


if __name__ == "__main__":
    unittest.main()
