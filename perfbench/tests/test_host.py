"""The host-speed correction of pipeline_ref_s and CPU pinning."""

import os
import unittest

import util  # noqa: F401
from harness import procs
from harness.workload import REF_NOMINAL_S, BenchRun


class HostFactorTest(unittest.TestCase):
    def test_scales_to_the_nominal_reference_time(self):
        # Median of the samples: (0.045 + 0.05) / 2.
        self.assertAlmostEqual(BenchRun.host_factor([0.06, 0.03, 0.045, 0.05]),
                               REF_NOMINAL_S / 0.0475)

    def test_a_reference_at_nominal_speed_leaves_times_unchanged(self):
        self.assertEqual(BenchRun.host_factor([REF_NOMINAL_S] * 4), 1.0)


class PinnedTest(unittest.TestCase):
    def test_pins_the_block_and_restores_the_affinity(self):
        before = os.sched_getaffinity(0)
        cpu = max(before)
        with procs.pinned({cpu}):
            self.assertEqual(os.sched_getaffinity(0), {cpu})
        self.assertEqual(os.sched_getaffinity(0), before)

    def test_restores_the_affinity_when_the_block_raises(self):
        before = os.sched_getaffinity(0)
        with self.assertRaises(RuntimeError):
            with procs.pinned({min(before)}):
                raise RuntimeError("stop")
        self.assertEqual(os.sched_getaffinity(0), before)


if __name__ == "__main__":
    unittest.main()
