import statistics
import unittest

import util  # noqa: F401  (puts the harness on sys.path)
from harness.stats import median, quantile, ratio


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(quantile(values, 0.0), 1.0)
        self.assertEqual(quantile(values, 1.0), 4.0)
        self.assertAlmostEqual(quantile(values, 0.5), 2.5)
        self.assertAlmostEqual(quantile(values, 0.9), 3.7)

    def test_single_value(self):
        self.assertEqual(quantile([7.0], 0.99), 7.0)

    def test_median_agrees_with_statistics(self):
        for values in ([1, 2, 3], [5, 1, 4, 2], [0.3, 0.1, 0.2, 0.9, 0.4]):
            self.assertAlmostEqual(quantile(values, 0.5), statistics.median(values))
            self.assertEqual(median(values), statistics.median(values))

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            quantile([], 0.5)


class RatioTest(unittest.TestCase):
    def test_divides(self):
        self.assertEqual(ratio(3, 4), 0.75)

    def test_zero_denominator_is_none(self):
        self.assertIsNone(ratio(3, 0))
        self.assertIsNone(ratio(0, 0))


if __name__ == "__main__":
    unittest.main()
