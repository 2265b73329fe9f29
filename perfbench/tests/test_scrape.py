import json
import unittest

import util  # noqa: F401
from harness import scrape
from harness.workload import root_coverage_seconds, span_seconds

# A statsz response in the shape serve/service.cc writes it.
STATSZ = (
    '{"endpoints":{"score_pair":{"requests":120,"errors":0,"cache_hits":20,'
    '"cache_misses":100,"latency_p50_ms":1.25,"latency_p95_ms":2,"latency_p99_ms":3,'
    '"latency_mean_ms":1.3},"predict_ctr":{"requests":80,"errors":1,"cache_hits":0,'
    '"cache_misses":80,"latency_p50_ms":0.078,"latency_p95_ms":0.1,"latency_p99_ms":0.2,'
    '"latency_mean_ms":0.08},"rejected_overload":2,"deadline_exceeded":1,"drained":0,'
    '"idle_evicted":0,"write_timeout":0,"steal_count":7,"batch_size_mean":3.5,'
    '"batch_size_max":9},"pair_cache":{"size":100,"hits":20,"misses":100,"evictions":0,'
    '"hit_rate":0.16666666666666666},"point_cache":{"size":80,"hits":0,"misses":80,'
    '"evictions":0,"hit_rate":0},"gen":1,"reloads":0,"skipped_reloads":0,'
    '"failed_reloads":0,"ok":true}')

PROMETHEUS = """# TYPE mb_serve_batch_size summary
mb_serve_batch_size{quantile="0.5"} 4
mb_serve_batch_size{quantile="0.95"} 8
mb_serve_batch_size_sum 300
mb_serve_batch_size_count 100
# TYPE mb_serve_steal_count counter
mb_serve_steal_count 12
"""


class StatszTest(unittest.TestCase):
    def test_parses_endpoint_medians(self):
        statsz = scrape.parse_statsz(STATSZ)
        self.assertAlmostEqual(scrape.endpoint_p50_us(statsz, "score_pair"), 1250.0)
        self.assertAlmostEqual(scrape.endpoint_p50_us(statsz, "predict_ctr"), 78.0)
        self.assertIsNone(scrape.endpoint_p50_us(statsz, "examine"))

    def test_counts(self):
        statsz = scrape.parse_statsz(STATSZ)
        self.assertEqual(scrape.cache_counts(statsz), (20, 180))
        self.assertEqual(scrape.refused(statsz), 3)
        self.assertEqual(scrape.scoring_requests(statsz), 200)

    def test_rejects_failed_response(self):
        with self.assertRaises(ValueError):
            scrape.parse_statsz('{"ok":false,"error":"draining"}')


class MetricszTest(unittest.TestCase):
    def test_parses_prometheus_samples(self):
        samples = scrape.parse_prometheus(PROMETHEUS)
        self.assertEqual(samples['mb_serve_batch_size{quantile="0.5"}'], 4.0)
        self.assertEqual(samples["mb_serve_batch_size_count"], 100.0)
        self.assertEqual(samples["mb_serve_steal_count"], 12.0)
        self.assertEqual(len(samples), 5)

    def test_parses_json_envelope(self):
        line = json.dumps({"metrics": PROMETHEUS, "gen": 1, "ok": True})
        self.assertEqual(scrape.parse_metricsz(line)["mb_serve_steal_count"], 12.0)

    def test_summary_mean_over_an_interval(self):
        before = scrape.parse_prometheus(PROMETHEUS)
        after = dict(before)
        after["mb_serve_batch_size_sum"] = 500.0
        after["mb_serve_batch_size_count"] = 150.0
        self.assertAlmostEqual(scrape.summary_mean_delta(before, after, "mb_serve_batch_size"),
                               4.0)
        self.assertIsNone(scrape.summary_mean_delta(before, before, "mb_serve_batch_size"))
        self.assertEqual(scrape.delta(before, after, "mb_serve_steal_count"), 0.0)


class TraceSpanTest(unittest.TestCase):
    TRACE = {"spans": [
        {"name": "mb.cv.run", "id": 0, "parent": -1, "start_us": 0.0, "dur_us": 100.0},
        {"name": "mb.stats.build", "id": 1, "parent": 0, "start_us": 10.0, "dur_us": 40.0},
        {"name": "mb.train.lr", "id": 2, "parent": -1, "start_us": 90.0, "dur_us": 30.0},
        {"name": "mb.train.lr", "id": 3, "parent": -1, "start_us": 200.0, "dur_us": 50.0},
    ]}

    def test_span_seconds_sums_every_span_of_a_name(self):
        self.assertAlmostEqual(span_seconds(self.TRACE, "mb.train.lr"), 80e-6)
        self.assertEqual(span_seconds(self.TRACE, "absent"), 0.0)

    def test_root_coverage_is_the_union_of_root_spans(self):
        # [0, 100) u [90, 120) u [200, 250) = 120 + 50 us.
        self.assertAlmostEqual(root_coverage_seconds(self.TRACE), 170e-6)


if __name__ == "__main__":
    unittest.main()
