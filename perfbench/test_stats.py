"""Self-tests of the benchmark's statistics helpers.

    python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([4.0, 4.0, 4.0]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)

    def test_p90_from_100_samples(self):
        values = list(range(1, 101))
        self.assertEqual(stats.tail(values), ("p90", 90))

    def test_99_samples_are_too_few_for_p90(self):
        values = list(range(1, 100))
        self.assertEqual(stats.tail(values), ("max", 99))

    def test_p99_from_1000_samples(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail(values), ("p99", 990))

    def test_p99_9_from_10000_samples(self):
        values = list(range(1, 10001))
        self.assertEqual(stats.tail(values), ("p99.9", 9990))

    def test_order_does_not_matter(self):
        values = list(range(100, 0, -1))
        self.assertEqual(stats.tail(values), ("p90", 90))

    def test_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), ("max", 3.0))


class ErrorRate(unittest.TestCase):
    def test_rate_with_base(self):
        self.assertEqual(stats.error_rate(1, 4), 0.25)
        self.assertEqual(stats.error_rate(0, 7), 0.0)

    def test_zero_base_is_undefined(self):
        self.assertIsNone(stats.error_rate(0, 0))

    def test_more_failures_than_attempts_raises(self):
        with self.assertRaises(ValueError):
            stats.error_rate(2, 1)


class Coverage(unittest.TestCase):
    def test_gaps_are_uncovered(self):
        spans = {
            0: (-1, 0.0, 10.0),
            1: (0, 0.0, 2.0),
            2: (0, 4.0, 9.0),
        }
        self.assertAlmostEqual(stats.coverage(spans, 0), 0.7)

    def test_nested_spans_count_through_their_parent(self):
        spans = {
            0: (-1, 0.0, 10.0),
            1: (0, 1.0, 5.0),
            2: (1, 1.5, 4.0),   # grandchild inside its parent
            3: (1, 6.0, 8.0),   # grandchild outside its parent: not counted
            4: (0, 5.0, 6.0),
        }
        self.assertAlmostEqual(stats.coverage(spans, 0), 0.5)

    def test_overlapping_children_count_once(self):
        spans = {
            0: (-1, 0.0, 10.0),
            1: (0, 0.0, 6.0),
            2: (0, 4.0, 8.0),
        }
        self.assertAlmostEqual(stats.coverage(spans, 0), 0.8)

    def test_tagged_job_spans(self):
        def x(name, ts, dur):
            return {"name": name, "ph": "X", "ts": ts, "dur": dur}
        events = [
            x("job@t-a", 0, 10), x("parse@t-a", 0, 2), x("route@t-a", 4, 5),
            x("initial", 4, 3),  # untagged router span: ignored
            x("job@t-b", 20, 4), x("parse@t-b", 20, 4),
            x("route@t-c", 30, 1),  # no job span of its own: ignored
            {"name": "thread_name", "ph": "M", "args": {"name": "main"}},
        ]
        spans, roots = stats.tagged_job_spans(events)
        self.assertEqual(len(roots), 2)
        self.assertEqual(len(spans), 5)
        covered = sorted(stats.coverage(spans, r) for r in roots)
        self.assertAlmostEqual(covered[0], 0.7)
        self.assertAlmostEqual(covered[1], 1.0)

    def test_children_are_clipped_to_the_root(self):
        spans = {
            0: (-1, 2.0, 6.0),
            1: (0, 0.0, 3.0),
            2: (0, 5.0, 9.0),
        }
        self.assertAlmostEqual(stats.coverage(spans, 0), 0.5)

    def test_other_roots_do_not_leak_in(self):
        spans = {
            0: (-1, 0.0, 4.0),
            1: (0, 0.0, 4.0),
            2: (-1, 5.0, 9.0),
            3: (2, 5.0, 6.0),
        }
        self.assertAlmostEqual(stats.coverage(spans, 0), 1.0)
        self.assertAlmostEqual(stats.coverage(spans, 2), 0.25)

    def test_empty_root(self):
        self.assertEqual(stats.coverage({0: (-1, 1.0, 1.0)}, 0), 0.0)

    def test_chrome_events_round_trip(self):
        events = [
            {"name": "job", "ts": 0.0, "dur": 10.0,
             "args": {"span": 0, "parent": -1, "job": 3}},
            {"name": "route.run", "ts": 1.0, "dur": 8.0,
             "args": {"span": 1, "parent": 0, "job": 3}},
        ]
        spans, info = stats.chrome_spans(events)
        self.assertEqual(info[1], ("route.run", 3))
        self.assertAlmostEqual(stats.coverage(spans, 0), 0.8)

    def test_tagged_job_spans(self):
        def x(name, ts, dur):
            return {"name": name, "ph": "X", "ts": ts, "dur": dur}
        events = [
            x("job@t-a", 0, 10), x("parse@t-a", 0, 2), x("route@t-a", 4, 5),
            x("initial", 4, 3),  # untagged router span: ignored
            x("job@t-b", 20, 4), x("parse@t-b", 20, 4),
            x("route@t-c", 30, 1),  # no job span of its own: ignored
            {"name": "thread_name", "ph": "M", "args": {"name": "main"}},
        ]
        spans, roots = stats.tagged_job_spans(events)
        self.assertEqual(len(roots), 2)
        self.assertEqual(len(spans), 5)
        covered = sorted(stats.coverage(spans, r) for r in roots)
        self.assertAlmostEqual(covered[0], 0.7)
        self.assertAlmostEqual(covered[1], 1.0)


if __name__ == "__main__":
    unittest.main()
