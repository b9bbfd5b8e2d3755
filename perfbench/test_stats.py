"""Self-tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class GeomeanOfClassPercentiles(unittest.TestCase):
    def test_each_class_weighs_alike(self):
        # One slow class with few samples must not be drowned by a fast
        # class with many, as a pooled median would be.
        samples = {"fast": [1.0] * 99, "slow": [100.0, 100.0, 100.0]}
        self.assertAlmostEqual(
            stats.class_percentile_geomean(samples, 0.5), 10.0)

    def test_percentile_is_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 0.5), 50)
        self.assertEqual(stats.percentile(xs, 0.9), 90)
        self.assertEqual(stats.percentile([7], 0.9), 7)

    def test_geomean_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])

    def test_p90_geomean(self):
        samples = {"a": list(range(1, 101)), "b": [10 * x for x in range(1, 101)]}
        self.assertAlmostEqual(stats.class_percentile_geomean(samples, 0.9),
                               math.sqrt(90 * 900))


class TailRule(unittest.TestCase):
    def test_ten_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertEqual(stats.samples_beyond(99, 0.9), 9)
        self.assertTrue(stats.tail_supported([100, 250], 0.9))
        self.assertFalse(stats.tail_supported([100, 99], 0.9))
        self.assertFalse(stats.tail_supported([], 0.9))

    def test_p90_falls_back_to_pooled_when_classes_are_small(self):
        samples = {"a": [1.0, 1.0, 2.0] * 10, "b": [10.0, 10.0, 20.0] * 10}
        value, method, n = run.tail_p90(samples)
        self.assertEqual(method, "pooled-normalized")
        self.assertEqual(n, 60)
        self.assertAlmostEqual(value, math.sqrt(1.0 * 10.0) * 2.0)

    def test_p90_uses_per_class_when_supported(self):
        samples = {"a": [float(x) for x in range(1, 101)]}
        value, method, n = run.tail_p90(samples)
        self.assertEqual((value, method, n), (90.0, "per-class", 100))


class ThreadCpuClock(unittest.TestCase):
    def test_counts_running_not_waiting(self):
        go, done, tid = threading.Event(), threading.Event(), []

        def worker():
            tid.append(threading.get_native_id())
            done.set()
            go.wait()
            t = time.thread_time()
            while time.thread_time() - t < 0.05:
                pass
            done.set()
            go.clear()
            go.wait(10)

        t = threading.Thread(target=worker)
        t.start()
        done.wait()
        done.clear()
        clock = run.ThreadClock(os.getpid(), tid[0])
        try:
            before = clock.ns()
            go.set()
            done.wait()
            burnt = clock.ns() - before
            time.sleep(0.05)
            waited = clock.ns() - before - burnt
        finally:
            go.set()
            t.join()
            clock.close()
        self.assertGreaterEqual(burnt, 45e6)
        self.assertLess(waited, 5e6)


class OkRatio(unittest.TestCase):
    def test_missing_reply_is_a_failure(self):
        # 10 sent, 8 replies of which 1 is wrong: 7 correct, 3 failed.
        ratio, failed = stats.ok_accounting(10, [True] * 7 + [False])
        self.assertAlmostEqual(ratio, 0.7)
        self.assertEqual(failed, 3)

    def test_all_correct(self):
        self.assertEqual(stats.ok_accounting(4, [True] * 4), (1.0, 0))

    def test_more_replies_than_requests_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.ok_accounting(1, [True, True])


def span(i, parent, start, end):
    return {"id": i, "parent": parent, "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100),
                 span(1, 0, 10, 40), span(2, 0, 30, 60),  # union 10..60
                 span(3, 0, 80, 90)]
        self.assertEqual(stats.self_times(spans)[0], 100 - 50 - 10)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 150)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 50), span(2, 1, 10, 20)]
        st = stats.self_times(spans)
        self.assertEqual(st[0], 50)
        self.assertEqual(st[1], 40)
        self.assertEqual(st[2], 10)

    def test_nested_child_inside_sibling(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 50), span(2, 0, 10, 20)]
        self.assertEqual(stats.self_times(spans)[0], 50)


class BurstShare(unittest.TestCase):
    def test_counts_samples_above_class_median(self):
        samples = {"a": [10, 10, 10, 14], "b": [1, 1, 1, 1, 1, 2]}
        self.assertAlmostEqual(stats.burst_share(samples), 2 / 10)


class Compare(unittest.TestCase):
    def test_unresolved_when_spread_exceeds_bound(self):
        base = [100, 130, 70, 110, 90]
        change = [95, 125, 72, 100, 85]
        row = compare.compare_metric(base, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "unresolved")

    def test_better_needs_nine_tenths_of_pairs(self):
        base = [100, 101, 99, 100, 102, 100, 98, 101, 100, 99]
        change = [90, 91, 89, 90, 92, 90, 88, 91, 90, 89]
        row = compare.compare_metric(base, change, "lower", 0.1)
        self.assertEqual(row["wins"], 1.0)
        self.assertEqual(row["verdict"], "better")

    def test_worse_beyond_bound(self):
        base = [100, 101, 99, 100, 100]
        change = [120, 121, 119, 120, 120]
        row = compare.compare_metric(base, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "worse")

    def test_within_bound(self):
        base = [100, 101, 99, 100, 100]
        change = [101, 102, 100, 101, 101]
        row = compare.compare_metric(base, change, "lower", 0.1)
        self.assertEqual(row["verdict"], "within bound")


if __name__ == "__main__":
    unittest.main()
