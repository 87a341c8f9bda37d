"""Self-tests of the benchmark's arithmetic.

Run with: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99.9), 100)
        self.assertEqual(stats.percentile([7], 50), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 75), 4)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_beyond(self):
        # 20 samples: p50 leaves exactly 10 beyond, p75 only 5
        self.assertEqual(stats.tail_percentile(20), 50.0)
        # 19 samples: even the median has only 9 beyond
        self.assertIsNone(stats.tail_percentile(19))

    def test_picks_highest_qualifying(self):
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_beyond_counts_strictly_past(self):
        for n in (20, 46, 138, 230):
            for p in stats.TAIL_LADDER:
                v = stats.percentile(list(range(n)), p)
                self.assertEqual(stats.beyond(n, p), sum(1 for x in range(n) if x > v))


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([(0, 10, -1)]), [10])

    def test_nested(self):
        spans = [(0, 100, -1), (10, 40, 0), (15, 25, 1), (50, 60, 0)]
        # root loses both children (30 + 10); grandchild counts only
        # against its own parent
        self.assertEqual(stats.self_times(spans), [60, 20, 10, 10])

    def test_overlapping_children_count_once(self):
        spans = [(0, 100, -1), (10, 50, 0), (30, 70, 0), (60, 65, 0)]
        self.assertEqual(stats.self_times(spans), [40, 40, 40, 5])

    def test_children_clipped_to_parent(self):
        spans = [(10, 20, -1), (5, 15, 0), (18, 30, 0)]
        self.assertEqual(stats.self_times(spans)[0], 3)


if __name__ == "__main__":
    unittest.main()
