"""Unit tests for run.py's statistics, its metric tables and the
extend fixture's replay of the monthly traffic table.

Run from the repository root:  python3 -m unittest perfbench/test_stats.py
"""

import json
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fixtures  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(stats.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 3.7)

    def test_single_value(self):
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_median_matches_statistics(self):
        xs = [5.0, 1.0, 9.0, 2.0, 8.0]
        self.assertEqual(stats.percentile(xs, 50), statistics.median(xs))

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(96, 90), 10)
        self.assertEqual(stats.samples_beyond(95, 90), 10)
        self.assertEqual(stats.samples_beyond(91, 90), 9)
        self.assertEqual(stats.samples_beyond(11, 0), 10)

    def test_tail_is_p75_only_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(98), 75)
        self.assertEqual(stats.tail_percentile(38), 75)
        self.assertEqual(stats.tail_percentile(37), 50)
        self.assertEqual(stats.tail_percentile(5), 50)
        self.assertEqual(stats.tail_percentile(1), 50)
        self.assertEqual(stats.tail_percentile(92, p=90), 90)
        self.assertEqual(stats.tail_percentile(91, p=90), 50)
        for n in range(1, 500):
            p = stats.tail_percentile(n)
            self.assertTrue(p == 50 or stats.samples_beyond(n, p) >= 10)


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(list(stats.quartiles(xs)), statistics.quantiles(xs, n=4))

    def test_spread_is_iqr_over_median(self):
        xs = [10.0] * 5 + [11.0, 9.0, 12.0, 8.0, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def test_union_length_merges_overlaps(self):
        self.assertAlmostEqual(stats.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertAlmostEqual(stats.union_length([(0, 10), (2, 3)]), 10.0)
        self.assertEqual(stats.union_length([]), 0.0)

    def test_leaf_self_time_is_its_duration(self):
        spans = [("a", 0.0, 2.0, -1)]
        self.assertEqual(stats.self_times(spans), [2.0])

    def test_children_are_subtracted_once(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("x", 1.0, 4.0, 0),
            ("y", 3.0, 6.0, 0),  # overlaps x: 1..6 covered, not 6 s
            ("z", 2.0, 2.5, 1),  # grandchild: only x loses it
        ]
        self.assertEqual(stats.self_times(spans), [5.0, 2.5, 3.0, 0.5])

    def test_child_outside_parent_is_clipped(self):
        spans = [("p", 1.0, 3.0, -1), ("c", 2.0, 5.0, 0)]
        self.assertEqual(stats.self_times(spans), [1.0, 3.0])

    def test_self_times_sum_to_root_coverage(self):
        spans = [
            ("root", 0.0, 8.0, -1),
            ("a", 0.5, 3.0, 0),
            ("b", 3.0, 7.5, 0),
            ("b1", 3.5, 4.0, 2),
            ("tail", 8.0, 9.0, -1),
        ]
        self.assertAlmostEqual(sum(stats.self_times(spans)), 9.0)
        self.assertAlmostEqual(stats.coverage(spans, 10.0), 0.9)


class ExtendFixture(unittest.TestCase):
    MONTHS = ((1, 9, 5, 2), (2, 3, 20, 1), (3, 60, 7, 0))

    def test_deltas_replay_the_month_counts(self):
        fx = fixtures.make_extend(7, 256, 48, self.MONTHS)
        seen = set(fx["base"])
        for delta, (_, fresh, repeats, _) in zip(fx["deltas"], self.MONTHS):
            new = [m for m in delta if m not in seen]
            self.assertEqual((len(new), len(delta) - len(new)), (fresh, repeats))
            self.assertEqual(len(set(new)), fresh)
            seen.update(new)
        self.assertEqual(fx["fresh"], [9, 3, 60])

    def test_shared_moduli_are_findings(self):
        fx = fixtures.make_extend(7, 256, 48, self.MONTHS)
        first_fresh = set(fx["deltas"][0]) - set(fx["base"])
        self.assertGreaterEqual(len(first_fresh & set(fx["findings"])), 2)
        self.assertEqual(fx["counts"], sorted(fx["counts"]))
        self.assertEqual(fx["counts"][-1], len(fx["findings"]))
        for m, d in fx["findings"].items():
            self.assertTrue(1 < d < m and m % d == 0)

    def test_same_seed_same_inputs(self):
        a = fixtures.make_extend(7, 256, 48, self.MONTHS)
        self.assertEqual(a, fixtures.make_extend(7, 256, 48, self.MONTHS))
        self.assertNotEqual(a["deltas"], fixtures.make_extend(8, 256, 48, self.MONTHS)["deltas"])


class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py prints."""

    def setUp(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            self.bench = json.load(f)

    def test_metric_names_and_units(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in self.bench[key]}, table)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
