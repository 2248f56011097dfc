"""Tests for the compare mode's arithmetic (perfbench/benchstat.py)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import benchstat  # noqa: E402


def runs(values):
    return {seed: v for seed, v in enumerate(values)}


class Quartiles(unittest.TestCase):
    def test_matches_the_acceptance_check(self):
        # statistics.quantiles(n=4), "exclusive" method.
        self.assertEqual(benchstat.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (2.75, 5.5, 8.25))
        self.assertEqual(benchstat.quartiles([1, 2, 3, 4, 5]), (1.5, 3.0, 4.5))

    def test_single_run(self):
        self.assertEqual(benchstat.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread(self):
        self.assertAlmostEqual(benchstat.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)
        self.assertEqual(benchstat.spread([0, 0, 0]), 0.0)


class Pairs(unittest.TestCase):
    def test_ties_count_for_neither(self):
        won, n = benchstat.pairs_won(runs([10, 10, 10, 10]), runs([9, 10, 11, 8]), "lower")
        self.assertEqual((won, n), (0.5, 4))

    def test_pairs_by_seed(self):
        won, n = benchstat.pairs_won({1: 5.0, 2: 5.0}, {2: 6.0, 3: 1.0}, "higher")
        self.assertEqual((won, n), (1.0, 1))

    def test_no_common_seed(self):
        self.assertEqual(benchstat.pairs_won({1: 1.0}, {2: 1.0}, "lower"), (0.0, 0))


class Verdict(unittest.TestCase):
    parent = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])

    def test_improved(self):
        change = runs([90, 91, 89, 90, 92, 88, 90, 91, 89, 90])
        self.assertEqual(benchstat.verdict(self.parent, change, "lower", 0.1), "improved")

    def test_higher_is_better(self):
        change = runs([90, 91, 89, 90, 92, 88, 90, 91, 89, 90])
        self.assertEqual(benchstat.verdict(self.parent, change, "higher", 0.05), "worse")
        self.assertEqual(benchstat.verdict(change, self.parent, "higher", 0.05), "improved")

    def test_no_worse_within_bound(self):
        change = runs([101, 102, 100, 101, 103, 99, 101, 102, 100, 101])
        self.assertEqual(benchstat.verdict(self.parent, change, "lower", 0.05), "no worse")

    def test_worse_beyond_bound(self):
        change = runs([120, 121, 119, 120, 122, 118, 120, 121, 119, 120])
        self.assertEqual(benchstat.verdict(self.parent, change, "lower", 0.05), "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        wide = runs([50, 150, 60, 140, 70, 130, 80, 120, 90, 110])
        change = runs([101, 160, 61, 141, 71, 131, 81, 121, 91, 111])
        self.assertEqual(benchstat.verdict(wide, change, "lower", 0.05), "unresolved")

    def test_unresolved_without_bound(self):
        change = runs([101, 102, 100, 101, 103, 99, 101, 102, 100, 101])
        self.assertEqual(benchstat.verdict(self.parent, change, "lower", None), "unresolved")

    def test_every_change_run_better_is_no_worse(self):
        # Wins every pair, but the median moved less than the parent's
        # quartile distance: not an improvement, yet clearly no worse.
        wide = runs([100, 150, 100, 150, 100, 150, 100, 150, 100, 150])
        change = runs([99, 99, 99, 99, 99, 99, 99, 99, 99, 99])
        self.assertEqual(benchstat.verdict(wide, change, "lower", 0.05), "no worse")


if __name__ == "__main__":
    unittest.main()
