#!/usr/bin/env python3
"""Unit tests for the verdicts of bench/abgate.py.

    python3 bench/test_abgate.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import abgate  # noqa: E402

RATE = {"name": "commits_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "commit_p50_us", "better": "lower", "bound": 0.25}
STEADY = [98.0, 99.0, 100.0, 101.0, 102.0]
NOISY = [50.0, 70.0, 100.0, 130.0, 150.0]  # quartile spread 60%


def scaled(xs, k):
    return [x * k for x in xs]


class Verdict(unittest.TestCase):
    def status(self, metric, base, change):
        return abgate.verdict(metric, base, change)[0]

    def test_within_bound_passes(self):
        self.assertEqual(self.status(RATE, STEADY, scaled(STEADY, 0.8)), "pass")
        self.assertEqual(self.status(LATENCY, STEADY, scaled(STEADY, 1.2)), "pass")

    def test_worse_than_bound_fails_higher_is_better(self):
        self.assertEqual(self.status(RATE, STEADY, scaled(STEADY, 0.7)), "FAIL")

    def test_worse_than_bound_fails_lower_is_better(self):
        self.assertEqual(self.status(LATENCY, STEADY, scaled(STEADY, 1.3)), "FAIL")

    def test_improvement_never_fails(self):
        self.assertEqual(self.status(RATE, STEADY, scaled(STEADY, 10)), "pass")
        self.assertEqual(self.status(LATENCY, STEADY, scaled(STEADY, 0.1)), "pass")
        self.assertEqual(self.status(LATENCY, STEADY, [0.0] * 5), "pass")

    def test_wide_base_spread_is_unresolved(self):
        self.assertEqual(self.status(LATENCY, NOISY, NOISY), "unresolved")
        self.assertEqual(self.status(RATE, NOISY, scaled(NOISY, 0.9)), "unresolved")

    def test_pairs_that_disagree_are_unresolved(self):
        # each change run pairs with the base run at the same index
        self.assertEqual(self.status(LATENCY, STEADY, [60.0, 90.0, 130.0, 160.0, 140.0]),
                         "unresolved")

    def test_slowdown_in_four_pairs_of_five_fails_despite_spread(self):
        self.assertEqual(self.status(RATE, NOISY, scaled(NOISY, 0.5)), "FAIL")
        self.assertEqual(self.status(LATENCY, NOISY, scaled(NOISY, 2)), "FAIL")
        self.assertEqual(self.status(LATENCY, STEADY, [60.0, 130.0, 130.0, 130.0, 130.0]), "FAIL")

    def test_drift_shared_by_a_pair_does_not_fail(self):
        # the host slows down from the third pair on: the change's median
        # reads 91% above the base's, but four pairs of five differ by 10%
        base = [100.0, 105.0, 110.0, 200.0, 210.0]
        change = [110.0, 115.0, 210.0, 220.0, 230.0]
        self.assertEqual(self.status(LATENCY, base, change), "unresolved")

    def test_metric_missing_from_change_fails(self):
        self.assertEqual(self.status(RATE, STEADY, []), "FAIL")
        self.assertEqual(self.status(RATE, STEADY, STEADY[:4] + [None]), "FAIL")

    def test_zero_base_and_change_passes(self):
        self.assertEqual(self.status(LATENCY, [0.0] * 5, [0.0] * 5), "pass")


class FailedShare(unittest.TestCase):
    def runs(self, failed, attempted=1000):
        return [{"failed": failed, "attempted": attempted}] * 5

    def test_higher_failed_share_fails(self):
        self.assertEqual(abgate.share_verdict(self.runs(0), self.runs(1))[0], "FAIL")
        self.assertEqual(abgate.share_verdict(self.runs(10), self.runs(20))[0], "FAIL")

    def test_equal_or_lower_failed_share_passes(self):
        self.assertEqual(abgate.share_verdict(self.runs(0), self.runs(0))[0], "pass")
        self.assertEqual(abgate.share_verdict(self.runs(20), self.runs(10))[0], "pass")
        # the same share over more attempts
        self.assertEqual(abgate.share_verdict(self.runs(5), self.runs(10, 2000))[0], "pass")


if __name__ == "__main__":
    unittest.main()
