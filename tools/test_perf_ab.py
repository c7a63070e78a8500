#!/usr/bin/env python3
"""Unit tests for the verdict rule of tools/perf_ab.py.

    python3 tools/test_perf_ab.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402


class VerdictTest(unittest.TestCase):
    def test_clear_win_is_a_gain(self):
        base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        new = [b * 0.85 for b in base]
        self.assertEqual(perf_ab.verdict(base, new), "gain")

    def test_eight_of_ten_pairs_is_unresolved(self):
        base = [1.0] * 10
        new = [0.8] * 8 + [1.2] * 2
        self.assertEqual(perf_ab.verdict(base, new), "unresolved")

    def test_nine_of_ten_pairs_is_enough(self):
        base = [1.0] * 10
        new = [0.8] * 9 + [1.2]
        self.assertEqual(perf_ab.verdict(base, new), "gain")

    def test_ties_count_for_neither_side(self):
        base = [1.0] * 10
        new = [0.8] * 8 + [1.0] * 2
        self.assertEqual(perf_ab.verdict(base, new), "unresolved")

    def test_drop_within_the_base_spread_is_unresolved(self):
        # NEW wins every pair, but by less than BASE's quartile spread.
        base = [0.6, 0.7, 0.8, 0.9, 1.0, 0.6, 0.7, 0.8, 0.9, 1.0]
        new = [b - 0.05 for b in base]
        self.assertEqual(perf_ab.verdict(base, new), "unresolved")


if __name__ == "__main__":
    unittest.main()
