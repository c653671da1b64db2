"""Tests of the benchmark's arithmetic.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_one_to_hundred(self):
        values = list(range(100, 0, -1))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile(values, 0.5), 1)

    def test_returns_a_sample_never_an_interpolation(self):
        self.assertEqual(stats.percentile([10.0, 20.0], 50), 10.0)
        self.assertEqual(stats.percentile([10.0, 20.0], 51), 20.0)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_rank_is_not_thrown_off_by_float_rounding(self):
        # 0.29 * 100 is 28.999999999999996 in binary floating point.
        self.assertEqual(stats.percentile(list(range(1, 101)), 29), 29)

    def test_rejects_empty_sample_and_bad_p(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)

    def test_timing_summary(self):
        self.assertEqual(stats.timing([]), {"count": 0, "p50": 0.0, "p99": 0.0})
        summary = stats.timing([float(v) for v in range(1, 201)])
        self.assertEqual(summary, {"count": 200, "p50": 100.0, "p99": 198.0})


class SupportedPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p99 of 1000 samples is rank 990: exactly ten beyond it.
        self.assertEqual(stats.highest_supported_percentile(1000), 99.0)
        self.assertEqual(stats.highest_supported_percentile(999), 95.0)
        # p99.9 needs 10000.
        self.assertEqual(stats.highest_supported_percentile(10000), 99.9)
        self.assertEqual(stats.highest_supported_percentile(9999), 99.0)

    def test_small_samples(self):
        self.assertEqual(stats.highest_supported_percentile(20), 50.0)
        self.assertEqual(stats.highest_supported_percentile(19), None)
        self.assertEqual(stats.highest_supported_percentile(0), None)


class WholeUnitPercentileTest(unittest.TestCase):
    def test_interpolates_within_the_unit(self):
        # Ten durations truncated to 7: spread over [7, 8).
        self.assertEqual(stats.whole_unit_percentile([7] * 10, 50), 7.5)
        self.assertEqual(stats.whole_unit_percentile([7] * 10, 100), 8.0)
        # Half the mass in [1, 2), half in [2, 3): the median is 2.
        self.assertEqual(stats.whole_unit_percentile([1, 2], 50), 2.0)
        # Ranks 3..6 of 8 are 5s: p50 (rank 4 of 8) is the second of the
        # four, halfway into [5, 6); p25 (rank 2) is the top of [4, 5).
        values = [3, 4, 5, 5, 5, 5, 9, 9]
        self.assertEqual(stats.whole_unit_percentile(values, 50), 5.5)
        self.assertEqual(stats.whole_unit_percentile(values, 25), 5.0)

    def test_timing_picks_the_estimator(self):
        self.assertEqual(stats.timing([2] * 4, whole_units=True),
                         {"count": 4, "p50": 2.5, "p99": 2.99})
        self.assertEqual(stats.timing([2] * 4),
                         {"count": 4, "p50": 2, "p99": 2})


class WindowTest(unittest.TestCase):
    def test_one_bad_chunk_does_not_move_the_median(self):
        values = [10.0] * 300
        values[200:210] = [5000.0] * 10  # a stall
        p99 = lambda chunk: stats.percentile(chunk, 99)
        self.assertEqual(stats.chunked(values, 100, p99), 10.0)
        self.assertEqual(stats.chunked(values, 1000, p99), 5000.0)

    def test_remainder_joins_the_last_chunk(self):
        # Chunks [1, 2] and [3, 4, 5]: maxima 2 and 5.
        self.assertEqual(stats.chunked([1, 2, 3, 4, 5], 2, max), 3.5)
        self.assertEqual(stats.chunked([1, 2, 3], 5, len), 3)

    def test_chunked_rejects_empty(self):
        with self.assertRaises(ValueError):
            stats.chunked([], 3, max)

    def test_window_rates_use_whole_windows(self):
        # 10 per unit for 4 units, then a straggler 0.8 units later.
        times = [i / 10 for i in range(40)] + [4.8]
        self.assertEqual(stats.window_rates(times, 1.0), [10.0] * 4)
        slow = [i / 10 for i in range(10)] + [1.0 + i / 5 for i in range(15)]
        self.assertEqual(stats.window_rates(slow, 1.0), [10.0, 5.0, 5.0])
        self.assertEqual(stats.window_rates([0.0, 0.5], 1.0), [])


class FailureCountTest(unittest.TestCase):
    def test_every_kind_counts(self):
        self.assertEqual(stats.count_failures(0, 0, 0, 0), 0)
        self.assertEqual(stats.count_failures(2, 1, 3, 1), 7)

    def test_negative_counts_are_a_bug(self):
        with self.assertRaises(ValueError):
            stats.count_failures(0, -1, 0, 0)

    def test_fraction(self):
        self.assertEqual(stats.failed_fraction(0, 500), 0.0)
        self.assertEqual(stats.failed_fraction(5, 500), 0.01)
        self.assertEqual(stats.failed_fraction(0, 0), 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_durations_are_subtracted(self):
        spans = [
            (0, -1, "core.serve_miss", 0, 1000),
            (1, 0, "backend.search", 1100, 1300),
            (2, 0, "concepts.location", 1300, 1900),
            (3, -1, "core.serve_hit", 2000, 2010),
        ]
        self.assertEqual(stats.self_times(spans),
                         {0: 200, 1: 200, 2: 600, 3: 10})

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            (0, -1, "a", 0, 100),
            (1, 0, "b", 0, 60),
            (2, 1, "c", 0, 50),
        ]
        self.assertEqual(stats.self_times(spans), {0: 40, 1: 10, 2: 50})


if __name__ == "__main__":
    unittest.main()
