"""Tests for the benchmark's own arithmetic (wlbench/analysis.py).

    python3 wlbench/test_analysis.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402


def span(name, start, end, parent=-1, track=0):
    return {"name": name, "start_ms": start, "end_ms": end, "parent": parent,
            "track": track, "repeat": 0}


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(999), 90.0)
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(99), 50.0)
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertIsNone(analysis.tail_percentile(19))

    def test_samples_beyond_counts_ranks_above_the_percentile(self):
        self.assertEqual(analysis.samples_beyond(1000, 99.0), 10)
        self.assertEqual(analysis.samples_beyond(999, 99.0), 9)
        self.assertEqual(analysis.samples_beyond(256, 90.0), 25)

    def test_tail_of_refuses_a_median_as_tail(self):
        self.assertEqual(analysis.tail_of(256, {90.0: 7.0, 99.0: 9.0}),
                         (90.0, 7.0))
        with self.assertRaises(ValueError):
            analysis.tail_of(50, {90.0: 7.0})

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 99), 99)
        self.assertEqual(analysis.percentile([3.0], 99), 3.0)


class UnlockRateTest(unittest.TestCase):
    def row(self, attacked, genuine, unlocked, sessions=None, retries=0):
        return {"attacked": attacked, "genuine": genuine,
                "genuine_unlocked": unlocked,
                "sessions": genuine if sessions is None else sessions,
                "retries": retries}

    def test_counts_genuine_unattacked_records_only(self):
        rows = [
            self.row(False, 1, 1),
            self.row(False, 1, 0),
            self.row(False, 0, 0, sessions=1),  # impostor record
            self.row(True, 0, 0, sessions=1),   # attacker-scored record
            self.row(True, 4, 4),               # attacked cohort
        ]
        self.assertEqual(analysis.unlock_rate(rows), 0.5)

    def test_no_genuine_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.unlock_rate([self.row(True, 3, 3)])

    def test_attempts_add_retries_to_records(self):
        rows = [self.row(False, 2, 1, retries=3), self.row(True, 0, 0, sessions=1)]
        self.assertEqual(analysis.attempts(rows), 6)


class ExecutorStatsTest(unittest.TestCase):
    def test_two_threads_busy_fraction_and_wait(self):
        # One 100 ms map on 2 threads; shards run 0-60 and 0-40 on one
        # worker and 10-90 on the other.
        spans = [
            span("sim.executor.map", 0.0, 100.0),
            span("sim.shard", 0.0, 40.0, parent=0, track=1),
            span("sim.shard", 10.0, 90.0, parent=0, track=2),
            span("sim.shard", 40.0, 60.0, parent=0, track=1),
            span("protocol.drain", 45.0, 55.0, parent=3, track=1),
        ]
        busy, wait = analysis.executor_stats(spans, threads=2)
        self.assertAlmostEqual(busy, (40 + 80 + 20) / 200.0)
        self.assertAlmostEqual(wait, (0 + 10 + 40) / 3.0)

    def test_one_thread_back_to_back_is_fully_busy(self):
        spans = [
            span("sim.executor.map", 0.0, 10.0),
            span("sim.shard", 0.0, 4.0, parent=0),
            span("sim.shard", 4.0, 10.0, parent=0),
        ]
        busy, wait = analysis.executor_stats(spans, threads=1)
        self.assertAlmostEqual(busy, 1.0)
        self.assertAlmostEqual(wait, 2.0)

    def test_no_map_reports_zero(self):
        self.assertEqual(analysis.executor_stats([span("x", 0, 1)], 2), (0.0, 0.0))


class SelfTimeTest(unittest.TestCase):
    def test_sync_nested_in_probe_analysis(self):
        spans = [
            span("protocol.drain", 0.0, 10.0),
            span("modem.probe", 0.0, 3.0, parent=0),
            span("modem.sync", 0.0, 1.0, parent=1),
            span("modem.demod", 3.0, 5.0, parent=0),
            span("modem.sync", 3.0, 3.5, parent=3),
        ]
        own = analysis.self_times(spans)
        self.assertEqual(own, [5.0, 2.0, 1.0, 1.5, 0.5])
        totals = analysis.self_by_name(spans)
        self.assertEqual(totals["modem.sync"], (1.5, 2))
        self.assertAlmostEqual(analysis.per_call(totals, "modem.sync"), 0.75)
        self.assertEqual(analysis.per_call(totals, "modem.demod_soft"), 0.0)
        # Drain self time plus every modem self time is the drain.
        self.assertEqual(analysis.subtree_accounting(spans, "protocol.drain"),
                         (10.0, 10.0))

    def test_overlapping_children_count_once(self):
        spans = [
            span("parent", 0.0, 10.0),
            span("a", 1.0, 5.0, parent=0),
            span("b", 3.0, 7.0, parent=0),
            span("c", 9.0, 12.0, parent=0),  # clipped at the parent's end
        ]
        self.assertEqual(analysis.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_covered_merges_intervals(self):
        self.assertEqual(analysis.covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4)
        self.assertEqual(analysis.covered([], 0, 10), 0)


class FailureAccountingTest(unittest.TestCase):
    def raw(self, digests, false_accepts=0, records=10):
        return {
            "planned_sessions": 10,
            "planned_attacked": 0,
            "repeats": [{"digest": d, "error": ""} for d in digests],
            "cohorts": [{"key": "k", "attacked": False, "sessions": records,
                         "false_accepts": false_accepts}],
        }

    def test_clean_repeats_fail_nothing(self):
        self.assertEqual(analysis.fleet_failures(self.raw(["a", "a"]))[:2], (20, 0))

    def test_rollup_mismatch_fails_the_repeat(self):
        self.assertEqual(analysis.fleet_failures(self.raw(["a", "b", "a"]))[:2],
                         (30, 10))

    def test_false_accepts_and_missing_records_fail_every_repeat(self):
        attempted, failed, _ = analysis.fleet_failures(
            self.raw(["a", "a"], false_accepts=1, records=9))
        self.assertEqual((attempted, failed), (20, 4))

    def test_sweep_table_mismatch_fails_its_frames(self):
        raw = {"repeats": [{"frames": 5, "bit_errors": [1, 2], "error": ""},
                           {"frames": 5, "bit_errors": [1, 3], "error": ""}]}
        self.assertEqual(analysis.sweep_failures(raw)[:2], (10, 5))


if __name__ == "__main__":
    unittest.main()
