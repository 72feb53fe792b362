"""Unit tests for the EWMA block-temperature tracker."""

import math

import pytest

from repro.lifecycle import Temperature, TemperatureTracker


def make_tracker(**kw):
    defaults = dict(alpha=0.3, hot_age=60.0, cold_age=300.0)
    defaults.update(kw)
    return TemperatureTracker(**defaults)


class TestValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            make_tracker(alpha=0.0)
        with pytest.raises(ValueError):
            make_tracker(alpha=1.5)

    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            make_tracker(hot_age=0.0)
        with pytest.raises(ValueError):
            make_tracker(hot_age=100.0, cold_age=100.0)


class TestScore:
    def test_never_accessed_is_cold(self):
        tracker = make_tracker()
        assert math.isinf(tracker.score("b", now=0.0))
        assert tracker.classify("b", now=0.0) is Temperature.COLD

    def test_single_access_scores_by_age(self):
        tracker = make_tracker()
        tracker.record_access("b", now=0.0)
        assert tracker.score("b", now=10.0) == pytest.approx(10.0)
        assert tracker.classify("b", now=10.0) is Temperature.HOT
        assert tracker.classify("b", now=100.0) is Temperature.WARM
        assert tracker.classify("b", now=400.0) is Temperature.COLD

    def test_ewma_interval_smoothing(self):
        tracker = make_tracker(alpha=0.3)
        tracker.record_access("b", now=0.0)
        tracker.record_access("b", now=10.0)
        assert tracker.ewma_interval("b") == pytest.approx(10.0)
        tracker.record_access("b", now=30.0)
        # 0.7 * 10 + 0.3 * 20
        assert tracker.ewma_interval("b") == pytest.approx(13.0)

    def test_score_is_max_of_interval_and_age(self):
        tracker = make_tracker()
        tracker.record_access("b", now=0.0)
        tracker.record_access("b", now=100.0)
        # Recent touch, but the smoothed interval says "idle data":
        # one fresh access must not make it hot.
        assert tracker.score("b", now=100.0) == pytest.approx(100.0)
        assert tracker.classify("b", now=100.0) is Temperature.WARM

    def test_frequent_recent_block_is_hot(self):
        tracker = make_tracker()
        for t in (0.0, 5.0, 10.0, 15.0):
            tracker.record_access("b", now=t)
        assert tracker.classify("b", now=16.0) is Temperature.HOT


class TestBookkeeping:
    def test_interval_needs_two_accesses(self):
        tracker = make_tracker()
        tracker.record_access("b", now=0.0)
        assert tracker.ewma_interval("b") is None  # one touch: unknown
        tracker.record_access("b", now=4.0)
        assert tracker.ewma_interval("b") == pytest.approx(4.0)

    def test_forget_drops_all_state(self):
        tracker = make_tracker()
        tracker.record_access("b", now=0.0)
        tracker.record_access("b", now=1.0)
        tracker.forget("b")
        assert tracker.tracked_blocks() == ()
        assert tracker.last_access("b") is None
        assert tracker.ewma_interval("b") is None

    def test_classify_all_covers_tracked_blocks(self):
        tracker = make_tracker()
        tracker.record_access("fresh", now=99.0)
        tracker.record_access("stale", now=0.0)
        table = tracker.classify_all(now=100.0)
        assert table == {
            "fresh": Temperature.HOT,
            "stale": Temperature.WARM,  # age 100 is between the thresholds
        }


class TestEdgeCases:
    def test_forget_then_reaccess_starts_a_fresh_history(self):
        """A re-created block must not inherit the old interval EWMA:
        after forget() the next access is a clean single-access state."""
        tracker = make_tracker()
        tracker.record_access("b", now=0.0)
        tracker.record_access("b", now=500.0)  # long interval: idle data
        assert tracker.classify("b", now=500.0) is Temperature.COLD
        tracker.forget("b")
        tracker.record_access("b", now=600.0)
        assert tracker.ewma_interval("b") is None
        assert tracker.last_access("b") == 600.0
        # Recency is all we know again: the stale interval is gone.
        assert tracker.score("b", now=601.0) == pytest.approx(1.0)
        assert tracker.classify("b", now=601.0) is Temperature.HOT

    def test_cold_start_queries_are_safe(self):
        tracker = make_tracker()
        assert tracker.last_access("never") is None
        assert tracker.ewma_interval("never") is None
        assert tracker.tracked_blocks() == ()
        assert math.isinf(tracker.score("never", now=1e9))

    def test_single_access_has_no_rate_but_scores_by_age(self):
        tracker = make_tracker()
        tracker.record_access("b", now=10.0)
        assert tracker.ewma_interval("b") is None
        assert tracker.score("b", now=10.0) == 0.0

    def test_same_instant_accesses_score_zero(self):
        """Two reads in the same sim instant give a zero smoothed
        interval, hence a zero score: the block is HOT."""
        tracker = make_tracker()
        tracker.record_access("b", now=5.0)
        tracker.record_access("b", now=5.0)
        assert tracker.ewma_interval("b") == 0.0
        assert tracker.score("b", now=5.0) == 0.0
        assert tracker.classify("b", now=5.0) is Temperature.HOT

    def test_out_of_order_access_clamps_the_interval(self):
        tracker = make_tracker()
        tracker.record_access("b", now=10.0)
        tracker.record_access("b", now=8.0)  # clock went backwards
        assert tracker.ewma_interval("b") == 0.0
        assert tracker.score("b", now=10.0) == pytest.approx(2.0)

    def test_boundary_scores_classify_downward(self):
        """Thresholds are half-open: a score exactly at hot_age is
        WARM, exactly at cold_age is COLD."""
        tracker = make_tracker(hot_age=60.0, cold_age=300.0)
        tracker.record_access("b", now=0.0)
        assert tracker.classify("b", now=60.0 - 1e-9) is Temperature.HOT
        assert tracker.classify("b", now=60.0) is Temperature.WARM
        assert tracker.classify("b", now=300.0 - 1e-9) is Temperature.WARM
        assert tracker.classify("b", now=300.0) is Temperature.COLD
