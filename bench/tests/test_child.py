"""A pass reports its host times at the reference machine's speed."""

import time
from types import SimpleNamespace

import pytest

import bench.workloads
from bench import child


def test_host_times_are_scaled_by_the_calibration(monkeypatch):
    sub = SimpleNamespace(setup_s=1.0, wall_s=3.0)
    monkeypatch.setattr(bench.workloads, "run_sub", lambda *args: sub)
    monkeypatch.setattr(bench.workloads, "simulated_outcome", lambda subs: {})
    # A host running at half the reference speed.
    monkeypatch.setattr(
        child, "calibration_chunk", lambda: 2 * child.REFERENCE_CHUNK_S
    )
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = child.run_pass("scale-notify-1k", 0, "plain", spawned_at)
    assert result["calibration_s"] == 2 * child.REFERENCE_CHUNK_S
    assert result["wall_s"] == pytest.approx(1.5)
    assert 0.5 <= result["setup_s"] < 0.6


def test_calibration_chunk_times_real_work():
    assert 0 < child.calibration_chunk(steps=1000) < child.calibration_chunk()
