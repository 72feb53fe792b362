"""Every ``DyrsConfig`` and ``ComputeConfig`` knob's validation
bounds, exercised.

CFG601 (``unvalidated-knob``) requires each configuration knob to be
referenced by at least one test; the ``__post_init__`` bounds are the
cheapest behavior every knob owns, so this suite pins all of them --
one accepted edge value and one rejected out-of-domain value per
field.
"""

import dataclasses

import pytest

from repro.compute import ComputeConfig
from repro.core.master import DyrsConfig


def make(**overrides):
    return DyrsConfig(**overrides)


class TestFieldBounds:
    @pytest.mark.parametrize(
        "field,good,bad",
        [
            ("queue_depth", 1, 0),
            ("pull_service_cost", 0.0, -1.0),
            ("idle_pull", "notify", "busywait"),
            ("shard_pull_window", 1, 0),
        ],
    )
    def test_bound(self, field, good, bad):
        assert getattr(make(**{field: good}), field) == good
        with pytest.raises(ValueError, match=field):
            make(**{field: bad})

    @pytest.mark.parametrize("field", ["queue_depth", "memory_limit"])
    def test_none_means_disabled(self, field):
        assert getattr(make(**{field: None}), field) is None

    def test_memory_limit_and_estimator_refresh_pass_through(self):
        # memory_limit has no lower bound (any float caps migrated
        # bytes); estimator_refresh is a plain ablation toggle.
        assert make(memory_limit=64.0).memory_limit == 64.0
        assert make(estimator_refresh=False).estimator_refresh is False
        assert make().estimator_refresh is True

    def test_every_field_is_pinned_here(self):
        # If a field is added to DyrsConfig without a bound test above,
        # fail loudly (and CFG601 would flag it too).
        pinned = {
            "queue_depth", "memory_limit", "estimator_refresh",
            "pull_service_cost", "idle_pull", "shard_pull_window",
        }
        actual = {f.name for f in dataclasses.fields(DyrsConfig)}
        assert actual == pinned


class TestComputeFieldBounds:
    @pytest.mark.parametrize(
        "field,good,bad",
        [
            ("task_launch_overhead", 0.0, -1.0),
            ("job_init_overhead", 0.0, -0.5),
        ],
    )
    def test_bound(self, field, good, bad):
        assert getattr(ComputeConfig(**{field: good}), field) == good
        with pytest.raises(ValueError, match=field):
            ComputeConfig(**{field: bad})

    def test_every_field_is_pinned_here(self):
        pinned = {"task_launch_overhead", "job_init_overhead"}
        actual = {f.name for f in dataclasses.fields(ComputeConfig)}
        assert actual == pinned
