"""Unit tests for the tier lifecycle policies."""

import pytest

from repro.cluster import NodeSpec, SsdSpec
from repro.cluster.node import Node
from repro.sim import Simulator
from repro.lifecycle import (
    CostBenefitPolicy,
    PlacementContext,
    Temperature,
    ThresholdPolicy,
    rung_read_seconds,
)
from repro.units import MB


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def full_ladder(sim):
    return rung_read_seconds(Node(sim, 0, NodeSpec().with_ssd(SsdSpec())), 64 * MB)


@pytest.fixture
def two_rungs(sim):
    return rung_read_seconds(Node(sim, 0, NodeSpec()), 64 * MB)


def ctx(read_seconds, temperature=Temperature.WARM, access_rate=0.0,
        resident="disk", spb=None):
    if spb is None:
        spb = 1.0 / (150 * MB)  # one nominal-disk byte-copy
    return PlacementContext(
        block_size=64 * MB,
        temperature=temperature,
        access_rate=access_rate,
        resident_tier=resident,
        read_seconds=read_seconds,
        move_seconds_per_byte=spb,
    )


class TestThresholdPolicy:
    def test_temperature_ladder(self, full_ladder):
        policy = ThresholdPolicy()
        assert policy.target_tier(ctx(full_ladder, Temperature.HOT)) == "memory"
        assert policy.target_tier(ctx(full_ladder, Temperature.WARM)) == "ssd"
        assert policy.target_tier(ctx(full_ladder, Temperature.COLD)) == "disk"

    def test_missing_ssd_rung_falls_to_disk(self, two_rungs):
        policy = ThresholdPolicy()
        assert policy.target_tier(ctx(two_rungs, Temperature.WARM)) == "disk"
        # The memory rung still exists, so HOT is unaffected.
        assert policy.target_tier(ctx(two_rungs, Temperature.HOT)) == "memory"


class TestCostBenefitPolicy:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            CostBenefitPolicy(horizon=0)

    def test_idle_block_stays_on_disk(self, full_ladder):
        policy = CostBenefitPolicy(horizon=120.0)
        assert policy.target_tier(ctx(full_ladder, access_rate=0.0)) == "disk"

    def test_hot_block_earns_memory(self, full_ladder):
        policy = CostBenefitPolicy(horizon=120.0)
        assert policy.target_tier(ctx(full_ladder, access_rate=1.0)) == "memory"

    def test_resident_tier_pays_no_move_cost(self, full_ladder):
        # One expected read: the savings never repay a fresh move, but
        # keeping the existing SSD copy is free, so it stays.
        policy = CostBenefitPolicy(horizon=120.0)
        rate = 1.0 / 120.0
        assert (
            policy.target_tier(ctx(full_ladder, access_rate=rate, resident="ssd"))
            == "ssd"
        )

    def test_idle_ssd_resident_block_expires(self, full_ladder):
        # Zero expected reads: even a free keep has no benefit, and the
        # no-benefit case falls to the bottom rung.
        policy = CostBenefitPolicy(horizon=120.0)
        assert (
            policy.target_tier(ctx(full_ladder, access_rate=0.0, resident="ssd"))
            == "disk"
        )

    def test_skips_rungs_absent_from_node(self, two_rungs):
        policy = CostBenefitPolicy(horizon=120.0)
        assert policy.target_tier(ctx(two_rungs, access_rate=1.0)) == "memory"
