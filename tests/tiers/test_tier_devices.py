"""Unit tests for the SSD device and the rung order of the ladder."""

import pytest

from repro.cluster import Ssd, StoreFull
from repro.cluster.ssd import (
    SSD_BANDWIDTH,
    SSD_CAPACITY,
    SSD_MIN_EFFICIENCY,
    SSD_SEEK_PENALTY,
)
from repro.lifecycle import TIER_ORDER, is_promotion
from repro.sim import Simulator
from repro.units import MB


@pytest.fixture
def sim():
    return Simulator()


class TestSsdDevice:
    def test_constants_configure_the_device(self, sim):
        ssd = Ssd(sim)
        assert ssd.capacity == SSD_CAPACITY
        assert ssd.channel.capacity == SSD_BANDWIDTH
        assert ssd.channel.seek_penalty == SSD_SEEK_PENALTY
        assert ssd.channel.min_efficiency == SSD_MIN_EFFICIENCY

    def test_pin_unpin_accounting(self, sim):
        ssd = Ssd(sim)
        ssd.pin("a", 64 * MB)
        assert ssd.used == pytest.approx(64 * MB)
        assert ssd.is_pinned("a")
        assert ssd.pinned_keys() == ("a",)
        assert ssd.unpin("a") == pytest.approx(64 * MB)
        assert ssd.used == 0.0
        assert ssd.peak == pytest.approx(64 * MB)

    def test_pin_over_budget_raises(self, sim):
        ssd = Ssd(sim)
        ssd.pin("a", SSD_CAPACITY)
        assert not ssd.fits(1.0)
        with pytest.raises(StoreFull):
            ssd.pin("b", 64 * MB)

    def test_double_pin_raises(self, sim):
        ssd = Ssd(sim)
        ssd.pin("a", 64 * MB)
        with pytest.raises(KeyError):
            ssd.pin("a", 64 * MB)

    def test_unpin_is_idempotent(self, sim):
        ssd = Ssd(sim)
        assert ssd.unpin("never-pinned") == 0.0

    def test_transfer_charges_device_time(self, sim):
        ssd = Ssd(sim)
        event = ssd.channel.transfer(SSD_BANDWIDTH)
        sim.run(until=10)
        assert event.triggered
        assert ssd.channel.busy_time == pytest.approx(1.0)
        assert ssd.channel.bytes_moved == pytest.approx(SSD_BANDWIDTH)


class TestTierFacade:
    """What is left of the tier facade: the rung order."""

    def test_ladder_order_and_promotion(self):
        assert TIER_ORDER == ("archive", "disk", "ssd", "memory")
        assert is_promotion("disk", "ssd")
        assert is_promotion("ssd", "memory")
        assert is_promotion("archive", "disk")
        assert not is_promotion("memory", "ssd")
        assert not is_promotion("ssd", "disk")
        assert not is_promotion("disk", "archive")
