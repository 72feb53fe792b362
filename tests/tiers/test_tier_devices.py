"""Unit tests for the SSD device and the rung order of the ladder."""

import pytest

from repro.cluster import Ssd, SsdSpec, StoreFull
from repro.lifecycle import TIER_ORDER, is_promotion
from repro.sim import Simulator
from repro.units import MB


@pytest.fixture
def sim():
    return Simulator()


class TestSsdSpec:
    def test_defaults_valid(self):
        spec = SsdSpec()
        assert spec.capacity > 0
        assert spec.bandwidth > 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SsdSpec(capacity=0)
        with pytest.raises(ValueError):
            SsdSpec(bandwidth=-1)
        with pytest.raises(ValueError):
            SsdSpec(min_efficiency=1.5)


class TestSsdDevice:
    def test_pin_unpin_accounting(self, sim):
        ssd = Ssd(sim, SsdSpec(capacity=128 * MB))
        ssd.pin("a", 64 * MB)
        assert ssd.used == pytest.approx(64 * MB)
        assert ssd.is_pinned("a")
        assert ssd.pinned_keys() == ("a",)
        assert ssd.unpin("a") == pytest.approx(64 * MB)
        assert ssd.used == 0.0
        assert ssd.peak == pytest.approx(64 * MB)

    def test_pin_over_budget_raises(self, sim):
        ssd = Ssd(sim, SsdSpec(capacity=64 * MB))
        ssd.pin("a", 64 * MB)
        assert not ssd.fits(1.0)
        with pytest.raises(StoreFull):
            ssd.pin("b", 64 * MB)

    def test_double_pin_raises(self, sim):
        ssd = Ssd(sim, SsdSpec(capacity=256 * MB))
        ssd.pin("a", 64 * MB)
        with pytest.raises(KeyError):
            ssd.pin("a", 64 * MB)

    def test_unpin_is_idempotent(self, sim):
        ssd = Ssd(sim, SsdSpec())
        assert ssd.unpin("never-pinned") == 0.0

    def test_transfer_charges_device_time(self, sim):
        spec = SsdSpec(bandwidth=500 * MB)
        ssd = Ssd(sim, spec)
        event = ssd.channel.transfer(500 * MB)
        sim.run(until=10)
        assert event.triggered
        assert ssd.channel.busy_time == pytest.approx(1.0)
        assert ssd.channel.bytes_moved == pytest.approx(500 * MB)


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
