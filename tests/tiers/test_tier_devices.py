"""Unit tests for the SSD device and the ladder the tier policies read."""

import pytest

from repro.cluster import NodeSpec, Ssd, SsdFull, SsdSpec
from repro.cluster.node import Node
from repro.sim import Simulator
from repro.tiers import TIER_ORDER, is_promotion, rung_read_seconds
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
        with pytest.raises(SsdFull):
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
        event = ssd.write(500 * MB)
        sim.run(until=10)
        assert event.triggered
        assert ssd.busy_time == pytest.approx(1.0)
        assert ssd.bytes_moved == pytest.approx(500 * MB)


class TestTierFacade:
    """What is left of the tier facade: the rung order and each rung's
    nominal read cost, the two facts the policies read."""

    def test_ladder_order_and_promotion(self):
        assert TIER_ORDER == ("archive", "disk", "ssd", "memory")
        assert is_promotion("disk", "ssd")
        assert is_promotion("ssd", "memory")
        assert is_promotion("archive", "disk")
        assert not is_promotion("memory", "ssd")
        assert not is_promotion("ssd", "disk")
        assert not is_promotion("disk", "archive")

    def test_node_tiers_with_ssd(self, sim):
        node = Node(sim, 0, NodeSpec().with_ssd().with_archive())
        seconds = rung_read_seconds(node, 64 * MB)
        assert set(seconds) == {"archive", "disk", "ssd", "memory"}
        assert seconds["disk"] == 64 * MB / node.disk.channel.capacity
        assert seconds["ssd"] == 64 * MB / node.ssd.channel.capacity
        assert seconds["memory"] == 64 * MB / node.memory.read_channel.capacity
        # Archive reads pay the per-operation setup latency on top.
        assert seconds["archive"] == node.archive.read_seconds(64 * MB)

    def test_node_tiers_without_ssd(self, sim):
        node = Node(sim, 0, NodeSpec())
        assert set(rung_read_seconds(node, 64 * MB)) == {"disk", "memory"}

    def test_read_seconds_orders_the_ladder(self, sim):
        node = Node(sim, 0, NodeSpec().with_ssd().with_archive())
        seconds = rung_read_seconds(node, 64 * MB)
        assert sorted(seconds, key=seconds.get, reverse=True) == list(TIER_ORDER)
