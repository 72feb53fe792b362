"""The unified device layer: ByteStore, Channel, and the thin devices.

Verifies that `Disk`/`Ssd`/`MemoryStore`/`Nic` are faithful
configurations of the two primitives, that the historical exception
types still work (now under the common `StoreFull` base), and that the
PR-2 deprecated `_resource`/`_read_resource` aliases are gone for good
(callers go through `channel` / `read_channel`).
"""

import pytest

from repro.cluster import (
    ByteStore,
    Channel,
    Disk,
    DiskSpec,
    MemorySpec,
    MemoryStore,
    Nic,
    NicSpec,
    OutOfMemory,
    Ssd,
    SsdFull,
    SsdSpec,
    StoreFull,
)
from repro.sim import Simulator


class TestByteStore:
    def test_pin_unpin_roundtrip(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=100.0, name="s")
        store.pin("a", 60.0)
        assert store.used == 60.0
        assert store.free == 40.0
        assert store.is_pinned("a")
        assert store.pinned_keys() == ("a",)
        assert store.unpin("a") == 60.0
        assert store.used == 0.0
        assert store.peak == 60.0

    def test_unpin_unknown_key_is_noop(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=100.0)
        assert store.unpin("ghost") == 0.0

    def test_overflow_raises_configured_error(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=10.0, name="s", full_error=SsdFull)
        with pytest.raises(SsdFull):
            store.pin("a", 11.0)
        # ...which is still a StoreFull, so tier-agnostic code can
        # catch the base.
        with pytest.raises(StoreFull):
            store.pin("a", 11.0)

    def test_double_pin_rejected(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=100.0)
        store.pin("a", 1.0)
        with pytest.raises(KeyError):
            store.pin("a", 1.0)

    def test_usage_samples_record_changes(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=100.0)
        store.pin("a", 30.0)
        store.unpin("a")
        assert store.usage_samples == [(0.0, 0.0), (0.0, 30.0), (0.0, 0.0)]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ByteStore(Simulator(), capacity=0.0)


class TestChannel:
    def test_transfer_duration(self):
        sim = Simulator()
        chan = Channel(sim, capacity=100.0, name="c")
        done = chan.transfer(50.0)
        sim.run_until_processed(done)
        assert sim.now == pytest.approx(0.5)
        assert chan.bytes_moved == pytest.approx(50.0)

    def test_rate_law_matches_kernel(self):
        sim = Simulator()
        chan = Channel(
            sim, capacity=120.0, seek_penalty=0.5, min_efficiency=0.25, name="c"
        )
        assert chan.aggregate_rate(1) == pytest.approx(120.0)
        assert chan.aggregate_rate(2) == pytest.approx(80.0)
        assert chan.aggregate_rate(100) == pytest.approx(30.0)  # floored
        assert chan.rate_hint() == pytest.approx(120.0)
        assert chan.expected_duration(120.0) == pytest.approx(1.0)

    def test_cancel_via_channel(self):
        sim = Simulator()
        chan = Channel(sim, capacity=100.0)
        flow = chan.start_flow(1000.0)
        assert chan.active_flows == 1
        chan.cancel(flow)
        assert chan.active_flows == 0


class TestThinDevices:
    def test_disk_is_a_channel_of_its_spec(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec(bandwidth=150.0, seek_penalty=0.35))
        assert disk.channel.capacity == 150.0
        assert disk.channel.seek_penalty == 0.35
        done = disk.read(75.0)
        sim.run_until_processed(done)
        assert disk.bytes_moved == pytest.approx(75.0)
        assert disk.busy_time == pytest.approx(0.5)

    def test_memory_store_is_bytestore_plus_read_channel(self):
        sim = Simulator()
        mem = MemoryStore(sim, MemorySpec(capacity=100.0, read_bandwidth=1000.0))
        mem.pin("blk", 40.0)
        assert mem.store.used == 40.0
        assert mem.used == 40.0
        with pytest.raises(OutOfMemory):
            mem.pin("big", 100.0)
        assert isinstance(OutOfMemory("x"), StoreFull)
        done = mem.read(500.0)
        sim.run_until_processed(done)
        assert mem.read_channel.bytes_moved == pytest.approx(500.0)

    def test_ssd_is_both_primitives(self):
        sim = Simulator()
        ssd = Ssd(sim, SsdSpec(capacity=100.0, bandwidth=500.0))
        ssd.pin("blk", 10.0)
        assert ssd.store.used == 10.0
        with pytest.raises(SsdFull):
            ssd.pin("big", 1000.0)
        done = ssd.read(250.0)
        sim.run_until_processed(done)
        assert ssd.channel.bytes_moved == pytest.approx(250.0)

    def test_nic_directions_are_independent_channels(self):
        sim = Simulator()
        nic = Nic(sim, NicSpec(bandwidth=100.0))
        nic.send(50.0)
        nic.receive(80.0)
        sim.run()
        assert nic.egress.bytes_moved == pytest.approx(50.0)
        assert nic.ingress.bytes_moved == pytest.approx(80.0)

    def test_error_message_format_preserved(self):
        sim = Simulator()
        mem = MemoryStore(sim, MemorySpec(capacity=100.0), name="mem0")
        with pytest.raises(OutOfMemory, match=r"mem0: pin of 200B exceeds budget"):
            mem.pin("blk", 200.0)


class TestDeprecatedAliasesRemoved:
    def test_resource_aliases_are_gone(self):
        # The PR-2 `_resource`/`_read_resource` deprecation shims were
        # removed after two releases; the public spelling is `channel`
        # (and `read_channel` for memory).
        sim = Simulator()
        assert not hasattr(Disk(sim, DiskSpec()), "_resource")
        assert not hasattr(Ssd(sim, SsdSpec()), "_resource")
        assert not hasattr(MemoryStore(sim, MemorySpec()), "_read_resource")

    def test_channel_spelling_is_the_public_path(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec())
        ssd = Ssd(sim, SsdSpec())
        mem = MemoryStore(sim, MemorySpec())
        assert disk.channel.kernel is not None
        assert ssd.channel.kernel is not None
        assert mem.read_channel.kernel is not None

    def test_public_constructors_and_signatures_unchanged(self):
        # The estimator/targeting call sites rely on these exact
        # shapes; out-of-tree scripts construct devices directly.
        sim = Simulator()
        disk = Disk(sim, DiskSpec(), name="d0")
        assert disk.expected_read_time(150e6) > 0
        assert disk.read_rate_hint(extra_streams=2) > 0
        mem = MemoryStore(sim, MemorySpec(), name="m0")
        assert mem.fits(1.0)
        ssd = Ssd(sim, SsdSpec(), name="s0")
        assert ssd.fits(1.0)
        nic = Nic(sim, NicSpec(), name="n0")
        assert nic.egress.expected_duration(1e6) > 0
