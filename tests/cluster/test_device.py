"""The unified device layer: ByteStore, BandwidthResource, thin devices.

Verifies that `Disk`/`Ssd`/`MemoryStore`/`Archive`/`Nic` are faithful
configurations of the two primitives -- the storage rungs *are*
`ByteStore`s and every pipe *is* a `BandwidthResource`, sized by the
device modules' constants -- that a full store raises `StoreFull`
naming itself, and that no old spelling (wrapper, forwarder or
per-tier error) survives as an alias.
"""

import pytest

import repro.cluster
from repro.cluster import (
    Archive,
    ByteStore,
    Disk,
    DiskSpec,
    MemoryStore,
    Nic,
    Ssd,
    StoreFull,
)
from repro.cluster.disk import DISK_MIN_EFFICIENCY
from repro.cluster.memory import MEMORY_CAPACITY, MEMORY_READ_BANDWIDTH
from repro.cluster.network import NIC_BANDWIDTH
from repro.cluster.ssd import SSD_BANDWIDTH, SSD_CAPACITY
from repro.sim import BandwidthResource, Simulator


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
        store = ByteStore(sim, capacity=10.0, name="s")
        with pytest.raises(StoreFull, match=r"^s: "):
            store.pin("a", 11.0)
        assert not store.is_pinned("a")

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
    """The ``channel`` every storage rung holds is the fair-share kernel
    itself, configured from the device's spec or constants."""

    def test_transfer_duration(self):
        sim = Simulator()
        chan = Disk(sim, DiskSpec(bandwidth=100.0), name="c").channel
        done = chan.transfer(50.0)
        sim.run_until_processed(done)
        assert sim.now == pytest.approx(0.5)
        assert chan.bytes_moved == pytest.approx(50.0)

    def test_rate_law_matches_kernel(self):
        sim = Simulator()
        disk = Disk(sim, DiskSpec(bandwidth=120.0, seek_penalty=0.5))
        chan = disk.channel
        assert isinstance(chan, BandwidthResource)
        assert chan.aggregate_rate(1) == pytest.approx(120.0)
        assert chan.aggregate_rate(2) == pytest.approx(80.0)
        # 120 / (1 + 0.5 * 99) is below the floor.
        assert chan.aggregate_rate(100) == pytest.approx(120.0 * DISK_MIN_EFFICIENCY)
        assert chan.expected_duration(120.0) == pytest.approx(1.0)

    def test_cancel_via_channel(self):
        sim = Simulator()
        chan = Ssd(sim).channel
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
        done = disk.channel.transfer(75.0)
        sim.run_until_processed(done)
        assert disk.channel.bytes_moved == pytest.approx(75.0)
        assert disk.channel.busy_time == pytest.approx(0.5)

    def test_memory_store_is_bytestore_plus_read_channel(self):
        sim = Simulator()
        mem = MemoryStore(sim)
        assert isinstance(mem, ByteStore)
        assert mem.capacity == MEMORY_CAPACITY
        assert mem.channel.capacity == MEMORY_READ_BANDWIDTH
        mem.pin("blk", 40.0)
        assert mem.used == 40.0
        with pytest.raises(StoreFull):
            mem.pin("big", MEMORY_CAPACITY)
        done = mem.channel.transfer(500.0)
        sim.run_until_processed(done)
        assert mem.channel.bytes_moved == pytest.approx(500.0)

    def test_ssd_is_both_primitives(self):
        sim = Simulator()
        ssd = Ssd(sim)
        assert isinstance(ssd, ByteStore)
        assert ssd.capacity == SSD_CAPACITY
        assert ssd.channel.capacity == SSD_BANDWIDTH
        ssd.pin("blk", 10.0)
        assert ssd.used == 10.0
        with pytest.raises(StoreFull):
            ssd.pin("big", SSD_CAPACITY)
        done = ssd.channel.transfer(250.0)
        sim.run_until_processed(done)
        assert ssd.channel.bytes_moved == pytest.approx(250.0)

    def test_nic_directions_are_independent_channels(self):
        sim = Simulator()
        nic = Nic(sim)
        assert nic.egress.capacity == nic.ingress.capacity == NIC_BANDWIDTH
        nic.egress.transfer(50.0)
        nic.ingress.transfer(80.0)
        sim.run()
        assert nic.egress.bytes_moved == pytest.approx(50.0)
        assert nic.ingress.bytes_moved == pytest.approx(80.0)

    def test_error_message_format_preserved(self):
        sim = Simulator()
        mem = MemoryStore(sim, name="mem0")
        size = 2 * MEMORY_CAPACITY
        message = rf"mem0: pin of {size:.0f}B exceeds budget"
        with pytest.raises(StoreFull, match=message):
            mem.pin("blk", size)


class TestDeprecatedAliasesRemoved:
    def test_resource_aliases_are_gone(self):
        # One spelling per operation: the `Channel` wrapper, its
        # forwarders, the private `store` of the rungs and the per-tier
        # error subclasses are gone, and nothing re-exports them.
        sim = Simulator()
        disk = Disk(sim, DiskSpec())
        mem = MemoryStore(sim)
        ssd = Ssd(sim)
        archive = Archive(sim)
        nic = Nic(sim)
        for device, names in [
            (disk, ["_resource", "read", "write", "start_stream", "utilization"]),
            (mem, ["_read_resource", "read_channel", "store", "read"]),
            (ssd, ["_resource", "store", "read", "write", "busy_time"]),
            (archive, ["store", "read", "write", "shared_channel"]),
            (nic, ["send", "receive", "start_send", "start_receive"]),
        ]:
            for name in names:
                assert not hasattr(device, name), (type(device).__name__, name)
        for name in ["Channel", "OutOfMemory", "SsdFull", "ArchiveFull"]:
            assert not hasattr(repro.cluster, name), name

    def test_channel_spelling_is_the_public_path(self):
        sim = Simulator()
        pipes = [
            Disk(sim, DiskSpec()).channel,
            Ssd(sim).channel,
            MemoryStore(sim).channel,
            Archive(sim).channel,
            Nic(sim).egress,
            Nic(sim).ingress,
        ]
        assert all(isinstance(p, BandwidthResource) for p in pipes)

    def test_public_constructors_and_signatures_unchanged(self):
        # The estimator/targeting call sites rely on these exact
        # shapes; out-of-tree scripts construct devices directly.
        sim = Simulator()
        disk = Disk(sim, DiskSpec(), name="d0")
        assert disk.channel.name == "d0"
        assert disk.channel.expected_duration(150e6, extra_flows=2) > 0
        mem = MemoryStore(sim, name="m0")
        assert mem.fits(1.0)
        ssd = Ssd(sim, name="s0")
        assert ssd.fits(1.0)
        nic = Nic(sim, name="n0")
        assert nic.egress.expected_duration(1e6) > 0
