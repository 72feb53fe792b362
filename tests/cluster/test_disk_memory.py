"""Unit tests for the disk and memory models."""

import pytest

from repro.cluster import Disk, DiskSpec, MemoryStore, StoreFull
from repro.cluster.memory import MEMORY_CAPACITY, MEMORY_READ_BANDWIDTH
from repro.sim import Simulator
from repro.units import MB


@pytest.fixture
def sim():
    return Simulator()


class TestDiskSpec:
    def test_defaults_valid(self):
        spec = DiskSpec()
        assert spec.bandwidth > 0
        assert spec.seek_penalty >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskSpec(bandwidth=0)
        with pytest.raises(ValueError):
            DiskSpec(seek_penalty=-0.1)


class TestDisk:
    def test_sequential_read_time(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100 * MB, seek_penalty=0.5))
        done = disk.channel.transfer(200 * MB)
        sim.run()
        assert done.processed
        assert sim.now == pytest.approx(2.0)

    def test_reads_and_writes_share_actuator(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100 * MB, seek_penalty=0.0))
        r = disk.channel.transfer(100 * MB, tag="read")
        w = disk.channel.transfer(100 * MB, tag="write")
        sim.run()
        assert r.processed and w.processed
        assert sim.now == pytest.approx(2.0)

    def test_read_rate_hint_reflects_load(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100 * MB, seek_penalty=1.0))
        solo = 50 * MB / disk.channel.expected_duration(50 * MB)
        disk.channel.start_flow(float("inf"))
        loaded = 50 * MB / disk.channel.expected_duration(50 * MB)
        assert solo == pytest.approx(100 * MB)
        # k=2, p=1: aggregate 50 MB/s shared by 2 -> 25 MB/s.
        assert loaded == pytest.approx(25 * MB)

    def test_expected_read_time(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100 * MB, seek_penalty=0.0))
        assert disk.channel.expected_duration(50 * MB) == pytest.approx(0.5)

    def test_cancel_stream(self, sim):
        disk = Disk(sim, DiskSpec())
        flow = disk.channel.start_flow(float("inf"))
        assert disk.channel.active_flows == 1
        disk.channel.cancel(flow)
        assert disk.channel.active_flows == 0


class TestMemoryStore:
    def make(self, sim):
        return MemoryStore(sim)

    def test_pin_accounts_bytes(self, sim):
        mem = self.make(sim)
        mem.pin("b1", 4 * MB)
        assert mem.used == 4 * MB
        assert mem.free == MEMORY_CAPACITY - 4 * MB
        assert mem.is_pinned("b1")

    def test_pin_over_budget_raises(self, sim):
        mem = self.make(sim)
        mem.pin("b1", MEMORY_CAPACITY - 2 * MB)
        assert not mem.fits(4 * MB)
        with pytest.raises(StoreFull):
            mem.pin("b2", 4 * MB)

    def test_double_pin_raises(self, sim):
        mem = self.make(sim)
        mem.pin("b1", MB)
        with pytest.raises(KeyError):
            mem.pin("b1", MB)

    def test_unpin_returns_size_and_is_idempotent(self, sim):
        mem = self.make(sim)
        mem.pin("b1", 3 * MB)
        assert mem.unpin("b1") == 3 * MB
        assert mem.unpin("b1") == 0.0
        assert mem.used == 0.0

    def test_peak_tracks_high_water_mark(self, sim):
        mem = self.make(sim)
        mem.pin("a", 4 * MB)
        mem.pin("b", 4 * MB)
        mem.unpin("a")
        assert mem.peak == 8 * MB
        assert mem.used == 4 * MB

    def test_usage_samples_record_changes(self, sim):
        mem = self.make(sim)
        sim.run(until=5)
        mem.pin("a", MB)
        sim.run(until=9)
        mem.unpin("a")
        times = [t for t, _ in mem.usage_samples]
        levels = [u for _, u in mem.usage_samples]
        assert times == [0.0, 5.0, 9.0]
        assert levels == [0.0, MB, 0.0]

    def test_memory_read_is_fast(self, sim):
        mem = self.make(sim)
        done = mem.channel.transfer(100 * MB)
        sim.run()
        assert done.processed
        assert sim.now == pytest.approx(100 * MB / MEMORY_READ_BANDWIDTH)

    def test_negative_pin_rejected(self, sim):
        mem = self.make(sim)
        with pytest.raises(ValueError):
            mem.pin("x", -1)
