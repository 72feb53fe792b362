"""Tests for the telemetry collector."""

import pytest

from repro.analysis.telemetry import TelemetryCollector
from repro.cluster import Cluster, ClusterSpec, PersistentInterference
from repro.units import MB


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec(n_workers=2, seed=0))


class TestTelemetry:
    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            TelemetryCollector(cluster, interval=0)

    def test_samples_at_interval(self, cluster):
        collector = TelemetryCollector(cluster, interval=2.0)
        collector.start()
        cluster.sim.run(until=10)
        assert [s.time for s in collector.samples] == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_idle_cluster_reads_zero_utilization(self, cluster):
        collector = TelemetryCollector(cluster, interval=1.0)
        collector.start()
        cluster.sim.run(until=5)
        assert all(
            u == 0.0 for s in collector.samples for u in s.disk_utilization
        )

    def test_busy_disk_reads_full_utilization(self, cluster):
        collector = TelemetryCollector(cluster, interval=1.0)
        collector.start()
        PersistentInterference(cluster.node(0), streams=1).start()
        cluster.sim.run(until=5)
        series = collector.utilization_series(0)
        assert all(u == pytest.approx(1.0) for u in series)
        assert all(u == 0.0 for u in collector.utilization_series(1))

    def test_partial_interval_utilization(self, cluster):
        collector = TelemetryCollector(cluster, interval=2.0)
        collector.start()
        # One read occupying exactly 1s of a 2s window.
        cluster.node(0).disk.channel.transfer(150 * MB)
        cluster.sim.run(until=2)
        assert collector.samples[-1].disk_utilization[0] == pytest.approx(0.5)

    def test_disk_bytes_delta(self, cluster):
        collector = TelemetryCollector(cluster, interval=5.0)
        collector.start()
        cluster.node(1).disk.channel.transfer(64 * MB)
        cluster.sim.run(until=5)
        assert collector.samples[0].disk_bytes[1] == pytest.approx(64 * MB)
        cluster.sim.run(until=10)
        assert collector.samples[1].disk_bytes[1] == 0.0

    def test_memory_series(self, cluster):
        collector = TelemetryCollector(cluster, interval=1.0)
        collector.start()
        cluster.sim.run(until=2)
        cluster.node(0).memory.pin("b", 32 * MB)
        cluster.sim.run(until=4)
        series = collector.memory_series(0)
        assert list(series) == [0.0, 0.0, 32 * MB, 32 * MB]

    def test_matrix_shape_and_stop(self, cluster):
        collector = TelemetryCollector(cluster, interval=1.0)
        collector.start()
        cluster.sim.run(until=3)
        collector.stop()
        cluster.sim.run(until=10)
        assert collector.utilization_matrix().shape == (2, 3)
        assert len(collector.times()) == 3

    def test_empty_matrix(self, cluster):
        collector = TelemetryCollector(cluster)
        assert collector.utilization_matrix().shape == (2, 0)

    def test_scheduler_queue_sampled(self, cluster):
        from repro.compute import TaskScheduler

        scheduler = TaskScheduler(cluster)
        collector = TelemetryCollector(cluster, interval=1.0, scheduler=scheduler)
        collector.start()
        # Saturate every slot, then queue three more requests.
        total = sum(n.spec.task_slots for n in cluster.nodes)
        for _ in range(total + 3):
            scheduler.acquire()
        cluster.sim.run(until=1)
        assert collector.samples[0].queued_tasks == 3
