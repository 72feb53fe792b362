"""Tests for trace-driven interference replay."""

import numpy as np
import pytest

from repro.analysis import TelemetryCollector
from repro.cluster import Cluster, ClusterSpec, TraceInterference


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec(n_workers=1, seed=0))


class TestTraceInterference:
    def test_validation(self, cluster):
        node = cluster.node(0)
        with pytest.raises(ValueError):
            TraceInterference(node, [])
        with pytest.raises(ValueError):
            TraceInterference(node, [0.5], bin_width=0)

    def test_values_clipped(self, cluster):
        intf = TraceInterference(cluster.node(0), [-0.5, 2.0, 0.3])
        assert intf.series == [0.0, 1.0, 0.3]

    def test_busy_fraction_tracks_series(self, cluster):
        node = cluster.node(0)
        series = [0.25, 0.75, 0.0, 1.0]
        intf = TraceInterference(node, series, bin_width=10.0, repeat=False)
        intf.start()
        telemetry = TelemetryCollector(cluster, interval=10.0)
        telemetry.start()
        cluster.sim.run(until=40)
        measured = list(telemetry.utilization_series(0))
        assert measured == pytest.approx(series, abs=0.02)

    def test_repeat_loops_series(self, cluster):
        node = cluster.node(0)
        intf = TraceInterference(node, [1.0, 0.0], bin_width=5.0, repeat=True)
        intf.start()
        sim = cluster.sim
        sim.run(until=2)
        assert node.disk.channel.active_flows == 1
        sim.run(until=7)
        assert node.disk.channel.active_flows == 0
        sim.run(until=12)  # second pass of the series
        assert node.disk.channel.active_flows == 1
        intf.stop()

    def test_no_repeat_ends_quiet(self, cluster):
        node = cluster.node(0)
        intf = TraceInterference(node, [1.0], bin_width=5.0, repeat=False)
        intf.start()
        cluster.sim.run(until=20)
        assert node.disk.channel.active_flows == 0

    def test_stop_releases_disk(self, cluster):
        node = cluster.node(0)
        intf = TraceInterference(node, [1.0], bin_width=100.0)
        intf.start()
        cluster.sim.run(until=5)
        intf.stop()
        assert node.disk.channel.active_flows == 0

    def test_google_trace_replay_end_to_end(self, cluster):
        """Feed a generated Google-trace utilization row straight in."""
        from repro.workloads.google_trace import generate_node_utilization

        series = generate_node_utilization(
            1, np.random.default_rng(3), duration=3600.0, bin_width=300.0
        )[0]
        intf = TraceInterference(
            cluster.node(0), series, bin_width=300.0, repeat=False
        )
        intf.start()
        telemetry = TelemetryCollector(cluster, interval=300.0)
        telemetry.start()
        cluster.sim.run(until=3600)
        measured = telemetry.utilization_series(0)
        assert np.allclose(measured, series, atol=0.02)
