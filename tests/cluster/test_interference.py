"""Unit tests for the interference generators (§V-C rig)."""

import pytest

from repro.cluster import (
    AlternatingInterference,
    Cluster,
    ClusterSpec,
    InterferenceSchedule,
    PersistentInterference,
)
from repro.units import MB


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec(n_workers=3))


class TestPersistentInterference:
    def test_streams_occupy_disk(self, cluster):
        node = cluster.node(0)
        intf = PersistentInterference(node, streams=2)
        intf.start()
        cluster.sim.run(until=1)
        assert node.disk.channel.active_flows == 2
        assert intf.active

    def test_delayed_start(self, cluster):
        node = cluster.node(0)
        intf = PersistentInterference(node, streams=1, start=5.0)
        intf.start()
        cluster.sim.run(until=4)
        assert node.disk.channel.active_flows == 0
        cluster.sim.run(until=6)
        assert node.disk.channel.active_flows == 1

    def test_stop_releases_disk(self, cluster):
        node = cluster.node(0)
        intf = PersistentInterference(node)
        intf.start()
        cluster.sim.run(until=1)
        intf.stop()
        assert node.disk.channel.active_flows == 0
        assert not intf.active

    def test_double_start_rejected(self, cluster):
        intf = PersistentInterference(cluster.node(0))
        intf.start()
        with pytest.raises(RuntimeError):
            intf.start()

    def test_slows_concurrent_reads(self, cluster):
        """Interference must actually steal bandwidth from readers."""
        node = cluster.node(0)
        baseline_done = node.disk.channel.transfer(150 * MB)
        cluster.sim.run()
        baseline = cluster.sim.now

        cluster2 = Cluster(ClusterSpec(n_workers=1))
        node2 = cluster2.node(0)
        PersistentInterference(node2, streams=2).start()
        done = node2.disk.channel.transfer(150 * MB)
        finish = []
        done.add_callback(lambda e: finish.append(cluster2.sim.now))
        cluster2.sim.run(until=1000)
        assert baseline_done.processed
        assert finish and finish[0] > 2 * baseline

    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            PersistentInterference(cluster.node(0), streams=0)
        with pytest.raises(ValueError):
            PersistentInterference(cluster.node(0), start=-1)


class TestAlternatingInterference:
    def test_toggles_every_period(self, cluster):
        node = cluster.node(0)
        intf = AlternatingInterference(node, period=10.0, streams=2)
        intf.start()
        sim = cluster.sim
        sim.run(until=5)
        assert node.disk.channel.active_flows == 2
        sim.run(until=15)
        assert node.disk.channel.active_flows == 0
        sim.run(until=25)
        assert node.disk.channel.active_flows == 2
        intf.stop()

    def test_start_inactive_phase(self, cluster):
        node = cluster.node(0)
        intf = AlternatingInterference(node, period=10.0, start_active=False)
        intf.start()
        cluster.sim.run(until=5)
        assert node.disk.channel.active_flows == 0
        cluster.sim.run(until=15)
        assert node.disk.channel.active_flows == 2
        intf.stop()

    def test_transitions_recorded(self, cluster):
        intf = AlternatingInterference(cluster.node(0), period=10.0)
        intf.start()
        cluster.sim.run(until=35)
        intf.stop()
        assert intf.transitions[:4] == [
            (0.0, True),
            (10.0, False),
            (20.0, True),
            (30.0, False),
        ]

    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            AlternatingInterference(cluster.node(0), period=0)


class TestInterferenceSchedule:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            InterferenceSchedule("wat")

    def test_none_pattern_builds_nothing(self, cluster):
        assert InterferenceSchedule("none").build(cluster) == []

    def test_persistent_pattern(self, cluster):
        gens = InterferenceSchedule("persistent-1").start(cluster)
        assert len(gens) == 1
        cluster.sim.run(until=1)
        assert cluster.node(0).disk.channel.active_flows == 2

    @pytest.mark.parametrize(
        "pattern,n_generators,period",
        [
            ("alt-10s-1", 1, 10.0),
            ("alt-20s-1", 1, 20.0),
            ("alt-10s-2", 2, 10.0),
            ("alt-20s-2", 2, 20.0),
        ],
    )
    def test_alternating_patterns(self, cluster, pattern, n_generators, period):
        gens = InterferenceSchedule(pattern).build(cluster)
        assert len(gens) == n_generators
        assert all(g.period == period for g in gens)

    def test_two_node_patterns_are_antiphase(self, cluster):
        gens = InterferenceSchedule("alt-10s-2").start(cluster)
        sim = cluster.sim
        sim.run(until=5)
        assert cluster.node(0).disk.channel.active_flows == 2
        assert cluster.node(1).disk.channel.active_flows == 0
        sim.run(until=15)
        assert cluster.node(0).disk.channel.active_flows == 0
        assert cluster.node(1).disk.channel.active_flows == 2
        for g in gens:
            g.stop()

    def test_exactly_one_node_of_interference_at_all_times(self, cluster):
        """Table II's invariant: the anti-phase patterns always have
        exactly one node's worth of interference active."""
        InterferenceSchedule("alt-10s-2").start(cluster)
        sim = cluster.sim
        for t in (1, 11, 21, 31, 41):
            sim.run(until=t)
            active = sum(
                1 for n in cluster.nodes if n.disk.channel.active_flows > 0
            )
            assert active == 1
