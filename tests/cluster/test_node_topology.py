"""Unit tests for nodes, cluster topology, and the network model."""

import pytest

from repro.cluster import Cluster, ClusterSpec, Nic, Node, NodeSpec
from repro.cluster.network import NIC_BANDWIDTH
from repro.sim import Simulator
from repro.units import Gbps, MB


@pytest.fixture
def sim():
    return Simulator()


class TestNic:
    def test_send_duration(self, sim):
        nic = Nic(sim)
        assert NIC_BANDWIDTH == 10 * Gbps
        done = nic.egress.transfer(1.25e9)  # exactly one second at 10 Gbps
        sim.run()
        assert done.processed
        assert sim.now == pytest.approx(1.0)

    def test_duplex_directions_independent(self, sim):
        nic = Nic(sim)
        tx = nic.egress.transfer(NIC_BANDWIDTH)
        rx = nic.ingress.transfer(NIC_BANDWIDTH)
        sim.run()
        # Full duplex: both complete in one second, not two.
        assert tx.processed and rx.processed
        assert sim.now == pytest.approx(1.0)


class TestNode:
    def test_construction(self, sim):
        node = Node(sim, 3, NodeSpec())
        assert node.name == "node3"
        assert node.alive

    def test_fail_drops_memory(self, sim):
        node = Node(sim, 0, NodeSpec())
        node.memory.pin("b", MB)
        node.fail()
        assert not node.alive
        assert node.memory.used == 0.0
        node.recover()
        assert node.alive

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(task_slots=0)

    def test_with_disk_bandwidth(self):
        slow = NodeSpec().with_disk_bandwidth(10 * MB)
        assert slow.disk.bandwidth == 10 * MB
        # Other fields untouched.
        assert slow.task_slots == NodeSpec().task_slots


class TestCluster:
    def test_default_has_seven_workers(self):
        cluster = Cluster()
        assert len(cluster.nodes) == 7

    def test_overrides_apply(self):
        slow = NodeSpec().with_disk_bandwidth(10 * MB)
        cluster = Cluster(ClusterSpec(n_workers=3, overrides={1: slow}))
        assert cluster.node(1).spec.disk.bandwidth == 10 * MB
        assert cluster.node(0).spec.disk.bandwidth != 10 * MB

    def test_override_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_workers=2, overrides={5: NodeSpec()})

    def test_alive_nodes_excludes_failed(self):
        cluster = Cluster(ClusterSpec(n_workers=3))
        cluster.node(1).fail()
        assert [n.node_id for n in cluster.alive_nodes()] == [0, 2]

    def test_total_memory_used(self):
        cluster = Cluster(ClusterSpec(n_workers=2))
        cluster.node(0).memory.pin("a", MB)
        cluster.node(1).memory.pin("b", 2 * MB)
        assert cluster.total_memory_used() == 3 * MB

    def test_seed_flows_to_rngs(self):
        c1 = Cluster(ClusterSpec(seed=5))
        c2 = Cluster(ClusterSpec(seed=5))
        assert c1.rngs.stream("x").random() == c2.rngs.stream("x").random()
