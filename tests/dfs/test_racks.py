"""Tests for rack awareness: topology, placement, and read routing."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.network import NIC_BANDWIDTH, RACK_UPLINK_BANDWIDTH
from repro.dfs import DFSClient, NameNode, RackAwarePlacement, ReadSource
from repro.units import MB


@pytest.fixture
def racked_cluster():
    return Cluster(ClusterSpec(n_workers=6, n_racks=2, seed=5))


class TestTopology:
    def test_round_robin_rack_striping(self, racked_cluster):
        assert [n.rack_id for n in racked_cluster.nodes] == [0, 1, 0, 1, 0, 1]

    def test_same_rack(self, racked_cluster):
        assert racked_cluster.same_rack(0, 2)
        assert not racked_cluster.same_rack(0, 1)
        assert not racked_cluster.same_rack(0, None)

    def test_single_rack_has_no_uplinks(self):
        cluster = Cluster(ClusterSpec(n_workers=3, n_racks=1))
        assert not cluster.fabric.rack_aware
        assert cluster.fabric.uplinks == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_workers=2, n_racks=3)


class TestRackAwarePlacement:
    def test_remaining_replicas_on_one_remote_rack(self):
        rack_of = [0, 1, 0, 1, 0, 1]
        policy = RackAwarePlacement(rack_of, np.random.default_rng(0))
        for replicas in policy.place(100, replication=3):
            assert len(set(replicas)) == 3
            first_rack = rack_of[replicas[0]]
            other_racks = {rack_of[n] for n in replicas[1:]}
            assert len(other_racks) == 1
            assert first_rack not in other_racks

    def test_single_rack_fallback_distinct_nodes(self):
        policy = RackAwarePlacement([0, 0, 0, 0], np.random.default_rng(1))
        for replicas in policy.place(50, replication=3):
            assert len(set(replicas)) == 3

    def test_small_remote_rack_tops_up(self):
        # Rack 1 has a single node; third replica must come from
        # somewhere else while staying distinct.
        policy = RackAwarePlacement([0, 0, 0, 1], np.random.default_rng(2))
        for replicas in policy.place(50, replication=3):
            assert len(set(replicas)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RackAwarePlacement([], np.random.default_rng(0))
        policy = RackAwarePlacement([0, 1], np.random.default_rng(0))
        with pytest.raises(ValueError):
            policy.place(1, replication=3)

    def test_deterministic_under_seed(self):
        a = RackAwarePlacement([0, 1, 0, 1], np.random.default_rng(3)).place(10, 2)
        b = RackAwarePlacement([0, 1, 0, 1], np.random.default_rng(3)).place(10, 2)
        assert a == b


class TestCrossRackReads:
    def make_dfs(self, cluster):
        rack_of = [n.rack_id for n in cluster.nodes]
        nn = NameNode(
            cluster,
            RackAwarePlacement(rack_of, cluster.rngs.stream("placement")),
            block_size=64 * MB,
            replication=3,
        )
        return nn, DFSClient(nn)

    def test_same_rack_replica_preferred_for_remote_disk_read(self, racked_cluster):
        nn, client = self.make_dfs(racked_cluster)
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        reader = next(
            n.node_id
            for n in racked_cluster.nodes
            if n.node_id not in block.replica_nodes
        )
        dn = nn.resolve_read(block, reader_node=reader)
        same_rack_replicas = [
            nid
            for nid in block.replica_nodes
            if racked_cluster.same_rack(nid, reader)
        ]
        if same_rack_replicas:  # placement guarantees both racks hold data
            assert racked_cluster.same_rack(dn.node_id, reader)

    def test_cross_rack_memory_read_charges_uplinks(self, racked_cluster):
        nn, client = self.make_dfs(racked_cluster)
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        src = block.replica_nodes[0]
        nn.datanodes[src].pin("memory", block)
        nn.directory["memory"][block.block_id] = src
        # Reader in the other rack.
        reader = next(
            n.node_id
            for n in racked_cluster.nodes
            if not racked_cluster.same_rack(n.node_id, src)
        )
        ev, source = client.read_block(block, reader_node=reader)
        racked_cluster.sim.run_until_processed(ev)
        assert source is ReadSource.REMOTE_MEMORY
        src_rack = racked_cluster.rack_of(src)
        dst_rack = racked_cluster.rack_of(reader)
        assert racked_cluster.fabric.uplinks[src_rack].bytes_moved == pytest.approx(
            block.size
        )
        assert racked_cluster.fabric.downlinks[dst_rack].bytes_moved == pytest.approx(
            block.size
        )

    def test_same_rack_memory_read_skips_uplinks(self, racked_cluster):
        nn, client = self.make_dfs(racked_cluster)
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        src = block.replica_nodes[0]
        nn.datanodes[src].pin("memory", block)
        nn.directory["memory"][block.block_id] = src
        reader = next(
            n.node_id
            for n in racked_cluster.nodes
            if n.node_id != src and racked_cluster.same_rack(n.node_id, src)
        )
        ev, source = client.read_block(block, reader_node=reader)
        racked_cluster.sim.run_until_processed(ev)
        assert source is ReadSource.REMOTE_MEMORY
        assert all(
            u.bytes_moved == 0 for u in racked_cluster.fabric.uplinks.values()
        )

    def test_slow_uplink_gates_cross_rack_read(self):
        """The transfer completes at the slowest path resource."""
        assert RACK_UPLINK_BANDWIDTH < NIC_BANDWIDTH
        cluster = Cluster(ClusterSpec(n_workers=4, n_racks=2, seed=0))
        nn, client = self.make_dfs(cluster)
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        src = block.replica_nodes[0]
        nn.datanodes[src].pin("memory", block)
        nn.directory["memory"][block.block_id] = src
        reader = next(
            n.node_id
            for n in cluster.nodes
            if not cluster.same_rack(n.node_id, src)
        )
        start = cluster.sim.now
        ev, _ = client.read_block(block, reader_node=reader)
        cluster.sim.run_until_processed(ev)
        expected = block.size / RACK_UPLINK_BANDWIDTH
        assert cluster.sim.now - start == pytest.approx(expected)
