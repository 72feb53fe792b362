"""Tests for graceful decommissioning (drain + retire)."""

import pytest

from repro.dfs import HeartbeatService, ReplicationMonitor
from repro.units import MB


@pytest.fixture
def dfs(namenode, client, cluster):
    HeartbeatService(namenode).start()
    monitor = ReplicationMonitor(namenode, check_interval=5.0)
    monitor.start()
    return namenode, client, cluster, monitor


class TestDecommission:
    def test_start_validation(self, dfs):
        namenode, *_ = dfs
        with pytest.raises(KeyError):
            namenode.start_decommission(99)

    def test_draining_node_still_serves_reads(self, dfs):
        namenode, client, cluster, monitor = dfs
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        victim = block.replica_nodes[0]
        namenode.start_decommission(victim)
        assert namenode.is_available(victim)
        dn = namenode.resolve_read(block, reader_node=victim)
        assert dn.node_id == victim  # local read still allowed

    def test_draining_node_receives_no_new_replicas(self, dfs):
        namenode, client, cluster, monitor = dfs
        namenode.start_decommission(1)
        assert not namenode.accepts_new_replicas(1)
        assert namenode.accepts_new_replicas(0)

    def test_drain_completes_and_retires_node(self, dfs):
        namenode, client, cluster, monitor = dfs
        entry = client.create_file("f", 256 * MB)
        victim = 2
        namenode.start_decommission(victim)
        cluster.sim.run(until=200)
        assert victim in namenode.decommissioned
        assert not namenode.is_available(victim)
        for block in entry.blocks:
            assert victim not in block.replica_nodes
            live = [n for n in block.replica_nodes if namenode.is_available(n)]
            assert len(live) >= min(
                namenode.replication, len(cluster.nodes) - 1
            )

    def test_reads_keep_working_throughout_drain(self, dfs):
        namenode, client, cluster, monitor = dfs
        entry = client.create_file("f", 128 * MB)
        victim = entry.blocks[0].replica_nodes[0]
        namenode.start_decommission(victim)
        for t in (10, 50, 150):
            cluster.sim.run(until=t)
            ev, _ = client.read_block(entry.blocks[0], reader_node=None)
            cluster.sim.run_until_processed(ev)

    def test_double_decommission_rejected_after_retirement(self, dfs):
        namenode, client, cluster, monitor = dfs
        client.create_file("f", 64 * MB)
        namenode.start_decommission(3)
        cluster.sim.run(until=200)
        assert 3 in namenode.decommissioned
        with pytest.raises(RuntimeError):
            namenode.start_decommission(3)

    def test_dyrs_avoids_draining_node(self, dfs):
        """New migrations never target a draining node."""
        from repro.core import DyrsConfig, DyrsMaster, DyrsSlave

        namenode, client, cluster, monitor = dfs
        config = DyrsConfig()
        master = DyrsMaster(namenode, config)
        slaves = [
            DyrsSlave(namenode.datanodes[n.node_id], master, config)
            for n in cluster.nodes
        ]
        hb = HeartbeatService(namenode)
        master.attach_heartbeats(hb)
        hb.start()
        master.start()
        for s in slaves:
            s.start()
        namenode.start_decommission(0)
        client.create_file("input", 512 * MB)
        master.migrate(["input"], job_id="j1")
        cluster.sim.run(until=120)
        for record in master.record_log:
            if record.bound_node is not None:
                assert record.bound_node != 0
