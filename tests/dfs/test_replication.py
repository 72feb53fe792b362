"""Tests for the re-replication monitor (HDFS self-healing)."""

import pytest

from repro.dfs.heartbeat import HeartbeatService
from repro.dfs.replication import ReplicationMonitor
from repro.units import MB


@pytest.fixture
def dfs(namenode, client, cluster):
    service = HeartbeatService(namenode)
    service.start()
    monitor = ReplicationMonitor(namenode, check_interval=5.0)
    monitor.start()
    return namenode, client, cluster, monitor


def _fail_and_detect(cluster, namenode, node_id):
    cluster.node(node_id).fail()
    deadline = namenode.heartbeat_interval * (namenode.heartbeat_miss_limit + 2)
    cluster.sim.run(until=cluster.sim.now + deadline)


class TestRepair:
    def test_under_replicated_detected_after_failure(self, dfs):
        namenode, client, cluster, monitor = dfs
        entry = client.create_file("f", 128 * MB)
        victim = entry.blocks[0].replica_nodes[0]
        cluster.node(victim).fail()
        # Before any repair runs, the scan must flag the blocks.
        assert monitor.under_replicated()

    def test_repair_restores_replication(self, dfs):
        namenode, client, cluster, monitor = dfs
        entry = client.create_file("f", 128 * MB)
        victim = entry.blocks[0].replica_nodes[0]
        _fail_and_detect(cluster, namenode, victim)
        cluster.sim.run(until=cluster.sim.now + 120)
        for block in entry.blocks:
            live = [n for n in block.replica_nodes if namenode.is_available(n)]
            assert len(live) == namenode.replication
            assert victim not in block.replica_nodes or not any(
                b == victim for b in live
            )
        assert monitor.repair_log
        # The new replica is readable.
        record = monitor.repair_log[0]
        assert namenode.datanodes[record.target_node].holds(
            "disk", record.block_id
        )

    def test_repair_consumes_bandwidth(self, dfs):
        namenode, client, cluster, monitor = dfs
        entry = client.create_file("f", 64 * MB)
        victim = entry.blocks[0].replica_nodes[0]
        _fail_and_detect(cluster, namenode, victim)
        cluster.sim.run(until=cluster.sim.now + 120)
        record = monitor.repair_log[0]
        assert record.completed_at > record.started_at
        target_disk = cluster.node(record.target_node).disk
        assert target_disk.channel.bytes_moved >= 64 * MB

    def test_targets_avoid_existing_holders(self, dfs):
        namenode, client, cluster, monitor = dfs
        entry = client.create_file("f", 256 * MB)
        victim = entry.blocks[0].replica_nodes[0]
        _fail_and_detect(cluster, namenode, victim)
        cluster.sim.run(until=cluster.sim.now + 200)
        for record in monitor.repair_log:
            block = namenode.namespace.block(record.block_id)
            assert len(set(block.replica_nodes)) == len(block.replica_nodes)

    def test_recovery_trims_excess_replicas(self, dfs):
        namenode, client, cluster, monitor = dfs
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        victim = block.replica_nodes[0]
        _fail_and_detect(cluster, namenode, victim)
        cluster.sim.run(until=cluster.sim.now + 120)
        assert len(block.replica_nodes) == namenode.replication
        # Node comes back: its old copy makes the block over-replicated
        # only if it is still listed; repair replaced it, so recovery
        # must not inflate the count.
        cluster.node(victim).recover()
        cluster.sim.run(until=cluster.sim.now + 30)
        live = [n for n in block.replica_nodes if namenode.is_available(n)]
        assert len(live) == namenode.replication

    def test_no_repairs_without_failures(self, dfs):
        namenode, client, cluster, monitor = dfs
        client.create_file("f", 256 * MB)
        cluster.sim.run(until=60)
        assert monitor.repair_log == []
        assert monitor.under_replicated() == []

    def test_start_stop_idempotent(self, dfs):
        _, _, cluster, monitor = dfs
        monitor.start()  # no-op
        monitor.stop()
        monitor.stop()
        cluster.sim.run(until=cluster.sim.now + 20)

    def test_validation(self, namenode):
        with pytest.raises(ValueError):
            ReplicationMonitor(namenode, check_interval=0)
        with pytest.raises(ValueError):
            ReplicationMonitor(namenode, max_concurrent_repairs=0)
