"""Unit tests for the temperature-driven replication scheduler."""

from repro.lifecycle.replication import ReplicationScheduler
from repro.units import MB


def make_scheduler(rig):
    return ReplicationScheduler(rig.namenode)


class TestDemotionAccounting:
    def test_lower_then_restore_round_trips_the_override(self, lifecycle_rig):
        rig = lifecycle_rig
        scheduler = make_scheduler(rig)
        block = rig.client.create_file("f", 64 * MB).blocks[0]
        scheduler.lower_for_archive(block)
        assert rig.namenode.replication_overrides[block.block_id] == 0
        assert rig.namenode.replication_target(block) == 0
        scheduler.restore_factor(block)
        assert block.block_id not in rig.namenode.replication_overrides
        assert rig.namenode.replication_target(block) == rig.namenode.replication


class TestRestorePlanning:
    def test_targets_fill_back_to_the_configured_factor(self, lifecycle_rig):
        rig = lifecycle_rig
        scheduler = make_scheduler(rig)
        block = rig.client.create_file("f", 64 * MB).blocks[0]
        # Simulate the archived state: no disk replicas left.
        for node_id in block.replica_nodes:
            rig.namenode.datanodes[node_id].remove_disk_replica(block.block_id)
        block.replica_nodes = ()
        targets = scheduler.restore_targets(block)
        assert len(targets) == rig.namenode.replication
        assert len(set(targets)) == len(targets)

    def test_existing_healthy_holders_are_kept(self, lifecycle_rig):
        rig = lifecycle_rig
        scheduler = make_scheduler(rig)
        block = rig.client.create_file("f", 64 * MB).blocks[0]
        survivors = set(block.replica_nodes)
        targets = scheduler.restore_targets(block)
        assert survivors <= set(targets)
        assert len(targets) == rig.namenode.replication

    def test_dead_nodes_are_never_targets(self, lifecycle_rig):
        rig = lifecycle_rig
        scheduler = make_scheduler(rig)
        block = rig.client.create_file("f", 64 * MB).blocks[0]
        down = block.replica_nodes[0]
        rig.cluster.nodes[down].fail()
        targets = scheduler.restore_targets(block)
        assert down not in targets
        # Shrunk cluster: the plan tops out at the live-node count.
        assert len(targets) == min(
            rig.namenode.replication, len(rig.cluster.nodes) - 1
        )
