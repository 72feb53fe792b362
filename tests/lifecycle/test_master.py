"""End-to-end tests for the lifecycle master: archive and restore."""

from repro.cluster import NodeSpec
from repro.core.records import MigrationStatus
from repro.lifecycle import TierConfig
from repro.tiers import Temperature, ThresholdPolicy

from .conftest import FAST_LIFECYCLE


def archived(rig, block):
    return block.block_id in rig.namenode.archive_directory


class TestDemotion:
    def test_cold_block_reaches_the_archive(self, lifecycle_rig):
        rig = lifecycle_rig
        block = rig.cold_block()
        rig.run_until(lambda: archived(rig, block))
        bid = block.block_id
        owner = rig.namenode.archive_directory[bid]
        assert rig.namenode.datanodes[owner].has_archive_replica(bid)
        assert rig.cluster.nodes[owner].archive.is_pinned(bid)
        # Default cold_replication=1: the archive copy is the only
        # durable one, every disk replica was reclaimed.
        assert block.replica_nodes == ()
        assert rig.namenode.replication_overrides[bid] == 0
        assert rig.master.integrity.has(bid)
        assert rig.master.archived_blocks == 1
        assert rig.master.tier_moves[("disk", "archive")] == 1

    def test_cold_replication_two_keeps_a_disk_copy(self, make_lifecycle_rig):
        rig = make_lifecycle_rig(
            tier_config=TierConfig(**FAST_LIFECYCLE, cold_replication=2)
        )
        block = rig.cold_block()
        rig.run_until(lambda: archived(rig, block))
        assert len(block.replica_nodes) == 1
        assert rig.namenode.replication_overrides[block.block_id] == 1

    def test_referenced_block_never_archives(self, lifecycle_rig):
        rig = lifecycle_rig
        entry = rig.client.create_file("f", 64 * 1024 * 1024)
        block = entry.blocks[0]
        # EXPLICIT eviction: the job holds its reference until evicted,
        # so the block stays referenced however cold it looks.
        rig.master.migrate(["f"], job_id="j1")
        rig.sim.run(until=200.0)
        assert not archived(rig, block)
        assert rig.master.archived_blocks == 0

    def test_record_log_entries_all_terminate(self, lifecycle_rig):
        rig = lifecycle_rig
        block = rig.cold_block()
        rig.run_until(lambda: archived(rig, block))
        rig.sim.run(until=rig.sim.now + 10.0)
        assert rig.master.lifecycle_record_log
        for record in rig.master.lifecycle_record_log:
            assert record.status.is_terminal


class TestRestore:
    def _archived_block(self, rig):
        block = rig.cold_block()
        rig.run_until(lambda: archived(rig, block))
        return block

    def test_read_of_archived_block_is_served_from_the_archive(
        self, lifecycle_rig
    ):
        rig = lifecycle_rig
        block = self._archived_block(rig)
        event, source = rig.client.read_block(block, reader_node=None, job_id="r")
        assert source.is_archive
        rig.sim.run(until=rig.sim.now + 30.0)
        assert event.triggered

    def test_reheat_restores_and_rereplicates(self, lifecycle_rig):
        rig = lifecycle_rig
        block = self._archived_block(rig)
        bid = block.block_id
        rig.client.read_block(block, reader_node=None, job_id="r")
        rig.run_until(lambda: not archived(rig, block))
        # Re-replicated back to the file's configured factor before the
        # block re-enters the working set ...
        assert len(block.replica_nodes) == rig.namenode.replication
        for node_id in block.replica_nodes:
            assert rig.namenode.datanodes[node_id].has_disk_replica(bid)
        # ... the override is gone, the checksum entry retired with the
        # archived copy, and the ledger closed.
        assert bid not in rig.namenode.replication_overrides
        assert not rig.master.integrity.has(bid)
        assert rig.master.restored_blocks == 1
        assert rig.master.tier_moves[("archive", "disk")] == 1
        assert len(rig.master.reheat_latencies) == 1
        assert rig.master.reheat_latencies[0] > 0.0

    def test_migration_request_for_archived_block_waits_for_restore(
        self, lifecycle_rig
    ):
        """A job declaring an archived block must not race the restore:
        the job record is discarded (reads serve from the archive) and
        the restore re-migrates once disk replicas exist."""
        rig = lifecycle_rig
        block = self._archived_block(rig)
        bid = block.block_id
        records = rig.master.migrate(["f"], job_id="j2")
        assert records == [] or all(
            r.status is MigrationStatus.DISCARDED for r in records
        )
        rig.run_until(
            lambda: bid in rig.namenode.memory_directory, deadline=400.0
        )
        # Restored to disk first, then promoted via the normal
        # bandwidth-aware machinery because the job still wants it.
        assert not archived(rig, block)
        assert len(block.replica_nodes) == rig.namenode.replication


class TestCorruption:
    def test_corrupt_demote_keeps_every_disk_replica(self, lifecycle_rig):
        """Verify-before-delete: a read-back mismatch at archival time
        discards the archive copy, not the disk ones."""
        rig = lifecycle_rig
        block = rig.cold_block()
        bid = block.block_id
        replicas = tuple(block.replica_nodes)
        assert replicas

        def corrupt_when_recorded():
            while not rig.master.integrity.has(bid):
                yield rig.sim.timeout(0.25)
            rig.master.integrity.corrupt(bid)

        rig.sim.process(corrupt_when_recorded(), name="corruptor")
        rig.run_until(lambda: rig.master.corrupt_moves > 0)
        assert not archived(rig, block)
        assert block.replica_nodes == replicas
        for node_id in replicas:
            assert rig.namenode.datanodes[node_id].has_disk_replica(bid)
        assert bid not in rig.namenode.replication_overrides
        assert not rig.master.integrity.has(bid)
        assert rig.master.archived_blocks == 0

    def test_corrupt_archive_copy_blocks_restore(self, lifecycle_rig):
        rig = lifecycle_rig
        block = rig.cold_block()
        rig.run_until(lambda: archived(rig, block))
        rig.master.integrity.corrupt(block.block_id)
        rig.client.read_block(block, reader_node=None, job_id="r")
        rig.run_until(lambda: rig.master.corrupt_moves > 0)
        # The copy is kept (flagged for the operator), never deleted on
        # a failed verification.
        assert archived(rig, block)
        assert rig.master.restored_blocks == 0


class TestFailures:
    def test_master_crash_aborts_inflight_moves(self, lifecycle_rig):
        rig = lifecycle_rig
        block = rig.cold_block()
        bid = block.block_id
        rig.run_until(
            lambda: rig.master._lifecycle_moves.get(bid) is not None
        )
        record = rig.master._lifecycle_moves[bid]
        rig.master.crash()
        assert record.status is MigrationStatus.DISCARDED
        assert record.discard_reason == "master-crash"
        assert not archived(rig, block)
        # Durable block-map state survives; the next pass after
        # recovery re-plans the demotion from scratch.
        rig.master.recover()
        rig.run_until(lambda: archived(rig, block))
        assert rig.master.archived_blocks == 1

    def test_archive_survives_owner_node_failure(self, lifecycle_rig):
        """Fabric-attached media: reads of an archived block keep
        working when the accounting owner's node is down."""
        rig = lifecycle_rig
        block = rig.cold_block()
        rig.run_until(lambda: archived(rig, block))
        owner = rig.namenode.archive_directory[block.block_id]
        rig.cluster.nodes[owner].fail()
        rig.slaves[owner].crash()
        assert rig.namenode.datanodes[owner].has_archive_replica(block.block_id)
        event, source = rig.client.read_block(block, reader_node=None, job_id="r")
        assert source.is_archive
        rig.sim.run(until=rig.sim.now + 30.0)
        assert event.triggered


class TestDegradation:
    def test_archiveless_cluster_never_archives(self, make_lifecycle_rig):
        rig = make_lifecycle_rig(node=NodeSpec().with_ssd())
        block = rig.cold_block()
        rig.sim.run(until=200.0)
        assert not archived(rig, block)
        assert rig.master.archived_blocks == 0
        assert rig.master.lifecycle_record_log == []

    def test_archiveless_ladder_skips_the_archive_pass(self, make_lifecycle_rig):
        """Even with ``archive_age`` at ``cold_age``, so every COLD block
        qualifies at once, a ladder without an archive rung never plans
        an archive move or starts the mover."""
        rig = make_lifecycle_rig(
            node=NodeSpec().with_ssd(),
            tier_config=TierConfig(**{**FAST_LIFECYCLE, "archive_age": 25.0}),
        )
        block = rig.cold_block()
        rig.sim.run(until=rig.sim.now + 60.0)
        master = rig.master
        assert master.temperature.classify(block.block_id, rig.sim.now) is (
            Temperature.COLD
        )
        assert master.lifecycle_pass()["archived"] == 0
        assert master.lifecycle_record_log == []
        assert master._mover_proc is None
        assert isinstance(master.tier_policy, ThresholdPolicy)
