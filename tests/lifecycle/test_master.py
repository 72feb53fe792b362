"""End-to-end tests for the lifecycle master: the SSD placement rule,
archive and restore."""

import pytest

from repro.cluster import ClusterSpec, NodeSpec
from repro.compute.job import mapreduce_job
from repro.core import DyrsSlave
from repro.core.failures import quiesce_violations
from repro.core.records import MigrationStatus
from repro.lifecycle import Temperature, TierConfig
from repro.system import System, SystemConfig
from repro.units import GB, MB

from .conftest import FAST_LIFECYCLE

#: Whether a block belongs on the SSD, per ladder and temperature:
#: while HOT on either ladder, while WARM only without an archive rung.
BELONGS_ON_SSD = {
    ("ssd", Temperature.HOT): True,
    ("ssd", Temperature.WARM): True,
    ("ssd", Temperature.COLD): False,
    ("archive", Temperature.HOT): True,
    ("archive", Temperature.WARM): False,
    ("archive", Temperature.COLD): False,
}


def archived(rig, block):
    return block.block_id in rig.namenode.directory["archive"]


class TestSsdPlacementRule:
    """One lifecycle pass over one block, for every ladder, temperature
    and starting residency: a disk-only block that belongs on the SSD
    is promoted, an SSD copy that does not is expired, and nothing else
    moves."""

    @pytest.mark.parametrize("resident", ["disk", "ssd"])
    @pytest.mark.parametrize("temperature", list(Temperature), ids=lambda t: t.name)
    @pytest.mark.parametrize("ladder", ["ssd", "archive"])
    def test_pass_follows_the_rule(
        self, make_lifecycle_rig, ladder, temperature, resident
    ):
        rig = make_lifecycle_rig(
            node=NodeSpec(ssd=True) if ladder == "ssd" else None
        )
        rig.sim.run(until=40.0)
        block = rig.client.create_file("f", 64 * MB).blocks[0]
        bid = block.block_id
        now = rig.sim.now
        tracker = rig.master.temperature
        # FAST_LIFECYCLE: HOT below a 10 s score, COLD from 25 s, and
        # no archive move before 45 s.
        if temperature is Temperature.HOT:
            tracker.record_access(bid, now - 1.0)
            tracker.record_access(bid, now)
        elif temperature is Temperature.WARM:
            tracker.record_access(bid, now - 15.0)
        else:
            tracker.record_access(bid, now - 30.0)
        assert tracker.classify(bid, now) is temperature
        if resident == "ssd":
            holder = block.replica_nodes[0]
            rig.namenode.datanodes[holder].pin("ssd", block)
            rig.namenode.directory["ssd"][bid] = holder
        actions = rig.master.lifecycle_pass()
        belongs = BELONGS_ON_SSD[ladder, temperature]
        fills = [r.block_id for r in rig.master.tier_record_log]
        if resident == "disk":
            assert actions["promoted"] == int(belongs)
            assert actions["demoted"] == 0
            assert fills == ([bid] if belongs else [])
        else:
            assert actions["promoted"] == 0
            assert actions["demoted"] == int(not belongs)
            assert fills == []
            assert (bid in rig.namenode.directory["ssd"]) is belongs
            assert rig.namenode.datanodes[holder].holds("ssd", bid) is belongs
        assert actions["archived"] == 0


class TestDemotion:
    def test_cold_block_reaches_the_archive(self, lifecycle_rig):
        rig = lifecycle_rig
        block = rig.cold_block()
        rig.run_until(lambda: archived(rig, block))
        bid = block.block_id
        owner = rig.namenode.directory["archive"][bid]
        assert rig.namenode.datanodes[owner].holds("archive", bid)
        assert rig.cluster.nodes[owner].archive.is_pinned(bid)
        # The archive copy is the only durable one: every disk replica
        # was reclaimed.
        assert block.replica_nodes == ()
        assert rig.master.integrity.has(bid)
        assert rig.master.archived_blocks == 1
        assert rig.master.tier_moves[("disk", "archive")] == 1

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
            assert rig.namenode.datanodes[node_id].holds("disk", bid)
        # ... the checksum entry retired with the archived copy, and the
        # ledger closed.
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
            lambda: bid in rig.namenode.directory["memory"], deadline=400.0
        )
        # Restored to disk first, then promoted via the normal
        # bandwidth-aware machinery because the job still wants it.
        assert not archived(rig, block)
        assert len(block.replica_nodes) == rig.namenode.replication


class TestRestorePlanning:
    def test_targets_fill_back_to_the_configured_factor(self, lifecycle_rig):
        rig = lifecycle_rig
        block = rig.client.create_file("f", 64 * MB).blocks[0]
        # Simulate the archived state: no disk replicas left.
        for node_id in block.replica_nodes:
            rig.namenode.datanodes[node_id].remove_disk_replica(block.block_id)
        block.replica_nodes = ()
        targets = rig.master.restore_targets(block)
        assert len(targets) == rig.namenode.replication
        assert len(set(targets)) == len(targets)

    def test_existing_healthy_holders_are_kept(self, lifecycle_rig):
        rig = lifecycle_rig
        block = rig.client.create_file("f", 64 * MB).blocks[0]
        survivors = set(block.replica_nodes)
        targets = rig.master.restore_targets(block)
        assert survivors <= set(targets)
        assert len(targets) == rig.namenode.replication

    def test_dead_nodes_are_never_targets(self, lifecycle_rig):
        rig = lifecycle_rig
        block = rig.client.create_file("f", 64 * MB).blocks[0]
        down = block.replica_nodes[0]
        rig.cluster.nodes[down].fail()
        targets = rig.master.restore_targets(block)
        assert down not in targets
        # Shrunk cluster: the plan tops out at the live-node count.
        assert len(targets) == min(
            rig.namenode.replication, len(rig.cluster.nodes) - 1
        )


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
            assert rig.namenode.datanodes[node_id].holds("disk", bid)
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

    def test_fill_bound_to_a_slave_lost_for_good_is_reclaimed(self, monkeypatch):
        """An undeclared 2 GB scan on a 4-worker SSD ladder heats every
        block, so the lifecycle pass plans cache fills.  Every slave but
        the last crashes for good the moment a fill reaches it.  The
        retarget tick reclaims those fills by the test it applies to job
        records (reason ``slave-failure``), so none stays bound and the
        run quiesces; only a restart reaped them before."""
        crashed = []
        enqueue = DyrsSlave.enqueue

        def enqueue_then_crash(slave, record):
            enqueue(slave, record)
            first = slave.node_id not in crashed
            if record.dest_tier == "ssd" and first and len(crashed) < 3:
                crashed.append(slave.node_id)
                slave.sim.call_at(slave.sim.now, slave.crash)

        monkeypatch.setattr(DyrsSlave, "enqueue", enqueue_then_crash)
        system = System(
            SystemConfig(cluster=ClusterSpec(n_workers=4, seed=1, ssd=True))
        ).start()
        blocks = system.client.create_file("scan", 2 * GB).blocks
        scan = mapreduce_job("scan", blocks, [], shuffle_bytes=0, output_bytes=0)
        system.runtime.run_to_completion([scan])
        system.sim.run(until=system.sim.now + 300.0)
        assert len(crashed) == 3
        lost = [r for r in system.master.tier_record_log if r.bound_node in crashed]
        assert lost
        assert {r.discard_reason for r in lost} == {"slave-failure"}
        assert quiesce_violations(system.master) == []

    def test_archive_survives_owner_node_failure(self, lifecycle_rig):
        """Fabric-attached media: reads of an archived block keep
        working when the accounting owner's node is down."""
        rig = lifecycle_rig
        block = rig.cold_block()
        rig.run_until(lambda: archived(rig, block))
        owner = rig.namenode.directory["archive"][block.block_id]
        rig.cluster.nodes[owner].fail()
        rig.slaves[owner].crash()
        assert rig.namenode.datanodes[owner].holds("archive", block.block_id)
        event, source = rig.client.read_block(block, reader_node=None, job_id="r")
        assert source.is_archive
        rig.sim.run(until=rig.sim.now + 30.0)
        assert event.triggered


class TestDegradation:
    def test_archiveless_cluster_never_archives(self, make_lifecycle_rig):
        rig = make_lifecycle_rig(node=NodeSpec(ssd=True))
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
            node=NodeSpec(ssd=True),
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
