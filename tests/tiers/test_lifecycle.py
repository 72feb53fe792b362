"""Integration tests for the working-tier lifecycle: the storage-ladder
master on an SSD ladder with no archive rung."""

import pytest

from repro.cluster import NodeSpec, SsdSpec
from repro.compute.metrics import MetricsCollector
from repro.core import DyrsConfig
from repro.core.failures import quiesce_violations
from repro.core.records import MigrationRecord, MigrationStatus
from repro.dfs.client import EvictionMode
from repro.lifecycle import TierConfig
from repro.units import MB


def run_until_done(rig, block_id, deadline=120.0):
    """Advance the sim until ``block_id``'s migration record is DONE."""
    step = 1.0
    while rig.sim.now < deadline:
        rig.sim.run(until=rig.sim.now + step)
        record = rig.master.record_of(block_id)
        if record is not None and record.status is MigrationStatus.DONE:
            return record
    raise AssertionError(f"migration of {block_id} not done by t={deadline}")


class TestMigrationEdges:
    def test_migrate_counts_the_disk_to_memory_edge(self, tiered_rig):
        rig = tiered_rig
        entry = rig.client.create_file("f", 64 * MB)
        rig.master.migrate(["f"], job_id="j1")
        run_until_done(rig, entry.blocks[0].block_id)
        assert rig.master.tier_moves[("disk", "memory")] == 1
        assert rig.master.promotion_count == 1
        assert rig.master.demotion_count == 0

    def test_counts_mirror_into_metrics_collector(self, tiered_rig):
        rig = tiered_rig
        metrics = MetricsCollector()
        rig.master.attach_metrics(metrics)
        entry = rig.client.create_file("f", 64 * MB)
        rig.master.migrate(["f"], job_id="j1")
        run_until_done(rig, entry.blocks[0].block_id)
        assert metrics.tier_moves == rig.master.tier_moves
        assert metrics.promotion_count() == rig.master.promotion_count
        assert metrics.demotion_count() == rig.master.demotion_count


class TestDemoteOnEvict:
    def test_warm_block_steps_down_to_ssd(self, tiered_rig):
        """Eviction edge case: the evicted block is still warm and the
        SSD has room, so it is demoted instead of dropped."""
        rig = tiered_rig
        entry = rig.client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        rig.master.migrate(["f"], job_id="j1", eviction=EvictionMode.IMPLICIT)
        run_until_done(rig, block.block_id)
        node_id = rig.namenode.memory_directory[block.block_id]
        event, _ = rig.client.read_block(block, reader_node=None, job_id="j1")
        rig.sim.run(until=rig.sim.now + 5.0)
        assert event.triggered
        # The reference-list eviction fired and stepped the block down
        # one rung: out of RAM, onto the holder's SSD.
        assert block.block_id not in rig.namenode.memory_directory
        assert rig.namenode.ssd_directory[block.block_id] == node_id
        assert rig.namenode.datanodes[node_id].has_ssd_replica(block.block_id)
        assert rig.master.tier_moves[("memory", "ssd")] == 1
        assert rig.client.resident_tier(block) == "ssd"

    def test_cold_block_drops_straight_to_disk(self, make_tiered_rig):
        """Eviction edge case: by read time the block has gone COLD, so
        the demotion is skipped and the plain drop runs."""
        rig = make_tiered_rig(
            tier_config=TierConfig(promote_warm_to_ssd=False, cold_age=300.0)
        )
        entry = rig.client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        rig.master.migrate(["f"], job_id="j1", eviction=EvictionMode.IMPLICIT)
        run_until_done(rig, block.block_id)
        # Let the block idle past cold_age before the evicting read:
        # the smoothed inter-access interval now classifies it COLD.
        rig.sim.run(until=400.0)
        event, _ = rig.client.read_block(block, reader_node=None, job_id="j1")
        rig.sim.run(until=rig.sim.now + 5.0)
        assert event.triggered
        assert block.block_id not in rig.namenode.memory_directory
        assert block.block_id not in rig.namenode.ssd_directory
        assert ("memory", "ssd") not in rig.master.tier_moves
        assert rig.client.resident_tier(block) == "disk"

    def test_full_ssd_falls_through_to_plain_drop(self, make_tiered_rig):
        """Eviction edge case: memory hard limit with memory AND SSD
        full.  The stalled second migration must not deadlock: the
        eviction falls through to the plain drop, frees memory, and the
        waiting slave proceeds."""
        config = DyrsConfig(
            memory_limit=64 * MB, reference_block_size=64 * MB, rpc_latency=0.0
        )
        rig = make_tiered_rig(
            n_workers=1,
            config=config,
            node=NodeSpec().with_ssd(SsdSpec(capacity=64 * MB)),
            tier_config=TierConfig(promote_warm_to_ssd=False),
        )
        node = rig.cluster.nodes[0]
        node.ssd.pin("filler", 64 * MB)  # the cache is already full
        a = rig.client.create_file("a", 64 * MB).blocks[0]
        b = rig.client.create_file("b", 64 * MB).blocks[0]
        rig.master.migrate(["a"], job_id="j1", eviction=EvictionMode.IMPLICIT)
        run_until_done(rig, a.block_id)
        rig.master.migrate(["b"], job_id="j2", eviction=EvictionMode.IMPLICIT)
        rig.sim.run(until=rig.sim.now + 30.0)
        # b is stalled on the memory hard limit; memory holds only a.
        assert b.block_id not in rig.namenode.memory_directory
        assert node.memory.used == pytest.approx(64 * MB)
        # j1's read evicts a; the SSD is full, so no demotion happens --
        # a drops to disk and the freed memory un-stalls b.
        rig.client.read_block(a, reader_node=None, job_id="j1")
        rig.sim.run(until=rig.sim.now + 60.0)
        assert a.block_id not in rig.namenode.memory_directory
        assert a.block_id not in rig.namenode.ssd_directory
        assert ("memory", "ssd") not in rig.master.tier_moves
        assert b.block_id in rig.namenode.memory_directory
        assert rig.master.record_of(b.block_id).status is MigrationStatus.DONE


class TestSsdSourcedPromotion:
    def _block_on_ssd(self, rig):
        """Drive one block onto an SSD via migrate + demote-on-evict."""
        entry = rig.client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        rig.master.migrate(["f"], job_id="j1", eviction=EvictionMode.IMPLICIT)
        run_until_done(rig, block.block_id)
        rig.client.read_block(block, reader_node=None, job_id="j1")
        rig.sim.run(until=rig.sim.now + 5.0)
        assert block.block_id in rig.namenode.ssd_directory
        return block

    def test_cached_block_promotes_from_its_ssd_holder(self, tiered_rig):
        rig = tiered_rig
        block = self._block_on_ssd(rig)
        holder = rig.namenode.ssd_directory[block.block_id]
        records = rig.master.migrate(["f"], job_id="j2")
        assert len(records) == 1
        record = records[0]
        # Routed along the ssd->memory edge and push-bound to the only
        # node holding the cached bytes.
        assert record.source_tier == "ssd"
        assert record.dest_tier == "memory"
        assert record.bound_node == holder
        run_until_done(rig, block.block_id)
        assert rig.namenode.memory_directory[block.block_id] == holder
        assert rig.master.tier_moves[("ssd", "memory")] == 1
        # The cache copy is retained alongside the memory replica.
        assert rig.namenode.datanodes[holder].has_ssd_replica(block.block_id)

    def test_lane_respawns_after_draining_a_terminal_record(self, tiered_rig):
        """Regression: a lane spawned for an already-terminal record
        drains and exits inside its first step, before ``enqueue``
        stores the handle.  The dead handle must not block the next
        spawn, or the SSD lane never runs again."""
        rig = tiered_rig
        block = self._block_on_ssd(rig)
        holder = rig.namenode.ssd_directory[block.block_id]
        slave = rig.master.slaves[holder]
        stale = MigrationRecord(
            block=block,
            requested_at=rig.sim.now,
            status=MigrationStatus.DISCARDED,
            source_tier="ssd",
        )
        slave.enqueue(stale)
        assert slave._ssd_worker is None or not slave._ssd_worker.is_alive
        rig.master.migrate(["f"], job_id="j2")  # push-binds to the holder
        record = run_until_done(rig, block.block_id)
        assert record.source_tier == "ssd"
        assert rig.namenode.memory_directory[block.block_id] == holder

    def test_overrunning_copy_refreshes_the_ssd_estimator(self, tiered_rig):
        """A heartbeat tick that lands while an ssd->memory copy runs
        past its estimate raises the SSD lane's estimate (§IV-A)."""
        rig = tiered_rig
        block = self._block_on_ssd(rig)
        holder = rig.namenode.ssd_directory[block.block_id]
        slave = rig.master.slaves[holder]
        channel = rig.cluster.node(holder).ssd.channel
        channel.set_capacity(channel.capacity / 1000)
        before = slave.ssd_estimator.seconds_per_byte
        rig.master.migrate(["f"], job_id="j2")
        rig.sim.run(until=rig.sim.now + 2 * rig.namenode.heartbeat_interval)
        assert slave._ssd_active is not None  # still copying
        assert slave.ssd_estimator.refreshes >= 1
        assert slave.ssd_estimator.seconds_per_byte > before

    def test_reevicted_block_with_ssd_copy_drops_plainly(self, tiered_rig):
        rig = tiered_rig
        block = self._block_on_ssd(rig)
        rig.master.migrate(["f"], job_id="j2")
        run_until_done(rig, block.block_id)
        rig.client.read_block(block, reader_node=None, job_id="j2")
        rig.sim.run(until=rig.sim.now + 5.0)
        # Demotion is skipped (the SSD already has the copy); the drop
        # leaves the cache entry in place, so the edge counted once.
        assert block.block_id not in rig.namenode.memory_directory
        assert block.block_id in rig.namenode.ssd_directory
        assert rig.master.tier_moves[("memory", "ssd")] == 1


class TestLifecyclePass:
    def _warm_block(self, rig, name="f"):
        """Two undeclared reads make a disk block WARM/HOT for the
        lifecycle without creating any migration record."""
        entry = rig.client.create_file(name, 64 * MB)
        block = entry.blocks[0]
        for _ in range(2):
            event, _ = rig.client.read_block(block, reader_node=None, job_id="q")
            rig.sim.run(until=rig.sim.now + 2.0)
            assert event.triggered
        return block

    def test_background_promotion_fills_the_cache(self, tiered_rig):
        rig = tiered_rig
        block = self._warm_block(rig)
        rig.sim.run(until=rig.sim.now + 60.0)
        assert rig.master.lifecycle_passes > 0
        assert block.block_id in rig.namenode.ssd_directory
        assert rig.master.tier_moves[("disk", "ssd")] == 1
        # Subsequent undeclared reads come off the flash.
        event, source = rig.client.read_block(block, reader_node=None, job_id="q")
        assert source.is_ssd

    def test_job_migration_supersedes_background_promotion(self, tiered_rig):
        rig = tiered_rig
        block = self._warm_block(rig)
        actions = rig.master.lifecycle_pass()
        assert actions["promoted"] == 1
        tier_record = rig.master._tier_records[block.block_id]
        rig.master.migrate(["f"], job_id="j1")
        assert tier_record.status is MigrationStatus.DISCARDED
        assert tier_record.discard_reason == "superseded"
        run_until_done(rig, block.block_id)
        assert block.block_id in rig.namenode.memory_directory

    def test_cold_blocks_expire_off_the_ssd(self, make_tiered_rig):
        rig = make_tiered_rig(tier_config=TierConfig(cold_age=120.0))
        block = self._warm_block(rig)
        rig.sim.run(until=rig.sim.now + 60.0)
        assert block.block_id in rig.namenode.ssd_directory
        holder = rig.namenode.ssd_directory[block.block_id]
        # No further accesses: the block cools past cold_age and the
        # next pass expires it (a free drop; disk is the ground truth).
        rig.sim.run(until=rig.sim.now + 300.0)
        assert block.block_id not in rig.namenode.ssd_directory
        assert not rig.namenode.datanodes[holder].has_ssd_replica(block.block_id)
        assert rig.master.tier_moves[("ssd", "disk")] >= 1
        assert rig.cluster.nodes[holder].ssd.used == 0.0

    def test_promotion_disabled_by_config(self, make_tiered_rig):
        rig = make_tiered_rig(tier_config=TierConfig(promote_warm_to_ssd=False))
        block = self._warm_block(rig)
        rig.sim.run(until=rig.sim.now + 60.0)
        assert block.block_id not in rig.namenode.ssd_directory
        assert ("disk", "ssd") not in rig.master.tier_moves

    def test_memory_resident_blocks_are_left_alone(self, tiered_rig):
        rig = tiered_rig
        entry = rig.client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        rig.master.migrate(["f"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        run_until_done(rig, block.block_id)
        actions = rig.master.lifecycle_pass()
        assert actions == {"promoted": 0, "demoted": 0, "archived": 0}
        assert block.block_id not in rig.namenode.ssd_directory


class TestDegradation:
    def test_tiered_master_works_on_ssdless_nodes(self, make_tiered_rig):
        """Without SSDs the ladder master must behave like plain DYRS:
        no promotions, no demotions, migration still works."""
        rig = make_tiered_rig(node=NodeSpec())
        entry = rig.client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        rig.master.migrate(["f"], job_id="j1", eviction=EvictionMode.IMPLICIT)
        run_until_done(rig, block.block_id)
        rig.client.read_block(block, reader_node=None, job_id="j1")
        rig.sim.run(until=rig.sim.now + 60.0)
        assert block.block_id not in rig.namenode.memory_directory
        assert rig.namenode.ssd_directory == {}
        assert set(rig.master.tier_moves) == {("disk", "memory")}


class TestFailures:
    def _block_on_ssd(self, rig):
        entry = rig.client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        rig.master.migrate(["f"], job_id="j1", eviction=EvictionMode.IMPLICIT)
        run_until_done(rig, block.block_id)
        rig.client.read_block(block, reader_node=None, job_id="j1")
        rig.sim.run(until=rig.sim.now + 5.0)
        assert block.block_id in rig.namenode.ssd_directory
        return block

    def test_slave_crash_loses_the_ssd_cache(self, tiered_rig):
        rig = tiered_rig
        block = self._block_on_ssd(rig)
        holder = rig.namenode.ssd_directory[block.block_id]
        slave = rig.master.slaves[holder]
        slave.crash()
        # The cache is slave-managed soft state: the pins die with the
        # process ...
        assert rig.namenode.datanodes[holder].ssd_block_ids() == ()
        assert rig.cluster.nodes[holder].ssd.used == 0.0
        # ... and the replacement's registration drops the directory
        # entries (III-C2 generalized to both fast tiers).
        slave.restart()
        assert block.block_id not in rig.namenode.ssd_directory
        event, source = rig.client.read_block(block, reader_node=None, job_id="j2")
        assert not source.is_ssd

    def test_master_recovery_rebuilds_the_ssd_directory(self, tiered_rig):
        rig = tiered_rig
        block = self._block_on_ssd(rig)
        holder = rig.namenode.ssd_directory[block.block_id]
        rig.master.crash()
        assert rig.namenode.ssd_directory == {}
        # The SSD pins survive a master failure (only the *master's*
        # soft state is lost), so recovery re-learns them from slaves.
        assert rig.namenode.datanodes[holder].has_ssd_replica(block.block_id)
        rig.master.recover()
        assert rig.namenode.ssd_directory[block.block_id] == holder

    def test_permanent_slave_crash_leaves_no_ssd_entry(self, make_tiered_rig):
        """A crash unpins the node's SSD, but only a restart reaps the
        directory; a slave that never returns must not leave its
        entries behind once the block has cooled off."""
        # No background promotion: a WARM pass would re-promote the
        # block over the stale entry and hide it.
        rig = make_tiered_rig(
            tier_config=TierConfig(
                lifecycle_interval=5.0,
                hot_age=10.0,
                cold_age=25.0,
                promote_warm_to_ssd=False,
            )
        )
        block = self._block_on_ssd(rig)
        holder = rig.namenode.ssd_directory[block.block_id]
        rig.master.slaves[holder].crash()
        rig.sim.run(until=rig.sim.now + 60.0)
        assert rig.master.temperature.classify(
            block.block_id, rig.sim.now
        ).name == "COLD"
        assert block.block_id not in rig.namenode.ssd_directory
        assert quiesce_violations(rig.master) == []


class TestTierConfigValidation:
    def test_rejects_bad_values_eagerly(self):
        with pytest.raises(ValueError):
            TierConfig(lifecycle_interval=0)
        with pytest.raises(ValueError):
            TierConfig(policy="bogus")
        with pytest.raises(ValueError):
            TierConfig(horizon=-1.0)
        with pytest.raises(ValueError):
            TierConfig(temperature_alpha=0.0)
        with pytest.raises(ValueError):
            TierConfig(hot_age=500.0, cold_age=300.0)

    def test_master_builds_the_configured_policy(self, make_tiered_rig):
        from repro.tiers import CostBenefitPolicy, ThresholdPolicy

        assert isinstance(make_tiered_rig().master.tier_policy, ThresholdPolicy)
        rig = make_tiered_rig(
            tier_config=TierConfig(policy="cost-benefit", horizon=60.0)
        )
        assert isinstance(rig.master.tier_policy, CostBenefitPolicy)
        assert rig.master.tier_policy.horizon == 60.0
