"""Integration tests: the DYRS master/slave migration pipeline."""

import math

import pytest

from repro.cluster import NodeSpec, PersistentInterference
from repro.core import DyrsConfig, MigrationStatus
from repro.dfs import EvictionMode, ReadSource
from repro.units import GB, MB


class TestMigrationPipeline:
    def test_all_blocks_migrate(self, rig):
        rig.client.create_file("input", 512 * MB)  # 8 blocks of 64MB
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        records = rig.master.record_log
        assert len(records) == 8
        assert all(r.status is MigrationStatus.DONE for r in records)
        assert len(rig.namenode.directory["memory"]) == 8

    def test_reads_served_from_memory_after_migration(self, rig):
        entry = rig.client.create_file("input", 128 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        block = entry.blocks[0]
        node_in_mem = rig.namenode.directory["memory"][block.block_id]
        ev, source = rig.client.read_block(block, reader_node=node_in_mem, job_id="j1")
        assert source is ReadSource.LOCAL_MEMORY

    def test_migration_consumes_disk_bandwidth(self, rig):
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        moved = sum(n.disk.channel.bytes_moved for n in rig.cluster.nodes)
        assert moved == pytest.approx(256 * MB)

    def test_duplicate_migrate_only_adds_reference(self, rig):
        rig.client.create_file("input", 128 * MB)
        first = rig.master.migrate(["input"], job_id="j1")
        second = rig.master.migrate(["input"], job_id="j2")
        assert len(first) == 2
        assert second == []  # no new records, just references
        blocks = rig.client.blocks_of(["input"])
        assert rig.master.tracker.jobs_of(blocks[0].block_id) == {"j1", "j2"}

    def test_binding_is_delayed_not_at_submission(self, rig):
        """Records bind when slaves pull, strictly after request time."""
        rig.sim.run(until=1)
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        for record in rig.master.record_log:
            assert record.binding_delay is not None
            assert record.binding_delay > 0

    def test_serialized_migration_one_at_a_time(self, make_rig):
        """A slave never runs two migrations concurrently: total time
        for two same-node blocks is 2x one block, not a shared-overlap
        time (which with seek penalty would exceed 2x)."""
        rig = make_rig(n_workers=1, block_size=64 * MB)
        rig.client.create_file("input", 128 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        records = rig.master.record_log
        assert all(r.status is MigrationStatus.DONE for r in records)
        spans = sorted((r.started_at, r.completed_at) for r in records)
        # No overlap between consecutive migrations on the single node.
        assert spans[0][1] <= spans[1][0] + 1e-9

    def test_queue_depth_derivation(self, rig):
        slave = rig.slaves[0]
        namenode = rig.namenode
        best_block_time = (
            namenode.namespace.block_size / slave.node.spec.disk.bandwidth
        )
        expected = max(1, math.ceil(namenode.heartbeat_interval / best_block_time))
        assert slave.queue_depth_target == expected

    def test_explicit_queue_depth_override(self, make_rig):
        config = DyrsConfig(queue_depth=5)
        rig = make_rig(config=config)
        assert all(s.queue_depth_target == 5 for s in rig.slaves)


class TestBandwidthAwareness:
    def test_slow_node_avoided(self, make_rig):
        slow = NodeSpec().with_disk_bandwidth(10 * MB)
        rig = make_rig(n_workers=4, overrides={0: slow})
        rig.client.create_file("input", 2 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=200)
        per_node = {i: 0 for i in range(4)}
        for record, _ in [
            (r, None) for r in rig.master.record_log if r.completed_at is not None
        ]:
            per_node[record.bound_node] += 1
        done = sum(per_node.values())
        assert done == 32
        # The 15x slower node should carry far less than a fair 1/4 share.
        assert per_node[0] < done / 4 / 2

    def test_adapts_to_dynamic_interference(self, make_rig):
        """Interference starting mid-run pushes the estimator up and
        steers later bindings away from the disturbed node."""
        rig = make_rig(n_workers=3)
        PersistentInterference(rig.cluster.node(0), streams=4, start=0.0).start()
        rig.client.create_file("input", 2 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=300)
        per_node = {i: 0 for i in range(3)}
        for r in rig.master.record_log:
            if r.completed_at is not None:
                per_node[r.bound_node] += 1
        assert per_node[0] < min(per_node[1], per_node[2])

    def test_estimator_rises_under_interference(self, make_rig):
        rig = make_rig(n_workers=2)
        slave = rig.slaves[0]
        baseline = slave.estimator.estimate(64 * MB)
        PersistentInterference(rig.cluster.node(0), streams=6).start()
        rig.client.create_file("input", 1 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=120)
        assert slave.estimator.estimate(64 * MB) > 2 * baseline


class TestEvictionIntegration:
    def test_implicit_eviction_on_read(self, rig):
        entry = rig.client.create_file("input", 64 * MB)
        rig.master.migrate(["input"], job_id="j1", eviction=EvictionMode.IMPLICIT)
        rig.sim.run(until=30)
        block = entry.blocks[0]
        assert block.block_id in rig.namenode.directory["memory"]
        ev, source = rig.client.read_block(
            block, reader_node=rig.namenode.directory["memory"][block.block_id],
            job_id="j1",
        )
        assert source is ReadSource.LOCAL_MEMORY
        rig.sim.run_until_processed(ev)
        rig.sim.run(until=rig.sim.now + 1)
        assert block.block_id not in rig.namenode.directory["memory"]
        assert rig.cluster.total_memory_used() == 0.0

    def test_explicit_eviction_keeps_until_evict_rpc(self, rig):
        entry = rig.client.create_file("input", 64 * MB)
        rig.master.migrate(["input"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        rig.sim.run(until=30)
        block = entry.blocks[0]
        ev, _ = rig.client.read_block(
            block, reader_node=0, job_id="j1"
        )
        rig.sim.run_until_processed(ev)
        rig.sim.run(until=rig.sim.now + 1)
        assert block.block_id in rig.namenode.directory["memory"]  # still resident
        rig.client.evict(["input"], job_id="j1")
        assert block.block_id not in rig.namenode.directory["memory"]

    def test_job_finish_clears_references(self, rig):
        rig.client.create_file("input", 128 * MB)
        rig.master.migrate(["input"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        rig.sim.run(until=30)
        assert rig.cluster.total_memory_used() > 0
        rig.master.notify_job_finished("j1")
        assert rig.cluster.total_memory_used() == 0.0

    def test_missed_read_discards_pending_migration(self, make_rig):
        """A block read from disk before its migration starts has its
        migration cancelled (§IV-A1 'discarded due to missed reads')."""
        rig = make_rig(n_workers=2)
        entry = rig.client.create_file("input", 1 * GB)
        rig.master.migrate(["input"], job_id="j1")
        # Immediately read the LAST block -- its migration is far down
        # the FIFO queue and cannot have started.
        block = entry.blocks[-1]
        ev, source = rig.client.read_block(block, reader_node=None, job_id="j1")
        assert source in (ReadSource.LOCAL_DISK, ReadSource.REMOTE_DISK)
        record = rig.master.record_of(block.block_id)
        assert record.status is MigrationStatus.DISCARDED
        assert record.discard_reason == "missed-read"
        rig.sim.run(until=200)
        # The discarded block never reached memory.
        assert block.block_id not in rig.namenode.directory["memory"]

    def test_missed_read_spares_multi_job_blocks(self, rig):
        entry = rig.client.create_file("input", 64 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.master.migrate(["input"], job_id="j2")
        block = entry.blocks[0]
        rig.client.read_block(block, reader_node=None, job_id="j1")
        record = rig.master.record_of(block.block_id)
        # j2 still wants it: not discarded.
        assert record.status is not MigrationStatus.DISCARDED

    def test_memory_limit_stalls_then_proceeds_after_eviction(self, make_rig):
        config = DyrsConfig(memory_limit=64 * MB)
        rig = make_rig(n_workers=1, config=config)
        rig.client.create_file("a", 64 * MB)
        rig.client.create_file("b", 64 * MB)
        rig.master.migrate(["a"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        rig.master.migrate(["b"], job_id="j2", eviction=EvictionMode.EXPLICIT)
        rig.sim.run(until=30)
        # Only one block fits.
        assert rig.cluster.total_memory_used() == pytest.approx(64 * MB)
        done = [r for r in rig.master.record_log if r.status is MigrationStatus.DONE]
        assert len(done) == 1
        # Evict job1 -> the second migration can proceed.
        rig.master.notify_job_finished("j1")
        rig.sim.run(until=90)
        b_block = rig.client.blocks_of(["b"])[0]
        assert b_block.block_id in rig.namenode.directory["memory"]


class TestMasterBookkeeping:
    def test_retarget_loop_runs(self, rig):
        # Enough blocks that the pending list outlives several
        # periodic retarget ticks (local queues only absorb ~28).
        rig.client.create_file("input", 10 * GB)
        rig.master.migrate(["input"], job_id="j1")
        passes_before = rig.master.retarget_passes
        rig.sim.run(until=10)
        assert rig.master.retarget_passes > passes_before

    def test_binding_log_populated(self, rig):
        rig.client.create_file("input", 512 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        assert len(rig.master.binding_log) == 8
        assert all(e.node_id in range(4) for e in rig.master.binding_log)

    def test_migrated_bytes(self, rig):
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        assert rig.master.migrated_bytes() == pytest.approx(256 * MB)

    def test_heartbeats_update_loads(self, rig):
        rig.sim.run(until=10)
        assert set(rig.master._loads) == {0, 1, 2, 3}

    def test_master_start_stop_idempotent(self, rig):
        rig.master.start()  # second start: no-op
        rig.master.stop()
        rig.master.stop()


class TestHeartbeatTicks:
    """One heartbeat tick refreshes the master's view of every live
    slave whose node got through (§III-D)."""

    def test_tick_reports_every_live_slave(self, rig):
        rig.client.create_file("input", 2 * GB)
        rig.master.migrate(["input"], job_id="j1")
        seen = []

        def check(report):
            # Observers run in registration order, so the master has
            # already harvested this tick.
            for slave in rig.slaves:
                load = rig.master._loads[slave.node_id]
                seen.append(
                    (
                        (load.seconds_per_byte, load.queued_blocks),
                        (slave.estimator.seconds_per_byte, slave.queued_blocks),
                        rig.master._last_slave_report[slave.node_id],
                        report.time,
                    )
                )

        rig.namenode.add_heartbeat_observer(check)
        rig.sim.run(until=30)
        # Ticks at t = interval, 2 x interval, ..., 30 (none at t=0:
        # the observer registers after the first tick).
        ticks = math.floor(30 / rig.namenode.heartbeat_interval)
        assert len(seen) == ticks * len(rig.slaves)
        for held, actual, reported_at, tick in seen:
            assert held == actual
            assert reported_at == tick
        assert any(held[1] > 0 for held, *_ in seen)  # the loads moved

    def test_down_process_and_partitioned_node(self, rig):
        """A node whose slave process is down still heartbeats (the
        NameNode stamps it) but its slave reports nothing; a
        partitioned node's heartbeat is lost, so neither is stamped."""
        interval = rig.namenode.heartbeat_interval
        rig.sim.run(until=1)
        rig.slaves[1].crash()
        rig.namenode.partitioned.add(2)
        rig.sim.run(until=interval + 0.1)
        stamped = rig.namenode._last_heartbeat
        reported = rig.master._last_slave_report
        assert (stamped[0], reported[0]) == (interval, interval)
        assert (stamped[1], reported[1]) == (interval, 0.0)
        assert (stamped[2], reported[2]) == (0.0, 0.0)

    def test_grant_between_ticks_overwritten_at_next_tick(self, rig):
        interval = rig.namenode.heartbeat_interval
        rig.sim.run(until=1)
        rig.client.create_file("one", 64 * MB)
        (record,) = rig.master.migrate(["one"], job_id="j1")
        node = record.target_node
        # Bind on the master only: the grant never reaches the slave.
        assert rig.master.request_work(node, 1) == [record]
        assert rig.master._loads[node].queued_blocks == 1
        assert rig.slaves[node].queued_blocks == 0
        rig.sim.run(until=interval + 0.1)
        assert rig.master._loads[node].queued_blocks == 0

    def test_unchanged_load_keeps_its_slave_load(self, rig):
        """An idle cluster's loads never move, so ticks leave the
        stored :class:`SlaveLoad` objects in place."""
        last_tick = 3 * rig.namenode.heartbeat_interval
        rig.sim.run(until=1)
        before = dict(rig.master._loads)
        rig.sim.run(until=last_tick + 0.1)
        assert rig.master._last_slave_report == dict.fromkeys(before, last_tick)
        for node_id, load in before.items():
            assert rig.master._loads[node_id] is load
