"""Failure-resilience tests (§III-C): master, slave, and node crashes."""

import pytest

from repro.core.failures import ChaosFault, FailureInjector, quiesce_violations
from repro.dfs import ReadSource
from repro.units import GB, MB


class TestSlaveFailure:
    def test_crash_drops_buffered_blocks(self, rig):
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=30)
        victim = next(
            s for s in rig.slaves if s.datanode.pinned_ids("memory")
        )
        held = set(victim.datanode.pinned_ids("memory"))
        victim.crash()
        assert victim.node.memory.used == 0.0
        # Restart tells the master to drop stale directory entries.
        victim.restart()
        for block_id in held:
            assert rig.namenode.directory["memory"].get(block_id) != victim.node_id

    def test_reads_fall_back_to_disk_after_crash(self, rig):
        entry = rig.client.create_file("input", 64 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=30)
        block = entry.blocks[0]
        node_id = rig.namenode.directory["memory"][block.block_id]
        slave = rig.master.slaves[node_id]
        slave.crash()
        slave.restart()
        ev, source = rig.client.read_block(block, reader_node=None, job_id="j2")
        assert source in (ReadSource.LOCAL_DISK, ReadSource.REMOTE_DISK)

    def test_unfinished_work_requeued_elsewhere(self, rig):
        rig.client.create_file("input", 1 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=1)  # some bound, none finished everywhere
        victim = rig.slaves[0]
        victim.crash()
        victim.restart()
        rig.sim.run(until=120)
        blocks = rig.client.blocks_of(["input"])
        # Every block eventually lands in memory despite the crash.
        assert all(b.block_id in rig.namenode.directory["memory"] for b in blocks)

    def test_work_bound_right_after_a_restart_is_not_reclaimed(self, make_rig):
        """The restart's message to the master is the new process's
        first report: work bound to it before its first heartbeat must
        not be judged lost by the crashed incarnation's last one."""
        rig = make_rig(n_workers=1)
        slave = rig.slaves[0]
        rig.sim.run(until=1)
        slave.crash()
        # Down for longer than the detection horizon; back between the
        # heartbeat ticks at t=10 and t=12.  The block binds at t=10.06,
        # and retarget ticks run at t=10.5, 11 and 11.5.
        assert rig.namenode.detection_horizon < 9
        rig.sim.run(until=10.01)
        slave.restart()
        rig.client.create_file("input", 64 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=30)
        (record,) = rig.master.record_log
        assert record.discard_reason is None
        assert record.bound_node == 0
        assert record.block_id in rig.namenode.directory["memory"]

    def test_crash_is_idempotent(self, rig):
        slave = rig.slaves[0]
        slave.crash()
        slave.crash()  # no-op
        with pytest.raises(RuntimeError):
            rig.slaves[1].restart()  # restart while alive


class TestMasterFailure:
    def test_crash_loses_soft_state_only(self, rig):
        rig.client.create_file("input", 512 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=30)
        in_memory_before = {
            nid: set(rig.namenode.datanodes[nid].pinned_ids("memory"))
            for nid in rig.namenode.datanodes
        }
        rig.master.crash()
        # Directory wiped, but slave buffers untouched.
        assert rig.namenode.directory["memory"] == {}
        for nid, blocks in in_memory_before.items():
            assert set(rig.namenode.datanodes[nid].pinned_ids("memory")) == blocks

    def test_recover_rebuilds_directory_from_slaves(self, rig):
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=30)
        expected = dict(rig.namenode.directory["memory"])
        rig.master.crash()
        rig.master.recover()
        assert rig.namenode.directory["memory"] == expected
        # New migration requests work again after recovery.
        rig.client.create_file("more", 64 * MB)
        rig.master.migrate(["more"], job_id="j2")
        rig.sim.run(until=rig.sim.now + 30)
        block = rig.client.blocks_of(["more"])[0]
        assert block.block_id in rig.namenode.directory["memory"]

    def test_reads_survive_master_outage(self, rig):
        """Reads still succeed during the outage -- "the only adverse
        effect ... is the loss of the speedup" (§III-C).  The serving
        DataNode may still answer from its own buffer: "the API for
        reading data from the worker is oblivious to whether the data
        is in memory or not" (§III-C2)."""
        entry = rig.client.create_file("input", 64 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=30)
        rig.master.crash()
        assert rig.namenode.directory["memory"] == {}
        ev, source = rig.client.read_block(entry.blocks[0], reader_node=None)
        assert isinstance(source, ReadSource)
        rig.sim.run_until_processed(ev)  # completes without error

    def test_recover_evicts_buffers_released_during_outage(self, rig):
        """A job finishing while the master is down drops the last
        reference of a migrated block, but the wiped directory leaves
        nothing to evict.  Recovery must release that buffer: no later
        reference will, and once its slave dies for good the rebuilt
        directory entry would outlive the pin."""
        entry = rig.client.create_file("input", 64 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=30)
        block_id = entry.blocks[0].block_id
        holder = rig.namenode.directory["memory"][block_id]
        rig.master.crash()
        rig.master.notify_job_finished("j1")
        rig.master.recover()
        assert block_id not in rig.namenode.directory["memory"]
        assert not rig.namenode.datanodes[holder].holds("memory", block_id)
        rig.master.slaves[holder].crash()  # never restarted
        rig.sim.run(until=rig.sim.now + 30)
        assert quiesce_violations(rig.master) == []


class TestFailureInjector:
    def test_scheduled_slave_crash_and_restart(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(5.0, "slave-crash", 1, 10.0))
        rig.client.create_file("input", 1 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=4)
        assert rig.slaves[1].alive
        rig.sim.run(until=6)
        assert not rig.slaves[1].alive
        rig.sim.run(until=16)
        assert rig.slaves[1].alive
        assert ("slave-crash", "node1") in [(a, s) for _, a, s in injector.log]

    def test_scheduled_node_crash_excludes_from_routing(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(5.0, "node-crash", 2, None))
        entry = rig.client.create_file("input", 64 * MB)
        limit = (
            rig.namenode.heartbeat_interval * rig.namenode.heartbeat_miss_limit
        )
        rig.sim.run(until=5 + limit + 5)
        assert not rig.namenode.is_available(2)
        block = entry.blocks[0]
        if 2 in block.replica_nodes:
            dn = rig.namenode.resolve_read(block, reader_node=2)
            assert dn.node_id != 2

    def test_scheduled_master_crash_recover(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(5.0, "master-crash", None, 5.0))
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        actions = [a for _, a, _ in injector.log]
        assert actions == ["master-crash", "master-recover"]

    def test_injector_requires_master_for_master_ops(self, rig):
        injector = FailureInjector(rig.cluster, master=None)
        with pytest.raises(RuntimeError):
            injector.inject(ChaosFault(1.0, "master-crash", None, None))
        with pytest.raises(RuntimeError):
            injector.inject(ChaosFault(1.0, "slave-crash", 0, None))

    def test_node_crash_with_recovery_restores_service(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(2.0, "node-crash", 1, 20.0))
        rig.client.create_file("input", 1 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=240)
        blocks = rig.client.blocks_of(["input"])
        done = sum(
            1 for b in blocks if b.block_id in rig.namenode.directory["memory"]
        )
        # All blocks migrated despite the outage window.
        assert done == len(blocks)
