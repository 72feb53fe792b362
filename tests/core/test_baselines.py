"""Tests for the baseline migration schemes (Ignem, naive, instant)."""

import pytest

from repro.cluster import NodeSpec
from repro.core import InstantMigrator, MigrationStatus
from repro.dfs import EvictionMode
from repro.units import GB, MB


class TestIgnem:
    def test_binds_immediately_at_submission(self, make_rig):
        rig = make_rig(master_kind="ignem")
        rig.client.create_file("input", 1 * GB)
        records = rig.master.migrate(["input"], job_id="j1")
        # All bound right now, before any simulation time passes.
        assert all(r.status is MigrationStatus.BOUND for r in records)
        assert all(r.binding_delay == 0.0 for r in records)

    def test_targets_are_replica_nodes(self, make_rig):
        rig = make_rig(master_kind="ignem")
        rig.client.create_file("input", 2 * GB)
        records = rig.master.migrate(["input"], job_id="j1")
        for r in records:
            assert r.bound_node in r.block.replica_nodes

    def test_distribution_uniform_despite_slow_node(self, make_rig):
        """The defining flaw: Ignem keeps loading a handicapped node."""
        slow = NodeSpec().with_disk_bandwidth(10 * MB)
        rig = make_rig(master_kind="ignem", n_workers=4, overrides={0: slow})
        rig.client.create_file("input", 8 * GB)  # 128 blocks
        records = rig.master.migrate(["input"], job_id="j1")
        per_node = {i: 0 for i in range(4)}
        for r in records:
            per_node[r.bound_node] += 1
        # Binding ignores speed: slow node gets a statistically fair
        # share (~number of blocks with a replica there / 3).
        assert per_node[0] > len(records) / 8

    def test_migrations_complete_eventually(self, make_rig):
        rig = make_rig(master_kind="ignem")
        rig.client.create_file("input", 512 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=120)
        assert all(
            r.status is MigrationStatus.DONE for r in rig.master.record_log
        )

    def test_pull_requests_get_nothing(self, make_rig):
        rig = make_rig(master_kind="ignem")
        rig.client.create_file("input", 1 * GB)
        rig.master.migrate(["input"], job_id="j1")
        assert rig.master.request_work(0, 10) == []


class TestNaiveBalancer:
    def test_hands_work_to_any_asking_replica_holder(self, make_rig):
        rig = make_rig(master_kind="naive")
        rig.client.create_file("input", 1 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=120)
        done = [r for r in rig.master.record_log if r.status is MigrationStatus.DONE]
        assert len(done) == 16

    def test_slow_node_still_gets_tail_work(self, make_rig):
        """Without Algorithm 1, a slow node keeps pulling work as long
        as anything is pending -- including the final blocks."""
        slow = NodeSpec().with_disk_bandwidth(10 * MB)
        rig = make_rig(master_kind="naive", n_workers=4, overrides={0: slow})
        rig.client.create_file("input", 4 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=600)
        per_node = {i: 0 for i in range(4)}
        for r in rig.master.record_log:
            if r.bound_node is not None:
                per_node[r.bound_node] += 1
        assert per_node[0] > 0  # naive never learns to avoid it

    def test_respects_replica_constraint(self, make_rig):
        rig = make_rig(master_kind="naive")
        rig.client.create_file("input", 2 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=120)
        for r in rig.master.record_log:
            if r.bound_node is not None:
                assert r.bound_node in r.block.replica_nodes


class TestInstantMigrator:
    def make(self, make_rig):
        rig = make_rig(master_kind="dyrs")  # build cluster/dfs wiring
        # Replace the master with the hypothetical scheme.
        master = InstantMigrator(rig.namenode)
        return rig, master

    def test_blocks_in_memory_instantly(self, make_rig):
        rig, master = self.make(make_rig)
        rig.client.create_file("input", 256 * MB)
        master.migrate(["input"], job_id="j1")
        assert len(rig.namenode.directory["memory"]) == 4
        assert rig.cluster.total_memory_used() == pytest.approx(256 * MB)
        assert all(
            r.duration == 0.0
            for r in master.record_log
            if r.status is MigrationStatus.DONE
        )

    def test_no_disk_bandwidth_consumed(self, make_rig):
        rig, master = self.make(make_rig)
        rig.client.create_file("input", 256 * MB)
        master.migrate(["input"], job_id="j1")
        assert all(n.disk.channel.bytes_moved == 0.0 for n in rig.cluster.nodes)

    def test_eviction_on_job_finish(self, make_rig):
        rig, master = self.make(make_rig)
        rig.client.create_file("input", 256 * MB)
        master.migrate(["input"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        master.notify_job_finished("j1")
        assert rig.cluster.total_memory_used() == 0.0

    def test_rotation_spreads_memory(self, make_rig):
        rig, master = self.make(make_rig)
        rig.client.create_file("input", 2 * GB)  # 32 blocks
        master.migrate(["input"], job_id="j1")
        used = [n.memory.used for n in rig.cluster.nodes]
        assert all(u > 0 for u in used)
