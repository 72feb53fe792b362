"""Per-shard failover: crash/recover one partition, not the world."""

import pytest

from repro.core.failures import ChaosFault, FailureInjector
from repro.core.records import MigrationStatus
from repro.core.standby import StandbyCoordinator
from repro.obs import trace as obs
from repro.shard import ShardCoordinator
from repro.units import MB


def _pending_blocks(rig, shard_id):
    return [
        r.block_id
        for r in rig.master.record_log
        if r.status is MigrationStatus.PENDING and r.block_id % 4 == shard_id
    ]


class TestCrashShard:
    def test_crash_discards_only_that_partition(self, shard_rig):
        rig = shard_rig
        rig.client.create_file("a", 8 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        before = rig.master.pending_count
        lost = rig.master.shard_pending_count(1)
        rig.master.crash_shard(1)
        assert not rig.master.shard_is_alive(1)
        assert rig.master.alive  # the federation survives
        assert rig.master.pending_count == before - lost
        # The lost partition's records are terminal, not stranded.
        for record in rig.master.record_log:
            if record.block_id % 4 == 1:
                assert record.status is MigrationStatus.DISCARDED

    def test_other_shards_keep_binding(self, shard_rig):
        rig = shard_rig
        entry = rig.client.create_file("a", 8 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        rig.master.crash_shard(1)
        rig.sim.run(until=90)
        for block in entry.blocks:
            if block.block_id % 4 != 1:
                assert block.block_id in rig.namenode.directory["memory"]

    def test_requests_routed_to_dead_shard_are_discarded(self, shard_rig):
        rig = shard_rig
        rig.master.crash_shard(2)
        entry = rig.client.create_file("a", 8 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        for block in entry.blocks:
            record = rig.master.record_of(block.block_id)
            if block.block_id % 4 == 2:
                assert record.status is MigrationStatus.DISCARDED
            else:
                assert record.status is MigrationStatus.PENDING

    def test_crash_is_idempotent(self, shard_rig):
        shard_rig.master.crash_shard(0)
        shard_rig.master.crash_shard(0)  # no-op, no error
        assert not shard_rig.master.shard_is_alive(0)


class TestRecoverShard:
    def test_recovery_bumps_generation_and_serves_again(self, shard_rig):
        rig = shard_rig
        rig.master.crash_shard(3)
        rig.master.recover_shard(3)
        assert rig.master.shard_is_alive(3)
        assert rig.master.shard_generation(3) == 1
        entry = rig.client.create_file("a", 8 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        rig.sim.run(until=90)
        for block in entry.blocks:
            assert block.block_id in rig.namenode.directory["memory"]

    def test_recover_live_shard_is_noop(self, shard_rig):
        shard_rig.master.recover_shard(0)
        assert shard_rig.master.shard_generation(0) == 0

    def test_shard_events_traced_with_generation(self, make_shard_rig):
        with obs.tracing() as tracer:
            rig = make_shard_rig()
            rig.master.crash_shard(2)
            rig.master.recover_shard(2)
        kinds = [e.type for e in tracer.events]
        assert obs.SHARD_CRASH in kinds
        recover = next(e for e in tracer.events if e.type == obs.SHARD_RECOVER)
        assert recover.fields["generation"] == 1
        assert recover.fields["n_shards"] == 4


class TestInjector:
    def test_crash_shard_at_resolves_home_shard_and_recovers(self, shard_rig):
        rig = shard_rig
        rig.client.create_file("a", 8 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        injector = FailureInjector(rig.cluster, master=rig.master)
        injector.inject(ChaosFault(1.0, "shard-crash", 5, 10.0))
        rig.sim.run(until=2)
        assert not rig.master.shard_is_alive(5 % 4)
        rig.sim.run(until=12)
        assert rig.master.shard_is_alive(5 % 4)
        actions = [a for _, a, _ in injector.log]
        assert actions == ["shard-crash", "shard-recover"]

    def test_noop_on_flat_master(self):
        """The fault degrades gracefully when the attached master has
        no shards (mixed campaigns stay armable)."""
        from tests.core.conftest import Rig

        rig = Rig().start()
        injector = FailureInjector(rig.cluster, master=rig.master)
        injector.inject(ChaosFault(1.0, "shard-crash", 0, 5.0))
        rig.sim.run(until=10)
        assert [a for _, a, _ in injector.log] == ["skip-shard-crash"]

    def test_whole_master_crash_supersedes_shard_recovery(self, shard_rig):
        rig = shard_rig
        injector = FailureInjector(rig.cluster, master=rig.master)
        injector.inject(ChaosFault(1.0, "shard-crash", 0, 20.0))
        rig.sim.run(until=2)
        rig.master.crash()
        rig.sim.run(until=25)
        assert ("skip-shard-recover" in [a for _, a, _ in injector.log])


class TestStandbyFederation:
    """Whole-federation failover via the standby coordinator."""

    @pytest.fixture
    def standby_rig(self):
        from repro.cluster import Cluster, ClusterSpec
        from repro.core import DyrsConfig, DyrsSlave
        from repro.dfs import DFSClient, NameNode, RandomPlacement
        from repro.dfs.heartbeat import HeartbeatService

        cluster = Cluster(ClusterSpec(n_workers=4, seed=9))
        namenode = NameNode(
            cluster,
            RandomPlacement(4, cluster.rngs.stream("placement")),
            block_size=64 * MB,
        )
        client = DFSClient(namenode)
        config = DyrsConfig()
        coordinator = StandbyCoordinator(
            namenode,
            config,
            failover_delay=5.0,
            master_factory=lambda nn, cfg: ShardCoordinator(
                nn, cfg, n_shards=4
            ),
        )
        slaves = [
            DyrsSlave(namenode.datanodes[n.node_id], coordinator.primary, config)
            for n in cluster.nodes
        ]
        heartbeats = HeartbeatService(namenode)
        coordinator.attach_heartbeats(heartbeats)
        heartbeats.start()
        coordinator.start()
        for s in slaves:
            s.start()
        return cluster, namenode, client, coordinator

    def test_promoted_standby_is_a_fresh_federation(self, standby_rig):
        cluster, namenode, client, coordinator = standby_rig
        assert coordinator.primary.n_shards == 4
        client.create_file("a", 128 * MB)
        coordinator.primary.migrate(["a"], job_id="j1")
        coordinator.fail_primary()
        old = coordinator.primary
        new = coordinator.fail_over()
        assert isinstance(new, ShardCoordinator)
        assert new.n_shards == 4
        assert namenode.migration_master is new
        # Nothing stranded on the dead federation.
        for record in old.record_log:
            assert record.status.is_terminal
        # New requests flow through the replacement shards.
        client.create_file("b", 128 * MB)
        assert client.migrate(["b"], job_id="j2") is True
        cluster.sim.run(until=60)
        for block in client.blocks_of(["b"]):
            assert block.block_id in namenode.directory["memory"]
