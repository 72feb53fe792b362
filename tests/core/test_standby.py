"""Tests for the standby-master failover (§III-C1)."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import DyrsConfig, DyrsSlave
from repro.core.standby import StandbyCoordinator
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.units import MB


@pytest.fixture
def rig():
    cluster = Cluster(ClusterSpec(n_workers=4, seed=9))
    namenode = NameNode(
        cluster,
        RandomPlacement(4, cluster.rngs.stream("placement")),
        block_size=64 * MB,
    )
    client = DFSClient(namenode)
    config = DyrsConfig(reference_block_size=64 * MB)
    coordinator = StandbyCoordinator(namenode, config, failover_delay=5.0)
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
    return cluster, namenode, client, coordinator, slaves


class TestFailover:
    def test_validation(self, rig):
        _, namenode, *_ = rig
        with pytest.raises(ValueError):
            StandbyCoordinator(namenode, failover_delay=-1)

    def test_promoted_master_serves_new_migrations(self, rig):
        cluster, namenode, client, coordinator, slaves = rig
        client.create_file("a", 128 * MB)
        coordinator.primary.migrate(["a"], job_id="j1")
        cluster.sim.run(until=20)
        coordinator.fail_primary()
        new = coordinator.fail_over()
        assert namenode.migration_master is new
        assert coordinator.generation == 1
        # New requests flow through the standby.
        client.create_file("b", 128 * MB)
        assert client.migrate(["b"], job_id="j2") is True
        cluster.sim.run(until=60)
        for block in client.blocks_of(["b"]):
            assert block.block_id in namenode.memory_directory

    def test_slaves_rewired_to_new_master(self, rig):
        cluster, _, client, coordinator, slaves = rig
        coordinator.fail_primary()
        new = coordinator.fail_over()
        assert all(s.master is new for s in slaves)
        assert set(new.slaves) == {0, 1, 2, 3}

    def test_orphan_buffers_cleaned_on_failover(self, rig):
        """Blocks whose reference lists died with the primary must not
        leak memory."""
        cluster, namenode, client, coordinator, slaves = rig
        client.create_file("a", 256 * MB)
        from repro.dfs import EvictionMode

        coordinator.primary.migrate(
            ["a"], job_id="j1", eviction=EvictionMode.EXPLICIT
        )
        cluster.sim.run(until=30)
        assert cluster.total_memory_used() > 0
        coordinator.fail_primary()
        coordinator.fail_over()
        assert cluster.total_memory_used() == 0.0
        assert namenode.memory_directory == {}

    def test_old_master_stops_harvesting_heartbeats(self, rig):
        cluster, namenode, client, coordinator, slaves = rig
        old = coordinator.primary
        coordinator.fail_primary()
        coordinator.fail_over()
        before = dict(old._loads)
        cluster.sim.run(until=cluster.sim.now + 20)
        assert old._loads == before  # frozen; only the standby learns

    def test_scheduled_failover_delay(self, rig):
        cluster, namenode, client, coordinator, slaves = rig
        cluster.sim.run(until=2)
        old = coordinator.primary
        coordinator.fail_primary()
        coordinator.fail_over_after()
        cluster.sim.run(until=6)
        assert coordinator.primary is old  # not yet (delay is 5s)
        cluster.sim.run(until=8)
        assert coordinator.primary is not old

    def test_lifecycle_failover_strands_no_tier_move(self):
        """Promoting a standby over a LifecycleMaster mid-demotion must
        abort the dead primary's in-flight TIER_MOVE records: shutdown
        (shared with crash) runs the abort hook, so nothing stays
        non-terminal forever."""
        from repro.cluster import Cluster, ClusterSpec, NodeSpec
        from repro.cluster.archive import ArchiveSpec
        from repro.lifecycle import LifecycleMaster, TierConfig

        # A slow archive link (4 MB/s -> a 64 MB demotion takes ~16 s)
        # guarantees the failover below lands mid-move.
        cluster = Cluster(
            ClusterSpec(
                n_workers=4,
                seed=3,
                node=NodeSpec().with_ssd().with_archive(
                    ArchiveSpec(bandwidth=4 * MB)
                ),
            )
        )
        namenode = NameNode(
            cluster,
            RandomPlacement(4, cluster.rngs.stream("placement")),
            block_size=64 * MB,
        )
        client = DFSClient(namenode)
        config = DyrsConfig(reference_block_size=64 * MB)
        tier_config = TierConfig(
            lifecycle_interval=5.0, hot_age=10.0, cold_age=25.0, archive_age=45.0
        )
        coordinator = StandbyCoordinator(
            namenode,
            config,
            master_factory=lambda nn, cfg: LifecycleMaster(
                nn, cfg, tier_config=tier_config
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

        old = coordinator.primary
        assert isinstance(old, LifecycleMaster)
        # A block that cools past archive_age gets a demote move; fail
        # over the moment one is in flight (non-terminal).
        entry = client.create_file("a", 64 * MB)
        ev, _ = client.read_block(
            entry.blocks[0], reader_node=None, job_id="warmup"
        )
        cluster.sim.run_until_processed(ev)
        deadline = cluster.sim.now + 240.0
        while cluster.sim.now < deadline:
            cluster.sim.run(until=cluster.sim.now + 1.0)
            if any(
                not r.status.is_terminal
                for r in old._lifecycle_moves.values()
            ):
                break
        else:
            raise AssertionError("no tier move ever started")

        coordinator.fail_primary()
        new = coordinator.fail_over()
        assert isinstance(new, LifecycleMaster)
        # The satellite's contract: nothing the dead primary was moving
        # between tiers is stranded mid-flight.
        for record in old.lifecycle_record_log:
            assert record.status.is_terminal, (
                f"TIER_MOVE record {record.block_id} stranded "
                f"{record.status.value} across failover"
            )
        for record in old.record_log:
            assert record.status.is_terminal
        # And the promoted master runs its own lifecycle from scratch.
        cluster.sim.run(until=cluster.sim.now + 30)

    def test_migrations_during_outage_are_lost_but_harmless(self, rig):
        """The §III-C1 worst case: requests in the gap produce no
        migration; reads fall back to disk without error."""
        cluster, namenode, client, coordinator, slaves = rig
        coordinator.fail_primary()
        entry = client.create_file("a", 64 * MB)
        # Master object still wired, but crashed state: migrate is
        # accepted into a dead pending list or dropped; either way the
        # read path keeps working.
        client.migrate(["a"], job_id="j1")
        ev, source = client.read_block(entry.blocks[0], reader_node=None)
        cluster.sim.run_until_processed(ev)
        coordinator.fail_over()
        cluster.sim.run(until=cluster.sim.now + 30)
