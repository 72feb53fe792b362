"""Shared fixtures: a mini-cluster with SSDs + archive partitions and
the lifecycle master."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.core import DyrsConfig, DyrsSlave
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.lifecycle import LifecycleMaster, TierConfig
from repro.units import MB


#: Compressed timescales so a whole hot->cold->archived arc fits in a
#: minute of simulated time.
FAST_LIFECYCLE = dict(
    lifecycle_interval=5.0, hot_age=10.0, cold_age=25.0, archive_age=45.0
)


class LifecycleRig:
    """Like the tiers tests' TieredRig, but every node also carries an
    archive partition, so the master runs the archive pass too."""

    def __init__(self, n_workers=4, seed=3, block_size=64 * MB, config=None,
                 tier_config=None, node=None, overrides=None):
        self.cluster = Cluster(
            ClusterSpec(
                n_workers=n_workers,
                seed=seed,
                node=node
                if node is not None
                else NodeSpec().with_ssd().with_archive(),
                overrides=overrides or {},
            )
        )
        self.sim = self.cluster.sim
        self.namenode = NameNode(
            self.cluster,
            RandomPlacement(n_workers, self.cluster.rngs.stream("placement")),
            block_size=block_size,
            replication=min(3, n_workers),
        )
        self.client = DFSClient(self.namenode)
        self.config = config or DyrsConfig(reference_block_size=block_size)
        self.tier_config = tier_config or TierConfig(**FAST_LIFECYCLE)
        self.master = LifecycleMaster(
            self.namenode, self.config, tier_config=self.tier_config
        )
        self.slaves = [
            DyrsSlave(self.namenode.datanodes[n.node_id], self.master, self.config)
            for n in self.cluster.nodes
        ]
        self.heartbeats = HeartbeatService(self.namenode)
        self.master.attach_heartbeats(self.heartbeats)

    def start(self):
        self.heartbeats.start()
        self.master.start()
        for slave in self.slaves:
            slave.start()
        return self

    # -- helpers used across the suite ----------------------------------

    def cold_block(self, name="f", size=64 * MB, reads=1):
        """Create a file, touch it so the tracker knows it, and return
        its (single) block -- still on disk, cooling from now on."""
        entry = self.client.create_file(name, size)
        block = entry.blocks[0]
        for _ in range(reads):
            event, _ = self.client.read_block(
                block, reader_node=None, job_id="warmup"
            )
            self.sim.run(until=self.sim.now + 2.0)
            assert event.triggered
        return block

    def run_until(self, predicate, deadline=240.0, step=2.0):
        while self.sim.now < deadline:
            self.sim.run(until=self.sim.now + step)
            if predicate():
                return
        raise AssertionError(f"condition not reached by t={deadline}")


@pytest.fixture
def lifecycle_rig():
    return LifecycleRig().start()


@pytest.fixture
def make_lifecycle_rig():
    return lambda **kw: LifecycleRig(**kw).start()
