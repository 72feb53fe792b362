"""Shared fixtures: a wired mini-cluster with SSDs and no archive rung."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.core import DyrsConfig, DyrsSlave
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.lifecycle import LifecycleMaster, TierConfig
from repro.units import MB


class TieredRig:
    """Like the core tests' Rig, but every node carries an SSD cache
    and the master runs the storage ladder (no archive rung, so only
    the working tiers)."""

    def __init__(self, n_workers=4, seed=3, block_size=64 * MB, config=None,
                 tier_config=None, node=None, overrides=None):
        self.cluster = Cluster(
            ClusterSpec(
                n_workers=n_workers,
                seed=seed,
                node=node if node is not None else NodeSpec().with_ssd(),
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
        self.tier_config = tier_config or TierConfig()
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


@pytest.fixture
def tiered_rig():
    return TieredRig().start()


@pytest.fixture
def make_tiered_rig():
    return lambda **kw: TieredRig(**kw).start()
