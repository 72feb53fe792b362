"""Shared fixture: a wired mini-cluster under a ShardCoordinator."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import DyrsConfig, DyrsSlave
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.shard import ShardCoordinator
from repro.units import MB


class ShardRig:
    """Like the core tests' Rig, with the federated master."""

    def __init__(self, n_shards=4, n_workers=4, seed=3, block_size=64 * MB,
                 config=None, router_mode="block"):
        self.cluster = Cluster(ClusterSpec(n_workers=n_workers, seed=seed))
        self.sim = self.cluster.sim
        self.namenode = NameNode(
            self.cluster,
            RandomPlacement(n_workers, self.cluster.rngs.stream("placement")),
            block_size=block_size,
            replication=min(3, n_workers),
        )
        self.client = DFSClient(self.namenode)
        self.config = config or DyrsConfig()
        self.master = ShardCoordinator(
            self.namenode,
            self.config,
            n_shards=n_shards,
            router_mode=router_mode,
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
def make_shard_rig():
    return lambda **kw: ShardRig(**kw).start()


@pytest.fixture
def shard_rig(make_shard_rig):
    return make_shard_rig()
