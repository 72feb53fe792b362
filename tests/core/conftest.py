"""Shared fixtures: a fully wired mini-cluster with a chosen master."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import DyrsConfig, DyrsMaster, DyrsSlave, IgnemMaster, NaiveBalancerMaster
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.units import MB


def wait_enders(sim, signal):
    """Scheduled events that would end a wait on ``signal``."""
    return [
        event
        for _when, _priority, _seq, event in sim._heap
        if not event._discarded
        and any(getattr(cb, "__self__", None) is signal for cb in event.callbacks or ())
    ]


class Rig:
    """A wired cluster + DFS + migration master, for tests."""

    def __init__(self, master_kind="dyrs", n_workers=4, overrides=None, seed=3,
                 block_size=64 * MB, config=None):
        self.cluster = Cluster(
            ClusterSpec(n_workers=n_workers, seed=seed, overrides=overrides or {})
        )
        self.sim = self.cluster.sim
        self.namenode = NameNode(
            self.cluster,
            RandomPlacement(n_workers, self.cluster.rngs.stream("placement")),
            block_size=block_size,
            replication=min(3, n_workers),
        )
        self.client = DFSClient(self.namenode)
        self.config = config or DyrsConfig()
        if master_kind == "dyrs":
            self.master = DyrsMaster(self.namenode, self.config)
        elif master_kind == "ignem":
            self.master = IgnemMaster(
                self.namenode, self.cluster.rngs.stream("ignem")
            )
        elif master_kind == "naive":
            self.master = NaiveBalancerMaster(self.namenode)
        else:
            raise ValueError(master_kind)
        self.slaves = [
            DyrsSlave(self.namenode.datanodes[n.node_id], self.master, self.config)
            for n in self.cluster.nodes
        ]
        self.heartbeats = HeartbeatService(self.namenode)
        if master_kind == "dyrs":
            self.master.attach_heartbeats(self.heartbeats)

    def start(self):
        self.heartbeats.start()
        if isinstance(self.master, DyrsMaster):
            self.master.start()
        for slave in self.slaves:
            slave.start()
        return self


@pytest.fixture
def rig():
    return Rig().start()


@pytest.fixture
def make_rig():
    return lambda **kw: Rig(**kw).start()
