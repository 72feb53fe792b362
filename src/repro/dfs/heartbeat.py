"""Heartbeat service: periodic DataNode -> NameNode reports.

Each DataNode heartbeats every ``heartbeat_interval`` seconds.  The DFS
layer knows nothing about migration: a heartbeat only says *which
nodes are up at this instant*.  The DYRS master, a NameNode heartbeat
observer, reads each reporting slave's ``(estimate, queue depth)`` off
the slave when the tick lands -- the simulator's form of the paper's
piggyback (§III-D: "During heartbeats, the master stores each slave's
estimate of migration time and the number of blocks currently queued").

A dead node (``node.alive == False``) simply stops heartbeating, which
is how the NameNode's miss-counting failure detector notices it.

One delivery per tick
---------------------

Every node heartbeats at the same instants, so the service runs **one**
simulation process for the cluster and hands the NameNode **one**
:class:`~repro.dfs.namenode.HeartbeatReport` per interval: the tick
time and the ids of the nodes whose heartbeat arrived, in
``namenode.datanodes`` order.  A failed or partitioned node is left out
for as long as it stays down, and ``datanodes`` is read afresh every
tick, so a DataNode registered after the service was built reports at
the next tick.
"""

from __future__ import annotations

from typing import Optional

from repro.dfs.namenode import HeartbeatReport, NameNode
from repro.sim.process import Interrupt, Process

__all__ = ["HeartbeatService"]


class HeartbeatService:
    """Delivers periodic heartbeats for every DataNode."""

    def __init__(self, namenode: NameNode) -> None:
        self.namenode = namenode
        self.sim = namenode.sim
        self._process: Optional[Process] = None

    def start(self) -> None:
        """Launch the heartbeat loop (idempotent)."""
        if self._process is None:
            self._process = self.sim.process(self._loop(), name="hb:all")

    def stop(self) -> None:
        """Stop the heartbeat loop."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt(cause="stop")
        self._process = None

    def _loop(self):
        """One report per interval, listing the nodes that got through."""
        sim = self.sim
        namenode = self.namenode
        interval = namenode.heartbeat_interval
        receive = namenode.receive_heartbeat
        try:
            while True:
                # A partitioned node still *sends* (it cannot know the
                # link is down), but its heartbeat is lost in transit.
                partitioned = namenode.partitioned
                node_ids = [
                    node_id
                    for node_id, datanode in namenode.datanodes.items()
                    if datanode.node.alive and node_id not in partitioned
                ]
                receive(HeartbeatReport(sim.now, node_ids))
                yield sim.timeout(interval)
        except Interrupt:
            return
