"""Heartbeat service: periodic DataNode -> NameNode reports.

Each DataNode heartbeats every ``heartbeat_interval`` seconds.  The
payload is assembled from *contributors* -- callables returning dicts
-- so the DYRS slave can piggyback its migration-time estimate and
queue depth without the DFS layer knowing about migration at all
(§III-D: "During heartbeats, the master stores each slave's estimate of
migration time and the number of blocks currently queued").

A dead node (``node.alive == False``) simply stops heartbeating, which
is how the NameNode's miss-counting failure detector notices it.

One walk per interval
---------------------

Every node heartbeats at the same instants, so the service runs **one**
simulation process that walks all nodes in ``namenode.datanodes``
order each interval, instead of one process (and one timer event) per
node.  At 1,000 nodes that saves ~500 engine events per simulated
second.  Each report is stamped with the tick time; a failed or
partitioned node is skipped for as long as it stays down.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dfs.namenode import HeartbeatReport, NameNode
from repro.sim.process import Interrupt, Process

__all__ = ["HeartbeatService"]


class HeartbeatService:
    """Delivers periodic heartbeats for every DataNode."""

    def __init__(self, namenode: NameNode) -> None:
        self.namenode = namenode
        self.sim = namenode.sim
        self._process: Optional[Process] = None
        #: node -> payload contributors.  Lazily defaulted: a node may
        #: register with the NameNode *after* this service is built
        #: (late-joining DataNodes), so the map must not be a frozen
        #: snapshot of ``namenode.datanodes`` at construction time.
        self._contributors: dict[int, list[Callable[[], dict]]] = {}

    def add_contributor(
        self,
        node_id: int,
        contributor: Callable[[], dict],
        prefix: Optional[str] = None,
    ) -> None:
        """Merge ``contributor()`` into node ``node_id``'s payloads.

        ``prefix`` namespaces the contributor's keys on the wire
        (``prefix + key``) without the contributor knowing its mount
        point -- how shard-addressed payloads ride an ordinary
        heartbeat: the coordinator mounts each slave's shard fields
        under ``dyrs.`` so observers see e.g. ``dyrs.shard``.
        """
        if prefix:
            inner = contributor

            def contributor() -> dict:
                return {prefix + key: value for key, value in inner().items()}

        self._contributors.setdefault(node_id, []).append(contributor)

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
        """One pass over all nodes per interval, in ``datanodes`` order."""
        sim = self.sim
        namenode = self.namenode
        interval = namenode.heartbeat_interval
        cluster_node = namenode.cluster.node
        contributors = self._contributors
        receive = namenode.receive_heartbeat
        report_cls = HeartbeatReport
        try:
            while True:
                partitioned = namenode.partitioned
                now = sim.now
                for node_id in namenode.datanodes:
                    # A partitioned node still *sends* (it cannot know
                    # the link is down), but the report is lost in
                    # transit; skip assembling a payload nobody receives.
                    if not cluster_node(node_id).alive or node_id in partitioned:
                        continue
                    contribs = contributors.get(node_id, ())
                    if len(contribs) == 1:
                        # Contributors return a fresh dict per call and
                        # observers only read it during dispatch, so the
                        # common one-contributor node can skip the merge
                        # copy entirely.
                        payload = contribs[0]()
                    else:
                        payload = {}
                        for contributor in contribs:
                            payload.update(contributor())
                    receive(report_cls(node_id, now, payload))
                yield sim.timeout(interval)
        except Interrupt:
            return
