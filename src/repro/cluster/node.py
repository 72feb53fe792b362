"""A worker node: disk + memory + NIC (+ optional SSD and archive).

Matches the paper's servers (§V-A): one HDD, 128 GB RAM, a 6-core/12-
thread CPU (we default to 12 task slots per node, one per hardware
thread, counted by the compute scheduler), and a 10 Gbps NIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.cluster.archive import Archive
from repro.cluster.disk import Disk, DiskSpec
from repro.cluster.memory import MemoryStore
from repro.cluster.network import Nic
from repro.cluster.ssd import Ssd

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["FAST_TIERS", "TIER_ORDER", "Node", "NodeSpec"]

#: The storage ladder, slowest rung first: moving a block to a higher
#: index is a promotion.  Each rung name is the :class:`Node` attribute
#: holding that rung's device.
TIER_ORDER: tuple[str, ...] = ("archive", "disk", "ssd", "memory")
#: The rungs above disk, fastest first: caches a slave process fills,
#: whose contents are soft state that dies with the process.
FAST_TIERS: tuple[str, ...] = TIER_ORDER[: TIER_ORDER.index("disk") : -1]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one worker node.

    ``disk`` is the one component spec that varies across nodes;
    ``task_slots`` is the number of concurrently running tasks YARN may
    place here.  Memory, NIC, SSD and archive have one shape each (the
    constants of their device modules).
    """

    disk: DiskSpec = field(default_factory=DiskSpec)
    task_slots: int = 12
    #: Whether the node has an SSD cache partition (the tiered-storage
    #: extension); False reproduces the paper's two-level disk/RAM
    #: servers.
    ssd: bool = False
    #: Whether the node owns a slice of the cold-storage namespace (the
    #: lifecycle extension's archive partition).
    archive: bool = False

    def __post_init__(self) -> None:
        if self.task_slots < 1:
            raise ValueError(f"task_slots must be >= 1, got {self.task_slots}")

    def with_disk_bandwidth(self, bandwidth: float) -> "NodeSpec":
        """A copy of this spec with a different disk speed.

        Convenience for building heterogeneous clusters with a
        "handicapped" node (§V-C).
        """
        return replace(self, disk=replace(self.disk, bandwidth=bandwidth))


class Node:
    """One worker node instance in a running simulation."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        spec: NodeSpec,
        rack_id: int = 0,
        archive_channel=None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.spec = spec
        self.rack_id = rack_id
        #: Back-reference set by the owning Cluster (None for
        #: free-standing nodes in unit tests).
        self.cluster = None
        self.disk = Disk(sim, spec.disk, name=f"{self.name}.disk")
        self.memory = MemoryStore(sim, name=f"{self.name}.mem")
        self.ssd: Optional[Ssd] = (
            Ssd(sim, name=f"{self.name}.ssd") if spec.ssd else None
        )
        #: Archive partition.  Clusters pass the fabric's shared archive
        #: link as ``archive_channel``; free-standing nodes get a
        #: private one.
        self.archive: Optional[Archive] = (
            Archive(sim, name=f"{self.name}.archive", channel=archive_channel)
            if spec.archive
            else None
        )
        self.nic = Nic(sim, name=f"{self.name}.nic")
        #: Set by the DFS layer when a DataNode is attached.
        self.datanode = None
        #: Whether the node (the whole server) is up.  Failure handling
        #: in §III-C marks crashed nodes unavailable.
        self.alive = True

    def fail(self) -> None:
        """Crash the whole server: all in-memory data is lost.

        The SSD cache partition is cleared too -- the data physically
        survives a power cycle, but its contents are soft state managed
        by the (dead) slave process, so a replacement starts cold.

        The archive partition is deliberately *not* touched: it models
        fabric-attached cold storage for which this node is only the
        accounting owner, so archived data survives the crash (see
        :mod:`repro.cluster.archive`).
        """
        self.alive = False
        for rung in FAST_TIERS:
            store = getattr(self, rung)
            if store is None:
                continue
            for key in store.pinned_keys():
                # Route through the DataNode when attached so the buffer
                # loss is traced (buffer_release events); the
                # conservation invariant audits every byte that leaves
                # memory, crashes included.
                if self.datanode is not None:
                    self.datanode.unpin(rung, key)
                else:
                    store.unpin(key)

    def recover(self) -> None:
        """Bring the server back up (with cold memory)."""
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "DOWN"
        return f"<Node {self.name} {status}>"
