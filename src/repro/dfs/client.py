"""DFSClient: the file-system facade applications use.

This mirrors the paper's HDFS ``DFSClient``, "extended ... with a
migration method.  The arguments to this method are: a list of files,
the operation to be performed (migration or eviction) and the type of
eviction (explicit or implicit)" (§IV-B).  The migration master behind
the RPC is pluggable -- DYRS, Ignem, or nothing (default HDFS).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.cluster.node import FAST_TIERS
from repro.dfs.block import Block
from repro.dfs.datanode import ReadSource
from repro.dfs.namenode import NameNode
from repro.sim.events import AllOf, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dfs.namespace import FileEntry

__all__ = ["DFSClient", "EvictionMode"]


class EvictionMode(enum.Enum):
    """How a job's blocks leave memory (§III-C3).

    EXPLICIT
        The job (or a caching framework acting for it) issues an evict
        command when done.
    IMPLICIT
        A block's reference is dropped as soon as the job reads it, so
        data is evicted sooner ("a performance optimization to keep
        memory usage low").
    """

    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


class DFSClient:
    """Client handle bound to one NameNode."""

    def __init__(self, namenode: NameNode) -> None:
        self.namenode = namenode
        self.sim = namenode.sim

    # -- namespace -----------------------------------------------------------

    def create_file(self, name: str, size: float) -> "FileEntry":
        """Create a file of ``size`` bytes (input pre-loading)."""
        return self.namenode.create_file(name, size)

    def blocks_of(self, names: Iterable[str]) -> list[Block]:
        """The blocks backing ``names``, in file order."""
        return self.namenode.blocks_of(names)

    # -- reads ---------------------------------------------------------------

    def read_block(
        self,
        block: Block,
        reader_node: Optional[int],
        job_id: Optional[str] = None,
    ) -> tuple[Event, ReadSource]:
        """Read one block for a task running on ``reader_node``.

        Returns the completion event and the path used.  If a migration
        master with implicit eviction is active, it observes the read
        so the block's reference list can be trimmed (§IV-A1: slaves
        "extract the job ID directly from the read calls").
        """
        datanode = self.namenode.resolve_read(block, reader_node)
        event, source = datanode.read(block, reader_node)
        master = self.namenode.migration_master
        if master is not None and job_id is not None:
            master.on_block_read(block, job_id, event)
        return event, source

    def resident_tier(self, block: Block) -> str:
        """Fastest tier a read of ``block`` would be served from right
        now (``"memory"``, ``"ssd"``, or ``"disk"``).

        Verifies the soft-state directories through
        :meth:`NameNode.holder`, as :meth:`NameNode.resolve_read` does,
        so the answer matches what a read issued at this instant would
        hit.  Observability only -- the read path never calls this.
        """
        for rung in FAST_TIERS:
            if self.namenode.holder(rung, block.block_id) is not None:
                return rung
        return "disk"

    # -- writes --------------------------------------------------------------

    def write_file(
        self,
        name: str,
        size: float,
        writer_node: Optional[int] = None,
        replication: Optional[int] = None,
    ) -> Event:
        """Write a new ``size``-byte file through the replica pipeline.

        Charges a disk write on every replica node of every block and a
        NIC ingress transfer on the non-local replicas; the returned
        event triggers when the whole pipeline drains.  Used by reduce
        tasks writing job output.  ``replication`` overrides the DFS
        default (benchmark outputs are conventionally written with
        replication 1, as TeraSort does).
        """
        entry = self.namenode.create_file(name, size, replication=replication)
        events: list[Event] = []
        for block in entry.blocks:
            for node_id in block.replica_nodes:
                node = self.namenode.cluster.node(node_id)
                events.append(
                    node.disk.channel.transfer(block.size, tag=f"write:{name}")
                )
                if node_id != writer_node:
                    events.append(
                        node.nic.ingress.transfer(block.size, tag=f"repl:{name}")
                    )
        return AllOf(self.sim, events)

    # -- migration RPC (the paper's extension) -----------------------------------

    def migrate(
        self,
        files: Sequence[str],
        job_id: str,
        eviction: EvictionMode = EvictionMode.IMPLICIT,
    ) -> bool:
        """Request migration of ``files`` for ``job_id``.

        Returns True if a migration master accepted the request, False
        when running as plain HDFS (no master configured) -- callers
        need no special-casing across configurations.
        """
        master = self.namenode.migration_master
        if master is None:
            return False
        master.migrate(files, job_id=job_id, eviction=eviction)
        return True

    def evict(self, files: Sequence[str], job_id: str) -> bool:
        """Drop ``job_id``'s references on ``files``'s blocks."""
        master = self.namenode.migration_master
        if master is None:
            return False
        master.evict(files, job_id=job_id)
        return True
