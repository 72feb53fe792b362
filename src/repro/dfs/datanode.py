"""DataNode: block storage and the tier-resolved read paths.

A DataNode serves a block read from the fastest rung of the storage
ladder (:data:`~repro.cluster.node.TIER_ORDER`) that holds a copy:
memory > ssd > disk > archive.

* **memory**, locally (the task runs on this node) or remotely (the
  data crosses the source NIC -- §III: "reads will be directed to the
  in-memory replica whether it is local or remote to the task making
  the read");
* the **SSD cache**, when the tiered-storage extension placed a warm
  copy there;
* the **disk** (the cold path DYRS wants to avoid);
* the **archive** partition, when the lifecycle extension demoted a
  COLD block there.

Residency is one API keyed by rung name: :meth:`DataNode.holds`,
:meth:`~DataNode.pin`, :meth:`~DataNode.unpin` and
:meth:`~DataNode.pinned_ids`.  Each completed read is recorded for the
Fig 8 read-distribution analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cluster.node import TIER_ORDER
from repro.dfs.block import Block, BlockId
from repro.obs import trace as obs
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node

__all__ = ["DataNode", "ReadSource", "ReadRecord"]

#: Read preference: the fastest rung holding a copy serves the read.
_READ_ORDER = TIER_ORDER[::-1]


class ReadSource(enum.Enum):
    """Where a block read was served from."""

    LOCAL_MEMORY = "local-memory"
    REMOTE_MEMORY = "remote-memory"
    LOCAL_SSD = "local-ssd"
    REMOTE_SSD = "remote-ssd"
    LOCAL_DISK = "local-disk"
    REMOTE_DISK = "remote-disk"
    LOCAL_ARCHIVE = "local-archive"
    REMOTE_ARCHIVE = "remote-archive"

    @property
    def is_memory(self) -> bool:
        return self in (ReadSource.LOCAL_MEMORY, ReadSource.REMOTE_MEMORY)

    @property
    def is_ssd(self) -> bool:
        return self in (ReadSource.LOCAL_SSD, ReadSource.REMOTE_SSD)

    @property
    def is_archive(self) -> bool:
        return self in (ReadSource.LOCAL_ARCHIVE, ReadSource.REMOTE_ARCHIVE)


@dataclass(frozen=True, slots=True)
class ReadRecord:
    """One completed (started) block read, for metrics."""

    time: float
    block_id: BlockId
    nbytes: float
    source: ReadSource
    reader_node: Optional[int]


class DataNode:
    """Block storage attached to one worker node."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.node_id = node.node_id
        node.datanode = self
        self._disk_blocks: set[BlockId] = set()
        #: Reads served by this DataNode, from any rung, in order.
        self.read_log: list[ReadRecord] = []

    # -- replica inventory ---------------------------------------------------

    def add_disk_replica(self, block: Block) -> None:
        """Record that this node stores a disk replica of ``block``."""
        self._disk_blocks.add(block.block_id)

    def remove_disk_replica(self, block_id: BlockId) -> None:
        """Forget the disk replica of ``block_id`` (lifecycle
        demotion); idempotent -- the block map is updated separately by
        the NameNode."""
        self._disk_blocks.discard(block_id)

    @property
    def disk_replica_count(self) -> int:
        return len(self._disk_blocks)

    # -- residency by rung ---------------------------------------------------

    def _device(self, rung: str):
        """This node's device on ``rung`` (None where it has none)."""
        if rung not in TIER_ORDER:
            raise ValueError(f"unknown storage rung {rung!r}")
        return getattr(self.node, rung)

    def holds(self, rung: str, block_id: BlockId) -> bool:
        """Whether this node holds a copy of ``block_id`` on ``rung``."""
        if rung == "disk":
            return block_id in self._disk_blocks
        store = self._device(rung)
        return store is not None and store.is_pinned(block_id)

    def pin(self, rung: str, block: Block) -> None:
        """Account ``block`` as resident on ``rung`` -- ``memory``
        (post-``mlock``), ``ssd`` or ``archive``; disk replicas are
        block-map state (:meth:`add_disk_replica`)."""
        store = self._device(rung)
        if store is None:
            raise RuntimeError(f"node{self.node_id} has no {rung} tier")
        store.pin(block.block_id, block.size)

    def unpin(self, rung: str, block_id: BlockId) -> float:
        """Drop ``block_id`` from ``rung`` (``munmap`` for memory);
        idempotent.  Returns the bytes freed; every buffer release in
        the trace is emitted here."""
        store = self._device(rung)
        if store is None:
            return 0.0
        freed = store.unpin(block_id)
        if freed > 0:
            obs.emit(
                obs.BUFFER_RELEASE,
                self.node.sim.now,
                block=block_id,
                node=self.node_id,
                tier=rung,
                nbytes=freed,
            )
        return freed

    def pinned_ids(self, rung: str) -> tuple[BlockId, ...]:
        """Blocks currently resident on ``rung``, in pin order."""
        store = self._device(rung)
        if store is None:
            return ()
        return store.pinned_keys()  # type: ignore[return-value]

    # -- migration support (used by the DYRS slave) -----------------------------

    def copy_block(
        self, block: Block, source_tier: str = "disk", tag: str = "migration"
    ) -> Event:
        """Start a tier copy reading from ``source_tier``; completion
        event returned.

        Charges the *source* device -- the bottleneck of every upward
        tier edge (disk < ssd < memory write absorption); the caller
        pins the block on the destination tier after completion --
        mirroring ``mlock`` returning only once the data is resident
        (§IV-A: "migration time [is] the time it takes the mlock
        system call to return").
        """
        if not self.holds(source_tier, block.block_id):
            raise KeyError(
                f"node{self.node_id} has no {source_tier} replica of block "
                f"{block.block_id}"
            )
        return self._device(source_tier).channel.transfer(block.size, tag=tag)

    # -- read paths ----------------------------------------------------------

    def _remote_memory_transfer(self, nbytes: float, reader_node, tag: str):
        """Charge a remote memory read: source NIC egress plus, on a
        multi-rack cluster, both racks' ToR uplinks when the reader is
        in another rack.  Returns the completion event.
        """
        from repro.sim.events import AllOf

        flows = [self.node.nic.egress.start_flow(nbytes, tag=tag)]
        cluster = self.node.cluster
        if (
            cluster is not None
            and cluster.fabric.rack_aware
            and reader_node is not None
            and not cluster.same_rack(self.node_id, reader_node)
        ):
            flows.extend(
                cluster.fabric.cross_rack_flows(
                    self.node.rack_id,
                    cluster.rack_of(reader_node),
                    nbytes,
                    tag=tag,
                )
            )
        if len(flows) == 1:
            return flows[0].done
        return AllOf(self.node.sim, [f.done for f in flows])

    def read(
        self, block: Block, reader_node: Optional[int]
    ) -> tuple[Event, ReadSource]:
        """Serve a read of ``block`` for a task on ``reader_node``.

        Reads from the fastest rung holding a copy; charges the
        bottleneck resource for the chosen path (see
        :mod:`repro.cluster.network` for the single-charge rationale).
        Returns the completion event and which path was used.
        """
        tag = f"read:{block.block_id}"
        for rung in _READ_ORDER:
            if self.holds(rung, block.block_id):
                break
        else:
            raise KeyError(
                f"node{self.node_id} holds no replica of block {block.block_id}"
            )
        local = reader_node == self.node_id
        source = ReadSource(f"{'local' if local else 'remote'}-{rung}")
        if rung == "memory" and not local:
            event = self._remote_memory_transfer(block.size, reader_node, tag)
        else:
            # A local memory read, and any ssd, disk or archive read,
            # charges the rung's own channel: a storage device, not the
            # 10 Gbps NIC, is the bottleneck for local and remote
            # readers alike (the archive is fabric-attached either
            # way).  The archive's per-operation setup latency is
            # charged on the lifecycle mover's moves, not on reads,
            # keeping the read path a pure flow.
            event = self._device(rung).channel.transfer(block.size, tag=tag)
        if obs.enabled():
            if rung == "memory":
                etype = obs.READ_MEMORY
            elif rung == "ssd":
                etype = obs.READ_SSD
            elif rung == "archive":
                etype = obs.READ_ARCHIVE
            else:
                etype = obs.READ_DISK
            obs.emit(
                etype,
                self.node.sim.now,
                block=block.block_id,
                node=self.node_id,
                reader=reader_node,
                nbytes=block.size,
            )
            block_id, node_id = block.block_id, self.node_id

            def _emit_done(e: Event) -> None:
                if e.ok:
                    obs.emit(
                        obs.READ_DONE,
                        self.node.sim.now,
                        block=block_id,
                        node=node_id,
                    )

            event.add_callback(_emit_done)
        self.read_log.append(
            ReadRecord(
                time=self.node.sim.now,
                block_id=block.block_id,
                nbytes=block.size,
                source=source,
                reader_node=reader_node,
            )
        )
        return event, source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DataNode node{self.node_id} disk_blocks={len(self._disk_blocks)} "
            f"mem_blocks={len(self.pinned_ids('memory'))}>"
        )
