"""DataNode: block storage and the tier-resolved read paths.

A DataNode serves a block read from either

* its **disk** (the cold path DYRS wants to avoid),
* its **SSD cache**, when the tiered-storage extension placed a warm
  copy there (local or remote -- the SSD controller is the bottleneck
  either way, as the disk is for disk reads), or
* its **memory**, locally (the task runs on this node), or
* its **memory**, remotely (the data crosses the source NIC --
  §III: "reads will be directed to the in-memory replica whether it is
  local or remote to the task making the read").

Tier resolution always prefers the fastest resident copy:
memory > ssd > disk.  Each completed read is recorded for the Fig 8
read-distribution analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dfs.block import Block, BlockId
from repro.obs import trace as obs
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node

__all__ = ["DataNode", "ReadSource", "ReadRecord"]


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

    def __init__(self, node: "Node", cancellers: Optional[dict] = None) -> None:
        self.node = node
        self.node_id = node.node_id
        node.datanode = self
        self._disk_blocks: set[BlockId] = set()
        #: Reads served by this DataNode (disk or memory), in order.
        self.read_log: list[ReadRecord] = []
        #: Shared event -> cancel-callable registry (owned by the
        #: NameNode) so in-flight reads can be aborted, e.g. when a
        #: speculative task attempt wins against this one.
        self._cancellers: dict = cancellers if cancellers is not None else {}

    # -- replica inventory ---------------------------------------------------

    def add_disk_replica(self, block: Block) -> None:
        """Record that this node stores a disk replica of ``block``."""
        self._disk_blocks.add(block.block_id)

    def has_disk_replica(self, block_id: BlockId) -> bool:
        return block_id in self._disk_blocks

    def has_memory_replica(self, block_id: BlockId) -> bool:
        return self.node.memory.is_pinned(block_id)

    def has_ssd_replica(self, block_id: BlockId) -> bool:
        return self.node.ssd is not None and self.node.ssd.is_pinned(block_id)

    def has_archive_replica(self, block_id: BlockId) -> bool:
        return self.node.archive is not None and self.node.archive.is_pinned(
            block_id
        )

    def remove_disk_replica(self, block_id: BlockId) -> None:
        """Forget the disk replica of ``block_id`` (lifecycle
        demotion); idempotent -- the block map is updated separately by
        the NameNode."""
        self._disk_blocks.discard(block_id)

    def memory_block_ids(self) -> tuple[BlockId, ...]:
        """Blocks currently pinned in this node's memory."""
        return self.node.memory.pinned_keys()  # type: ignore[return-value]

    def ssd_block_ids(self) -> tuple[BlockId, ...]:
        """Blocks currently resident on this node's SSD cache."""
        if self.node.ssd is None:
            return ()
        return self.node.ssd.pinned_keys()  # type: ignore[return-value]

    @property
    def disk_replica_count(self) -> int:
        return len(self._disk_blocks)

    def disk_block_ids(self) -> list[BlockId]:
        """Ids of all disk-resident replicas, in ascending order.

        A superset of the blocks the namespace still maps here (file
        deletion does not scrub disks); sorted so callers iterating it
        stay deterministic.
        """
        return sorted(self._disk_blocks)

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
        if source_tier == "disk":
            if block.block_id not in self._disk_blocks:
                raise KeyError(
                    f"node{self.node_id} has no disk replica of block {block.block_id}"
                )
            return self.node.disk.channel.transfer(block.size, tag=tag)
        if source_tier == "ssd":
            if not self.has_ssd_replica(block.block_id):
                raise KeyError(
                    f"node{self.node_id} has no SSD replica of block {block.block_id}"
                )
            return self.node.ssd.channel.transfer(block.size, tag=tag)
        if source_tier == "archive":
            if not self.has_archive_replica(block.block_id):
                raise KeyError(
                    f"node{self.node_id} has no archived copy of block "
                    f"{block.block_id}"
                )
            return self.node.archive.channel.transfer(block.size, tag=tag)
        raise ValueError(f"unknown source tier {source_tier!r}")

    def pin_block(self, block: Block) -> None:
        """Account the migrated block in memory (post-``mlock``)."""
        self.node.memory.pin(block.block_id, block.size)

    def unpin_block(self, block_id: BlockId) -> float:
        """Evict a block from memory (``munmap``); idempotent."""
        freed = self.node.memory.unpin(block_id)
        if freed > 0:
            obs.emit(
                obs.BUFFER_RELEASE,
                self.node.sim.now,
                block=block_id,
                node=self.node_id,
                tier="memory",
                nbytes=freed,
            )
        return freed

    def pin_block_ssd(self, block: Block) -> None:
        """Account ``block`` as resident on this node's SSD cache."""
        if self.node.ssd is None:
            raise RuntimeError(f"node{self.node_id} has no SSD tier")
        self.node.ssd.pin(block.block_id, block.size)

    def unpin_block_ssd(self, block_id: BlockId) -> float:
        """Drop a block from the SSD cache; idempotent."""
        if self.node.ssd is None:
            return 0.0
        freed = self.node.ssd.unpin(block_id)
        if freed > 0:
            obs.emit(
                obs.BUFFER_RELEASE,
                self.node.sim.now,
                block=block_id,
                node=self.node_id,
                tier="ssd",
                nbytes=freed,
            )
        return freed

    def pin_block_archive(self, block: Block) -> None:
        """Account ``block`` as archived under this node's partition."""
        if self.node.archive is None:
            raise RuntimeError(f"node{self.node_id} has no archive tier")
        self.node.archive.pin(block.block_id, block.size)

    def unpin_block_archive(self, block_id: BlockId) -> float:
        """Drop a block from the archive partition; idempotent."""
        if self.node.archive is None:
            return 0.0
        freed = self.node.archive.unpin(block_id)
        if freed > 0:
            obs.emit(
                obs.BUFFER_RELEASE,
                self.node.sim.now,
                block=block_id,
                node=self.node_id,
                tier="archive",
                nbytes=freed,
            )
        return freed

    # -- read paths ----------------------------------------------------------

    def _remote_memory_transfer(self, nbytes: float, reader_node, tag: str):
        """Charge a remote memory read: source NIC egress plus, on a
        multi-rack cluster, both racks' ToR uplinks when the reader is
        in another rack.  Returns ``(completion event, cancel fn)``.
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
            event = flows[0].done
        else:
            event = AllOf(self.node.sim, [f.done for f in flows])

        def cancel() -> None:
            self.node.nic.egress.cancel(flows[0])
            if cluster is not None:
                for i, flow in enumerate(flows[1:]):
                    channel = (
                        cluster.fabric.uplinks[self.node.rack_id]
                        if i == 0
                        else cluster.fabric.downlinks[cluster.rack_of(reader_node)]
                    )
                    channel.cancel(flow)

        return event, cancel

    def read(
        self, block: Block, reader_node: Optional[int]
    ) -> tuple[Event, ReadSource]:
        """Serve a read of ``block`` for a task on ``reader_node``.

        Chooses memory over disk; charges the bottleneck resource for
        the chosen path (see :mod:`repro.cluster.network` for the
        single-charge rationale).  Returns the completion event and
        which path was used.
        """
        tag = f"read:{block.block_id}"
        if self.has_memory_replica(block.block_id):
            if reader_node == self.node_id:
                source = ReadSource.LOCAL_MEMORY
                channel = self.node.memory.channel
                flow = channel.start_flow(block.size, tag=tag)
                cancel = lambda: channel.cancel(flow)  # noqa: E731
                event = flow.done
            else:
                source = ReadSource.REMOTE_MEMORY
                event, cancel = self._remote_memory_transfer(
                    block.size, reader_node, tag
                )
        elif self.has_ssd_replica(block.block_id):
            # SSD reads charge the controller channel only -- like the
            # disk path, the storage device (not the 10 Gbps NIC) is the
            # bottleneck whether the reader is local or remote.
            source = (
                ReadSource.LOCAL_SSD
                if reader_node == self.node_id
                else ReadSource.REMOTE_SSD
            )
            flow = self.node.ssd.channel.start_flow(block.size, tag=tag)
            cancel = lambda: self.node.ssd.channel.cancel(flow)  # noqa: E731
            event = flow.done
        elif self.has_disk_replica(block.block_id):
            source = (
                ReadSource.LOCAL_DISK
                if reader_node == self.node_id
                else ReadSource.REMOTE_DISK
            )
            flow = self.node.disk.channel.start_flow(block.size, tag=tag)
            cancel = lambda: self.node.disk.channel.cancel(flow)  # noqa: E731
            event = flow.done
        elif self.has_archive_replica(block.block_id):
            # The slowest rung: the shared archive link is the
            # bottleneck for local and remote readers alike (the data
            # is fabric-attached either way).  The per-operation setup
            # latency is folded into policy cost estimates rather than
            # each read, keeping the read path a cancellable pure flow.
            source = (
                ReadSource.LOCAL_ARCHIVE
                if reader_node == self.node_id
                else ReadSource.REMOTE_ARCHIVE
            )
            flow = self.node.archive.channel.start_flow(block.size, tag=tag)
            cancel = lambda: self.node.archive.channel.cancel(flow)  # noqa: E731
            event = flow.done
        else:
            raise KeyError(
                f"node{self.node_id} holds no replica of block {block.block_id}"
            )
        self._cancellers[event] = cancel
        event.add_callback(lambda e: self._cancellers.pop(e, None))
        if obs.enabled():
            if source.is_memory:
                etype = obs.READ_MEMORY
            elif source.is_ssd:
                etype = obs.READ_SSD
            elif source.is_archive:
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
            f"mem_blocks={len(self.memory_block_ids())}>"
        )
