"""NameNode: block map, heartbeats, failure detection, read routing.

The NameNode owns the namespace and the block map, receives periodic
heartbeats from DataNodes, and marks a node unavailable after several
consecutive missed heartbeats (§III-C2; "HDFS handles DataNode failures
in the same manner").

It also keeps the **residency directory**: per storage rung above or
below disk, block id -> the node holding that copy.  The memory entry
is the paper's -- soft state naming the node whose memory holds the
migrated replica, so block reads can be directed to in-memory
replicas; the SSD entry works the same way for the storage ladder.
Both are deliberately *advisory*: on use, the DataNode's actual pin
state wins (:meth:`NameNode.holder`), modeling the paper's recovery
story where a restarted master is temporarily inconsistent but reads
still succeed (§III-C1/C2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.cluster.node import FAST_TIERS, TIER_ORDER
from repro.dfs.block import Block, BlockId
from repro.dfs.datanode import DataNode
from repro.dfs.namespace import DEFAULT_BLOCK_SIZE, FileEntry, Namespace
from repro.dfs.placement import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Cluster

__all__ = ["NameNode", "HeartbeatReport", "DEFAULT_REPLICATION"]

#: Disk replicas per block, HDFS's default and the paper's testbed
#: setting (§V-A).
DEFAULT_REPLICATION = 3


@dataclass(slots=True)
class HeartbeatReport:
    """One heartbeat tick as the NameNode receives it.

    ``node_ids`` lists the DataNodes whose heartbeat arrived at
    ``time``, in ``NameNode.datanodes`` order; failed and partitioned
    nodes are absent.  Observers read whatever else they need (the
    DYRS master: each slave's estimate and queue depth, §III-D) from
    the nodes themselves.
    """

    time: float
    node_ids: list[int]


class NameNode:
    """The metadata master of the simulated DFS."""

    def __init__(
        self,
        cluster: "Cluster",
        placement: PlacementPolicy,
        block_size: float = DEFAULT_BLOCK_SIZE,
        replication: int = DEFAULT_REPLICATION,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.placement = placement
        self.replication = replication
        #: Seconds between DataNode heartbeats.  DYRS harvests slave
        #: loads on this tick (§III-D), and its slaves re-poll and size
        #: their queues by it (§III-B).
        self.heartbeat_interval = 2.0
        #: Consecutive missed heartbeats after which a node is
        #: unavailable.
        self.heartbeat_miss_limit = 3
        self.namespace = Namespace(block_size=block_size)
        self.datanodes: dict[int, DataNode] = {
            node.node_id: DataNode(node) for node in cluster.nodes
        }
        self._last_heartbeat: dict[int, float] = {
            nid: cluster.sim.now for nid in self.datanodes
        }
        #: Rung -> block id -> node id holding the copy, for every rung
        #: but disk (disk replicas are the block map).  ``memory`` and
        #: ``ssd`` are soft state of the migration master (``ssd`` is
        #: empty for the paper's schemes).  ``archive`` -- the lifecycle
        #: extension -- is *durable block-map state* instead: archival
        #: migration rewrites the block map (disk replicas are
        #: dropped), so losing the archive location would orphan the
        #: data.  It therefore survives migration-master crashes, and
        #: the owning node need not be alive to serve it (the archive
        #: is fabric-attached).
        self.directory: dict[str, dict[BlockId, int]] = {
            rung: {} for rung in TIER_ORDER if rung != "disk"
        }
        #: Read directives: block id -> replica node reads should be
        #: steered to even before (or without) migration completing.
        #: Ignem's replica selection pins reads this way -- which is
        #: exactly why it "does not avoid the slow node" (§V-D, Fig 8b).
        #: DYRS never sets directives.
        self.read_directives: dict[BlockId, int] = {}
        #: Pluggable migration master (DYRS / Ignem / None).
        self.migration_master = None
        #: Nodes whose control-plane traffic is being dropped by a
        #: network partition (chaos fault): their heartbeats never
        #: arrive, so the miss-counting detector eventually flags them
        #: even though the node itself is up and serving local tasks.
        self.partitioned: set[int] = set()
        #: Heartbeat observers, called once per tick with its report
        #: (the DYRS master registers here to harvest slave estimates).
        self._heartbeat_observers: list = []

    # -- namespace operations -------------------------------------------------

    def create_file(
        self, name: str, size: float, replication: Optional[int] = None
    ) -> FileEntry:
        """Create a file: split into blocks, place replicas, seed
        DataNode inventories.

        Write-path bandwidth is not charged here; experiment inputs are
        loaded before the measured window (the paper flushes caches and
        pre-loads inputs before each run, §V-A).  ``replication``
        overrides the DFS default for this file.
        """
        n_blocks = len(self.namespace.split_into_block_sizes(size))
        replica_sets = self.placement.place(
            n_blocks, replication or self.replication
        )
        entry = self.namespace.add_file(name, size, replica_sets)
        for block in entry.blocks:
            for node_id in block.replica_nodes:
                self.datanodes[node_id].add_disk_replica(block)
        return entry

    def blocks_of(self, names: Iterable[str]) -> list[Block]:
        """Expand file names to blocks (migration-request mapping)."""
        return self.namespace.blocks_of(names)

    # -- heartbeats and liveness --------------------------------------------------

    def receive_heartbeat(self, report: HeartbeatReport) -> None:
        """Stamp every reporting node live, then hand the tick to each
        observer once."""
        self._last_heartbeat.update(dict.fromkeys(report.node_ids, report.time))
        for observer in self._heartbeat_observers:
            observer(report)

    def add_heartbeat_observer(self, observer) -> None:
        """Register ``observer(report)`` for every future heartbeat tick."""
        self._heartbeat_observers.append(observer)

    @property
    def detection_horizon(self) -> float:
        """Seconds of heartbeat silence after which a node counts as
        unavailable: ``heartbeat_interval x heartbeat_miss_limit``."""
        return self.heartbeat_interval * self.heartbeat_miss_limit

    def is_available(self, node_id: int) -> bool:
        """Node considered up: process alive and heartbeats current."""
        node = self.cluster.node(node_id)
        if not node.alive:
            return False
        return (self.sim.now - self._last_heartbeat[node_id]) <= self.detection_horizon

    def healthy_replicas(self, block: Block) -> list[int]:
        """Replica holders that are up."""
        return [n for n in block.replica_nodes if self.is_available(n)]

    # -- residency directory ---------------------------------------------------

    def holder(self, rung: str, block_id: BlockId) -> Optional[int]:
        """The node the directory names for ``block_id`` on ``rung``,
        if it is available and really holds the copy; else None (soft
        state verified on use)."""
        node_id = self.directory[rung].get(block_id)
        if (
            node_id is not None
            and self.is_available(node_id)
            and self.datanodes[node_id].holds(rung, block_id)
        ):
            return node_id
        return None

    def release(self, rung: str, block_id: BlockId) -> Optional[int]:
        """Unpin the ``rung`` copy the directory names and drop the
        entry; returns its holder (None when there was no entry)."""
        node_id = self.directory[rung].pop(block_id, None)
        if node_id is not None:
            self.datanodes[node_id].unpin(rung, block_id)
        return node_id

    def drop_node_memory_state(self, node_id: int) -> None:
        """A restarted slave asks the master to forget its blocks
        (§III-C2).  Covers every fast-tier directory: the replacement
        process starts with cold memory *and* a cold SSD cache.  The
        archive directory is deliberately untouched -- archived data is
        fabric-attached and survives the node (see
        :mod:`repro.cluster.archive`)."""
        for rung in FAST_TIERS:
            entries = self.directory[rung]
            for block_id in [b for b, n in entries.items() if n == node_id]:
                del entries[block_id]

    # -- read routing ------------------------------------------------------------

    def resolve_read(self, block: Block, reader_node: Optional[int]) -> DataNode:
        """Choose the DataNode that should serve a read of ``block``.

        Preference order (per §III and §III-C2, extended with the SSD
        rung of the tier ladder):

        1. the in-memory replica, if its node is available and really
           still holds the data (soft state verified on access);
        2. the SSD-cached replica, verified the same way (empty
           directory -- hence no-op -- for the paper's schemes);
        3. a read directive (a scheme pinned this block's reads to one
           replica -- Ignem does this at binding time);
        4. a disk replica local to the reader;
        5. any available disk replica (deterministically the first);
        6. the archived copy, as a last resort (the lifecycle extension
           may have dropped every disk replica of a COLD block).  The
           owning node need not be alive: the archive is fabric-
           attached, and the actual pin state is verified on access.

        Raises
        ------
        LookupError
            If no replica is on an available node.
        """
        for rung in FAST_TIERS:
            node_id = self.holder(rung, block.block_id)
            if node_id is not None:
                return self.datanodes[node_id]
        directed = self.read_directives.get(block.block_id)
        if (
            directed is not None
            and directed in block.replica_nodes
            and self.is_available(directed)
        ):
            return self.datanodes[directed]
        available = [
            nid for nid in block.replica_nodes if self.is_available(nid)
        ]
        if not available:
            archive_node = self.directory["archive"].get(block.block_id)
            if archive_node is not None:
                dn = self.datanodes[archive_node]
                if dn.holds("archive", block.block_id):
                    return dn
            raise LookupError(
                f"no available replica for block {block.block_id} "
                f"(replicas on {list(block.replica_nodes)})"
            )
        if reader_node in available:
            return self.datanodes[reader_node]
        # Remote disk read: prefer same-rack replicas (HDFS network
        # distance), then the replica whose disk is least busy.  The
        # load tie-break stands in for the implicit feedback real HDFS
        # deployments get (slow DataNodes shed remote readers via
        # timeouts and speculative re-reads) and is what lets default
        # HDFS partially adapt around a handicapped node (Fig 8d).
        return self.datanodes[
            min(
                available,
                key=lambda nid: (
                    not self.cluster.same_rack(nid, reader_node),
                    self.cluster.node(nid).disk.channel.active_flows,
                    nid,
                ),
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NameNode files={len(self.namespace.files())} "
            f"datanodes={len(self.datanodes)}>"
        )
