"""NameNode: block map, heartbeats, failure detection, read routing.

The NameNode owns the namespace and the block map, receives periodic
heartbeats from DataNodes, and marks a node unavailable after several
consecutive missed heartbeats (§III-C2; "HDFS handles DataNode failures
in the same manner").

It also keeps the **memory directory** -- soft state mapping block id
to the node whose memory holds the migrated replica -- so block reads
can be directed to in-memory replicas.  The directory is deliberately
*advisory*: on resolve, the DataNode's actual pin state wins, modeling
the paper's recovery story where a restarted master is temporarily
inconsistent but reads still succeed (§III-C1/C2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.dfs.block import Block, BlockId
from repro.dfs.datanode import DataNode
from repro.dfs.namespace import DEFAULT_BLOCK_SIZE, FileEntry, Namespace
from repro.dfs.placement import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Cluster

__all__ = ["NameNode", "HeartbeatReport"]


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
        replication: int = 3,
        heartbeat_interval: float = 3.0,
        heartbeat_miss_limit: int = 3,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if heartbeat_miss_limit < 1:
            raise ValueError(
                f"heartbeat_miss_limit must be >= 1, got {heartbeat_miss_limit}"
            )
        self.cluster = cluster
        self.sim = cluster.sim
        self.placement = placement
        self.replication = replication
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_miss_limit = heartbeat_miss_limit
        self.namespace = Namespace(block_size=block_size)
        #: event -> cancel-callable for in-flight reads (shared with
        #: every DataNode; see DFSClient.cancel_read).
        self.read_cancellers: dict = {}
        self.datanodes: dict[int, DataNode] = {
            node.node_id: DataNode(node, cancellers=self.read_cancellers)
            for node in cluster.nodes
        }
        self._last_heartbeat: dict[int, float] = {
            nid: cluster.sim.now for nid in self.datanodes
        }
        #: Soft state: block id -> node id of the in-memory replica.
        self.memory_directory: dict[BlockId, int] = {}
        #: Soft state: block id -> node id of the SSD-cached replica
        #: (the tiered-storage extension; empty for the paper's schemes).
        self.ssd_directory: dict[BlockId, int] = {}
        #: Block id -> node id owning the archived copy (the lifecycle
        #: extension; empty for the paper's schemes).  Unlike the fast-
        #: tier directories this is *durable block-map state*, not
        #: master soft state: archival migration rewrites the block map
        #: (disk replicas are dropped), so losing the archive location
        #: would orphan the data.  It therefore survives migration-
        #: master crashes, and the owning node need not be alive to
        #: serve it (the archive is fabric-attached).
        self.archive_directory: dict[BlockId, int] = {}
        #: Per-block replication-factor overrides (lifecycle extension):
        #: the replication scheduler lowers a COLD archived block's disk
        #: complement here so the ReplicationMonitor stops "healing" the
        #: deliberate under-replication.  Durable block-map state, like
        #: :attr:`archive_directory`.
        self.replication_overrides: dict[BlockId, int] = {}
        #: Read directives: block id -> replica node reads should be
        #: steered to even before (or without) migration completing.
        #: Ignem's replica selection pins reads this way -- which is
        #: exactly why it "does not avoid the slow node" (§V-D, Fig 8b).
        #: DYRS never sets directives.
        self.read_directives: dict[BlockId, int] = {}
        #: Pluggable migration master (DYRS / Ignem / None).
        self.migration_master = None
        #: Nodes being drained: they still serve reads but receive no
        #: new replicas or migrations; the ReplicationMonitor copies
        #: their blocks elsewhere.
        self.decommissioning: set[int] = set()
        #: Nodes fully drained and retired from service.
        self.decommissioned: set[int] = set()
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

    def is_available(self, node_id: int) -> bool:
        """Node considered up: process alive and heartbeats current."""
        if node_id in self.decommissioned:
            return False
        node = self.cluster.node(node_id)
        if not node.alive:
            return False
        deadline = self.heartbeat_interval * self.heartbeat_miss_limit
        return (self.sim.now - self._last_heartbeat[node_id]) <= deadline

    def accepts_new_replicas(self, node_id: int) -> bool:
        """Whether new replicas/migrations may be placed on a node --
        available and not draining."""
        return self.is_available(node_id) and node_id not in self.decommissioning

    # -- decommissioning ---------------------------------------------------------

    def start_decommission(self, node_id: int) -> None:
        """Begin draining ``node_id`` (HDFS-style graceful retirement).

        The node keeps serving reads; the ReplicationMonitor copies its
        blocks to other nodes; :meth:`finish_decommission_if_drained`
        retires it once nothing depends on it.
        """
        if node_id not in self.datanodes:
            raise KeyError(f"unknown node {node_id}")
        if node_id in self.decommissioned:
            raise RuntimeError(f"node {node_id} is already decommissioned")
        self.decommissioning.add(node_id)

    def healthy_replicas(self, block: Block) -> list[int]:
        """Replica holders that are up and not draining."""
        return [
            n
            for n in block.replica_nodes
            if self.is_available(n) and n not in self.decommissioning
        ]

    def replication_target(self, block: Block) -> int:
        """The live-replica count re-replication aims for: the
        configured factor (or the block's lifecycle override), bounded
        by how many eligible hosts exist."""
        eligible = {
            nid for nid in self.datanodes if self.accepts_new_replicas(nid)
        }
        eligible.update(self.healthy_replicas(block))
        want = self.replication_overrides.get(block.block_id, self.replication)
        return min(want, len(eligible))

    def is_drained(self, node_id: int) -> bool:
        """Every block with a replica on ``node_id`` already has its
        full complement of healthy replicas elsewhere.

        Walks the node's own disk inventory instead of the whole
        namespace -- the inventory is a superset of the blocks the
        namespace still maps to the node (deleted files leave replicas
        behind), so filtering it by membership gives the same block
        set the full namespace scan would have visited.
        """
        for block_id in self.datanodes[node_id].disk_block_ids():
            try:
                block = self.namespace.block(block_id)
            except KeyError:
                continue  # file deleted; nothing left to protect
            if node_id not in block.replica_nodes:
                continue
            healthy = [n for n in self.healthy_replicas(block) if n != node_id]
            if len(healthy) < self.replication_target(block) or not healthy:
                return False
        return True

    def finish_decommission_if_drained(self, node_id: int) -> bool:
        """Retire the node if it is fully drained; returns success.

        Its replica entries are dropped from the block map (the data
        survives on disk but is no longer served, as when the admin
        powers the machine down).
        """
        if node_id not in self.decommissioning:
            return False
        if not self.is_drained(node_id):
            return False
        for entry in self.namespace.files():
            for block in entry.blocks:
                if node_id in block.replica_nodes:
                    block.replica_nodes = tuple(
                        n for n in block.replica_nodes if n != node_id
                    )
        self.decommissioning.discard(node_id)
        self.decommissioned.add(node_id)
        return True

    def available_datanodes(self) -> Sequence[DataNode]:
        """DataNodes currently considered up."""
        return [dn for nid, dn in self.datanodes.items() if self.is_available(nid)]

    # -- memory directory (soft state) --------------------------------------------

    def record_memory_replica(self, block_id: BlockId, node_id: int) -> None:
        """Slave notification: ``block_id`` is now pinned on ``node_id``."""
        self.memory_directory[block_id] = node_id

    def drop_memory_replica(self, block_id: BlockId) -> None:
        """Slave notification: the in-memory replica is gone."""
        self.memory_directory.pop(block_id, None)

    def record_ssd_replica(self, block_id: BlockId, node_id: int) -> None:
        """Tier notification: ``block_id`` is cached on ``node_id``'s SSD."""
        self.ssd_directory[block_id] = node_id

    def drop_ssd_replica(self, block_id: BlockId) -> None:
        """Tier notification: the SSD-cached replica is gone."""
        self.ssd_directory.pop(block_id, None)

    def record_archive_replica(self, block_id: BlockId, node_id: int) -> None:
        """Lifecycle notification: ``block_id`` is archived, owned by
        ``node_id``'s archive partition."""
        self.archive_directory[block_id] = node_id

    def drop_archive_replica(self, block_id: BlockId) -> None:
        """Lifecycle notification: the archived copy is gone."""
        self.archive_directory.pop(block_id, None)

    def drop_node_memory_state(self, node_id: int) -> None:
        """A restarted slave asks the master to forget its blocks
        (§III-C2).  Covers both fast-tier directories: the replacement
        process starts with cold memory *and* a cold SSD cache.  The
        archive directory is deliberately untouched -- archived data is
        fabric-attached and survives the node (see
        :mod:`repro.cluster.archive`)."""
        stale = [b for b, n in self.memory_directory.items() if n == node_id]
        for block_id in stale:
            del self.memory_directory[block_id]
        stale_ssd = [b for b, n in self.ssd_directory.items() if n == node_id]
        for block_id in stale_ssd:
            del self.ssd_directory[block_id]

    # -- read routing ------------------------------------------------------------

    def resolve_read(
        self,
        block: Block,
        reader_node: Optional[int],
        honor_directives: bool = True,
    ) -> DataNode:
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
        mem_node = self.memory_directory.get(block.block_id)
        if mem_node is not None and self.is_available(mem_node):
            dn = self.datanodes[mem_node]
            if dn.has_memory_replica(block.block_id):
                return dn
        ssd_node = self.ssd_directory.get(block.block_id)
        if ssd_node is not None and self.is_available(ssd_node):
            dn = self.datanodes[ssd_node]
            if dn.has_ssd_replica(block.block_id):
                return dn
        directed = (
            self.read_directives.get(block.block_id) if honor_directives else None
        )
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
            archive_node = self.archive_directory.get(block.block_id)
            if archive_node is not None:
                dn = self.datanodes[archive_node]
                if dn.has_archive_replica(block.block_id):
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
                    self.cluster.node(nid).disk.active_streams,
                    nid,
                ),
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NameNode files={len(self.namespace.files())} "
            f"datanodes={len(self.datanodes)}>"
        )
