"""Re-replication: HDFS's self-healing of under-replicated blocks.

When the NameNode declares a DataNode dead (missed heartbeats), every
block with a replica there becomes under-replicated.  A background
monitor notices and schedules repair copies -- reading from a
surviving replica's disk and streaming to a new node's disk over the
network -- restoring the replication factor.  When a failed node
returns, its replicas reappear and over-replicated blocks are trimmed
back, preferring to drop the returned copy (matching HDFS's excess-
replica deletion).

Repair traffic contends with everything else on the disks, so a rack
of repairs slows migrations and task reads exactly like it would in
production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dfs.block import Block
from repro.sim.events import AllOf
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dfs.namenode import NameNode

__all__ = ["ReplicationMonitor", "RepairRecord"]


@dataclass(frozen=True)
class RepairRecord:
    """One completed re-replication, for metrics/tests."""

    block_id: int
    source_node: int
    target_node: int
    started_at: float
    completed_at: float


class ReplicationMonitor:
    """Scans for under-/over-replicated blocks and repairs them."""

    def __init__(
        self,
        namenode: "NameNode",
        check_interval: float = 10.0,
        max_concurrent_repairs: int = 2,
    ) -> None:
        if check_interval <= 0:
            raise ValueError(f"check_interval must be positive, got {check_interval}")
        if max_concurrent_repairs < 1:
            raise ValueError(
                f"max_concurrent_repairs must be >= 1, got {max_concurrent_repairs}"
            )
        self.namenode = namenode
        self.sim = namenode.sim
        self.check_interval = check_interval
        self._slots = Resource(
            self.sim, capacity=max_concurrent_repairs, name="repair-slots"
        )
        self._in_flight: set[int] = set()
        self.repair_log: list[RepairRecord] = []
        self.trimmed: list[tuple[int, int]] = []  # (block_id, node_id)
        self._proc: Optional[Process] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Launch the scan loop (idempotent)."""
        if self._proc is not None and self._proc.is_alive:
            return
        self._proc = self.sim.process(self._run(), name="replication-monitor")

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt(cause="stop")
        self._proc = None

    # -- scanning ------------------------------------------------------------

    def under_replicated(self) -> list[Block]:
        """Blocks with fewer healthy replicas than their target.

        Dead holders *and* draining (decommissioning) holders both
        count as deficits; a readable replica must still exist
        somewhere for repair to be possible.
        """
        out = []
        for entry in self.namenode.namespace.files():
            for block in entry.blocks:
                readable = [
                    n for n in block.replica_nodes if self.namenode.is_available(n)
                ]
                healthy = self.namenode.healthy_replicas(block)
                if readable and len(healthy) < self.namenode.replication_target(block):
                    out.append(block)
        return out

    def _scan_over_replicated(self) -> None:
        """Trim blocks whose dead replicas came back after a repair."""
        for entry in self.namenode.namespace.files():
            for block in entry.blocks:
                live = [
                    n for n in block.replica_nodes if self.namenode.is_available(n)
                ]
                target = self.namenode.replication
                while len(live) > target:
                    # Drop the earliest-listed live replica: for a
                    # repaired block that is the returned original,
                    # since repairs append their target at the end.
                    drop = live.pop(0)
                    block.replica_nodes = tuple(
                        n for n in block.replica_nodes if n != drop
                    )
                    self.trimmed.append((block.block_id, drop))

    def _pick_target(self, block: Block) -> Optional[int]:
        """A live node without a replica, preferring another rack and
        the fewest hosted blocks (space balancing)."""
        cluster = self.namenode.cluster
        holders = set(block.replica_nodes)
        holder_racks = {
            cluster.rack_of(n) for n in holders if self.namenode.is_available(n)
        }
        candidates = [
            dn
            for nid, dn in self.namenode.datanodes.items()
            if nid not in holders and self.namenode.accepts_new_replicas(nid)
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda dn: (
                cluster.rack_of(dn.node_id) in holder_racks,
                dn.disk_replica_count,
                dn.node_id,
            ),
        ).node_id

    # -- repair --------------------------------------------------------------

    def _repair(self, block: Block):
        request = self._slots.request()
        yield request
        try:
            readable = [
                n for n in block.replica_nodes if self.namenode.is_available(n)
            ]
            healthy = self.namenode.healthy_replicas(block)
            if not readable or len(healthy) >= self.namenode.replication_target(block):
                return  # raced with recovery; nothing to do
            # Prefer a healthy source; a draining node still serves.
            source = healthy[0] if healthy else readable[0]
            target = self._pick_target(block)
            if target is None:
                return
            started = self.sim.now
            src_node = self.namenode.cluster.node(source)
            dst_node = self.namenode.cluster.node(target)
            tag = f"repair:{block.block_id}"
            yield AllOf(
                self.sim,
                [
                    src_node.disk.channel.transfer(block.size, tag=tag),
                    dst_node.nic.ingress.transfer(block.size, tag=tag),
                    dst_node.disk.channel.transfer(block.size, tag=tag),
                ],
            )
            dead = [
                n for n in block.replica_nodes if not self.namenode.is_available(n)
            ]
            if dead:
                # Replace one dead holder with the new target.
                replaced = dead[0]
                block.replica_nodes = tuple(
                    n for n in block.replica_nodes if n != replaced
                ) + (target,)
            else:
                # Draining holder: keep it (it still serves reads) and
                # append the new copy; decommission completion drops
                # the drained entry later.
                block.replica_nodes = block.replica_nodes + (target,)
            self.namenode.datanodes[target].add_disk_replica(block)
            self.repair_log.append(
                RepairRecord(
                    block_id=block.block_id,
                    source_node=source,
                    target_node=target,
                    started_at=started,
                    completed_at=self.sim.now,
                )
            )
        finally:
            self._slots.release(request)
            self._in_flight.discard(block.block_id)

    def _run(self):
        try:
            while True:
                yield self.sim.timeout(self.check_interval)
                self._scan_over_replicated()
                for block in self.under_replicated():
                    if block.block_id in self._in_flight:
                        continue
                    self._in_flight.add(block.block_id)
                    self.sim.process(
                        self._repair(block), name=f"repair:{block.block_id}"
                    )
                for node_id in tuple(self.namenode.decommissioning):
                    self.namenode.finish_decommission_if_drained(node_id)
        except Interrupt:
            return
