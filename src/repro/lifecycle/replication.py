"""The temperature-driven replication scheduler.

Replication factor follows the lifecycle, not a constant: a COLD block
archived to fabric storage keeps no disk replica -- the archive copy is
its one durable copy.  A re-heated block must be *re-replicated before
promotion*: serving a hot working set from a single surviving copy
recreates exactly the hotspot DYRS exists to avoid.

The scheduler owns both ends:

* **demotion accounting** -- registering an archived block's disk
  target of zero in the NameNode's ``replication_overrides`` so the
  :class:`~repro.dfs.replication.ReplicationMonitor` stops "healing"
  the deliberate under-replication;
* **restore planning** -- which nodes receive the re-replicated copies
  when the block heats back up (rack-aware and space-balanced, the
  same preference order re-replication repair uses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dfs.block import Block
    from repro.dfs.namenode import NameNode

__all__ = ["ReplicationScheduler"]


class ReplicationScheduler:
    """Plans per-block replication across archive and restore."""

    def __init__(self, namenode: "NameNode") -> None:
        self.namenode = namenode

    # -- demotion side -------------------------------------------------------

    def lower_for_archive(self, block: "Block") -> None:
        """Register the archived block's disk target: no replicas."""
        self.namenode.replication_overrides[block.block_id] = 0

    def restore_factor(self, block: "Block") -> None:
        """Drop the override: the block is durable on disk again and
        re-replication may heal it back to the configured factor."""
        self.namenode.replication_overrides.pop(block.block_id, None)

    # -- restore side --------------------------------------------------------

    def restore_targets(self, block: "Block") -> list[int]:
        """Nodes that should hold disk replicas after a restore.

        Existing healthy holders are kept; the shortfall up to the
        file's configured target is filled with live non-holders,
        preferring other racks and emptier disks (the
        ReplicationMonitor's repair preference).
        """
        namenode = self.namenode
        cluster = namenode.cluster
        kept = sorted(namenode.healthy_replicas(block))
        want = min(
            namenode.replication,
            len(kept)
            + sum(
                1
                for nid in namenode.datanodes
                if nid not in kept and namenode.accepts_new_replicas(nid)
            ),
        )
        holder_racks = {cluster.rack_of(n) for n in kept}
        candidates = sorted(
            (
                dn
                for nid, dn in namenode.datanodes.items()
                if nid not in kept and namenode.accepts_new_replicas(nid)
            ),
            key=lambda dn: (
                cluster.rack_of(dn.node_id) in holder_racks,
                dn.disk_replica_count,
                dn.node_id,
            ),
        )
        for dn in candidates:
            if len(kept) >= want:
                break
            kept.append(dn.node_id)
        return kept
