"""The storage ladder: rung order and nominal read costs.

DYRS hard-codes a two-level hierarchy (disk below, RAM above).  The
tier extensions generalize it into a ladder ordered by
:data:`TIER_ORDER` (``archive`` < ``disk`` < ``ssd`` < ``memory``);
moving a block to a higher rung is a *promotion*, to a lower rung a
*demotion*.  The ``archive`` rung (the lifecycle extension) sits
*below* disk: fabric-attached cold storage that only the lifecycle
manager writes.

The policies in :mod:`repro.tiers.policy` need two facts about a
node's ladder: which rungs it has, and what reading a block from each
costs.  :func:`rung_read_seconds` answers both from the node's
devices; pins, reads and writes go to the devices themselves
(:mod:`repro.cluster`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node

__all__ = ["TIER_ORDER", "is_promotion", "rung_read_seconds"]

#: Canonical rung order: index 0 is the slowest/bottom tier.
TIER_ORDER: tuple[str, ...] = ("archive", "disk", "ssd", "memory")


def is_promotion(source: str, dest: str) -> bool:
    """Whether moving ``source`` -> ``dest`` climbs the ladder."""
    return TIER_ORDER.index(dest) > TIER_ORDER.index(source)


def rung_read_seconds(node: "Node", nbytes: float) -> dict[str, float]:
    """Nominal seconds to read ``nbytes`` from each rung ``node`` has.

    Always contains ``disk`` and ``memory``; ``ssd`` only when the node
    spec carries an SSD cache, ``archive`` only when it owns an archive
    partition.  Each figure is the idle-device time at the read
    channel's bandwidth; an archive read also pays the per-operation
    setup latency, so archive reads look expensive even for tiny
    blocks.  Load-aware costs come from the slaves' EWMA estimators
    instead.
    """
    seconds = {
        "disk": nbytes / node.disk.channel.capacity,
        "memory": nbytes / node.memory.channel.capacity,
    }
    if node.ssd is not None:
        seconds["ssd"] = nbytes / node.ssd.channel.capacity
    if node.archive is not None:
        seconds["archive"] = node.archive.read_seconds(nbytes)
    return seconds
