"""Algorithm 1: greedy min-finish-time replica targeting (§III-A2).

Reproduced from the paper::

    // initialize estimated finish times for each node
    // assuming next pending block is assigned to this node
    foreach node in DATANODES do
        finishTime[node] = migTime[node] x (numQueued[node]+1)
    end
    // set target for each block
    foreach block in PENDING do
        locations = block.getReplicaLocations();
        target = locWithMinFinishTime(locations, finishTimes);
        block.migrationTarget = target;
        finishTime[target] = finishTime[target] + migTime[target]
    end

``migTime`` and ``numQueued`` come from slave heartbeats; we represent
them as :class:`SlaveLoad`.  The pass is pure (no simulation side
effects) so it can run "off the critical path" and be unit-tested /
benchmarked in isolation -- the paper's prototype retargets 50 GB of
pending migrations in under a millisecond (§III-D); our scalability
bench measures the Python equivalent.

:func:`compute_targets` is the pseudo-code above with
``locWithMinFinishTime`` unrolled into two scalar comparisons per
replica (no per-record closure or ``min(key=...)`` call), and with
each node's ``finishTime`` initialized when a pending block's replica
first names it instead of for every DataNode up front: the value a
node starts from is the same either way, and a node no pending block
can use is never read.  Its float arithmetic is the pseudo-code's,
operation for operation; the line-by-line transcription lives in
``tests/core/test_targeting.py`` as the reference of a property test
that requires identical targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Protocol

from repro.core.records import MigrationRecord

__all__ = ["LoadLookup", "SlaveLoad", "compute_targets"]


@dataclass(frozen=True, slots=True)
class SlaveLoad:
    """One slave's state as last reported via heartbeat.

    Attributes
    ----------
    seconds_per_byte:
        The slave's migration-cost estimate (§IV-A).
    queued_blocks:
        Blocks in the slave's local queue, *including* the active one.
    """

    seconds_per_byte: float
    queued_blocks: int

    def __post_init__(self) -> None:
        if self.seconds_per_byte <= 0:
            raise ValueError(
                f"seconds_per_byte must be positive, got {self.seconds_per_byte}"
            )
        if self.queued_blocks < 0:
            raise ValueError(
                f"queued_blocks must be >= 0, got {self.queued_blocks}"
            )


class LoadLookup(Protocol):
    """What Algorithm 1 reads of the load table: a plain dict, or the
    master's per-pass eligibility view."""

    def get(self, node_id: int, /) -> Optional[SlaveLoad]: ...


def compute_targets(
    pending: Iterable[MigrationRecord],
    loads: LoadLookup,
    reference_block_size: float,
) -> dict[int, int]:
    """Run Algorithm 1; returns ``{block_id: target_node}``.

    Parameters
    ----------
    pending:
        Unbound migrations in queue (FIFO) order.  Each record's
        ``target_node`` field is updated in place, mirroring
        ``block.migrationTarget = target``.
    loads:
        Per-node :class:`SlaveLoad` for every node eligible to migrate,
        read only through ``loads.get``.  Nodes for which it returns
        None (dead or unregistered) are never targeted.
    reference_block_size:
        Size used to convert per-byte estimates into the paper's
        per-block ``migTime`` for the queue-backlog initialization.

    Notes
    -----
    ``finishTime[node]`` is initialized, with the pseudo-code's
    expression, when a replica of a pending block first names the
    node: nodes no pending block can use are never looked up, so a
    pass costs the replica nodes it reads, not the cluster size.
    Ties in estimated finish time go to the lowest node id.  Blocks
    whose replicas are all on ineligible nodes keep
    ``target_node = None`` and are skipped by the binding step until a
    replica node recovers.
    """
    if reference_block_size <= 0:
        raise ValueError(
            f"reference_block_size must be positive, got {reference_block_size}"
        )
    loads_get = loads.get
    # The load behind each node looked up so far (None: ineligible).
    looked_up: dict[int, Optional[SlaveLoad]] = {}
    finish_time: dict[int, float] = {}
    ft_get = finish_time.get
    targets: dict[int, int] = {}
    for record in pending:
        best = -1
        best_ft = 0.0
        for node_id in record.block.replica_nodes:
            ft = ft_get(node_id)
            if ft is None:
                if node_id in looked_up:
                    continue
                load = looked_up[node_id] = loads_get(node_id)
                if load is None:
                    continue
                # finishTime[node] = migTime[node] x (numQueued[node] + 1)
                ft = finish_time[node_id] = (
                    load.seconds_per_byte
                    * reference_block_size
                    * (load.queued_blocks + 1)
                )
            if best < 0 or ft < best_ft or (ft == best_ft and node_id < best):
                best = node_id
                best_ft = ft
        if best < 0:
            record.target_node = None
            continue
        record.target_node = best
        targets[record.block_id] = best
        finish_time[best] = (
            best_ft + looked_up[best].seconds_per_byte * record.block.size
        )
    return targets
