"""One master shard: a partition of the pending map.

A :class:`MasterShard` owns exactly the *binding* state of the flat
master -- an indexed :class:`~repro.core.pending.PendingPool` -- and
the two operations that act on it: a shard-local Algorithm 1 pass and
the bind half of a pull.  Everything else (the record ledger, the
reference tracker, eviction, load tracking, failure handling) stays at
the :class:`~repro.shard.coordinator.ShardCoordinator`, which is the
only code allowed to reach into a shard (lint SM203 enforces this for
everyone else).

Because a shard reuses the exact pool + selection code of the flat
master (:func:`~repro.core.pending.bind_from_pool`), a one-shard
deployment binds byte-identically to ``DyrsMaster``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.pending import PendingPool, bind_from_pool
from repro.core.targeting import compute_targets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policies import MigrationPolicy
    from repro.core.records import MigrationRecord
    from repro.core.targeting import LoadLookup
    from repro.dfs.block import BlockId

__all__ = ["MasterShard"]


class MasterShard:
    """One partition of the sharded master's pending state."""

    def __init__(self, shard_id: int, generation: int = 0) -> None:
        self.shard_id = shard_id
        #: Bumped each time the coordinator replaces a crashed shard
        #: with a fresh one; lets tests and traces tell incarnations
        #: apart (mirrors the standby coordinator's generation).
        self.generation = generation
        #: Shard process liveness; a dead shard routes nothing and is
        #: skipped by retargeting and the pull fan-out.
        self.alive = True
        #: The shard-local pending map (same indexed pool as the flat
        #: master -- a shard at ``shards=1`` IS the flat pending map).
        self._pending = PendingPool()

    # -- partition state ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pending)

    def admit(self, record: "MigrationRecord") -> None:
        """Accept ownership of a freshly routed pending record."""
        self._pending[record.block_id] = record

    def forget(self, block_id: "BlockId") -> None:
        """Drop a record that left the pipeline (bound elsewhere is
        impossible -- routing is total -- so this is discard cleanup)."""
        self._pending.pop(block_id, None)

    def drain(self) -> list["MigrationRecord"]:
        """Remove and return every pending record (crash teardown)."""
        records = list(self._pending.values())
        self._pending.clear()
        return records

    def targeted_nodes(self) -> frozenset[int]:
        """Nodes this shard currently targets (idle-notify wake set)."""
        return self._pending.targeted_nodes()

    # -- Algorithm 1, shard-local ---------------------------------------------

    def retarget(
        self,
        loads: "LoadLookup",
        policy: "MigrationPolicy",
        reference_block_size: float,
    ) -> dict["BlockId", int]:
        """One Algorithm 1 pass over *this shard's* pending map only.

        ``loads`` is the coordinator's cluster-wide eligible view,
        shared by every shard's pass of one retarget: shards partition
        the pending state, not the cluster, so any shard may target any
        node.  Each shard plans against the same backlog snapshot
        independently -- the scalability trade the federation makes
        (documented in DESIGN.md §11); at one shard the pass is exactly
        the flat master's.
        """
        ordered = policy.order(list(self._pending.values()))
        targets = compute_targets(
            ordered, loads, reference_block_size=reference_block_size
        )
        self._pending.reindex()
        return targets

    # -- the pull protocol, shard-local ----------------------------------------

    def take(
        self,
        node_id: int,
        max_blocks: int,
        policy: "MigrationPolicy",
        now: float,
    ) -> list["MigrationRecord"]:
        """Bind up to ``max_blocks`` of this shard's records targeted
        at ``node_id`` (the shard-local half of a pull leg)."""
        return bind_from_pool(self._pending, policy, node_id, max_blocks, now)
