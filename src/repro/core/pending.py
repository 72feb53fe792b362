"""Per-target indexed pending pool (the pull-path fast index).

``DyrsMaster.request_work`` used to re-sort the *entire* pending map
on every pull RPC just to find the handful of records targeted at the
asking slave -- O(P log P) per pull at P pending.  :class:`PendingPool`
keeps the insertion-ordered ``block_id -> record`` map the master
always had and adds a per-target bucket index, so a pull orders only
the records already targeted at the asking node: O(g log g) for g
granted-eligible records.

The index is correct by construction because ``target_node`` only ever
changes inside ``compute_targets`` (Algorithm 1), which is only called
from ``retarget()``, which rebuilds the index via :meth:`reindex`
immediately afterwards.  Between retarget passes the pool only
*shrinks* (binds and discards), and both removal paths unfile the
record from the bucket it was actually indexed under -- so a record
whose target moved can never be served stale.

Ordering equivalence with the legacy full scan holds for any policy
whose sort key is a pure per-record function (``subset_stable`` on the
policy class): for such keys, filter-then-sort equals
sort-then-filter.  Policies whose key depends on the *whole* pending
set (``SmallestJobFirstPolicy``) are not subset-stable, and
:func:`bind_from_pool` falls back to the legacy full scan for them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policies import MigrationPolicy
    from repro.core.records import MigrationRecord
    from repro.dfs.block import BlockId

__all__ = ["PendingPool", "bind_from_pool"]


class PendingPool:
    """Insertion-ordered pending map with a per-target bucket index."""

    def __init__(self) -> None:
        #: Authoritative map, insertion ordered (matches the plain dict
        #: the master used before the index existed).
        self._by_block: dict["BlockId", "MigrationRecord"] = {}
        #: ``target_node -> {block_id -> record}``, each bucket in
        #: pool-insertion order.  Untargeted records (``None``) are in
        #: no bucket: a pull can never grant them anyway.
        self._by_target: dict[int, dict["BlockId", "MigrationRecord"]] = {}
        #: The bucket each block is currently filed under -- removal
        #: must unfile from where the record *was* indexed, not where
        #: its (possibly re-targeted) field points now.
        self._indexed_target: dict["BlockId", Optional[int]] = {}

    # -- mapping protocol (the subset the masters use) -------------------------

    def __setitem__(self, block_id: "BlockId", record: "MigrationRecord") -> None:
        if block_id in self._by_block:
            self._unindex(block_id)
        self._by_block[block_id] = record
        self._index(block_id, record)

    def __getitem__(self, block_id: "BlockId") -> "MigrationRecord":
        return self._by_block[block_id]

    def __delitem__(self, block_id: "BlockId") -> None:
        del self._by_block[block_id]
        self._unindex(block_id)

    def __contains__(self, block_id: object) -> bool:
        return block_id in self._by_block

    def __len__(self) -> int:
        return len(self._by_block)

    def __bool__(self) -> bool:
        return bool(self._by_block)

    def __iter__(self) -> Iterator["BlockId"]:
        return iter(self._by_block)

    def get(self, block_id: "BlockId", default=None):
        return self._by_block.get(block_id, default)

    def pop(self, block_id: "BlockId", default=None):
        record = self._by_block.pop(block_id, default)
        self._unindex(block_id)
        return record

    def values(self):
        return self._by_block.values()

    def items(self):
        return self._by_block.items()

    def keys(self):
        return self._by_block.keys()

    def clear(self) -> None:
        self._by_block.clear()
        self._by_target.clear()
        self._indexed_target.clear()

    # -- the index -------------------------------------------------------------

    def reindex(self) -> None:
        """Rebuild the per-target buckets from current ``target_node``
        fields, preserving pool-insertion order within each bucket.
        Called after every Algorithm 1 pass (the only code that moves
        targets)."""
        self._by_target.clear()
        self._indexed_target.clear()
        for block_id, record in self._by_block.items():
            self._index(block_id, record)

    def targeted_at(self, node_id: int) -> list["MigrationRecord"]:
        """Records currently indexed at ``node_id``, insertion ordered."""
        bucket = self._by_target.get(node_id)
        return list(bucket.values()) if bucket else []

    def targets(self, node_id: int) -> bool:
        """Whether any record is currently indexed at ``node_id``."""
        return node_id in self._by_target

    def targeted_nodes(self) -> frozenset[int]:
        """Nodes with at least one record currently targeted at them
        (the wake set for parked idle slaves)."""
        return frozenset(self._by_target)

    def _index(self, block_id: "BlockId", record: "MigrationRecord") -> None:
        target = record.target_node
        self._indexed_target[block_id] = target
        if target is not None:
            self._by_target.setdefault(target, {})[block_id] = record

    def _unindex(self, block_id: "BlockId") -> None:
        target = self._indexed_target.pop(block_id, None)
        if target is None:
            return
        bucket = self._by_target.get(target)
        if bucket is not None:
            bucket.pop(block_id, None)
            if not bucket:
                del self._by_target[target]


def bind_from_pool(
    pool: PendingPool,
    policy: "MigrationPolicy",
    node_id: int,
    max_blocks: int,
    now: float,
) -> list["MigrationRecord"]:
    """Bind up to ``max_blocks`` records targeted at ``node_id``.

    The shared selection half of the pull protocol: used verbatim by
    :class:`~repro.core.master.DyrsMaster` (one pool) and by each
    :class:`~repro.shard.MasterShard` (its shard-local pool), so the
    sharded coordinator at ``shards=1`` grants byte-identically to the
    flat master.
    """
    if max_blocks <= 0:
        return []
    if getattr(policy, "subset_stable", False):
        targeted = pool.targeted_at(node_id)
        if not targeted:
            # Most pulls find nothing aimed at the asker; ordering an
            # empty bucket would only build a sort key to sort nothing.
            return []
        candidates = policy.order(targeted)
    else:
        # Whole-set sort keys (e.g. smallest-job-first) are not
        # filter/sort commutative; keep the legacy full scan for them.
        candidates = [
            record
            for record in policy.order(list(pool.values()))
            if record.target_node == node_id
        ]
    granted: list["MigrationRecord"] = []
    for record in candidates:
        if len(granted) >= max_blocks:
            break
        record.mark_bound(node_id, now)
        pool.pop(record.block_id)
        granted.append(record)
    return granted
