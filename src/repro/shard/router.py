"""Deterministic record -> shard routing.

The router is a pure function of the block and, in rendezvous mode, of
the coordinator's shard-freshness view: no RNG, no wall clock, no
hidden state.  That determinism is what makes the sharded master
replayable and lets the coordinator recompute a record's owner at any
time -- ownership never has to be stored per record, so it can never
go stale.  Rendezvous routing *is* time-varying (freshness changes), so
the coordinator's discard path treats it specially (forget-everywhere
instead of recompute); see ``ShardCoordinator._on_record_discarded``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dfs.block import Block
    from repro.shard.coordinator import ShardCoordinator

__all__ = ["ShardRouter"]

_MASK64 = (1 << 64) - 1
#: Odd 64-bit constant separating the block and shard coordinates
#: before mixing (golden-ratio increment, as in splitmix64 streams).
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a seeded, salt-free 64-bit avalanche.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED),
    so rendezvous scores built on it would break replay; this mix is a
    pure integer function.
    """
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class ShardRouter:
    """Assigns every block to exactly one of ``n_shards`` shards.

    Modes
    -----
    ``block`` (default)
        ``block_id % n_shards``.  Block ids are dense NameNode
        sequence numbers, so this stripes uniformly and keeps one
        file's blocks spread across shards (no shard sees a whole
        job's burst alone).
    ``rendezvous``
        Weighted rendezvous (highest-random-weight) hashing over every
        shard, weighted by shard freshness as the ``health`` provider
        reports it.  Load-aware without losing determinism: the verdict
        is a pure function of (block id, per-shard weights), all
        explicit simulation state.
    """

    MODES = ("block", "rendezvous")

    def __init__(
        self,
        n_shards: int,
        mode: str = "block",
        health: Optional["ShardCoordinator"] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if mode not in self.MODES:
            raise ValueError(f"router mode must be one of {self.MODES}, got {mode!r}")
        if mode == "rendezvous" and health is None:
            raise ValueError(
                "rendezvous routing requires a health provider (shard_weight)"
            )
        self.n_shards = n_shards
        self.mode = mode
        self.health = health

    def shard_of(
        self, block: "Block", weights: Optional[Sequence[float]] = None
    ) -> int:
        """The owning shard of ``block`` -- total, deterministic.

        In rendezvous mode ``weights`` is a :meth:`weights` vector read
        at this instant; a caller routing a batch passes one read for
        all of it, and a one-off read leaves it out.
        """
        if self.mode == "rendezvous":
            if weights is None:
                weights = self.weights()
            return self._rendezvous(block.block_id, weights)
        return block.block_id % self.n_shards

    def weights(self) -> list[float]:
        """Every shard's rendezvous weight now, in shard-id order (one
        ``shard_weight`` read per shard)."""
        return [self.health.shard_weight(s) for s in range(self.n_shards)]

    def _rendezvous(self, block_id: int, weights: Sequence[float]) -> int:
        """Weighted HRW over every shard.

        Score per shard: ``weight / -ln(u)`` with ``u`` drawn from the
        splitmix64 mix of (block, shard) -- the standard weighted-
        rendezvous construction, so a shard with weight w receives a
        w-proportional slice of the key space.  Strict ``>`` breaks
        (measure-zero) ties toward the lowest shard id, keeping the
        verdict order-stable.
        """
        best = 0
        best_score = -1.0
        for shard_id in range(self.n_shards):
            h = _mix64(block_id * _GOLDEN + shard_id)
            # Map to (0, 1) strictly -- u = 1 would zero the log.
            u = ((h >> 11) + 0.5) / float(1 << 53)
            score = weights[shard_id] / -math.log(u)
            if score > best_score:
                best = shard_id
                best_score = score
        return best
