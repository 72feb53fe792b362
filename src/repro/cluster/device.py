"""The unified device vocabulary: byte budgets and bandwidth pipes.

Every physical device the cluster models -- spinning disk, flash
cache, DRAM, archive partition, NIC direction, ToR uplink -- reduces
to one or both of two primitives:

:class:`ByteStore`
    A byte budget with ``pin``/``unpin`` residency accounting and
    occupancy sampling.  Models *capacity*: the migrated-block buffer
    of :class:`~repro.cluster.memory.MemoryStore`, the cache partition
    of :class:`~repro.cluster.ssd.Ssd`, the archive namespace of
    :class:`~repro.cluster.archive.Archive` -- each a subclass.

:class:`~repro.sim.bandwidth.BandwidthResource`
    A fair-share bandwidth pipe with the seek-penalty +
    efficiency-floor rate law.  Models *throughput*: every device
    holds its pipe as the resource itself -- ``channel`` on the four
    storage rungs, ``egress``/``ingress`` on a NIC, the fabric's
    uplinks, downlinks and archive link.

The concrete device classes are thin configurations of these two --
see the table in DESIGN.md §5.  Multi-tier file systems use the same
decomposition (OctopusFS's storage-tier abstraction, Herodotou &
Kakoulli, arXiv:1907.02394): a tier is a budget plus a channel, and
policy code is written once against that vocabulary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["ByteStore", "StoreFull"]


class StoreFull(RuntimeError):
    """Raised when a ``pin`` would exceed a :class:`ByteStore` budget;
    the message names the store."""


class ByteStore:
    """A byte budget with pin/unpin residency accounting.

    Parameters
    ----------
    sim:
        The owning simulator (used to timestamp occupancy samples).
    capacity:
        Budget in bytes.
    name:
        Label used in error messages and ``repr``.
    """

    def __init__(self, sim: "Simulator", capacity: float, name: str = "store") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._pinned: dict[Hashable, float] = {}
        self._used = 0.0
        self._peak = 0.0
        #: (time, used_bytes) samples, recorded on every change.
        self.usage_samples: list[tuple[float, float]] = [(sim.now, 0.0)]

    # -- budget ------------------------------------------------------------

    @property
    def used(self) -> float:
        """Bytes currently pinned."""
        return self._used

    @property
    def free(self) -> float:
        """Bytes available before hitting the budget."""
        return self.capacity - self._used

    @property
    def peak(self) -> float:
        """High-water mark of :attr:`used`."""
        return self._peak

    def fits(self, nbytes: float) -> bool:
        """Whether ``nbytes`` can currently be pinned."""
        return nbytes <= self.free + 1e-9

    # -- residency ---------------------------------------------------------

    def pin(self, key: Hashable, nbytes: float) -> None:
        """Account ``nbytes`` of resident data under ``key``.

        Raises
        ------
        StoreFull
            If the budget would be exceeded.  Callers are expected to check
            :meth:`fits` first and queue instead -- §IV-A1: "migration
            commands are queued until buffer space is available".
        KeyError
            If ``key`` is already pinned (double migration is a
            protocol bug upstream).
        """
        if nbytes < 0:
            raise ValueError(f"negative pin size: {nbytes}")
        if key in self._pinned:
            raise KeyError(f"{key!r} already pinned in {self.name!r}")
        if not self.fits(nbytes):
            raise StoreFull(
                f"{self.name}: pin of {nbytes:.0f}B exceeds budget "
                f"({self._used:.0f}/{self.capacity:.0f}B used)"
            )
        self._pinned[key] = nbytes
        # Recompute instead of accumulating so float residue cannot
        # build up across many pin/unpin cycles.
        self._used = sum(self._pinned.values())
        self._peak = max(self._peak, self._used)
        self.usage_samples.append((self.sim.now, self._used))

    def unpin(self, key: Hashable) -> float:
        """Release the bytes pinned under ``key``; returns the size.

        Unpinning an unknown key is a no-op returning 0 -- eviction is
        idempotent because explicit and implicit eviction can race
        (§III-C3).
        """
        nbytes = self._pinned.pop(key, 0.0)
        if nbytes:
            self._used = sum(self._pinned.values())
            self.usage_samples.append((self.sim.now, self._used))
        return nbytes

    def is_pinned(self, key: Hashable) -> bool:
        """Whether ``key`` currently resides in this store."""
        return key in self._pinned

    def pinned_keys(self) -> tuple[Hashable, ...]:
        """Keys currently pinned (insertion order)."""
        return tuple(self._pinned)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} used={self._used:.3g}/"
            f"{self.capacity:.3g}B pins={len(self._pinned)}>"
        )
