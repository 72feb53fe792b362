"""The unified device vocabulary: byte budgets and shared channels.

Every physical device the cluster models -- spinning disk, flash
cache, DRAM, NIC direction, ToR uplink -- reduces to one or both of
two primitives:

:class:`ByteStore`
    A byte budget with ``pin``/``unpin`` residency accounting and
    occupancy sampling.  Models *capacity*: the migrated-block buffer
    of :class:`~repro.cluster.memory.MemoryStore`, the cache partition
    of :class:`~repro.cluster.ssd.Ssd`.

:class:`Channel`
    A fair-share bandwidth pipe with the seek-penalty +
    efficiency-floor rate law, backed by a
    :class:`~repro.sim.bandwidth.BandwidthResource`.  Models
    *throughput*: the disk actuator, the SSD controller, each NIC
    direction, each rack uplink.

The concrete device classes (``Disk``, ``Ssd``, ``MemoryStore``,
``Nic``) are thin configurations of these two -- see the table in
DESIGN.md §5.  Multi-tier file systems use the same decomposition
(OctopusFS's storage-tier abstraction, Herodotou & Kakoulli,
arXiv:1907.02394): a tier is a budget plus a channel, and policy code
is written once against that vocabulary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterator, Optional, Type

from repro.sim.bandwidth import BandwidthResource, Flow
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["ByteStore", "Channel", "StoreFull"]


class StoreFull(RuntimeError):
    """Raised when a ``pin`` would exceed a :class:`ByteStore` budget.

    Device classes raise their historical subclasses
    (:class:`~repro.cluster.memory.OutOfMemory`,
    :class:`~repro.cluster.ssd.SsdFull`); policy code that does not
    care which tier overflowed can catch this base instead.
    """


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
    full_error:
        Exception class raised when a pin would exceed the budget.
        Must accept a single message argument (any
        :class:`StoreFull` subclass does).
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        name: str = "store",
        full_error: Type[StoreFull] = StoreFull,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self.full_error = full_error
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
            (Or the configured ``full_error`` subclass) if the budget
            would be exceeded.  Callers are expected to check
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
            raise self.full_error(
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
            f"<ByteStore {self.name!r} used={self._used:.3g}/"
            f"{self.capacity:.3g}B pins={len(self._pinned)}>"
        )


class Channel:
    """A shared fair-share bandwidth pipe.

    Thin device-vocabulary wrapper over the
    :class:`~repro.sim.bandwidth.BandwidthResource` kept in
    :attr:`kernel`.  All rate-law parameters have the same meaning as
    on the kernel: ``capacity`` is peak sequential throughput,
    ``seek_penalty`` the aggregate efficiency loss per extra concurrent
    flow, ``min_efficiency`` the floor on aggregate throughput.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        seek_penalty: float = 0.0,
        min_efficiency: float = 0.0,
        name: str = "chan",
    ) -> None:
        self.sim = sim
        self.name = name
        self.kernel = BandwidthResource(
            sim,
            capacity=capacity,
            seek_penalty=seek_penalty,
            min_efficiency=min_efficiency,
            name=name,
        )

    # -- rate law ----------------------------------------------------------

    @property
    def capacity(self) -> float:
        """Peak sequential throughput, bytes/second."""
        return self.kernel.capacity

    @property
    def seek_penalty(self) -> float:
        """Aggregate-efficiency loss per extra concurrent flow."""
        return self.kernel.seek_penalty

    @property
    def min_efficiency(self) -> float:
        """Floor on aggregate throughput as a fraction of capacity."""
        return self.kernel.min_efficiency

    def set_capacity(self, capacity: float) -> None:
        """Change peak throughput at runtime.

        The chaos layer's degraded-device faults (a failing disk, a
        half-duplex NIC negotiation) flow through here; in-flight
        transfers re-pace from this instant.
        """
        self.kernel.set_capacity(capacity)

    def aggregate_rate(self, k: Optional[int] = None) -> float:
        """Aggregate throughput with ``k`` concurrent flows (bytes/s)."""
        return self.kernel.aggregate_rate(k)

    def per_flow_rate(self) -> float:
        """Throughput each active flow currently receives (bytes/s)."""
        return self.kernel.per_flow_rate()

    def rate_hint(self, extra_flows: int = 0) -> float:
        """Per-flow rate a *new* flow would get right now (bytes/s).

        Oracle knowledge: DYRS deliberately estimates this from
        observed migration durations instead (§IV-A); the hint is for
        oracle baselines and tests.
        """
        k = self.kernel.active_flows + extra_flows + 1
        return self.kernel.aggregate_rate(k) / k

    def expected_duration(self, nbytes: float, extra_flows: int = 0) -> float:
        """Time to move ``nbytes`` if load stayed as now plus ``extra_flows``."""
        return self.kernel.expected_duration(nbytes, extra_flows=extra_flows)

    # -- transfers ---------------------------------------------------------

    def transfer(self, nbytes: float, tag: str = "") -> Event:
        """Start a transfer; returns its completion event."""
        return self.kernel.transfer(nbytes, tag=tag)

    def start_flow(self, nbytes: float, tag: str = "") -> Flow:
        """Start a transfer; returns its (cancellable) flow handle."""
        return self.kernel.start_flow(nbytes, tag=tag)

    def cancel(self, flow: Flow) -> None:
        """Abort a flow started with :meth:`start_flow`."""
        self.kernel.cancel(flow)

    # -- introspection -----------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Number of flows currently sharing the channel."""
        return self.kernel.active_flows

    def flows(self) -> Iterator[Flow]:
        """The currently active flows."""
        return self.kernel.flows()

    @property
    def bytes_moved(self) -> float:
        """Total bytes delivered across all completed/ongoing flows."""
        return self.kernel.bytes_moved

    @property
    def busy_time(self) -> float:
        """Cumulative seconds the channel had at least one active flow."""
        return self.kernel.busy_time

    def utilization(self, since: float = 0.0) -> float:
        """Busy fraction of wall time since ``since``."""
        return self.kernel.utilization(since)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Channel {self.name!r} cap={self.capacity:.3g}B/s "
            f"flows={self.active_flows}>"
        )
