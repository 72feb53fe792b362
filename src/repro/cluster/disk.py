"""Hard-disk model.

A disk is a :class:`~repro.sim.bandwidth.BandwidthResource` with a
nonzero seek penalty: concurrent streams cost aggregate throughput,
which is why DYRS slaves serialize their migrations (§III-B) and why
``dd`` interference readers (§V-C) slow everything else down.

Reads and writes share the single actuator, so both kinds of transfer
are flows on the same :attr:`Disk.channel`.  The channel could report
the rate a new stream would get (``expected_duration``), but DYRS
deliberately *estimates it from observed migration durations* instead
(§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.bandwidth import BandwidthResource
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Disk", "DiskSpec"]

#: Floor on a disk's aggregate throughput, as a fraction of its
#: bandwidth: the I/O scheduler batches each stream's sequential run,
#: so heavy concurrency saturates aggregate throughput rather than
#: collapsing it.
DISK_MIN_EFFICIENCY = 0.10


@dataclass(frozen=True)
class DiskSpec:
    """Static description of a disk.

    Attributes
    ----------
    bandwidth:
        Peak sequential throughput, bytes/second.  The paper's servers
        use a 1 TB HDD; ~150 MB/s sequential is typical.
    seek_penalty:
        Aggregate-efficiency loss per extra concurrent stream
        (see :mod:`repro.sim.bandwidth`).
    """

    bandwidth: float = 150 * MB
    seek_penalty: float = 0.35

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.seek_penalty < 0:
            raise ValueError(f"seek_penalty must be >= 0, got {self.seek_penalty}")


class Disk:
    """One spinning disk on a node: a seek-penalized bandwidth pipe."""

    def __init__(self, sim: "Simulator", spec: DiskSpec, name: str = "disk") -> None:
        self.spec = spec
        self.channel = BandwidthResource(
            sim,
            capacity=spec.bandwidth,
            seek_penalty=spec.seek_penalty,
            min_efficiency=DISK_MIN_EFFICIENCY,
            name=name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Disk {self.channel.name!r} streams={self.channel.active_flows}>"
