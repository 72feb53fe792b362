"""Archive tier device: cheap, slow, fabric-attached cold storage.

The paper's ladder only goes *up* -- disk to memory (and, in the
tiered extension, disk to SSD to memory).  The lifecycle subsystem
(:mod:`repro.lifecycle`) adds the cold end: an ARCHIVE storage type in
the HDFS sense -- high-density, high-latency volumes meant for data
that has cooled past any working set, as in DLM-style storage-type
policies and OctopusFS-style multi-tier management.

In the unified device vocabulary (:mod:`repro.cluster.device`) an
:class:`Archive` is, like :class:`~repro.cluster.ssd.Ssd`, both
primitives at once:

* a :class:`~repro.cluster.device.ByteStore` accounting the node's
  slice of the archive namespace (capacity is cheap: the default
  budget is an order of magnitude above the disk tier);
* a :class:`~repro.sim.bandwidth.BandwidthResource`
  :attr:`~Archive.channel` charging every transfer.

Unlike the SSD, the channel is normally **shared cluster-wide**: the
archive is fabric-attached (an object store or tape head behind the
core switch), so every node's archive traffic contends on one link
owned by the :class:`~repro.cluster.network.Fabric`.  Construction
therefore accepts an external channel; a private one is built only for
free-standing single-device use (unit tests).

Two consequences of "fabric-attached" that callers rely on:

* archive contents survive node failure -- the owning node is a
  bookkeeping partition, not the physical host, so ``Node.fail`` must
  *not* release archive pins the way it releases memory/SSD state;
* serving an archive read does not require the owning node to be
  alive, only the fabric path.

Latency is a first-class spec field: archival media pay a fixed
per-operation setup cost (mount/seek/object-store round trip) that
dwarfs a disk seek.  The channel itself stays a pure bandwidth model;
the latency is charged explicitly by whoever drives the operation (the
lifecycle master's tier moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cluster.device import ByteStore
from repro.sim.bandwidth import BandwidthResource
from repro.units import MB, TB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Archive", "ArchiveSpec"]


@dataclass(frozen=True)
class ArchiveSpec:
    """Static description of a node's archive partition.

    Attributes
    ----------
    capacity:
        Bytes of archive namespace chargeable to this node.  Archival
        capacity is the cheap resource, so the default dwarfs the
        working tiers.
    bandwidth:
        Throughput of the *shared* archive link, bytes/second.  When a
        cluster builds its fabric archive link it uses this value; a
        free-standing device uses it for its private channel.  The
        default models a modest object-store/tape head well below the
        disk tier.
    latency:
        Fixed per-operation setup cost in seconds (media mount, HTTP
        round trip).  Charged once per tier move / read, not per byte.
    seek_penalty:
        Aggregate-efficiency loss per extra concurrent stream on the
        link.  Object-store links share cleanly; default 0.
    min_efficiency:
        Floor on aggregate throughput as a fraction of ``bandwidth``.
    """

    capacity: float = 4 * TB
    bandwidth: float = 120 * MB
    latency: float = 0.5
    seek_penalty: float = 0.0
    min_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.seek_penalty < 0:
            raise ValueError(f"seek_penalty must be >= 0, got {self.seek_penalty}")
        if not 0 <= self.min_efficiency <= 1:
            raise ValueError(
                f"min_efficiency must be in [0, 1], got {self.min_efficiency}"
            )


class Archive(ByteStore):
    """One node's archive partition: a budget plus the (shared) link."""

    def __init__(
        self,
        sim: "Simulator",
        spec: ArchiveSpec,
        name: str = "archive",
        channel: Optional[BandwidthResource] = None,
    ) -> None:
        super().__init__(sim, capacity=spec.capacity, name=name)
        self.spec = spec
        #: The fabric's shared archive link (cluster construction) or a
        #: private one (free-standing use).  With a shared link its
        #: ``bytes_moved`` counts *all* nodes' archive traffic.
        self.channel = channel if channel is not None else BandwidthResource(
            sim,
            capacity=spec.bandwidth,
            seek_penalty=spec.seek_penalty,
            min_efficiency=spec.min_efficiency,
            name=name,
        )
