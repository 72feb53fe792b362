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
  slice of the archive namespace (capacity is cheap: the budget is an
  order of magnitude above the disk tier);
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

Archival media also pay a fixed per-operation setup cost
(:data:`ARCHIVE_LATENCY`: mount, seek, object-store round trip) that
dwarfs a disk seek.  The channel itself stays a pure bandwidth model;
the latency is charged explicitly by whoever drives the operation (the
lifecycle master's tier moves).

Every archive partition and link has the same shape, set by the module
constants below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cluster.device import ByteStore
from repro.sim.bandwidth import BandwidthResource
from repro.units import MB, TB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Archive", "archive_link"]

#: Bytes of archive namespace chargeable to each node.  Archival
#: capacity is the cheap resource, so the budget dwarfs the working
#: tiers.
ARCHIVE_CAPACITY = 4 * TB
#: Throughput of the archive link, bytes/second: a modest
#: object-store/tape head well below the disk tier.  The link has no
#: seek penalty: object-store links share cleanly.
ARCHIVE_BANDWIDTH = 120 * MB
#: Floor on the link's aggregate throughput as a fraction of
#: :data:`ARCHIVE_BANDWIDTH`.
ARCHIVE_MIN_EFFICIENCY = 0.5
#: Fixed per-operation setup cost in seconds, charged once per tier
#: move, not per byte.
ARCHIVE_LATENCY = 0.5


def archive_link(sim: "Simulator", name: str) -> BandwidthResource:
    """A link of the archive's shape: the fabric's shared one, or a
    free-standing partition's private one."""
    return BandwidthResource(
        sim,
        capacity=ARCHIVE_BANDWIDTH,
        min_efficiency=ARCHIVE_MIN_EFFICIENCY,
        name=name,
    )


class Archive(ByteStore):
    """One node's archive partition: a budget plus the (shared) link."""

    def __init__(
        self,
        sim: "Simulator",
        name: str = "archive",
        channel: Optional[BandwidthResource] = None,
    ) -> None:
        super().__init__(sim, capacity=ARCHIVE_CAPACITY, name=name)
        #: The fabric's shared archive link (cluster construction) or a
        #: private one (free-standing use).  With a shared link its
        #: ``bytes_moved`` counts *all* nodes' archive traffic.
        self.channel = channel if channel is not None else archive_link(sim, name)
