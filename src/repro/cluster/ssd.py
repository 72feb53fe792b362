"""Flash (SSD) tier device: a byte-budgeted store with real transfer cost.

The paper's testbed has no flash tier -- DYRS moves data along a single
disk->memory edge.  The storage ladder (see :mod:`repro.lifecycle`)
interposes an SSD between them, in the spirit of OctopusFS-style
multi-tier management: warm data that does not justify RAM residency
still reads several times faster than from the spinning disk.  A
``dyrs`` system whose workers have an SSD runs the ladder's master.

In the unified device vocabulary (:mod:`repro.cluster.device`) an
:class:`Ssd` is simply *both* primitives at once:

* a :class:`~repro.cluster.device.ByteStore` with ``pin``/``unpin``
  residency accounting (an SSD cache partition, not the boot volume),
  like :class:`~repro.cluster.memory.MemoryStore`;
* a shared :class:`~repro.sim.bandwidth.BandwidthResource`
  :attr:`~Ssd.channel` charging every transfer, like
  :class:`~repro.cluster.disk.Disk` -- flash has no seek arm, so the
  concurrency penalty is tiny, but the controller channel is still
  finite.

Every worker's SSD has the same shape, set by the module constants
below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.device import ByteStore
from repro.sim.bandwidth import BandwidthResource
from repro.units import GB, MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Ssd"]

#: Bytes of the cache partition reserved for tiered block data.
SSD_CAPACITY = 256 * GB
#: Shared read/write throughput, bytes/second.  A SATA-class drive
#: sustains ~500 MB/s, between the model's 150 MB/s disk and its
#: memory tier.
SSD_BANDWIDTH = 500 * MB
#: Aggregate-efficiency loss per extra concurrent stream.  Flash
#: suffers almost none; a small nonzero value keeps unbounded fan-in
#: from being free.
SSD_SEEK_PENALTY = 0.02
#: Floor on aggregate throughput as a fraction of the bandwidth.
SSD_MIN_EFFICIENCY = 0.5


class Ssd(ByteStore):
    """One SSD cache device on a node: a budget plus a channel."""

    def __init__(self, sim: "Simulator", name: str = "ssd") -> None:
        super().__init__(sim, capacity=SSD_CAPACITY, name=name)
        self.channel = BandwidthResource(
            sim,
            capacity=SSD_BANDWIDTH,
            seek_penalty=SSD_SEEK_PENALTY,
            min_efficiency=SSD_MIN_EFFICIENCY,
            name=name,
        )
