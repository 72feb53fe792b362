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
  default concurrency penalty is tiny, but the controller channel is
  still finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.device import ByteStore
from repro.sim.bandwidth import BandwidthResource
from repro.units import GB, MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Ssd", "SsdSpec"]


@dataclass(frozen=True)
class SsdSpec:
    """Static description of a node's SSD cache partition.

    Attributes
    ----------
    capacity:
        Bytes of the partition reserved for tiered block data.
    bandwidth:
        Shared read/write throughput of the device, bytes/second.  A
        SATA-class drive sustains ~500 MB/s; the default sits between
        the model's 150 MB/s disk and its memory tier.
    seek_penalty:
        Aggregate-efficiency loss per extra concurrent stream.  Flash
        suffers almost none; a small nonzero default keeps unbounded
        fan-in from being free.
    min_efficiency:
        Floor on aggregate throughput as a fraction of ``bandwidth``.
    """

    capacity: float = 256 * GB
    bandwidth: float = 500 * MB
    seek_penalty: float = 0.02
    min_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.seek_penalty < 0:
            raise ValueError(f"seek_penalty must be >= 0, got {self.seek_penalty}")
        if not 0 <= self.min_efficiency <= 1:
            raise ValueError(
                f"min_efficiency must be in [0, 1], got {self.min_efficiency}"
            )


class Ssd(ByteStore):
    """One SSD cache device on a node: a budget plus a channel."""

    def __init__(self, sim: "Simulator", spec: SsdSpec, name: str = "ssd") -> None:
        super().__init__(sim, capacity=spec.capacity, name=name)
        self.spec = spec
        self.channel = BandwidthResource(
            sim,
            capacity=spec.bandwidth,
            seek_penalty=spec.seek_penalty,
            min_efficiency=spec.min_efficiency,
            name=name,
        )
