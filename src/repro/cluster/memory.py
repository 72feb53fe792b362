"""Node memory: the migration buffer and the memory read path.

DYRS migrates blocks into the OS buffer cache with ``mmap``/``mlock``
(§IV).  We model that cache with the unified device vocabulary
(:mod:`repro.cluster.device`): a :class:`MemoryStore` is a
:class:`~repro.cluster.device.ByteStore` budget plus a very fast
read :attr:`~MemoryStore.channel`:

* ``pin(key, nbytes)`` accounts for a migrated block (the data itself
  is irrelevant to the simulation);
* ``unpin(key)`` releases it (the ``munmap`` in §IV -- read-only data
  is simply discarded);
* reads of pinned data go through the channel; the paper measured
  memory block reads ~160x faster than disk at the application level
  (§I), which is the ratio :data:`MEMORY_READ_BANDWIDTH` models.

The store also samples its usage over time so Fig 7 (per-server memory
footprint) can be reproduced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.device import ByteStore
from repro.sim.bandwidth import BandwidthResource
from repro.units import GB, MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["MemoryStore"]

#: Bytes each node has for migrated data.  The paper's servers have
#: 128 GB RAM; DYRS additionally supports a hard limit (§IV-A1,
#: ``DyrsConfig.memory_limit``), which experiments lower to stress
#: eviction.
MEMORY_CAPACITY = 64 * GB
#: Application-level throughput of reads served from memory: 160x a
#: 150 MB/s disk, the paper's measured ratio.
MEMORY_READ_BANDWIDTH = 160 * 150 * MB


class MemoryStore(ByteStore):
    """Byte-budgeted store of pinned (migrated) blocks plus their read
    channel."""

    def __init__(self, sim: "Simulator", name: str = "mem") -> None:
        super().__init__(sim, capacity=MEMORY_CAPACITY, name=name)
        self.channel = BandwidthResource(
            sim, capacity=MEMORY_READ_BANDWIDTH, name=f"{name}.read"
        )
