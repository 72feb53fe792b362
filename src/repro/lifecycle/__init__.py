"""The storage ladder: data lifecycle over disk, SSD, memory and archive.

The paper's machinery only moves data *up*, from disk to memory.  This
package runs one lifecycle over every rung a cluster has, ordered by
:data:`TIER_ORDER` (``archive`` < ``disk`` < ``ssd`` < ``memory``):
blocks are classified HOT/WARM/COLD from the temperature tracker's
EWMAs, and one rule says which of them the SSD holds -- HOT blocks,
and WARM ones too on a ladder without an archive rung.  When the
cluster has an archive rung, a serialized, integrity-checked mover
demotes cold data to the fabric-attached archive tier, keeping no disk
replica, and restores it -- re-replicated first -- when it heats back
up.

The package is an *extension*, not part of the reproduction: the
``dyrs`` scheme builds its master only when a worker has an SSD, so
no configuration the paper evaluates creates any of these objects.

Modules
-------
``temperature``
    Per-block EWMA access tracking and the HOT/WARM/COLD
    classification (:class:`TemperatureTracker`).
``integrity``
    Checksums recorded at archival write and verified before any copy
    is deleted (:class:`ChecksumRegistry`).
``master``
    :class:`LifecycleMaster`, the DYRS master that runs the SSD
    lifecycle and, given an archive rung, the archive pass and the
    restore planning; and its :class:`TierConfig`.
"""

from repro.cluster.node import TIER_ORDER
from repro.lifecycle.integrity import ChecksumRegistry, block_checksum
from repro.lifecycle.master import LifecycleMaster, TierConfig, is_promotion
from repro.lifecycle.temperature import Temperature, TemperatureTracker

__all__ = [
    "TIER_ORDER",
    "ChecksumRegistry",
    "LifecycleMaster",
    "Temperature",
    "TemperatureTracker",
    "TierConfig",
    "block_checksum",
    "is_promotion",
]
