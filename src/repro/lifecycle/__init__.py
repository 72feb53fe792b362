"""The storage ladder: data lifecycle over disk, SSD, memory and archive.

The paper's machinery only moves data *up*, from disk to memory.  This
package runs one lifecycle over every rung a cluster has: blocks are
classified HOT/WARM/COLD from the temperature tracker's EWMAs, warm
data is cached on the SSD and expired from it, and -- when the cluster
has an archive rung -- a declarative policy table says where each class
lives and how replicated it is, and a serialized, integrity-checked
mover demotes cold data to the fabric-attached archive tier and
restores it -- re-replicated first -- when it heats back up.

The package is an *extension*, not part of the reproduction: the
``dyrs`` scheme builds its master only when a worker has an SSD, so
no configuration the paper evaluates creates any of these objects.

Modules
-------
``policy``
    The rung order (:data:`TIER_ORDER`, :func:`rung_read_seconds`) and
    the three placement policies: the temperature ladder
    (:class:`ThresholdPolicy`), read-savings against move cost
    (:class:`CostBenefitPolicy`), and the per-temperature table
    (:class:`LifecycleTable`, read through :class:`TablePolicy`).
``temperature``
    Per-block EWMA access tracking and the HOT/WARM/COLD
    classification (:class:`TemperatureTracker`).
``integrity``
    Checksums recorded at archival write and verified before any copy
    is deleted (:class:`ChecksumRegistry`).
``replication``
    The temperature-driven replication scheduler
    (:class:`ReplicationScheduler`).
``master``
    :class:`LifecycleMaster`, the DYRS master that runs the SSD
    lifecycle and, given an archive rung, the archive pass; and its
    :class:`TierConfig`.
"""

from repro.lifecycle.integrity import ChecksumRegistry, block_checksum
from repro.lifecycle.master import LifecycleMaster, TierConfig
from repro.lifecycle.policy import (
    TIER_ORDER,
    CostBenefitPolicy,
    LifecycleRule,
    LifecycleTable,
    PlacementContext,
    TablePolicy,
    ThresholdPolicy,
    TierPolicy,
    default_table,
    is_promotion,
    rung_read_seconds,
)
from repro.lifecycle.replication import ReplicationScheduler
from repro.lifecycle.temperature import Temperature, TemperatureTracker

__all__ = [
    "TIER_ORDER",
    "ChecksumRegistry",
    "CostBenefitPolicy",
    "LifecycleMaster",
    "LifecycleRule",
    "LifecycleTable",
    "PlacementContext",
    "ReplicationScheduler",
    "TablePolicy",
    "Temperature",
    "TemperatureTracker",
    "ThresholdPolicy",
    "TierConfig",
    "TierPolicy",
    "block_checksum",
    "default_table",
    "is_promotion",
    "rung_read_seconds",
]
