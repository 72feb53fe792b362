"""Data-lifecycle management over the whole storage ladder.

The paper's machinery only moves data *up*, from disk to memory.  This
package runs one lifecycle over every rung a cluster has: blocks are
classified HOT/WARM/COLD from the temperature tracker's EWMAs, warm
data is cached on the SSD and expired from it, and -- when the cluster
has an archive rung -- a declarative policy table says where each class
lives and how replicated it is, and a serialized, integrity-checked
mover demotes cold data to the fabric-attached archive tier and
restores it -- re-replicated first -- when it heats back up.

Modules
-------
``policy``
    The per-temperature table (:class:`LifecycleTable`) and its
    adapter onto the tier policy interface (:class:`TablePolicy`).
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
    LifecycleRule,
    LifecycleTable,
    TablePolicy,
    default_table,
)
from repro.lifecycle.replication import ReplicationScheduler

__all__ = [
    "ChecksumRegistry",
    "LifecycleMaster",
    "LifecycleRule",
    "LifecycleTable",
    "ReplicationScheduler",
    "TablePolicy",
    "TierConfig",
    "block_checksum",
    "default_table",
]
