"""Physical cluster model: nodes, disks, memory, network, interference.

This subpackage models the hardware substrate the paper's testbed
provides (§V-A): worker nodes with one HDD each, large RAM, and a
10 Gbps network.  Heterogeneity is introduced exactly as in §V-C --
background reader streams stealing disk bandwidth, either persistently
or in alternating on/off patterns.
"""

from repro.cluster.archive import Archive
from repro.cluster.device import ByteStore, StoreFull
from repro.cluster.disk import Disk, DiskSpec
from repro.cluster.memory import MemoryStore
from repro.cluster.network import Fabric, Nic
from repro.cluster.node import FAST_TIERS, TIER_ORDER, Node, NodeSpec
from repro.cluster.ssd import Ssd
from repro.cluster.topology import Cluster, ClusterSpec
from repro.cluster.interference import (
    AlternatingInterference,
    InterferenceSchedule,
    PersistentInterference,
)

__all__ = [
    "FAST_TIERS",
    "TIER_ORDER",
    "AlternatingInterference",
    "Archive",
    "ByteStore",
    "Cluster",
    "ClusterSpec",
    "Disk",
    "DiskSpec",
    "Fabric",
    "InterferenceSchedule",
    "MemoryStore",
    "Nic",
    "Node",
    "NodeSpec",
    "PersistentInterference",
    "Ssd",
    "StoreFull",
]
