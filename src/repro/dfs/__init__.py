"""An HDFS-like distributed file system model.

The paper implements DYRS inside HDFS: the DYRS master lives in the
NameNode, the slave in the DataNode (§IV).  This subpackage provides
the matching substrate:

* :mod:`repro.dfs.block` -- blocks and replicas;
* :mod:`repro.dfs.namespace` -- files -> blocks;
* :mod:`repro.dfs.placement` -- replica placement policies;
* :mod:`repro.dfs.datanode` -- block storage and the read path
  (disk, local memory, remote memory);
* :mod:`repro.dfs.namenode` -- block map, heartbeats, failure
  detection, and read-source resolution;
* :mod:`repro.dfs.client` -- the DFSClient facade, including the
  ``migrate``/``evict`` RPC extension the paper adds (§IV-B).
"""

from repro.dfs.block import Block, BlockId
from repro.dfs.namespace import FileEntry, Namespace
from repro.dfs.placement import (
    PlacementPolicy,
    RackAwarePlacement,
    RandomPlacement,
    RoundRobinPlacement,
)
from repro.dfs.datanode import DataNode, ReadSource
from repro.dfs.namenode import HeartbeatReport, NameNode
from repro.dfs.client import DFSClient, EvictionMode
from repro.dfs.heartbeat import HeartbeatService

__all__ = [
    "Block",
    "BlockId",
    "DFSClient",
    "DataNode",
    "EvictionMode",
    "FileEntry",
    "HeartbeatReport",
    "HeartbeatService",
    "NameNode",
    "Namespace",
    "PlacementPolicy",
    "RandomPlacement",
    "ReadSource",
    "RackAwarePlacement",
    "RoundRobinPlacement",
]
