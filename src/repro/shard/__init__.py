"""Sharded migration master: a federated control plane for DYRS.

The paper's single master is the scalability wall its 8-node testbed
never hit: every pending migration, heartbeat, and pull RPC funnels
through one process (§III-C assumes one authority).  This
package partitions the *binding* half of the master -- the pending map
and Algorithm 1 -- across N :class:`MasterShard`\\ s behind a thin
:class:`ShardCoordinator`, while cluster-wide policy (reference
tracking, eviction, the memory directory, global reclaim) stays
coordinator-owned:

* :class:`ShardRouter` -- deterministic record -> shard assignment
  (hash-by-block, or rack-affine for multi-rack clusters).
* :class:`MasterShard` -- one partition: a shard-local pending pool
  with shard-local Algorithm 1 retargeting and pull binding.
* :class:`ShardCoordinator` -- a drop-in
  :class:`~repro.core.master.DyrsMaster` that routes records to
  shards, answers a slave's pull with one endpoint per live shard (the
  slave opens a detached leg to each), and owns every cluster-wide
  concern, including per-shard crash/recover.

Correctness anchor: ``dyrs-sharded`` with ``shards=1`` is
byte-identical to ``dyrs`` (pinned by the equivalence tests in
``tests/shard/``).

Encapsulation rule (lint SM203): outside this package, nothing may
touch a shard's ``_pending``/``_records`` directly -- cross-shard
access goes through the :class:`ShardCoordinator` API.
"""

from repro.shard.coordinator import ShardCoordinator
from repro.shard.router import ShardRouter
from repro.shard.shard import MasterShard

__all__ = ["MasterShard", "ShardCoordinator", "ShardRouter"]
