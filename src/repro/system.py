"""One-stop system builder: cluster + DFS + migration scheme + compute.

The evaluation compares four file-system configurations (§V-A):

``"hdfs"``
    Default HDFS -- inputs on disk, no migration.
``"ram"``
    *HDFS-Inputs-in-RAM* -- every input block locked in memory before
    the workload starts (the paper uses ``vmtouch``); the speedup
    upper bound.
``"dyrs"``
    The paper's system.
``"ignem"``
    Random-replica immediate-binding migration [8].

Two more schemes support specific figures:

``"naive"``
    Delayed binding without straggler avoidance (Fig 10a).
``"instant"``
    The zero-cost hypothetical migrator (Fig 7b).

The ``dyrs`` master follows the configuration it is given.  Two
extensions beyond the paper turn on from configuration, not from a
scheme name:

* with ``SystemConfig.shards`` set, the federated master of
  :mod:`repro.shard`: pending state partitioned across that many
  master shards behind a coordinator.  A one-shard federation is not
  the flat master, because a chaos campaign samples shard faults only
  for a federation.  ``DyrsConfig.shard_pull_window`` lets a slave
  keep several pull legs in flight to one shard;
* otherwise, when any worker has an SSD, the storage-ladder master
  (:class:`~repro.lifecycle.LifecycleMaster`): block-temperature
  tracking, background disk->ssd promotion and demote-on-evict, plus
  the archive pass when a worker also has an archive partition.

The experiments name these configurations by preset
(``repro.experiments.common.PRESETS``).  Each scheme is one
:class:`SchemeSpec` entry in :data:`SCHEME_REGISTRY` -- the master
factory plus the wiring flags that used to live in scattered
``if scheme == ...`` chains.

:class:`System` wires everything and exposes the handful of handles
experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cluster import Cluster, ClusterSpec
from repro.compute import ComputeConfig, JobRuntime, MetricsCollector, TaskScheduler
from repro.core import DyrsConfig, DyrsMaster, DyrsSlave, IgnemMaster, NaiveBalancerMaster
from repro.core.baselines import InstantMigrator
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.dfs.namenode import DEFAULT_REPLICATION
from repro.dfs.namespace import DEFAULT_BLOCK_SIZE
from repro.lifecycle import LifecycleMaster, TierConfig
from repro.obs import trace as obs

__all__ = ["System", "SystemConfig", "SCHEMES", "SCHEME_REGISTRY", "SchemeSpec"]


@dataclass(frozen=True)
class SchemeSpec:
    """Everything scheme-specific about wiring a :class:`System`.

    Attributes
    ----------
    name:
        The scheme key, as accepted by :class:`SystemConfig`.
    build_master:
        Factory called with the partially built system (cluster,
        namenode, and config exist; slaves do not yet), or None for
        the master-less baselines.
    has_slaves:
        Whether a migration slave runs on every node (the instant
        migrator has a master but no slave processes).
    preload:
        Whether :meth:`System.load_input` locks every block in memory
        at creation (the ``ram`` upper bound).
    """

    name: str
    build_master: Optional[Callable[["System"], object]]
    has_slaves: bool = True
    preload: bool = False


def _build_dyrs(system: "System"):
    """The paper's master, unless the configuration asks for an
    extension: a federation when ``shards`` is set, else the storage
    ladder when any worker has an SSD."""
    config = system.config
    if config.shards is not None:
        # Imported here so only a federation pays for the package.
        from repro.shard import ShardCoordinator

        return ShardCoordinator(
            system.namenode,
            config.dyrs,
            n_shards=config.shards,
            router_mode=config.shard_router,
        )
    if any(node.ssd is not None for node in system.cluster.nodes):
        return LifecycleMaster(
            system.namenode, config.dyrs, tier_config=config.tiers
        )
    return DyrsMaster(system.namenode, config.dyrs)


def _build_ignem(system: "System"):
    return IgnemMaster(system.namenode, system.cluster.rngs.stream("ignem"))


def _build_naive(system: "System"):
    return NaiveBalancerMaster(system.namenode)


def _build_instant(system: "System"):
    return InstantMigrator(system.namenode)


#: The scheme table; iteration order is the canonical scheme order.
SCHEME_REGISTRY: dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        SchemeSpec("hdfs", build_master=None),
        SchemeSpec("ram", build_master=None, preload=True),
        SchemeSpec("dyrs", build_master=_build_dyrs),
        SchemeSpec("ignem", build_master=_build_ignem),
        SchemeSpec("naive", build_master=_build_naive),
        SchemeSpec("instant", build_master=_build_instant, has_slaves=False),
    )
}

SCHEMES = tuple(SCHEME_REGISTRY)


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to stand up one experimental configuration."""

    scheme: str = "dyrs"
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    dyrs: DyrsConfig = field(default_factory=DyrsConfig)
    tiers: TierConfig = field(default_factory=TierConfig)
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    block_size: float = DEFAULT_BLOCK_SIZE
    #: Master shard count of the ``dyrs`` federation; None builds the
    #: flat master.  Only ``dyrs`` accepts it, and not together with
    #: an SSD.  The count is fixed for the life of the run.
    shards: Optional[int] = None
    #: Record -> shard routing mode for a federation: ``"block"``
    #: (hash-by-block) or ``"rendezvous"`` (weighted HRW over every
    #: shard, by shard freshness).
    shard_router: str = "block"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.shards is not None:
            if self.shards < 1:
                raise ValueError(f"shards must be >= 1 or None, got {self.shards}")
            if self.scheme != "dyrs":
                raise ValueError(
                    f"shards={self.shards} requires the 'dyrs' scheme, "
                    f"got {self.scheme!r}"
                )
            if any(
                self.cluster.spec_for(i).ssd for i in range(self.cluster.n_workers)
            ):
                raise ValueError(
                    "shards and an SSD cannot be combined: the federation "
                    "does not run the storage ladder"
                )
        elif self.dyrs.shard_pull_window > 1:
            raise ValueError(
                f"shard_pull_window={self.dyrs.shard_pull_window} requires "
                "a federation (shards set)"
            )
        if self.shard_router not in ("block", "rendezvous"):
            raise ValueError(
                "shard_router must be 'block' or 'rendezvous', "
                f"got {self.shard_router!r}"
            )
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")

    @property
    def scheme_spec(self) -> SchemeSpec:
        return SCHEME_REGISTRY[self.scheme]


class System:
    """A fully wired simulated deployment."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()
        scheme_spec = self.config.scheme_spec
        self.cluster = Cluster(self.config.cluster)
        self.sim = self.cluster.sim
        n = len(self.cluster.nodes)
        self.namenode = NameNode(
            self.cluster,
            placement=RandomPlacement(n, self.cluster.rngs.stream("placement")),
            block_size=self.config.block_size,
            replication=min(DEFAULT_REPLICATION, n),
        )
        self.client = DFSClient(self.namenode)
        self.heartbeats = HeartbeatService(self.namenode)
        self.master = (
            scheme_spec.build_master(self)
            if scheme_spec.build_master is not None
            else None
        )
        self.slaves: list[DyrsSlave] = []
        if self.master is not None and scheme_spec.has_slaves:
            self.slaves = [
                DyrsSlave(self.namenode.datanodes[node.node_id], self.master, self.config.dyrs)
                for node in self.cluster.nodes
            ]
        if isinstance(self.master, DyrsMaster):
            self.master.attach_heartbeats(self.heartbeats)
        self.scheduler = TaskScheduler(self.cluster)
        self.metrics = MetricsCollector()
        self.runtime = JobRuntime(
            self.cluster,
            self.client,
            scheduler=self.scheduler,
            config=self.config.compute,
            metrics=self.metrics,
        )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "System":
        """Start heartbeats, the master loop, and the slaves."""
        if self._started:
            return self
        self._started = True
        if obs.enabled():
            obs.emit(
                obs.RUN_START,
                self.sim.now,
                scheme=self.config.scheme,
                n_workers=len(self.cluster.nodes),
            )
        self.heartbeats.start()
        if isinstance(self.master, DyrsMaster):
            self.master.start()
        for slave in self.slaves:
            slave.start()
        return self

    # -- input loading ---------------------------------------------------------

    def load_input(self, name: str, size: float) -> None:
        """Create an input file; under ``"ram"`` also lock it in memory.

        The paper pre-loads inputs and flushes caches before each run
        (§V-A); creation is therefore free of simulated I/O.
        """
        entry = self.client.create_file(name, size)
        if self.config.scheme_spec.preload:
            for block in entry.blocks:
                node_id = block.replica_nodes[0]
                self.namenode.datanodes[node_id].pin("memory", block)
                self.namenode.directory["memory"][block.block_id] = node_id
                obs.emit(
                    obs.PRELOAD,
                    self.sim.now,
                    block=block.block_id,
                    node=node_id,
                    nbytes=block.size,
                )
