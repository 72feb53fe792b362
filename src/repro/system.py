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

Three schemes are extensions beyond the paper:

``"dyrs-tiered"``
    DYRS plus the SSD tier of :mod:`repro.tiers` -- block-temperature
    tracking, background disk->ssd promotion, and demote-on-evict.
``"dyrs-lifecycle"``
    The tiered scheme plus :mod:`repro.lifecycle` -- an archive tier,
    the HOT/WARM/COLD policy table, integrity-checked archive moves,
    and temperature-driven replication.
``"dyrs-sharded"``
    DYRS with the federated master of :mod:`repro.shard`: pending
    state partitioned across ``SystemConfig.shards`` master shards
    behind a coordinator.  At ``shards=1`` (the default) it is
    byte-identical to ``"dyrs"``.
``"dyrs-sharded-async"``
    The sharded scheme with a wider pull window: every slave pulls
    through detached per-shard RPC legs, and here
    ``DyrsConfig.shard_pull_window`` defaults to the shard count
    instead of 1, so a node may keep several legs in flight to one
    shard.  At ``shard_pull_window=1`` it is byte-identical to
    ``"dyrs-sharded"``.

Each scheme is one :class:`SchemeSpec` entry in :data:`SCHEME_REGISTRY`
-- the master factory plus the wiring flags that used to live in
scattered ``if scheme == ...`` chains.  Devices a scheme requires but
the cluster spec omits (the SSD for the tiered schemes, SSD + archive
for the lifecycle scheme) are filled in *visibly*: each default is
announced with a ``config_defaulted`` trace event and recorded in
:attr:`System.defaulted_devices`.

:class:`System` wires everything and exposes the handful of handles
experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional, Sequence

from repro.cluster import ArchiveSpec, Cluster, ClusterSpec, SsdSpec
from repro.compute import ComputeConfig, JobRuntime, MetricsCollector, TaskScheduler
from repro.core import DyrsConfig, DyrsMaster, DyrsSlave, IgnemMaster, NaiveBalancerMaster
from repro.core.baselines import InstantMigrator
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.dfs.namespace import DEFAULT_BLOCK_SIZE
from repro.lifecycle import LifecycleConfig, LifecycleMaster
from repro.obs import trace as obs
from repro.tiers import TierConfig, TieredDyrsMaster

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
    migrate_on_submit:
        Whether job submission triggers a migration RPC; forced off
        for the master-less baselines so the compute config stays
        honest.
    preload:
        Whether :meth:`System.load_input` locks every block in memory
        at creation (the ``ram`` upper bound).
    default_devices:
        Device specs the scheme needs on every node; any the cluster
        spec omits are defaulted -- visibly -- at construction.
    """

    name: str
    build_master: Optional[Callable[["System"], object]]
    has_slaves: bool = True
    migrate_on_submit: bool = True
    preload: bool = False
    default_devices: tuple[str, ...] = ()


def _build_dyrs(system: "System"):
    return DyrsMaster(system.namenode, system.config.dyrs)


def _build_tiered(system: "System"):
    return TieredDyrsMaster(
        system.namenode, system.config.dyrs, tier_config=system.config.tiers
    )


def _build_lifecycle(system: "System"):
    return LifecycleMaster(
        system.namenode,
        system.config.dyrs,
        tier_config=_lifecycle_tier_config(system.config.tiers),
    )


def _build_sharded(system: "System"):
    from repro.shard import ShardCoordinator

    return ShardCoordinator(
        system.namenode,
        system.config.dyrs,
        n_shards=system.config.shards,
        router_mode=system.config.shard_router,
        cluster=system.cluster,
    )


def _build_ignem(system: "System"):
    return IgnemMaster(system.namenode, system.cluster.rngs.stream("ignem"))


def _build_naive(system: "System"):
    return NaiveBalancerMaster(system.namenode)


def _build_instant(system: "System"):
    return InstantMigrator(system.namenode)


def _lifecycle_tier_config(tiers: TierConfig) -> LifecycleConfig:
    """Upgrade a plain :class:`TierConfig` to the lifecycle variant.

    An explicit :class:`LifecycleConfig` passes through untouched.  A
    plain config keeps every field it sets; only the stock
    ``"threshold"`` policy (the :class:`TierConfig` default) is mapped
    to the lifecycle default ``"table"``.
    """
    if isinstance(tiers, LifecycleConfig):
        return tiers
    kwargs = {f.name: getattr(tiers, f.name) for f in fields(TierConfig)}
    if kwargs["policy"] == "threshold":
        kwargs["policy"] = "table"
    return LifecycleConfig(**kwargs)


#: The scheme table; iteration order is the canonical scheme order.
SCHEME_REGISTRY: dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        SchemeSpec("hdfs", build_master=None, migrate_on_submit=False),
        SchemeSpec(
            "ram", build_master=None, migrate_on_submit=False, preload=True
        ),
        SchemeSpec("dyrs", build_master=_build_dyrs),
        SchemeSpec("ignem", build_master=_build_ignem),
        SchemeSpec("naive", build_master=_build_naive),
        SchemeSpec("instant", build_master=_build_instant, has_slaves=False),
        SchemeSpec(
            "dyrs-tiered", build_master=_build_tiered, default_devices=("ssd",)
        ),
        SchemeSpec(
            "dyrs-lifecycle",
            build_master=_build_lifecycle,
            default_devices=("ssd", "archive"),
        ),
        SchemeSpec("dyrs-sharded", build_master=_build_sharded),
        # Same federation, but ``shard_pull_window`` resolves to the
        # shard count instead of 1; all other wiring is identical.
        SchemeSpec("dyrs-sharded-async", build_master=_build_sharded),
    )
}

SCHEMES = tuple(SCHEME_REGISTRY)

#: Schemes that stand up the federated master (and may therefore set
#: ``shards`` and a pull window above 1).
_SHARDED_SCHEMES = ("dyrs-sharded", "dyrs-sharded-async")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to stand up one experimental configuration."""

    scheme: str = "dyrs"
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    dyrs: DyrsConfig = field(default_factory=DyrsConfig)
    tiers: TierConfig = field(default_factory=TierConfig)
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    block_size: float = DEFAULT_BLOCK_SIZE
    replication: int = 3
    #: Delay-scheduling locality wait for the task scheduler (seconds;
    #: 0 = strict capacity scheduler, the calibrated default).
    locality_delay: float = 0.0
    #: Master shard count for the sharded schemes (ignored means
    #: invalid: any other scheme must leave it at 1).  The count is
    #: fixed for the life of the run.
    shards: int = 1
    #: Record -> shard routing mode for the sharded schemes:
    #: ``"block"`` (hash-by-block), ``"rack"`` (rack-affine) or
    #: ``"rendezvous"`` (weighted HRW over live shards, re-homing the
    #: slice of a shard declared permanently dead).
    shard_router: str = "block"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shards != 1 and self.scheme not in _SHARDED_SCHEMES:
            raise ValueError(
                f"shards={self.shards} requires a sharded scheme "
                f"{_SHARDED_SCHEMES}, got {self.scheme!r}"
            )
        if self.shard_router not in ("block", "rack", "rendezvous"):
            raise ValueError(
                "shard_router must be 'block', 'rack' or 'rendezvous', "
                f"got {self.shard_router!r}"
            )
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.dyrs.reference_block_size != self.block_size:
            # Keep Algorithm 1's per-block conversions consistent with
            # the DFS block size automatically.
            object.__setattr__(
                self, "dyrs", replace(self.dyrs, reference_block_size=self.block_size)
            )
        if self.dyrs.shard_pull_window is None:
            # Resolve the scheme default: ``dyrs-sharded-async`` allows
            # max(2, shards) outstanding legs per (node, shard); every
            # other scheme allows 1 per endpoint.  An *explicit* window
            # survives resolution, so ``dyrs-sharded-async`` at window
            # 1 can be pinned against stock ``dyrs-sharded``.
            window = (
                max(2, self.shards) if self.scheme == "dyrs-sharded-async" else 1
            )
            object.__setattr__(
                self, "dyrs", replace(self.dyrs, shard_pull_window=window)
            )
        elif self.dyrs.shard_pull_window > 1 and self.scheme not in _SHARDED_SCHEMES:
            raise ValueError(
                f"shard_pull_window={self.dyrs.shard_pull_window} requires a "
                f"sharded scheme {_SHARDED_SCHEMES}, got {self.scheme!r}"
            )

    @property
    def scheme_spec(self) -> SchemeSpec:
        return SCHEME_REGISTRY[self.scheme]


class System:
    """A fully wired simulated deployment."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or SystemConfig()
        scheme_spec = self.config.scheme_spec
        cluster_spec, self.defaulted_devices = self._apply_device_defaults(
            self.config.cluster, scheme_spec.default_devices
        )
        self.cluster = Cluster(cluster_spec)
        self.sim = self.cluster.sim
        for device in self.defaulted_devices:
            obs.emit(
                obs.CONFIG_DEFAULTED,
                self.sim.now,
                scheme=self.config.scheme,
                device=device,
            )
        n = len(self.cluster.nodes)
        self.namenode = NameNode(
            self.cluster,
            placement=RandomPlacement(n, self.cluster.rngs.stream("placement")),
            block_size=self.config.block_size,
            replication=min(self.config.replication, n),
            heartbeat_interval=self.config.dyrs.heartbeat_interval,
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
        self.scheduler = TaskScheduler(
            self.cluster, locality_delay=self.config.locality_delay
        )
        self.metrics = MetricsCollector()
        if isinstance(self.master, TieredDyrsMaster):
            self.master.attach_metrics(self.metrics)
        self.runtime = JobRuntime(
            self.cluster,
            self.client,
            scheduler=self.scheduler,
            config=self._effective_compute_config(),
            metrics=self.metrics,
        )
        self._started = False

    @staticmethod
    def _apply_device_defaults(
        cluster_spec: ClusterSpec, devices: tuple[str, ...]
    ) -> tuple[ClusterSpec, tuple[str, ...]]:
        """Fill in device specs the scheme requires but the cluster
        spec omits; returns the (possibly new) spec and the names of
        the devices that were defaulted."""
        defaulted: list[str] = []
        for device in devices:
            if device == "ssd" and cluster_spec.ssd is None:
                cluster_spec = replace(cluster_spec, ssd=SsdSpec())
                defaulted.append("ssd")
            elif device == "archive" and cluster_spec.archive is None:
                cluster_spec = replace(cluster_spec, archive=ArchiveSpec())
                defaulted.append("archive")
        return cluster_spec, tuple(defaulted)

    def _effective_compute_config(self) -> ComputeConfig:
        base = self.config.compute
        if not self.config.scheme_spec.migrate_on_submit:
            # No master to call; keep the flag honest.
            return replace(base, migrate_on_submit=False)
        return base

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
                self.namenode.datanodes[node_id].pin_block(block)
                self.namenode.record_memory_replica(block.block_id, node_id)
                obs.emit(
                    obs.PRELOAD,
                    self.sim.now,
                    block=block.block_id,
                    node=node_id,
                    nbytes=block.size,
                )

    def load_inputs(self, files: Sequence[tuple[str, float]]) -> None:
        """Bulk :meth:`load_input`."""
        for name, size in files:
            self.load_input(name, size)
