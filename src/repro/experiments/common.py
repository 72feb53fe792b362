"""Shared experiment plumbing: the paper's testbed in one call.

The evaluation cluster (§V-A): 7 worker nodes (1 TB HDD, 128 GB RAM,
12 hardware threads, 10 Gbps network) plus a dedicated master node
(implicit in our model).  Heterogeneity comes from the §V-C
interference rig, applied through
:class:`repro.cluster.interference.InterferenceSchedule` patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster import ClusterSpec, InterferenceSchedule, NodeSpec
from repro.compute import ComputeConfig
from repro.core import DyrsConfig
from repro.lifecycle import TierConfig
from repro.system import System, SystemConfig
from repro.units import GB, MB

__all__ = [
    "PaperSetup",
    "build_system",
    "enable_tiered",
    "tiered_enabled",
    "warm_up",
    "PAPER_WORKERS",
    "SLOW_NODE",
]

#: §V-A: one NameNode/RM server plus seven DataNode/NodeManager servers.
PAPER_WORKERS = 7
#: The node the §V-C interference rig handicaps in single-node setups.
SLOW_NODE = 0

#: When set (the CLI's ``--tiers`` flag), :func:`build_system` swaps
#: the ``"dyrs"`` scheme for its ``"dyrs-tiered"`` variant.  Off by
#: default: the paper's experiments must run the paper's system.
_TIERED = False


def enable_tiered(enabled: bool = True) -> None:
    """Toggle the tiered-storage variant for subsequently built systems.

    Only the ``"dyrs"`` scheme is substituted; baselines (hdfs, ram,
    ignem, ...) are untouched so comparisons keep their meaning.
    """
    global _TIERED
    _TIERED = enabled


def tiered_enabled() -> bool:
    return _TIERED


@dataclass(frozen=True)
class PaperSetup:
    """A named, reproducible experimental configuration.

    Attributes
    ----------
    scheme:
        One of ``repro.system.SCHEMES``.
    interference:
        An :class:`InterferenceSchedule` pattern name (``"none"``,
        ``"persistent-1"``, ``"alt-10s-1"``, ...).
    seed:
        Root seed; everything stochastic derives from it.
    n_workers / block_size / replication:
        Cluster shape (defaults: the paper's).
    job_init_overhead:
        The platform lead-time component (§II-C1).
    memory_limit:
        Optional per-node migration memory cap (§IV-A1).
    tier_overrides:
        :class:`~repro.lifecycle.TierConfig` field overrides for the
        tiered/lifecycle schemes (empty = defaults).  Chaos and
        lifecycle experiments use this to compress the temperature
        timescales into a CI-sized horizon.
    """

    scheme: str = "dyrs"
    interference: str = "persistent-1"
    seed: int = 0
    n_workers: int = PAPER_WORKERS
    block_size: float = 256 * MB
    replication: int = 3
    job_init_overhead: float = 12.0
    task_launch_overhead: float = 1.5
    memory_limit: Optional[float] = None
    interference_streams: int = 4
    task_slots: int = 6
    seek_penalty: float = 0.3
    dyrs_overrides: dict = field(default_factory=dict)
    tier_overrides: dict = field(default_factory=dict)
    #: Master shard count (``dyrs-sharded`` only; 1 elsewhere).
    shards: int = 1
    #: Record -> shard routing for ``dyrs-sharded``.
    shard_router: str = "block"


def build_system(setup: PaperSetup) -> System:
    """Stand up (and start) a system per ``setup``, interference armed.

    The interference generators are created and started before any
    workload runs, mirroring the paper's procedure of launching the
    ``dd`` readers ahead of each experiment.
    """
    dyrs = DyrsConfig(
        reference_block_size=setup.block_size,
        memory_limit=setup.memory_limit,
        **setup.dyrs_overrides,
    )
    from repro.cluster import DiskSpec

    node = NodeSpec(
        disk=DiskSpec(seek_penalty=setup.seek_penalty),
        task_slots=setup.task_slots,
    )
    scheme = setup.scheme
    if _TIERED and scheme == "dyrs":
        scheme = "dyrs-tiered"
    system = System(
        SystemConfig(
            scheme=scheme,
            cluster=ClusterSpec(
                n_workers=setup.n_workers,
                node=node,
                seed=setup.seed,
            ),
            dyrs=dyrs,
            tiers=TierConfig(**setup.tier_overrides),
            compute=ComputeConfig(
                task_launch_overhead=setup.task_launch_overhead,
                job_init_overhead=setup.job_init_overhead,
            ),
            block_size=setup.block_size,
            replication=setup.replication,
            shards=setup.shards,
            shard_router=setup.shard_router,
        )
    ).start()
    schedule = InterferenceSchedule(
        setup.interference, node_a=SLOW_NODE, node_b=SLOW_NODE + 1,
        streams=setup.interference_streams,
    )
    system.interference = schedule.start(system.cluster)  # type: ignore[attr-defined]
    return system


def warm_up(system: System, size: float = 2 * GB) -> None:
    """Run a throwaway job so migration-time estimators carry history.

    DYRS "uses past migrations to estimate how long future migrations
    will take" (§III-A2); on the paper's testbed the estimators are
    warm from earlier activity, whereas a fresh simulation starts every
    estimator at the optimistic nominal-bandwidth prior.  Single-job
    experiments (Figs 8-11) run one small sort first so the measured
    job sees learned estimates, then discard its metrics.
    """
    from repro.workloads.sort import sort_job

    if system.master is None or system.config.scheme in ("ram", "instant"):
        return
    job = sort_job(system, size=size, job_id="warmup", extra_lead_time=20.0)
    system.runtime.run_to_completion([job])
    system.metrics.jobs.pop("warmup", None)
    # Clear per-datanode read logs so figure counts only cover the
    # measured job.
    for datanode in system.namenode.datanodes.values():
        datanode.read_log.clear()
