"""Shared experiment plumbing: the paper's testbed in one call.

The evaluation cluster (§V-A): 7 worker nodes (1 TB HDD, 128 GB RAM,
12 hardware threads, 10 Gbps network) plus a dedicated master node
(implicit in our model).  Heterogeneity comes from the §V-C
interference rig, applied through
:class:`repro.cluster.interference.InterferenceSchedule` patterns.

:data:`PRESETS` names the ``dyrs`` configurations that turn on an
extension beyond the paper (the storage ladder, the shard federation),
so experiments can label their rows by them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster import ClusterSpec, DiskSpec, InterferenceSchedule, NodeSpec
from repro.compute import ComputeConfig
from repro.core import DyrsConfig
from repro.lifecycle import TierConfig
from repro.system import System, SystemConfig
from repro.units import GB, MB

__all__ = [
    "PRESETS",
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
#: The testbed's concurrent tasks per worker, disk seek penalty and
#: per-task container start cost (seconds).
PAPER_TASK_SLOTS = 6
PAPER_SEEK_PENALTY = 0.3
PAPER_TASK_LAUNCH_OVERHEAD = 1.5
#: The node the §V-C interference rig handicaps in single-node setups.
SLOW_NODE = 0

#: When set (the CLI's ``--tiers`` flag), :func:`build_system` swaps
#: the ``"dyrs"`` scheme for the ``"dyrs-tiered"`` preset.  Off by
#: default: the paper's experiments must run the paper's system.
_TIERED = False


@dataclass(frozen=True)
class Preset:
    """A ``dyrs`` configuration that turns on an extension.

    Attributes
    ----------
    ssd / archive:
        Give every worker an SSD cache (the storage ladder) / an
        archive partition too (its cold end).
    sharded:
        Run a federation of ``PaperSetup.shards`` master shards, even
        at one shard.
    wide_window:
        Let each slave keep ``max(2, shards)`` pull legs in flight per
        shard, unless ``dyrs_overrides`` sets the window.
    """

    ssd: bool = False
    archive: bool = False
    sharded: bool = False
    wide_window: bool = False


#: The extension presets, by the name experiments label their rows with.
PRESETS: dict[str, Preset] = {
    "dyrs-tiered": Preset(ssd=True),
    "dyrs-lifecycle": Preset(ssd=True, archive=True),
    "dyrs-sharded": Preset(sharded=True),
    "dyrs-sharded-async": Preset(sharded=True, wide_window=True),
}


def enable_tiered(enabled: bool = True) -> None:
    """Toggle the tiered-storage preset for subsequently built systems.

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
        One of ``repro.system.SCHEMES``, or a :data:`PRESETS` name.
    interference:
        An :class:`InterferenceSchedule` pattern name (``"none"``,
        ``"persistent-1"``, ``"alt-10s-1"``, ...).
    seed:
        Root seed; everything stochastic derives from it.
    n_workers / block_size:
        Cluster shape (defaults: the paper's).
    job_init_overhead:
        The platform lead-time component (§II-C1).
    memory_limit:
        Optional per-node migration memory cap (§IV-A1).
    tier_overrides:
        :class:`~repro.lifecycle.TierConfig` field overrides for the
        storage-ladder presets (empty = defaults).  Chaos and
        lifecycle experiments use this to compress the temperature
        timescales into a CI-sized horizon.
    """

    scheme: str = "dyrs"
    interference: str = "persistent-1"
    seed: int = 0
    n_workers: int = PAPER_WORKERS
    block_size: float = 256 * MB
    job_init_overhead: float = 12.0
    memory_limit: Optional[float] = None
    dyrs_overrides: dict = field(default_factory=dict)
    tier_overrides: dict = field(default_factory=dict)
    #: Master shard count of the sharded presets (1 elsewhere).
    shards: int = 1
    #: Record -> shard routing of the sharded presets.
    shard_router: str = "block"


def build_system(setup: PaperSetup) -> System:
    """Stand up (and start) a system per ``setup``, interference armed.

    The interference generators are created and started before any
    workload runs, mirroring the paper's procedure of launching the
    ``dd`` readers ahead of each experiment.
    """
    scheme = setup.scheme
    if _TIERED and scheme == "dyrs":
        scheme = "dyrs-tiered"
    preset = PRESETS.get(scheme, Preset())
    if setup.shards != 1 and not preset.sharded:
        raise ValueError(
            f"shards={setup.shards} requires a sharded preset, got {scheme!r}"
        )
    dyrs_overrides = dict(setup.dyrs_overrides)
    if preset.wide_window:
        dyrs_overrides.setdefault("shard_pull_window", max(2, setup.shards))
    dyrs = DyrsConfig(memory_limit=setup.memory_limit, **dyrs_overrides)
    node = NodeSpec(
        disk=DiskSpec(seek_penalty=PAPER_SEEK_PENALTY),
        task_slots=PAPER_TASK_SLOTS,
    )
    system = System(
        SystemConfig(
            scheme="dyrs" if scheme in PRESETS else scheme,
            cluster=ClusterSpec(
                n_workers=setup.n_workers,
                node=node,
                seed=setup.seed,
                ssd=preset.ssd,
                archive=preset.archive,
            ),
            dyrs=dyrs,
            tiers=TierConfig(**setup.tier_overrides),
            compute=ComputeConfig(
                task_launch_overhead=PAPER_TASK_LAUNCH_OVERHEAD,
                job_init_overhead=setup.job_init_overhead,
            ),
            block_size=setup.block_size,
            shards=setup.shards if preset.sharded else None,
            shard_router=setup.shard_router,
        )
    ).start()
    schedule = InterferenceSchedule(
        setup.interference, node_a=SLOW_NODE, node_b=SLOW_NODE + 1, streams=4
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
