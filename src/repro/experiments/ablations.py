"""Design-choice ablations (DESIGN.md §6 -- beyond the paper's tables).

Each ablation isolates one mechanism the paper argues for:

* **binding delay** (§III-A1) -- DYRS vs deep-queue DYRS (early
  binding) vs Ignem (binding at submission);
* **estimator refresh** (§IV-A) -- with vs without the in-progress
  update, under alternating interference;
* **queue depth** (§III-B) -- sweep around the derived ideal;
* **policy** (§III future work) -- FIFO vs SJF vs LIFO under a
  multi-job burst;
* **memory limit** (§IV-A1) -- the per-node hard limit swept down
  toward plain HDFS;
* **delay scheduling** and **racks** -- beyond the paper: a locality
  wait in the task scheduler, and a two-rack topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis import format_table
from repro.core import (
    DyrsMaster,
    FifoPolicy,
    LifoPolicy,
    SmallestJobFirstPolicy,
)
from repro.experiments.common import PaperSetup, build_system
from repro.units import GB
from repro.workloads.sort import sort_job
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs

__all__ = [
    "AblationResult",
    "run_binding_delay",
    "run_estimator_refresh",
    "run_queue_depth",
    "run_policies",
    "run_memory_limit",
    "run_delay_scheduling",
    "run_racks",
    "AXES",
    "report",
]


@dataclass(frozen=True)
class AblationResult:
    """One ablation axis: variant label -> metric (seconds)."""

    name: str
    metric: str
    values: dict[str, float]

    def best(self) -> str:
        return min(self.values, key=self.values.get)


def _sort_runtime(setup: PaperSetup, size: float = 10 * GB, extra_lead: float = 30.0) -> float:
    system = build_system(setup)
    job = sort_job(system, size=size, job_id="sort", extra_lead_time=extra_lead)
    metrics = system.runtime.run_to_completion([job])
    return metrics.jobs["sort"].duration


def run_binding_delay(seed: int = 0) -> AblationResult:
    """Late binding (DYRS) vs early binding (deep queues) vs Ignem."""
    values = {
        "dyrs (late binding)": _sort_runtime(
            PaperSetup(scheme="dyrs", seed=seed)
        ),
        "dyrs, queue_depth=64 (early binding)": _sort_runtime(
            PaperSetup(scheme="dyrs", seed=seed, dyrs_overrides={"queue_depth": 64})
        ),
        "ignem (bound at submission)": _sort_runtime(
            PaperSetup(scheme="ignem", seed=seed)
        ),
    }
    return AblationResult("binding-delay", "sort runtime (s)", values)


def run_estimator_refresh(seed: int = 0) -> AblationResult:
    """In-progress refresh on vs off under alternating interference."""
    values = {
        "refresh on (paper)": _sort_runtime(
            PaperSetup(scheme="dyrs", seed=seed, interference="alt-20s-1")
        ),
        "refresh off (early prototype)": _sort_runtime(
            PaperSetup(
                scheme="dyrs",
                seed=seed,
                interference="alt-20s-1",
                dyrs_overrides={"estimator_refresh": False},
            )
        ),
    }
    return AblationResult("estimator-refresh", "sort runtime (s)", values)


def run_queue_depth(
    depths: Sequence[int] = (1, 4, 8), seed: int = 0
) -> AblationResult:
    """Local-queue depth sweep around the §III-B ideal.

    The derived depth is 2 on the paper's testbed, so the sweep leaves
    2 to the ``auto`` row; at seed 0 every depth from 6 up binds the
    same blocks to the same nodes, so 8 stands for the deep end.
    """
    values = {
        f"depth={d}": _sort_runtime(
            PaperSetup(scheme="dyrs", seed=seed, dyrs_overrides={"queue_depth": d})
        )
        for d in depths
    }
    values["auto (derived)"] = _sort_runtime(PaperSetup(scheme="dyrs", seed=seed))
    return AblationResult("queue-depth", "sort runtime (s)", values)


def run_policies(seed: int = 0, n_jobs: int = 40) -> AblationResult:
    """Master scheduling policies over a burst of SWIM jobs.

    The paper's future work (§III); everything else held fixed.
    """
    values: dict[str, float] = {}
    for label in ("fifo (paper)", "sjf", "lifo"):
        system = build_system(PaperSetup(scheme="dyrs", seed=seed))
        master: DyrsMaster = system.master
        if label == "sjf":
            job_of = lambda block_id: system.namenode.namespace.block(  # noqa: E731
                block_id
            ).file.split("/")[0]
            master.policy = SmallestJobFirstPolicy(job_of)
        elif label == "lifo":
            master.policy = LifoPolicy()
        else:
            master.policy = FifoPolicy()
        descriptors = generate_swim_workload(
            system.cluster.rngs.stream("swim"), n_jobs=n_jobs,
            total_input=30 * GB, mean_interarrival=2.0,
        )
        jobs = materialize_swim_jobs(system, descriptors)
        metrics = system.runtime.run_to_completion(jobs)
        values[label] = metrics.mean_job_duration()
    return AblationResult("policy", "mean SWIM job duration (s)", values)


def run_memory_limit(seed: int = 0) -> AblationResult:
    """Sweep the §IV-A1 per-node hard memory limit.

    With a generous budget DYRS keeps every timely migration; as the
    limit shrinks below the working set, migrations queue behind
    evictions and the speedup decays toward plain HDFS -- quantifying
    the memory/speed trade the paper's Fig 7 discussion describes.
    Every limit swept binds: at seed 0 a cap of 1.5 GB/node or more
    binds the same blocks to the same nodes as no cap at all.
    """
    from repro.units import GB as _GB
    from repro.units import MB as _MB

    values: dict[str, float] = {}
    for limit, label in [
        (None, "unlimited"),
        (1 * _GB, "1GB/node"),
        (512 * _MB, "512MB/node"),
        (256 * _MB, "256MB/node"),
    ]:
        values[label] = _sort_runtime(
            PaperSetup(scheme="dyrs", seed=seed, memory_limit=limit)
        )
    values["hdfs (no migration)"] = _sort_runtime(
        PaperSetup(scheme="hdfs", seed=seed)
    )
    return AblationResult("memory-limit", "sort runtime (s)", values)


def run_delay_scheduling(seed: int = 0, n_jobs: int = 60) -> AblationResult:
    """Delay scheduling (locality wait) on/off under plain HDFS.

    Beyond the paper: with reads coming from disk, waiting briefly for
    a data-local slot can beat running remotely; DYRS removes most of
    that tension by making the data location a memory replica.
    """
    from repro.units import GB as _GB

    values: dict[str, float] = {}
    for scheme in ("hdfs", "dyrs"):
        for delay in (0.0, 3.0):
            system = build_system(PaperSetup(scheme=scheme, seed=seed))
            system.scheduler.locality_delay = delay
            descriptors = generate_swim_workload(
                system.cluster.rngs.stream("swim"),
                n_jobs=n_jobs,
                total_input=50 * _GB,
                max_input=12 * _GB,
            )
            jobs = materialize_swim_jobs(system, descriptors)
            metrics = system.runtime.run_to_completion(jobs)
            values[f"{scheme}, locality wait {delay:.0f}s"] = (
                metrics.mean_job_duration()
            )
    return AblationResult("delay-scheduling", "mean SWIM job duration (s)", values)


def run_racks(seed: int = 0) -> AblationResult:
    """Single-rack vs two-rack topology under DYRS.

    Beyond the paper (whose testbed is one rack): with rack-aware
    placement and oversubscribed ToR uplinks, remote-memory reads may
    cross racks; DYRS's benefit must survive the topology change.
    """
    from repro.cluster import ClusterSpec, DiskSpec, NodeSpec
    from repro.compute import ComputeConfig
    from repro.dfs import RackAwarePlacement
    from repro.system import System, SystemConfig
    from repro.units import GB as _GB
    from repro.units import MB as _MB
    from repro.workloads.sort import sort_job

    values: dict[str, float] = {}
    for scheme in ("hdfs", "dyrs"):
        for n_racks in (1, 2):
            system = System(
                SystemConfig(
                    scheme=scheme,
                    cluster=ClusterSpec(
                        n_workers=8,
                        n_racks=n_racks,
                        seed=seed,
                        node=NodeSpec(
                            disk=DiskSpec(seek_penalty=0.3), task_slots=6
                        ),
                    ),
                    compute=ComputeConfig(job_init_overhead=12.0),
                    block_size=256 * _MB,
                )
            )
            # Swap in the rack-aware policy before loading any data.
            system.namenode.placement = RackAwarePlacement(
                [n.rack_id for n in system.cluster.nodes],
                system.cluster.rngs.stream("rack-placement"),
            )
            system.start()
            # Bigger than the slot pool so tasks cannot all sit
            # memory-local and some reads cross the fabric.
            job = sort_job(system, size=24 * _GB, job_id="sort", extra_lead_time=60.0)
            metrics = system.runtime.run_to_completion([job])
            cross = sum(
                u.bytes_moved for u in system.cluster.fabric.uplinks.values()
            )
            label = f"{scheme}, {n_racks} rack(s)"
            if n_racks > 1:
                label += f" ({cross / _GB:.1f}GB cross-rack)"
            values[label] = metrics.jobs["sort"].duration
    return AblationResult("racks", "sort runtime (s)", values)


#: Every axis ``dyrs-bench ablations`` runs, in print order.  No two
#: of an axis's runs that bind anything may bind the same sequence
#: (tests/experiments/test_ablations.py); a variant that does restates
#: another and is re-valued or dropped.
AXES = (
    run_binding_delay,
    run_estimator_refresh,
    run_queue_depth,
    run_policies,
    run_memory_limit,
    run_delay_scheduling,
    run_racks,
)


def report(results: Sequence[AblationResult]) -> str:
    lines = []
    for result in results:
        lines.append(f"== ablation: {result.name} ==")
        rows = [[label, value] for label, value in result.values.items()]
        lines.append(format_table(["variant", result.metric], rows))
        lines.append(f"best: {result.best()}")
        lines.append("")
    return "\n".join(lines).rstrip()
