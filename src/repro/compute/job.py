"""Job, stage, and task specifications.

A job is a DAG of stages; a stage is a set of tasks of one kind.  Map
tasks read DFS blocks (the reads DYRS accelerates); reduce tasks
shuffle intermediate data and write output.  Multi-stage DAGs model
Hive queries, where "Frameworks like Hive submit a sequence of
MapReduce jobs to complete a single query" (§IV-B).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dfs.block import Block
from repro.dfs.client import EvictionMode
from repro.units import MB

__all__ = ["TaskKind", "TaskSpec", "StageSpec", "JobSpec", "mapreduce_job"]


class TaskKind(enum.Enum):
    """What a task does."""

    MAP = "map"
    REDUCE = "reduce"


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One task.

    Attributes
    ----------
    task_id:
        Unique within the job (e.g. ``"map-3"``).
    kind:
        MAP or REDUCE.
    block:
        For map tasks, the DFS block to read (None for reduce tasks and
        for non-initial stages reading intermediate data).
    intermediate_input:
        Bytes read from intermediate/local data instead of the DFS
        (later Hive stages; reduce shuffle input).
    compute_time:
        Pure CPU seconds after the input is available.
    local_output:
        Bytes written to the node-local disk (map output spills).
    dfs_output:
        Bytes written to the DFS through the replica pipeline (final
        stage output).
    output_replication:
        Replication factor for ``dfs_output``.  Defaults to 1, the
        benchmark convention (TeraSort et al. write results
        unreplicated); pass the DFS default for durable outputs.
    """

    task_id: str
    kind: TaskKind
    block: Optional[Block] = None
    intermediate_input: float = 0.0
    compute_time: float = 0.0
    local_output: float = 0.0
    dfs_output: float = 0.0
    output_replication: int = 1

    def __post_init__(self) -> None:
        if self.kind is TaskKind.MAP and self.block is None and self.intermediate_input <= 0:
            raise ValueError(f"map task {self.task_id} has no input")
        for name in ("intermediate_input", "compute_time", "local_output", "dfs_output"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 for task {self.task_id}")


@dataclass(frozen=True, slots=True)
class StageSpec:
    """A set of tasks that runs after its dependencies complete."""

    name: str
    tasks: tuple[TaskSpec, ...]
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"stage {self.name!r} has no tasks")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate task ids in stage {self.name!r}")


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One job: inputs, DAG, submission parameters.

    Attributes
    ----------
    job_id:
        Globally unique.
    input_files:
        DFS file names the first stage reads; these are what the
        job-submitter passes to ``migrate()`` (§IV-B).
    stages:
        The DAG, topologically orderable by ``depends_on``.
    submit_time:
        When the job enters the system.
    eviction:
        Eviction mode requested with the migration (§III-C3).
    extra_lead_time:
        Artificially inserted lead-time before tasks may start
        (Fig 11b's knob); 0 for normal operation.
    """

    job_id: str
    input_files: tuple[str, ...]
    stages: tuple[StageSpec, ...]
    submit_time: float = 0.0
    eviction: EvictionMode = EvictionMode.IMPLICIT
    extra_lead_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"job {self.job_id} has no stages")
        names = {s.name for s in self.stages}
        if len(names) != len(self.stages):
            raise ValueError(f"duplicate stage names in job {self.job_id}")
        for stage in self.stages:
            for dep in stage.depends_on:
                if dep not in names:
                    raise ValueError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}"
                    )
        if self.submit_time < 0 or self.extra_lead_time < 0:
            raise ValueError(f"negative times in job {self.job_id}")

    def topo_stages(self) -> list[StageSpec]:
        """Stages in dependency order (stable; raises on cycles)."""
        by_name = {s.name: s for s in self.stages}
        done: set[str] = set()
        order: list[StageSpec] = []
        for stage in self.stages:
            _visit_stage(self.job_id, by_name, stage.name, (), done, order)
        return order

    @property
    def total_map_tasks(self) -> int:
        return sum(
            1 for s in self.stages for t in s.tasks if t.kind is TaskKind.MAP
        )


def _visit_stage(
    job_id: str,
    by_name: dict[str, StageSpec],
    name: str,
    trail: tuple[str, ...],
    done: set[str],
    order: list[StageSpec],
) -> None:
    """Depth-first step of :meth:`JobSpec.topo_stages`.  A module
    function, not a closure: a recursive closure references itself
    through its cell, a cycle only the garbage collector reclaims."""
    if name in done:
        return
    if name in trail:
        raise ValueError(
            f"stage cycle in job {job_id}: {' -> '.join(trail + (name,))}"
        )
    for dep in by_name[name].depends_on:
        _visit_stage(job_id, by_name, dep, trail + (name,), done, order)
    done.add(name)
    order.append(by_name[name])


def mapreduce_job(
    job_id: str,
    input_blocks: Sequence[Block],
    input_files: Sequence[str],
    shuffle_bytes: float,
    output_bytes: float,
    map_cpu_per_byte: float = 2.0e-9,
    reduce_cpu_per_byte: float = 2.0e-9,
    task_overhead_cpu: float = 0.2,
    reducer_data_target: float = 256 * MB,
    max_reducers: int = 32,
    submit_time: float = 0.0,
    eviction: EvictionMode = EvictionMode.IMPLICIT,
    extra_lead_time: float = 0.0,
) -> JobSpec:
    """Build a canonical single-round MapReduce job.

    One mapper per input block (the Hadoop default); the mapper's local
    output is its share of the shuffle.  Reducers are sized so each
    handles about ``reducer_data_target`` of shuffle data, mirroring
    how operators pick reducer counts.
    """
    if not input_blocks:
        raise ValueError(f"job {job_id}: no input blocks")
    if shuffle_bytes < 0 or output_bytes < 0:
        raise ValueError(f"job {job_id}: negative data sizes")
    n_maps = len(input_blocks)
    mappers = tuple(
        TaskSpec(
            task_id=f"map-{i}",
            kind=TaskKind.MAP,
            block=block,
            compute_time=task_overhead_cpu + map_cpu_per_byte * block.size,
            local_output=shuffle_bytes / n_maps,
        )
        for i, block in enumerate(input_blocks)
    )
    stages = [StageSpec(name="map", tasks=mappers)]
    if shuffle_bytes > 0 or output_bytes > 0:
        n_reducers = max(
            1,
            min(max_reducers, math.ceil(max(shuffle_bytes, output_bytes) / reducer_data_target)),
        )
        reducers = tuple(
            TaskSpec(
                task_id=f"reduce-{i}",
                kind=TaskKind.REDUCE,
                intermediate_input=shuffle_bytes / n_reducers,
                compute_time=task_overhead_cpu
                + reduce_cpu_per_byte * (shuffle_bytes / n_reducers),
                dfs_output=output_bytes / n_reducers,
            )
            for i in range(n_reducers)
        )
        stages.append(
            StageSpec(name="reduce", tasks=reducers, depends_on=("map",))
        )
    return JobSpec(
        job_id=job_id,
        input_files=tuple(input_files),
        stages=tuple(stages),
        submit_time=submit_time,
        eviction=eviction,
        extra_lead_time=extra_lead_time,
    )
