"""Task execution: the resource-charging heart of the compute model.

A map task's life (matching §II's anatomy of the input stage):

1. wait for a slot (queueing -> lead-time);
2. container launch overhead (JVM start etc., §II-C1);
3. read the input block through the DFS client -- served from local
   memory, remote memory, or disk depending on migration state; this
   is the part DYRS accelerates;
4. compute (filter/aggregate);
5. spill map output to the local disk.

A reduce task shuffles its partition over its NIC, computes, and
writes job output through the DFS replica pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.node import FAST_TIERS
from repro.compute.job import TaskKind, TaskSpec
from repro.compute.metrics import TaskMetrics
from repro.compute.scheduler import SlotGrant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compute.runtime import JobRuntime

__all__ = ["execute_task"]


def _preferred_nodes(runtime: "JobRuntime", task: TaskSpec) -> tuple[int, ...]:
    """Locality preference for the slot request.

    The node holding the in-memory replica first (a memory-local read
    beats everything), then the SSD-cache holder (tiered extension;
    the directory is empty under the paper's schemes), then the disk
    replica holders.
    """
    if task.block is None:
        return ()
    directory = runtime.client.namenode.directory
    holders = [directory[rung].get(task.block.block_id) for rung in FAST_TIERS]
    holders.extend(task.block.replica_nodes)
    return tuple(dict.fromkeys(n for n in holders if n is not None))


def execute_task(
    runtime: "JobRuntime", job_id: str, task: TaskSpec, tm: TaskMetrics
):
    """Generator process running one task to completion."""
    sim = runtime.sim
    tm.queued_at = sim.now
    grant: SlotGrant = yield runtime.scheduler.acquire(
        _preferred_nodes(runtime, task), job_id=job_id
    )
    tm.node_id = grant.node_id
    tm.started_at = sim.now
    node = runtime.cluster.node(grant.node_id)
    try:
        if runtime.config.task_launch_overhead > 0:
            yield sim.timeout(runtime.config.task_launch_overhead)

        # ---- input ------------------------------------------------------
        if task.block is not None:
            event, source = runtime.client.read_block(
                task.block, reader_node=grant.node_id, job_id=job_id
            )
            yield event
            tm.read_source = source
            tm.input_bytes = task.block.size
        elif task.intermediate_input > 0:
            if task.kind is TaskKind.REDUCE:
                # Shuffle: fan-in over this node's downlink.
                yield node.nic.ingress.transfer(
                    task.intermediate_input, tag=f"shuffle:{job_id}"
                )
            else:
                # Later-stage map reading intermediate data off disk.
                yield node.disk.channel.transfer(
                    task.intermediate_input, tag=f"intermediate:{job_id}"
                )
        tm.read_done_at = sim.now

        # ---- compute ------------------------------------------------------
        if task.compute_time > 0:
            yield sim.timeout(task.compute_time)

        # ---- output -------------------------------------------------------
        if task.local_output > 0:
            yield node.disk.channel.transfer(
                task.local_output, tag=f"spill:{job_id}"
            )
        if task.dfs_output > 0:
            yield runtime.client.write_file(
                f"{job_id}/{task.task_id}/out",
                task.dfs_output,
                writer_node=grant.node_id,
                replication=task.output_replication,
            )
        tm.finished_at = sim.now
    finally:
        grant.release()
    return tm
