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

Attempts are *interruptible*: when a speculative duplicate wins (see
:mod:`repro.compute.runtime`), the losing attempt is interrupted and
must release its slot and abort its in-flight transfer so the loser
stops consuming disk/NIC bandwidth -- exactly what killing a YARN
container does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.node import FAST_TIERS
from repro.compute.job import TaskKind, TaskSpec
from repro.compute.metrics import TaskMetrics
from repro.compute.scheduler import SlotGrant
from repro.sim.process import Interrupt

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
    runtime: "JobRuntime",
    job_id: str,
    task: TaskSpec,
    tm: TaskMetrics,
    speculative: bool = False,
    avoid_node: "int | None" = None,
):
    """Generator process running one task attempt to completion.

    ``speculative`` attempts bypass scheme read directives (a re-read
    avoids the replica the stuck sibling attempt is pinned to) and
    ``avoid_node`` keeps them off the stuck sibling's node, where they
    would only add to the contention they are escaping.
    """
    sim = runtime.sim
    tm.queued_at = sim.now
    preferred = tuple(
        n for n in _preferred_nodes(runtime, task) if n != avoid_node
    )
    slot_request = runtime.scheduler.acquire(
        preferred,
        job_id=job_id,
        banned_nodes=() if avoid_node is None else (avoid_node,),
    )
    try:
        grant: SlotGrant = yield slot_request
    except Interrupt:
        runtime.scheduler.cancel_request(slot_request)
        raise
    tm.node_id = grant.node_id
    tm.started_at = sim.now
    node = runtime.cluster.node(grant.node_id)
    try:
        if runtime.config.task_launch_overhead > 0:
            yield sim.timeout(runtime.config.task_launch_overhead)

        # ---- input ------------------------------------------------------
        if task.block is not None:
            event, source = runtime.client.read_block(
                task.block,
                reader_node=grant.node_id,
                job_id=job_id,
                honor_directives=not speculative,
            )
            try:
                yield event
            except Interrupt:
                runtime.client.cancel_read(event)
                raise
            tm.read_source = source
            tm.input_bytes = task.block.size
        elif task.intermediate_input > 0:
            if task.kind is TaskKind.REDUCE:
                # Shuffle: fan-in over this node's downlink.
                flow = node.nic.ingress.start_flow(
                    task.intermediate_input, tag=f"shuffle:{job_id}"
                )
                try:
                    yield flow.done
                except Interrupt:
                    node.nic.ingress.cancel(flow)
                    raise
            else:
                # Later-stage map reading intermediate data off disk.
                flow = node.disk.channel.start_flow(
                    task.intermediate_input, tag=f"intermediate:{job_id}"
                )
                try:
                    yield flow.done
                except Interrupt:
                    node.disk.channel.cancel(flow)
                    raise
        tm.read_done_at = sim.now

        # ---- compute ------------------------------------------------------
        if task.compute_time > 0:
            yield sim.timeout(task.compute_time)

        # ---- output -------------------------------------------------------
        if task.local_output > 0:
            flow = node.disk.channel.start_flow(
                task.local_output, tag=f"spill:{job_id}"
            )
            try:
                yield flow.done
            except Interrupt:
                node.disk.channel.cancel(flow)
                raise
        if task.dfs_output > 0:
            # The replica pipeline is not abortable mid-write (neither
            # is HDFS's); a losing attempt this late is vanishingly
            # rare because speculation targets read-stuck tasks.
            yield runtime.client.write_file(
                f"{job_id}/{task.task_id}/{'spec' if speculative else 'out'}",
                task.dfs_output,
                writer_node=grant.node_id,
                replication=task.output_replication,
            )
        tm.finished_at = sim.now
    finally:
        grant.release()
    return tm
