"""Slot-based task scheduling with locality preference.

Each worker node offers ``task_slots`` containers.  Tasks queue FIFO
at the scheduler; when slots free up, the scheduler grants the oldest
waiting request, preferring a free slot on one of the task's
*preferred* nodes (the nodes holding its input replica) but falling
back to any free node -- standard capacity-scheduler behaviour.  The
queueing this produces is the paper's main lead-time source (§II-C1).

**Delay scheduling** (Zaharia et al., optional): with a nonzero
``locality_delay`` a request whose preferred nodes are all busy waits
up to that long for one to free before accepting a non-local slot,
trading a little latency for data-locality.  Off by default to match
the strict capacity-scheduler behaviour the experiments are calibrated
against.

The scheduler also answers "which jobs are active?" for the DYRS
memory-pressure GC (§III-C3).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Optional, Sequence

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Cluster

__all__ = ["TaskScheduler", "SlotGrant"]


class SlotGrant:
    """A granted task slot; release it when the task finishes."""

    __slots__ = ("node_id", "_scheduler", "_released")

    def __init__(self, node_id: int, scheduler: "TaskScheduler") -> None:
        self.node_id = node_id
        self._scheduler = scheduler
        self._released = False

    def release(self) -> None:
        if self._released:
            raise RuntimeError("slot already released")
        self._released = True
        self._scheduler._release(self.node_id)


class _SlotRequest:
    __slots__ = ("preferred", "event", "queued_since", "wakeup_armed")

    def __init__(
        self, preferred: tuple[int, ...], event: Event, queued_since: float
    ):
        self.preferred = preferred
        self.event = event
        self.queued_since = queued_since
        #: Whether the dispatch at the end of this request's locality
        #: delay is already scheduled (one per request suffices).
        self.wakeup_armed = False


class TaskScheduler:
    """Cluster-wide FIFO slot scheduler (optionally delay-scheduling)."""

    def __init__(self, cluster: "Cluster", locality_delay: float = 0.0) -> None:
        if locality_delay < 0:
            raise ValueError(f"locality_delay must be >= 0, got {locality_delay}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.locality_delay = locality_delay
        self._free: dict[int, int] = {
            node.node_id: node.spec.task_slots for node in cluster.nodes
        }
        #: Cached ``sum(self._free.values())``, kept exact by the two
        #: mutation sites (grant / release).  The dispatch loop reads
        #: it per iteration; at 1k nodes the recomputed sum dominated.
        self._total_free = sum(self._free.values())
        #: Lazy max-heap of ``(-free, node_id)`` snapshots for the
        #: non-local fallback pick.  Entries go stale when a node's
        #: free count changes; :meth:`_pick_most_free` discards them on
        #: pop (the usual lazy-deletion heap).
        self._free_heap: list[tuple[int, int]] = [
            (-free, node_id) for node_id, free in self._free.items()
        ]
        heapq.heapify(self._free_heap)
        self._queue: deque[_SlotRequest] = deque()
        self._active_jobs: dict[str, int] = {}
        #: Grants that went to a preferred node vs. anywhere (locality
        #: accounting, used by the delay-scheduling ablation).
        self.local_grants = 0
        self.nonlocal_grants = 0

    # -- job registry (for GC, §III-C3) ------------------------------------------

    def job_started(self, job_id: str) -> None:
        """Mark ``job_id`` active (called at submission)."""
        self._active_jobs[job_id] = self._active_jobs.get(job_id, 0) + 1

    def job_finished(self, job_id: str) -> None:
        """Mark ``job_id`` finished."""
        count = self._active_jobs.get(job_id, 0) - 1
        if count <= 0:
            self._active_jobs.pop(job_id, None)
        else:
            self._active_jobs[job_id] = count

    def active_job_ids(self) -> list[str]:
        """Currently active jobs -- the DYRS GC's ground truth."""
        return list(self._active_jobs)

    # -- slots ---------------------------------------------------------------------

    @property
    def total_free_slots(self) -> int:
        return self._total_free

    def acquire(
        self, preferred_nodes: Sequence[int] = (), job_id: str = ""
    ) -> Event:
        """Request a slot; the event triggers with a :class:`SlotGrant`."""
        event = Event(self.sim, name=f"slot:{job_id}")
        self._queue.append(
            _SlotRequest(tuple(preferred_nodes), event, queued_since=self.sim.now)
        )
        self._dispatch()
        return event

    def _release(self, node_id: int) -> None:
        free = self._free[node_id] + 1
        self._free[node_id] = free
        self._total_free += 1
        heapq.heappush(self._free_heap, (-free, node_id))
        self._dispatch()

    def _pick_node(self, preferred: tuple[int, ...]) -> Optional[int]:
        for node_id in preferred:
            if self._free.get(node_id, 0) > 0 and self.cluster.node(node_id).alive:
                return node_id
        # Fallback: the node with the most free slots, so placement
        # without locality spreads like a capacity scheduler instead of
        # piling onto the lowest node id.
        return self._pick_most_free()

    def _pick_most_free(self) -> Optional[int]:
        """Max-free pick off the lazy heap; ties to the lowest node id
        (the order the linear scan over ascending node ids produced).

        Stale snapshots are dropped on pop; accurate entries for dead
        nodes are set aside and re-pushed, so a node that recovers with
        slots still free remains reachable.
        """
        heap = self._free_heap
        free_map = self._free
        node = self.cluster.node
        skipped: list[tuple[int, int]] = []
        best: Optional[int] = None
        while heap:
            neg_free, node_id = heap[0]
            if -neg_free != free_map[node_id]:
                heapq.heappop(heap)  # stale snapshot
                continue
            if neg_free == 0:
                break  # 0 slots everywhere from here down
            if not node(node_id).alive:
                skipped.append(heapq.heappop(heap))
                continue
            best = node_id
            break
        for entry in skipped:
            heapq.heappush(heap, entry)
        return best

    def _try_grant(self, request: _SlotRequest) -> bool:
        """Attempt to place one request per the locality-delay policy."""
        node_id = self._pick_node(request.preferred)
        if node_id is None:
            return False
        is_preferred = node_id in request.preferred or not request.preferred
        if not is_preferred and self.locality_delay > 0:
            # Hold out for a preferred slot; re-check at the deadline in
            # case nothing else triggers a dispatch.  Compare against
            # the wake-up instant itself: ``now - queued_since`` can
            # round below the delay there (0.8 - 0.7 < 0.1), and the
            # one wake-up would then find the request still waiting.
            deadline = request.queued_since + self.locality_delay
            if self.sim.now < deadline:
                if not request.wakeup_armed:
                    request.wakeup_armed = True
                    self.sim.call_at(deadline, self._dispatch)
                return False
        free = self._free[node_id] - 1
        self._free[node_id] = free
        self._total_free -= 1
        heapq.heappush(self._free_heap, (-free, node_id))
        if is_preferred:
            self.local_grants += 1
        else:
            self.nonlocal_grants += 1
        request.event.succeed(SlotGrant(node_id, self))
        return True

    def _dispatch(self) -> None:
        """Grant queued requests while slots are available.

        FIFO, with one exception: a request deliberately waiting out
        its locality delay does not block younger requests (delay
        scheduling's whole point is to let others jump ahead).  With
        ``locality_delay == 0`` this degenerates to strict FIFO, since
        an ungrantable head means no free slots for anyone behind it
        either.
        """
        index = 0
        queue = self._queue
        while index < len(queue):
            request = queue[index]
            if self._try_grant(request):
                queue.remove(request)
                continue
            if self.total_free_slots == 0:
                return
            index += 1
