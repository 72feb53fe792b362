"""Fair-share bandwidth resource (processor-sharing with seek penalty).

Disks and NICs are modeled as a capacity ``C`` (bytes/second) shared
equally among the currently active flows.  Mechanical disks lose
aggregate throughput when serving concurrent streams because the head
seeks between them; we model that with an efficiency factor

.. math::

    \\text{aggregate}(k) = \\frac{C}{1 + p \\cdot (k - 1)}

where ``k`` is the number of active flows and ``p`` the seek penalty
(``p = 0`` recovers ideal processor sharing, as used for NICs and
memory).  Each flow then progresses at ``aggregate(k) / k``.

This is exactly the effect DYRS exploits and defends against: the paper
serializes slave migrations "to limit disk read concurrency" (§III-B),
and interference (``dd`` readers) steals shares of the same resource.

Implementation: virtual-time processor sharing
----------------------------------------------

Because every active flow receives the *same* instantaneous rate, the
whole resource can be described by one scalar: the cumulative per-flow
service integral

.. math::

    S(t) = \\int_0^t \\frac{\\text{aggregate}(k(\\tau))}{k(\\tau)} \\, d\\tau

(bytes delivered to any flow continuously active over the window).  A
flow that starts at time ``t0`` records its *service offset*
``S(t0)``; its remaining bytes at any later instant are

    ``remaining = nbytes - (S(t) - offset)``

an O(1) derivation, and it completes when ``S`` reaches its *virtual
finish* ``offset + nbytes``.  Pending completions sit in a min-heap
keyed by virtual finish, so a membership change (start, completion,
cancel) costs O(log k): bump ``S`` by ``rate * dt``, adjust ``k``, and
re-arm the earliest wake-up, instead of walking every active flow --
O(k) per event, O(k²) under churn.  The reference it is checked
against is the rate law itself: ``tests/sim/test_kernel_equivalence.py``
replays seeded arrival/size/cancel schedules through an engine-free
fluid model of ``aggregate(k)`` shared equally and requires the same
completion and cancel times to 1e-9 relative.

One wake-up is armed at a time: every membership change discards the
previously armed wake-up via
:meth:`repro.sim.engine.Simulator.discard` before arming the next, so
a superseded wake-up never fires and does not rot in the scheduler
heap (the engine sweeps discarded entries once they outnumber live
ones).  The wake-up's callback is the resource's bound
:meth:`BandwidthResource._on_wakeup`; it carries no state of its own.

Completions are delivered by the wake-up that finds them, with no
heap event of their own (a :class:`Flow` is itself the event its
waiters yield).  The wake-up first settles every flow finished at
that instant (detached, its overshoot refunded, removed) and re-arms
the next wake-up; only then does it process each finished flow's
``done`` in place, in flow-start order.  Waiters therefore resume
inside the wake-up's step, before any other event of the same instant,
and find the kernel consistent: the first waiter may start or cancel a
flow at once.  A zero-byte flow's ``done`` and a cancelled flow's
failure are triggered from inside the caller's step and still go
through the engine heap.

Work is conserved: total bytes delivered equals the integral of the
aggregate rate over time minus the (float-residue-sized) overshoot
refunded when a completing flow's last interval is clamped,
regardless of how flows come and go.
"""

from __future__ import annotations

# simlint: disable-file=VT402 -- the virtual-finish heap is internal to
# the fair-share kernel (keyed by (vfinish, flow id), ties broken by
# the flow's creation order), not the engine's event queue; wake-ups
# still go through Simulator.call_at.
import heapq
import math
from itertools import count
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.sim.events import URGENT_PRIORITY, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["BandwidthResource", "Flow", "FlowCancelled"]

#: Residual-byte tolerance when deciding a flow has completed.
_EPSILON_BYTES = 1e-6


class FlowCancelled(Exception):
    """Failure value delivered to waiters of a cancelled flow."""


#: ``Event``'s storage for a trigger's value, which :class:`Flow`
#: reaches past its own ``_value`` property.
_EVENT_VALUE = Event.__dict__["_value"]


class Flow(Event):
    """One active transfer on a :class:`BandwidthResource`, and the
    event of its completion.

    A flow is its own ``done`` event: it triggers when the transfer
    completes, and ``yield flow.done`` resumes with the flow itself.
    That success value is computed on read, not stored: a flow holding
    a reference to itself would be a reference cycle that only the
    garbage collector reclaims.  A cancelled flow fails with
    :class:`FlowCancelled`.

    Attributes
    ----------
    done:
        The flow itself (value on success: the flow).
    nbytes:
        Total size of the transfer (may be ``inf`` for interference
        flows that run until cancelled).
    remaining:
        Bytes still to move; derived in O(1) from the resource's
        service integral (read-only property).
    tag:
        Free-form label for metrics/debugging.
    """

    __slots__ = (
        "nbytes",
        "tag",
        "_id",
        "_offset",
        "_vfinish",
        "_resource",
        "_final_remaining",
    )

    def __init__(
        self,
        sim: "Simulator",
        nbytes: float,
        tag: str,
        flow_id: int,
        resource: Optional["BandwidthResource"] = None,
        offset: float = 0.0,
    ):
        super().__init__(sim, name=f"flow:{tag}")
        self.nbytes = float(nbytes)
        self.tag = tag
        self._id = flow_id
        #: Value of the resource's service integral when this flow
        #: started; ``remaining = nbytes - (S - offset)``.
        self._offset = offset
        #: Virtual finish service: the flow completes when S reaches it.
        self._vfinish = offset + self.nbytes
        self._resource = resource
        #: Set when the flow detaches (completion/cancel); freezes
        #: :attr:`remaining` at its final value.
        self._final_remaining: Optional[float] = None

    @property
    def done(self) -> "Flow":
        """The completion event: the flow itself."""
        return self

    @property
    def _value(self) -> Any:
        if self._ok:
            return self
        return _EVENT_VALUE.__get__(self, Flow)

    @_value.setter
    def _value(self, value: Any) -> None:
        _EVENT_VALUE.__set__(self, value)

    @property
    def remaining(self) -> float:
        """Bytes still to move (O(1); advances the owning resource)."""
        if self._final_remaining is not None:
            return self._final_remaining
        if self._resource is None:
            return self.nbytes
        if math.isinf(self.nbytes):
            return math.inf
        self._resource._advance()
        return max(0.0, self.nbytes - (self._resource._service - self._offset))

    @property
    def transferred(self) -> float:
        """Bytes moved so far (including open-ended flows)."""
        if self._final_remaining is not None and not math.isinf(self.nbytes):
            return self.nbytes - self._final_remaining
        if self._resource is None:
            return 0.0
        self._resource._advance()
        progress = self._resource._service - self._offset
        if math.isinf(self.nbytes):
            return max(0.0, progress)
        return min(self.nbytes, max(0.0, progress))

    def _detach(self, final_remaining: float) -> None:
        """Freeze progress as the flow leaves its resource."""
        self._final_remaining = final_remaining

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flow {self.tag!r} remaining={self.remaining:.3g}/{self.nbytes:.3g}>"


class BandwidthResource:
    """A fair-shared link/disk with an optional concurrency penalty.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Peak sequential throughput in bytes/second.
    seek_penalty:
        Per-extra-stream efficiency loss ``p`` (see module docstring).
        Typical HDD values: 0.3-1.0.  Use 0 for NICs/memory.
    min_efficiency:
        Aggregate-throughput floor as a fraction of capacity.  Real
        I/O schedulers batch each stream's sequential run, so the
        aggregate saturates under heavy concurrency instead of
        collapsing; 0 disables the floor.
    name:
        Label for metrics.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        seek_penalty: float = 0.0,
        min_efficiency: float = 0.0,
        name: str = "",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if seek_penalty < 0:
            raise ValueError(f"seek_penalty must be >= 0, got {seek_penalty}")
        if not 0 <= min_efficiency <= 1:
            raise ValueError(
                f"min_efficiency must be in [0, 1], got {min_efficiency}"
            )
        self.sim = sim
        self.capacity = float(capacity)
        self.seek_penalty = float(seek_penalty)
        self.min_efficiency = float(min_efficiency)
        self.name = name
        self._flows: dict[int, Flow] = {}
        self._flow_ids = count()
        self._last_update = sim.now
        #: The service integral S(t): cumulative bytes delivered to any
        #: continuously active flow since resource creation.
        self._service = 0.0
        #: Min-heap of (virtual finish, flow id) for finite flows.
        #: Entries for departed flows are dropped lazily by _head().
        self._finish_heap: list[tuple[float, int]] = []
        #: The one armed completion wake-up, if any.
        self._wakeup: Optional[Event] = None
        # Utilization accounting (busy-time integral and bytes moved).
        self._busy_time = 0.0
        self._bytes_moved = 0.0

    # -- rates -----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Number of flows currently sharing the resource."""
        return len(self._flows)

    def flows(self) -> Iterator[Flow]:
        """The currently active flows (undefined order)."""
        return iter(self._flows.values())

    def aggregate_rate(self, k: Optional[int] = None) -> float:
        """Aggregate throughput with ``k`` concurrent flows (bytes/s)."""
        if k is None:
            k = len(self._flows)
        if k <= 0:
            return 0.0
        shared = self.capacity / (1.0 + self.seek_penalty * (k - 1))
        return max(shared, self.capacity * self.min_efficiency)

    def per_flow_rate(self) -> float:
        """Throughput each active flow currently receives (bytes/s)."""
        k = len(self._flows)
        if k == 0:
            return 0.0
        return self.aggregate_rate(k) / k

    def expected_duration(self, nbytes: float, extra_flows: int = 0) -> float:
        """Time to move ``nbytes`` if load stayed as now plus ``extra_flows``.

        A planning helper only -- actual durations depend on how the
        flow population evolves.
        """
        k = len(self._flows) + extra_flows + 1
        rate = self.aggregate_rate(k) / k
        return nbytes / rate

    # -- accounting ------------------------------------------------------

    @property
    def bytes_moved(self) -> float:
        """Total bytes delivered across all completed/ongoing flows."""
        self._advance()
        return self._bytes_moved

    @property
    def busy_time(self) -> float:
        """Total time the resource had at least one active flow."""
        self._advance()
        return self._busy_time

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of wall time busy since ``since``."""
        self._advance()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / elapsed)

    def set_capacity(self, capacity: float) -> None:
        """Change peak throughput at runtime (degraded-device faults).

        Safe mid-flow: service accrued so far is settled at the old
        rate first, and the integral only uses the new capacity going
        forward, so in-flight transfers slow down (or speed up) from
        this instant without losing progress.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    # -- flow control ------------------------------------------------------

    def start_flow(self, nbytes: float, tag: str = "") -> Flow:
        """Begin a transfer of ``nbytes``; returns its :class:`Flow`.

        ``nbytes`` may be ``math.inf`` for an open-ended flow that only
        ends via :meth:`cancel` (interference generators use this).
        Zero-byte flows complete immediately.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self._advance()
        flow = Flow(
            self.sim,
            nbytes,
            tag,
            next(self._flow_ids),
            resource=self,
            offset=self._service,
        )
        if nbytes == 0:
            flow._detach(0.0)
            flow.succeed()
            return flow
        self._flows[flow._id] = flow
        if not math.isinf(flow._vfinish):
            heapq.heappush(self._finish_heap, (flow._vfinish, flow._id))
        self._reschedule()
        return flow

    def transfer(self, nbytes: float, tag: str = "") -> Event:
        """Convenience: start a flow and return its completion event."""
        return self.start_flow(nbytes, tag=tag).done

    def cancel(self, flow: Flow) -> None:
        """Abort ``flow``; its ``done`` event fails with FlowCancelled.

        Cancelling an already-finished flow is a no-op.
        """
        if flow._id not in self._flows:
            return
        self._advance()
        del self._flows[flow._id]
        if math.isinf(flow.nbytes):
            flow._detach(math.inf)
        else:
            flow._detach(
                max(0.0, flow.nbytes - (self._service - flow._offset))
            )
        flow.fail(FlowCancelled(flow.tag))
        self._reschedule()

    # -- engine internals --------------------------------------------------

    def _advance(self) -> None:
        """Accrue service since the last update -- O(1).

        No per-flow work: every active flow receives the same
        ``rate * dt``, so only the service integral and the aggregate
        byte/busy counters move.  Bytes are credited at ``k`` shares
        per interval; the overshoot a completing flow did not actually
        consume is refunded at completion (see :meth:`_on_wakeup`), so
        only bytes actually delivered are ever reported.
        """
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        k = len(self._flows)
        if dt <= 0 or k == 0:
            return
        moved = (self.aggregate_rate(k) / k) * dt
        self._service += moved
        self._busy_time += dt
        self._bytes_moved += moved * k

    def _head(self) -> Optional[Flow]:
        """Earliest-finishing active flow (drops stale heap entries)."""
        heap = self._finish_heap
        while heap:
            flow = self._flows.get(heap[0][1])
            if flow is None:
                heapq.heappop(heap)
                continue
            return flow
        return None

    def _remaining_of(self, flow: Flow) -> float:
        """Exact residual bytes of an *attached* finite flow."""
        return flow.nbytes - (self._service - flow._offset)

    def _next_completion_delay(self) -> float:
        """Seconds until the earliest flow finishes at current rates."""
        head = self._head()
        if head is None:
            return math.inf
        rate = self.per_flow_rate()
        if rate <= 0:
            return math.inf
        return max(0.0, self._remaining_of(head)) / rate

    def _reschedule(self) -> None:
        """(Re)arm the single completion wake-up.

        The old wake-up (if any) is discarded from the engine heap, so
        it can neither fire nor accumulate.
        """
        if self._wakeup is not None:
            self.sim.discard(self._wakeup)
            self._wakeup = None
        delay = self._next_completion_delay()
        if math.isinf(delay):
            return
        wakeup = Event(self.sim, name=f"bw-wakeup:{self.name}")
        wakeup.add_callback(self._on_wakeup)
        wakeup._ok = True
        self.sim._schedule(wakeup, delay, priority=URGENT_PRIORITY)
        self._wakeup = wakeup

    def _is_finished(self, flow: Flow) -> bool:
        """Completion test robust to float residue.

        A flow is done when its residual bytes are negligible -- in
        absolute terms, relative to the flow size, or (the backstop)
        when draining them would not advance the simulation clock at
        all, which would otherwise re-arm a zero-delay wake-up forever.
        """
        remaining = self._remaining_of(flow)
        if remaining <= _EPSILON_BYTES:
            return True
        if remaining <= 1e-9 * flow.nbytes:
            return True
        rate = self.per_flow_rate()
        now = self.sim.now
        return rate > 0 and now + remaining / rate <= now

    def _on_wakeup(self, _wakeup: Event) -> None:
        """Settle the flows finished now, re-arm, then deliver them."""
        self._wakeup = None
        self._advance()
        finished: list[Flow] = []
        while True:
            head = self._head()
            if head is None or not self._is_finished(head):
                break
            heapq.heappop(self._finish_heap)
            del self._flows[head._id]
            finished.append(head)
        # Same-instant completions go in flow-start order, so ties
        # break by admission rather than by heap layout.
        finished.sort(key=lambda f: f._id)
        for flow in finished:
            # Refund the share credited beyond the flow's actual size
            # in its final interval (the clamped residue).
            overshoot = (self._service - flow._offset) - flow.nbytes
            if overshoot > 0:
                self._bytes_moved -= overshoot
            flow._detach(0.0)
        self._reschedule()
        # Deliver in place, only now that the kernel is settled and
        # re-armed: waiters resume inside this step and may start or
        # cancel flows here at once.
        for flow in finished:
            flow._fire(True, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BandwidthResource {self.name!r} cap={self.capacity:.3g}B/s "
            f"flows={len(self._flows)}>"
        )
