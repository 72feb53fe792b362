"""Counted resources: a SimPy-style slot primitive.

:class:`Resource` holds ``capacity`` interchangeable slots.  Requests
queue by priority, FIFO among equals, and all waiting is expressed
through events so processes simply ``yield resource.request()``.
"""

from __future__ import annotations

# simlint: disable-file=VT402 -- the FIFO/priority request queue is a
# kernel-internal heap keyed by (priority, seq), not the event queue;
# seq is a local monotonic counter, so pop order is already total.
import heapq
from itertools import count
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot.

    Usable as a context manager::

        req = resource.request()
        yield req
        try:
            ...   # hold the slot
        finally:
            resource.release(req)
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority


class Resource:
    """``capacity`` interchangeable slots with FIFO queuing."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name
        self._users: set[Request] = set()
        self._queue: list[tuple[int, int, Request]] = []
        self._seq = count()

    # -- introspection ---------------------------------------------------

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    # -- protocol --------------------------------------------------------

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        req = Request(self, priority=priority)
        heapq.heappush(self._queue, (priority, next(self._seq), req))
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot.

        Releasing an ungranted (still-queued) request cancels it.
        """
        if request in self._users:
            self._users.remove(request)
            self._grant()
        else:
            # Cancel a queued request: lazily mark and skip at grant time.
            request.resource = None  # type: ignore[assignment]

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            _prio, _seq, req = heapq.heappop(self._queue)
            if req.resource is None:  # cancelled while queued
                continue
            self._users.add(req)
            req.succeed(req)
