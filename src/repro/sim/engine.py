"""The simulation engine: clock, event heap, and run loop.

The :class:`Simulator` owns simulated time.  Events are scheduled into
a binary heap keyed by ``(time, priority, sequence)`` -- the sequence
number makes ordering of same-time, same-priority events FIFO and the
whole simulation deterministic.

Three bands share an instant, in order: urgent engine bookkeeping,
normal events, and the *trailing band* (:meth:`Simulator.trailing_at`).
A trailing event's key is ``(time, TRAILING_PRIORITY, (rank, seq))``:
it runs after every urgent and normal event of its instant, and the
band runs in ``rank`` order, sequence breaking ties.  A rank is drawn
from the same counter as sequence numbers (:meth:`Simulator.draw_rank`)
and may be reused for many events, so a caller can schedule an event
now that pops exactly where one it would have scheduled earlier under
the same rank would have popped, and can ask whether such an event
would have popped already (:meth:`Simulator.trailing_ran`) -- the
slave's poll events, whose parked re-poll chains are rebuilt that way
(:mod:`repro.core.slave`).  The master's retarget tick runs in the
band too, under the reserved rank
:data:`~repro.core.master.RETARGET_RANK` (-1), below every drawn rank
(:mod:`repro.core.master`).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Optional

from repro.sim.events import NORMAL_PRIORITY, TRAILING_PRIORITY, Event, Timeout
from repro.sim.process import Process

__all__ = ["Simulator", "StopSimulation"]

#: Position of a run that has processed every event of its instant:
#: past every band.
_INSTANT_DONE = TRAILING_PRIORITY + 1


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class Simulator:
    """A deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc():
    ...     yield sim.timeout(3)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc())
    >>> sim.run()
    >>> log
    [3.0]
    """

    #: Minimum number of discarded entries before a heap compaction is
    #: even considered (avoids rebuild churn on tiny heaps).
    COMPACT_MIN_DISCARDED = 64

    def __init__(self) -> None:
        self._now: float = 0.0
        #: ``(time, priority, tiebreak, event)``; the tiebreak is the
        #: sequence number, or ``(rank, seq)`` in the trailing band.
        self._heap: list[tuple[float, int, object, Event]] = []
        self._seq = count()
        self._n_discarded = 0
        #: How far the run has come: the highest heap entry processed,
        #: or ``(now, _INSTANT_DONE)`` once :meth:`run` has processed
        #: every event up to ``now``.
        self._position: tuple = (0.0, -1)
        #: Total events processed by :meth:`step` over the simulator's
        #: lifetime -- the numerator of the events/sec throughput
        #: metric the scale benchmarks report.
        self.steps: int = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event creation ------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``; its first
        step runs before this returns."""
        return Process(self, generator, name=name)

    def call_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = NORMAL_PRIORITY,
    ) -> Event:
        """Schedule ``callback()`` to run at absolute time ``when``.

        Returns the underlying event; pass it to :meth:`discard` to
        cancel before it fires (a discarded event never pops).
        """
        if when < self._now:
            raise ValueError(f"call_at into the past: {when} < {self._now}")
        event = Event(self)
        event.add_callback(lambda _e: callback())
        event._ok = True
        self._schedule(event, when - self._now, priority=priority)
        return event

    def trailing_at(self, when: float, rank: int) -> Event:
        """A triggered event that pops at absolute time ``when`` in the
        trailing band: after every urgent and normal event of that
        instant, in ``rank`` order among the band (see the module
        docstring).  Cancel it with :meth:`discard`.
        """
        if when < self._now:
            raise ValueError(f"trailing_at into the past: {when} < {self._now}")
        event = Event(self)
        event._ok = True
        seq = next(self._seq)
        heapq.heappush(self._heap, (when, TRAILING_PRIORITY, (rank, seq), event))
        return event

    def draw_rank(self) -> int:
        """A fresh rank for :meth:`trailing_at`: the next sequence
        number, so ranks drawn later sort later."""
        return next(self._seq)

    def trailing_ran(self, when: float, rank: int) -> bool:
        """Whether an event :meth:`trailing_at` had scheduled earlier at
        ``when`` under ``rank`` would have popped by now, i.e. whether
        the run's position is past its key: inside an urgent or normal
        event of ``when``, not yet, unless that instant's band already
        ran; between runs, once :meth:`run` has processed every event
        of ``when``, yes."""
        return (when, TRAILING_PRIORITY, (rank,)) < self._position

    # -- scheduling ----------------------------------------------------

    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL_PRIORITY
    ) -> None:
        """Insert a triggered event into the heap (engine internal)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(
            self._heap, (self._now + delay, priority, next(self._seq), event)
        )

    def discard(self, event: Event) -> None:
        """Cancel a scheduled event before it fires.

        The event is marked dead immediately -- it will never process
        and its callbacks never run -- and its heap slot is reclaimed
        lazily: dropped when it surfaces at the heap top, or swept in
        bulk once dead entries outnumber live ones (so a scheduler
        churning through wake-ups cannot grow the heap without bound).
        Discarding an untriggered, processed or already-discarded
        event is a no-op.
        """
        if event._ok is None or event._discarded or event._processed:
            return
        event._discarded = True
        self._n_discarded += 1
        if (
            self._n_discarded >= self.COMPACT_MIN_DISCARDED
            and self._n_discarded * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without discarded entries.

        Safe at any point: entry keys are unique (every key ends in a
        sequence number from a global counter, trailing-band keys
        included), so the rebuilt heap pops in exactly the same order
        as the old one.
        """
        self._heap = [entry for entry in self._heap if not entry[3]._discarded]
        heapq.heapify(self._heap)
        self._n_discarded = 0

    @property
    def pending_events(self) -> int:
        """Live (non-discarded) events still scheduled."""
        return len(self._heap) - self._n_discarded

    # -- run loop ------------------------------------------------------

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Discarded entries surfacing at the heap top are dropped here.
        """
        heap = self._heap
        while heap and heap[0][3]._discarded:
            heapq.heappop(heap)
            self._n_discarded -= 1
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process the single next live event.

        Raises
        ------
        IndexError
            If no live event remains.
        """
        heap = self._heap
        while True:
            entry = heapq.heappop(heap)
            event = entry[3]
            if event._discarded:
                self._n_discarded -= 1
                continue
            break
        self._now = entry[0]
        if entry > self._position:
            # An event scheduled for the current instant after its later
            # bands ran pops with a lower key; the run does not go back.
            self._position = entry
        self.steps += 1
        event._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if no event fires there, so back-to-back
        ``run(until=...)`` calls observe a monotonic clock.
        """
        if until is not None and until < self._now:
            raise ValueError(f"run until the past: {until} < {self._now}")
        try:
            while self.peek() != float("inf"):
                if until is not None and self._heap[0][0] > until:
                    break
                self.step()
        except StopSimulation:
            return
        if until is not None and self._now < until:
            self._now = until
        self._position = (self._now, _INSTANT_DONE)

    def run_until_processed(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises
        ------
        RuntimeError
            If the heap drains or ``limit`` is reached first.
        """
        while not event.processed:
            if self.peek() > limit or not self._heap:
                raise RuntimeError(
                    f"simulation ended at t={self._now:.6g} before {event!r} processed"
                )
            self.step()
        if event.ok:
            return event.value
        raise event.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6g} pending={self.pending_events}>"
