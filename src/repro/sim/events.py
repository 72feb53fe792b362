"""Event primitives for the simulation kernel.

An :class:`Event` is the unit of synchronization: processes yield
events and are resumed when the event *triggers*.  Events trigger at a
specific simulation time, either successfully (carrying a value) or
with a failure (carrying an exception).

Trigger/processing model
------------------------

Events move through three states:

``pending``
    Created but not yet scheduled to trigger.
``triggered``
    :meth:`Event.succeed` or :meth:`Event.fail` has been called; the
    event sits in the simulator's heap waiting for its turn.
``processed``
    The simulator has popped the event and run its callbacks.

Callbacks appended after processing would never run, so
:meth:`Event.add_callback` invokes them immediately in that case (at
the current simulation time).  This makes ``yield``-ing an
already-processed event safe.

Only events that model something pass through the heap: timeouts,
explicitly triggered events (slot grants, work and space signals),
interrupt carriers, ``call_at`` and bandwidth-kernel wake-ups, and the
``done`` of a zero-byte or cancelled flow.  An event triggered from
inside another process's step keeps its heap trip, so it runs after
the events already queued for that instant.  Three kinds of event skip
the ``triggered`` state and go straight to ``processed`` at the current
time, inside the step that decides them, costing no simulator step
(:meth:`Event._fire` is the one spelling of that):

* a condition (:class:`AllOf`) is processed inside the callback of
  the constituent that decides it;
* a process's exit, whether or not anything waits on it (see
  :mod:`repro.sim.process`, which also explains why starting a process
  schedules nothing);
* a finished flow's ``done``, inside the kernel wake-up that finds it
  finished (see :mod:`repro.sim.bandwidth`).

Their waiters therefore resume before any other event of the same
instant.

The events of one instant run in three bands: urgent engine
bookkeeping (bandwidth re-sharing), then normal events, then the
trailing band (:meth:`~repro.sim.engine.Simulator.trailing_at`),
ordered by rank.  Two kinds of event use the trailing band: the
slave's poll events, and the master's retarget tick at the reserved
rank :data:`~repro.core.master.RETARGET_RANK` (-1), which runs first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "EventAlreadyTriggered",
    "NORMAL_PRIORITY",
    "URGENT_PRIORITY",
    "TRAILING_PRIORITY",
]

#: Default scheduling priority for events triggering at the same time.
NORMAL_PRIORITY = 1
#: Priority used for engine-internal bookkeeping that must run before
#: user events at the same timestamp (e.g. bandwidth re-sharing).
URGENT_PRIORITY = 0
#: The trailing band: events scheduled with
#: :meth:`~repro.sim.engine.Simulator.trailing_at`, which run after
#: every urgent and normal event of their instant, in rank order.
TRAILING_PRIORITY = 2


class EventAlreadyTriggered(RuntimeError):
    """Raised when ``succeed``/``fail`` is called on a triggered event."""


class Event:
    """A one-shot synchronization point.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = (
        "sim",
        "name",
        "callbacks",
        "_value",
        "_ok",
        "_processed",
        "_discarded",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._processed = False
        #: Set by :meth:`Simulator.discard`; a discarded event is
        #: skipped by the run loop and reclaimed from the heap lazily.
        self._discarded = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully.

        Only meaningful when :attr:`triggered` is true.
        """
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception.

        Raises
        ------
        RuntimeError
            If the event has not triggered yet.
        """
        if self._ok is None:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` sim-seconds."""
        if self._ok is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed, carrying ``exception``.

        A failed event re-raises ``exception`` inside every process
        waiting on it.
        """
        if self._ok is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    # -- callbacks -----------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event was already processed the callback runs
        immediately (synchronously).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Unregister a callback previously added (no-op if absent)."""
        if self.callbacks is not None:
            try:
                self.callbacks.remove(callback)
            except ValueError:
                pass

    def _process(self) -> None:
        """Run callbacks; invoked by the simulator exactly once."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def _fire(self, ok: bool, value: Any) -> None:
        """Trigger and process in place: waiters resume inside the
        caller's step, without a trip through the heap."""
        self._ok = ok
        self._value = value
        self._process()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation.

    ``yield sim.timeout(5)`` suspends the yielding process for five
    simulated seconds.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        name: str = "",
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=name)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        sim._schedule(self, self.delay)


class _Condition(Event):
    """Common machinery of condition events (:class:`AllOf`)."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        #: The constituents while the condition is pending; emptied
        #: when it fires (see :meth:`_fire`).
        self.events: tuple[Event, ...] = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same Simulator")
        self._remaining = len(self.events)
        if not self.events:
            self._fire(True, {})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _fire(self, ok: bool, value: Any) -> None:
        # Release the constituents.  One that has not fired still holds
        # our ``_check``, and with our reference back to it the pair
        # would be a cycle only the garbage collector can reclaim --
        # on an idle poll loop, one per wait.
        self.events = ()
        super()._fire(ok, value)

    def _collect(self) -> dict[Event, Any]:
        """Values of all constituent events processed so far.

        ``processed`` (not ``triggered``) is the right filter: a
        Timeout is born triggered but only counts once the clock has
        actually reached it.
        """
        return {e: e._value for e in self.events if e.processed and e.ok}


class AllOf(_Condition):
    """Triggers when *all* constituent events have triggered.

    The value is a dict mapping each event to its value.  Fails as soon
    as any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self._fire(False, event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._fire(True, self._collect())
