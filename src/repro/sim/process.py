"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` must
produce an :class:`~repro.sim.events.Event`; the process suspends until
that event is processed, then resumes with the event's value (or the
event's exception thrown into the generator if the event failed).

Starting
--------

:meth:`~repro.sim.engine.Simulator.process` runs the generator to its
first ``yield`` before it returns: there is no start-up event.  A
process may spawn others; each child's first step runs inside its
spawner's step, before the spawner continues.  Because the first step
has already run, a generator that finishes without yielding returns a
dead handle -- code that stores the handle and lets the generator
clear it must not overwrite a cleared slot with it.

Exiting
-------

A process is itself an event: it triggers when the generator returns
(successfully, with the generator's return value) or raises (failed).
This lets processes wait on each other: ``yield other_process``.  The
exit schedules nothing: the step that ends the generator triggers and
processes the process's event in place, whether or not anything waits
on it.  Waiters therefore resume inside that step, at the exit instant
and before any other event of the same instant; a later ``yield proc``
(or ``add_callback``) still sees the value or exception at once,
because callbacks added to a processed event run immediately.

Interrupts
----------

:meth:`Process.interrupt` throws an :class:`Interrupt` exception into
the generator at the point of its current ``yield``.  The process stops
waiting on its current target event (the event itself is unaffected and
may still trigger later).  Interrupting is how the cluster model stops
background interference readers and aborts doomed migrations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        The object passed to ``interrupt``; identifies why.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator, resumable on events it yields.

    Do not instantiate directly; use
    :meth:`repro.sim.engine.Simulator.process`.
    """

    __slots__ = ("_generator", "_target", "_control")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        #: The pending interrupt carrier, the one engine-internal event
        #: allowed to resume us besides the target.  Resumes from any
        #: event that is neither are stale (e.g. the pre-interrupt
        #: target firing later) and are ignored.
        self._control: Optional[Event] = None
        self._step(True, None)

    # -- state ---------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._ok is None

    @property
    def target(self) -> Optional[Event]:
        """The event currently being waited on (``None`` if not waiting)."""
        return self._target

    # -- control -------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next step.

        No-op semantics: interrupting a dead process raises, because it
        always indicates a bookkeeping bug in the caller.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self!r}")
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        # Deliver through a freshly failed event so ordering relative
        # to other same-time events stays deterministic.
        carrier = Event(self.sim)
        carrier.add_callback(self._resume)
        carrier._ok = False
        carrier._value = Interrupt(cause)
        self.sim._schedule(carrier)
        self._control = carrier

    # -- engine plumbing -------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator by one step on ``event`` (engine internal).

        Ignores stale wake-ups: once the process has finished, or when
        the event is neither the current wait target nor the pending
        interrupt carrier.  Stale events arise when an interrupt
        preempts a wait whose original event fires later anyway.
        """
        if self._ok is not None:
            return
        if event is not self._target:
            if event is not self._control:
                return
            self._control = None
        self._target = None
        self._step(event._ok, event._value)

    def _step(self, ok: bool, value: Any) -> None:
        """Send ``value`` into the generator (or throw it, if not ``ok``)
        and wait on whatever it yields next."""
        try:
            if ok:
                yielded = self._generator.send(value)
            else:
                yielded = self._generator.throw(value)
        except StopIteration as stop:
            ok, value = True, stop.value
        except BaseException as exc:
            ok, value = False, exc
        else:
            if not isinstance(yielded, Event):
                # Fail the process with a clear diagnostic instead of
                # letting a bare value wedge the generator forever.
                error = TypeError(
                    f"process {self.name or self._generator!r} yielded "
                    f"{yielded!r}; processes must yield Event instances"
                )
            elif yielded.sim is not self.sim:
                error = ValueError("yielded event belongs to a different Simulator")
            else:
                self._target = yielded
                yielded.add_callback(self._resume)
                return
            self._generator.close()
            ok, value = False, error
        # Exit outside the handler: waiters resume in place, and must
        # not run inside it (their exceptions would chain to ours).
        self._fire(ok, value)
