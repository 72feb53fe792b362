"""Unit tests for the Simulator run loop and Process semantics."""

import pytest

from repro.sim import Interrupt, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestSimulatorClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=10)
        assert sim.now == 10.0

    def test_run_until_past_raises(self, sim):
        sim.run(until=5)
        with pytest.raises(ValueError):
            sim.run(until=1)

    def test_run_until_does_not_process_later_events(self, sim):
        fired = []
        t = sim.timeout(10)
        t.add_callback(lambda e: fired.append(sim.now))
        sim.run(until=5)
        assert fired == []
        sim.run()
        assert fired == [10.0]

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4)
        assert sim.peek() == 4.0

    def test_call_at(self, sim):
        seen = []
        sim.call_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_call_at_past_raises(self, sim):
        sim.run(until=3)
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)

    def test_run_until_processed(self, sim):
        def proc():
            yield sim.timeout(2)
            return "answer"

        p = sim.process(proc())
        assert sim.run_until_processed(p) == "answer"
        assert sim.now == 2.0

    def test_run_until_processed_raises_when_starved(self, sim):
        ev = sim.event()  # never triggered
        with pytest.raises(RuntimeError):
            sim.run_until_processed(ev)


class TestProcess:
    def test_sequential_timeouts(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(1)
            trace.append(sim.now)
            yield sim.timeout(2)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_process_return_value_is_event_value(self, sim):
        def inner():
            yield sim.timeout(1)
            return 99

        def outer(results):
            value = yield sim.process(inner())
            results.append(value)

        results = []
        sim.process(outer(results))
        sim.run()
        assert results == [99]

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield 42

        p = sim.process(bad())
        sim.run()
        assert p.triggered and not p.ok
        assert isinstance(p.value, TypeError)

    def test_yield_foreign_event_fails_process(self, sim):
        other = Simulator()

        def bad():
            yield other.timeout(1)

        p = sim.process(bad())
        sim.run()
        assert not p.ok
        assert isinstance(p.value, ValueError)

    def test_exception_in_process_fails_it(self, sim):
        def boom():
            yield sim.timeout(1)
            raise KeyError("kaput")

        p = sim.process(boom())
        sim.run()
        assert not p.ok
        assert isinstance(p.value, KeyError)

    def test_failed_event_raises_inside_waiter(self, sim):
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        ev.fail(RuntimeError("bad news"))
        sim.run()
        assert caught == ["bad news"]

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_two_processes_interleave_deterministically(self, sim):
        trace = []

        def ticker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                trace.append((sim.now, name))

        sim.process(ticker("a", 1))
        sim.process(ticker("b", 1))
        sim.run()
        assert trace == [
            (1.0, "a"), (1.0, "b"),
            (2.0, "a"), (2.0, "b"),
            (3.0, "a"), (3.0, "b"),
        ]


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                causes.append((sim.now, intr.cause))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(2)
            p.interrupt(cause="wakeup")

        sim.process(interrupter())
        sim.run()
        assert causes == [(2.0, "wakeup")]

    def test_interrupted_process_can_continue(self, sim):
        trace = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(1)
            trace.append(sim.now)

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(5)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert trace == [6.0]

    def test_interrupt_dead_process_raises(self, sim):
        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_original_target_unaffected_by_interrupt(self, sim):
        """The event a process was waiting on still triggers normally."""
        target = sim.timeout(10, value="payload")

        def sleeper():
            try:
                yield target
            except Interrupt:
                pass

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert target.processed and target.ok
        assert target.value == "payload"

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(1)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_stale_target_does_not_resume_finished_process(self, sim):
        """Regression: a process that catches an Interrupt and returns
        must not be re-resumed when its abandoned wait target fires."""
        def loop():
            try:
                while True:
                    yield sim.timeout(5)
            except Interrupt:
                return "stopped"

        p = sim.process(loop())
        sim.run(until=1)  # generator is now parked on the t=6 timeout

        def stopper():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(stopper())
        sim.run()  # the stale t=6 timeout still fires; must be ignored
        assert p.processed and p.ok
        assert p.value == "stopped"

    def test_stale_target_does_not_resume_continuing_process(self, sim):
        """Regression: after an interrupt, the abandoned target must
        not deliver a second resume to the still-running generator."""
        resumes = []

        def worker():
            try:
                yield sim.timeout(10)  # will be interrupted at t=1
            except Interrupt:
                pass
            # now wait on a fresh event; the stale t=10 timeout fires
            # in between and must not break this wait.
            yield sim.timeout(20)
            resumes.append(sim.now)

        p = sim.process(worker())

        def interrupter():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert resumes == [21.0]

    def test_uncaught_interrupt_right_after_start_fails_process(self, sim):
        """A process interrupted before the clock moves has already run
        to its first yield; an Interrupt it does not catch fails it."""
        def proc():
            yield sim.timeout(1)
            return "ran"

        p = sim.process(proc())
        p.interrupt(cause="early")
        sim.run()
        assert p.processed and not p.ok
        assert isinstance(p.value, Interrupt)

    def test_interrupt_freshly_started_process_lands_at_first_yield(self, sim):
        trace = []

        def sleeper():
            trace.append("started")
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                trace.append((sim.now, intr.cause))
            yield sim.timeout(1)
            trace.append(sim.now)

        p = sim.process(sleeper())
        p.interrupt(cause="early")
        assert trace == ["started"]
        sim.run()
        assert trace == ["started", (0.0, "early"), 1.0]
        assert p.processed and p.ok


class TestDirectStart:
    """``sim.process`` runs the generator to its first yield at once."""

    def test_first_step_runs_before_process_returns(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(1)
            trace.append(sim.now)

        sim.process(proc())
        assert trace == [0.0]
        # Only the timeout is scheduled: there is no start-up event.
        assert sim.pending_events == 1
        sim.run()
        assert trace == [0.0, 1.0]

    def test_nested_spawn_runs_child_first_step_at_once(self, sim):
        trace = []

        def inner():
            trace.append("inner")
            yield sim.timeout(1)
            trace.append("inner resumed")

        def outer():
            trace.append("outer before")
            sim.process(inner())
            trace.append("outer after")
            yield sim.timeout(1)
            trace.append("outer resumed")

        sim.process(outer())
        assert trace == ["outer before", "inner", "outer after"]
        sim.run()
        assert trace[3:] == ["inner resumed", "outer resumed"]

    def test_generator_finishing_without_yield_is_dead_on_return(self, sim):
        def proc():
            return "done"
            yield  # pragma: no cover - makes this a generator

        p = sim.process(proc())
        assert not p.is_alive
        assert p.processed and p.value == "done"
        assert sim.pending_events == 0


class TestUnawaitedExit:
    """A process exits in place, costing no step, whether or not
    anything waits on it."""

    def test_unawaited_exit_adds_no_step(self, sim):
        def proc():
            yield sim.timeout(1)
            return 5

        p = sim.process(proc())
        sim.run()
        assert sim.steps == 1  # the timeout only
        assert p.processed and p.value == 5

    def test_awaited_exit_resumes_waiter_in_place(self, sim):
        def inner(fail):
            yield sim.timeout(1)
            if fail:
                raise KeyError("kaput")
            return 5

        got = []

        def outer():
            value = yield sim.process(inner(False))
            got.append((sim.now, sim.steps, value))
            try:
                yield sim.process(inner(True))
            except KeyError as exc:
                got.append((sim.now, sim.steps, exc.args[0]))

        sim.process(outer())
        sim.run()
        # Each waiter resumes inside the step of the timeout that ended
        # the awaited process: one step per timeout, none per exit.
        assert got == [(1.0, 1, 5), (2.0, 2, "kaput")]
        assert sim.steps == 2

    def test_waiter_resumed_by_exit_does_not_chain_to_it(self, sim):
        def inner():
            yield sim.timeout(1)

        def outer():
            yield sim.process(inner())
            raise ValueError("own")

        p = sim.process(outer())
        sim.run()
        assert isinstance(p.value, ValueError)
        assert p.value.__context__ is None

    def test_late_yield_gets_value(self, sim):
        def quick():
            yield sim.timeout(1)
            return "early"

        p = sim.process(quick())
        got = []

        def late():
            yield sim.timeout(3)
            got.append((sim.now, (yield p)))

        sim.process(late())
        sim.run()
        assert got == [(3.0, "early")]

    def test_late_yield_gets_exception(self, sim):
        def boom():
            yield sim.timeout(1)
            raise KeyError("kaput")

        p = sim.process(boom())
        caught = []

        def late():
            yield sim.timeout(3)
            try:
                yield p
            except KeyError as exc:
                caught.append((sim.now, exc.args[0]))

        sim.process(late())
        sim.run()
        assert caught == [(3.0, "kaput")]


class TestDiscard:
    def test_discarded_call_at_never_fires(self, sim):
        seen = []
        event = sim.call_at(2.0, lambda: seen.append(sim.now))
        sim.discard(event)
        assert sim.pending_events == 0
        sim.run()
        assert seen == [] and sim.steps == 0

    def test_discard_untriggered_event_is_noop(self, sim):
        ev = sim.event()
        sim.discard(ev)
        assert sim.pending_events == 0
        got = []

        def waiter():
            got.append((yield ev))

        sim.process(waiter())
        ev.succeed("late")
        sim.run()
        assert got == ["late"]
        assert sim.steps == 1
