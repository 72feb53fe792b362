"""Unit tests for the event primitives."""

import pytest

from repro.sim import AllOf, EventAlreadyTriggered, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_initial_state(self, sim):
        ev = sim.event("x")
        assert not ev.triggered
        assert not ev.processed
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(41)
        assert ev.triggered and ev.ok
        assert ev.value == 41

    def test_succeed_twice_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_fail_requires_exception_instance(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_run_on_process(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("v")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["v"]

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_remove_callback(self, sim):
        ev = sim.event()
        seen = []
        def cb(e):
            seen.append(1)

        ev.add_callback(cb)
        ev.remove_callback(cb)
        ev.succeed()
        sim.run()
        assert seen == []

    def test_remove_missing_callback_is_noop(self, sim):
        ev = sim.event()
        ev.remove_callback(lambda e: None)


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        t = sim.timeout(2.5, value="done")
        sim.run()
        assert sim.now == 2.5
        assert t.value == "done"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_fires_at_now(self, sim):
        sim.timeout(0)
        sim.run()
        assert sim.now == 0.0

    def test_same_time_fifo_order(self, sim):
        order = []
        for i in range(5):
            t = sim.timeout(1.0)
            t.add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestConditions:
    def test_allof_waits_for_all(self, sim):
        a, b = sim.timeout(1, value="a"), sim.timeout(3, value="b")
        cond = AllOf(sim, [a, b])
        sim.run()
        assert cond.triggered and cond.ok
        assert cond.value == {a: "a", b: "b"}
        assert sim.now == 3

    def test_allof_empty_triggers_immediately(self, sim):
        cond = AllOf(sim, [])
        assert cond.triggered and cond.processed
        assert cond.value == {}
        assert sim.pending_events == 0

    def test_allof_fails_if_member_fails(self, sim):
        a = sim.event()
        b = sim.timeout(5)
        cond = AllOf(sim, [a, b])
        a.fail(RuntimeError("nope"))
        sim.run()
        assert cond.triggered and not cond.ok
        assert isinstance(cond.value, RuntimeError)

    def test_mixed_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            AllOf(sim, [sim.event(), other.event()])


class TestConditionsFireInPlace:
    """A condition is processed inside its constituent's callback: it
    never passes through the heap, so it costs no step."""

    def test_allof_costs_no_step(self, sim):
        a, b = sim.timeout(1, value="a"), sim.timeout(3, value="b")
        cond = AllOf(sim, [a, b])
        sim.run()
        assert cond.processed and cond.value == {a: "a", b: "b"}
        assert sim.steps == 2

    def test_over_processed_constituents_fire_at_construction(self, sim):
        a, b = sim.timeout(1, value="a"), sim.timeout(2, value="b")
        sim.run()
        steps = sim.steps
        cond = AllOf(sim, [a, b])
        assert cond.processed and cond.value == {a: "a", b: "b"}
        assert sim.steps == steps and sim.pending_events == 0

    def test_allof_mixed_waits_for_unprocessed(self, sim):
        a = sim.timeout(1, value="a")
        sim.run()
        b = sim.timeout(2, value="b")
        cond = AllOf(sim, [a, b])
        assert not cond.triggered
        sim.run()
        assert cond.processed and cond.value == {a: "a", b: "b"}
        assert sim.steps == 2

    def test_fired_condition_releases_constituents(self, sim):
        """No cycle is left between a fired condition and a constituent
        that never fires (it still holds the condition's callback): a
        failing constituent fires the condition while the other stays
        behind."""
        never, fails = sim.event(), sim.event()
        cond = AllOf(sim, [never, fails])
        assert cond.events == (never, fails)
        fails.fail(RuntimeError("nope"))
        sim.run()
        assert cond.processed and isinstance(cond.value, RuntimeError)
        assert cond.events == ()
        assert never.callbacks == [cond._check]

    def test_failure_fires_in_place(self, sim):
        a = sim.event()
        cond = AllOf(sim, [a, sim.timeout(5)])
        a.fail(RuntimeError("nope"))
        sim.step()
        assert cond.processed and not cond.ok
        assert isinstance(cond.value, RuntimeError)

    def test_waiter_resumes_before_later_same_time_events(self, sim):
        order = []
        first, second = sim.timeout(1), sim.timeout(1)
        second.add_callback(lambda e: order.append("second"))

        def waiter():
            yield AllOf(sim, [first])
            order.append("waiter")

        sim.process(waiter())
        sim.run()
        assert order == ["waiter", "second"]
        assert sim.steps == 2
