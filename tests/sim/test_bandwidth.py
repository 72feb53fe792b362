"""Unit and property tests for the fair-share bandwidth resource."""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthResource, Simulator
from repro.sim.bandwidth import FlowCancelled


@pytest.fixture
def sim():
    return Simulator()


class TestSingleFlow:
    def test_duration_is_bytes_over_capacity(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        done = disk.transfer(250.0)
        sim.run()
        assert done.processed
        assert sim.now == pytest.approx(2.5)

    def test_zero_byte_transfer_completes_instantly(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        done = disk.transfer(0.0)
        assert done.triggered
        sim.run()
        assert sim.now == 0.0

    def test_negative_size_rejected(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        with pytest.raises(ValueError):
            disk.transfer(-1)

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            BandwidthResource(sim, capacity=0)
        with pytest.raises(ValueError):
            BandwidthResource(sim, capacity=10, seek_penalty=-1)


class TestFairSharing:
    def test_two_equal_flows_halve_rate(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        a = disk.transfer(100.0)
        b = disk.transfer(100.0)
        sim.run()
        # No seek penalty: each gets 50 B/s, both end at t=2.
        assert a.processed and b.processed
        assert sim.now == pytest.approx(2.0)

    def test_late_joiner_slows_first_flow(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        finish = {}

        def start_second():
            yield sim.timeout(0.5)
            flow = disk.start_flow(100.0, tag="b")
            yield flow.done
            finish["b"] = sim.now

        def first():
            flow = disk.start_flow(100.0, tag="a")
            yield flow.done
            finish["a"] = sim.now

        sim.process(first())
        sim.process(start_second())
        sim.run()
        # a: 50 bytes alone (0.5s), then shares; 50 remaining at 50 B/s -> 1s.
        assert finish["a"] == pytest.approx(1.5)
        # b: shares for 1s (50 bytes), then alone for 0.5s -> ends 2.0.
        assert finish["b"] == pytest.approx(2.0)

    def test_seek_penalty_reduces_aggregate(self, sim):
        disk = BandwidthResource(sim, capacity=100.0, seek_penalty=1.0)
        a = disk.transfer(100.0)
        b = disk.transfer(100.0)
        sim.run()
        # k=2 with p=1: aggregate 50, per-flow 25 -> 4 seconds each.
        assert a.processed and b.processed
        assert sim.now == pytest.approx(4.0)

    def test_aggregate_rate_formula(self, sim):
        disk = BandwidthResource(sim, capacity=120.0, seek_penalty=0.5)
        assert disk.aggregate_rate(1) == pytest.approx(120.0)
        assert disk.aggregate_rate(2) == pytest.approx(80.0)
        assert disk.aggregate_rate(3) == pytest.approx(60.0)
        assert disk.aggregate_rate(0) == 0.0

    def test_min_efficiency_floors_aggregate(self, sim):
        disk = BandwidthResource(
            sim, capacity=100.0, seek_penalty=1.0, min_efficiency=0.25
        )
        # Unfloored values: k=2 -> 50, k=4 -> 25, k=10 -> ~10.9.
        assert disk.aggregate_rate(2) == pytest.approx(50.0)
        assert disk.aggregate_rate(4) == pytest.approx(25.0)
        assert disk.aggregate_rate(10) == pytest.approx(25.0)  # floored
        assert disk.aggregate_rate(100) == pytest.approx(25.0)

    def test_min_efficiency_validation(self, sim):
        with pytest.raises(ValueError):
            BandwidthResource(sim, capacity=10, min_efficiency=1.5)
        with pytest.raises(ValueError):
            BandwidthResource(sim, capacity=10, min_efficiency=-0.1)

    def test_floored_transfers_complete_at_floor_rate(self, sim):
        disk = BandwidthResource(
            sim, capacity=100.0, seek_penalty=1.0, min_efficiency=0.5
        )
        events = [disk.transfer(100.0) for _ in range(4)]
        sim.run()
        # Aggregate floored at 50: 400 bytes total -> 8 seconds.
        assert all(e.processed for e in events)
        assert sim.now == pytest.approx(8.0)


class TestCancellation:
    def test_cancel_fails_done_event(self, sim):
        disk = BandwidthResource(sim, capacity=10.0)
        flow = disk.start_flow(math.inf, tag="interference")
        caught = []

        def waiter():
            try:
                yield flow.done
            except FlowCancelled:
                caught.append(sim.now)

        sim.process(waiter())

        def canceller():
            yield sim.timeout(5)
            disk.cancel(flow)

        sim.process(canceller())
        sim.run()
        assert caught == [5.0]
        assert disk.active_flows == 0

    def test_cancel_releases_bandwidth(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        hog = disk.start_flow(math.inf, tag="hog")
        finished_at = []

        def reader():
            yield disk.transfer(100.0)
            finished_at.append(sim.now)

        def canceller():
            yield sim.timeout(1)
            disk.cancel(hog)

        sim.process(reader())
        sim.process(canceller())
        sim.run()
        # 1s shared (50 bytes), then alone (50 bytes at 100 B/s = 0.5s).
        assert finished_at == [pytest.approx(1.5)]

    def test_cancel_finished_flow_is_noop(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        flow = disk.start_flow(10.0)
        sim.run()
        disk.cancel(flow)  # already gone
        assert flow.done.ok


class TestInPlaceCompletion:
    """The kernel wake-up that finds a flow finished also delivers it."""

    def test_awaited_transfer_costs_one_step(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        got = []

        def reader():
            flow = yield disk.transfer(100.0)
            got.append((sim.now, flow.remaining))

        sim.process(reader())
        sim.run()
        assert got == [(1.0, 0.0)]
        assert sim.steps == 1  # the wake-up; no second hop for done

    def test_same_instant_completions_share_one_step(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        order = []

        def waiter(label):
            yield disk.transfer(50.0)
            order.append((label, sim.now))

        sim.process(waiter("first"))
        sim.process(waiter("second"))
        sim.run()
        assert order == [("first", 1.0), ("second", 1.0)]
        assert sim.steps == 1

    def test_first_waiter_sees_settled_kernel(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        seen = {}

        def first():
            yield disk.transfer(50.0)
            # The other flow finished at this instant too; it is
            # already gone when the first waiter runs.
            seen["active"] = disk.active_flows
            seen["moved"] = disk.bytes_moved
            yield disk.transfer(100.0)
            seen["again"] = sim.now

        def second():
            yield disk.transfer(50.0)

        sim.process(first())
        sim.process(second())
        sim.run()
        assert seen == {"active": 0, "moved": pytest.approx(100.0), "again": 2.0}

    def test_zero_byte_and_cancelled_flows_are_heap_events(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        empty = disk.transfer(0.0)
        flow = disk.start_flow(100.0)
        disk.cancel(flow)
        assert empty.triggered and not empty.processed
        assert flow.done.triggered and not flow.done.processed
        sim.run()
        assert sim.steps == 2


class TestFlowIsItsOwnDoneEvent:
    """A flow is the event its waiters yield, and does not reference
    itself: a finished flow is freed by reference counting alone."""

    def test_waiters_resume_with_the_flow(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        flows = [disk.start_flow(100.0), disk.start_flow(0.0)]
        got = []

        def waiter(flow):
            got.append((yield flow.done))

        for flow in flows:
            sim.process(waiter(flow))
        sim.run()
        assert got == [flows[1], flows[0]]  # the zero-byte flow at t=0
        for flow in flows:
            assert flow.done is flow
            assert flow.done.ok and flow.done.processed
            assert flow.done.value is flow
            assert flow not in gc.get_referents(flow)
        late = []

        def late_waiter():
            late.append((yield flows[0].done))

        sim.process(late_waiter())
        assert late == [flows[0]]

    def test_cancelled_flow_fails_its_waiters(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        flow = disk.start_flow(100.0, tag="hog")
        caught = []

        def waiter():
            try:
                yield flow.done
            except FlowCancelled as exc:
                caught.append(str(exc))

        sim.process(waiter())
        disk.cancel(flow)
        sim.run()
        assert caught == ["hog"]
        assert flow.done.processed and not flow.done.ok
        assert isinstance(flow.done.value, FlowCancelled)


class TestAccounting:
    def test_bytes_moved(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)
        disk.transfer(30.0)
        disk.transfer(50.0)
        sim.run()
        assert disk.bytes_moved == pytest.approx(80.0)

    def test_busy_time_and_utilization(self, sim):
        disk = BandwidthResource(sim, capacity=100.0)

        def workload():
            yield disk.transfer(100.0)  # busy 0..1
            yield sim.timeout(3)        # idle 1..4
            yield disk.transfer(100.0)  # busy 4..5

        sim.process(workload())
        sim.run()
        assert disk.busy_time == pytest.approx(2.0)
        assert disk.utilization() == pytest.approx(2.0 / 5.0)

    def test_expected_duration_planning(self, sim):
        disk = BandwidthResource(sim, capacity=100.0, seek_penalty=0.0)
        assert disk.expected_duration(100.0) == pytest.approx(1.0)
        disk.start_flow(math.inf)
        assert disk.expected_duration(100.0) == pytest.approx(2.0)


class TestWorkConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(
            st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=8
        ),
        starts=st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=8
        ),
        seek_penalty=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_all_flows_complete_and_bytes_conserved(
        self, sizes, starts, seek_penalty
    ):
        """Property: every finite flow completes, and total bytes moved
        equals the sum of flow sizes, regardless of arrival pattern."""
        sim = Simulator()
        disk = BandwidthResource(sim, capacity=123.0, seek_penalty=seek_penalty)
        n = min(len(sizes), len(starts))
        done_events = []

        def launcher(start, size):
            yield sim.timeout(start)
            done_events.append(disk.transfer(size))

        for i in range(n):
            sim.process(launcher(starts[i], sizes[i]))
        sim.run()
        assert all(e.processed and e.ok for e in done_events)
        assert disk.bytes_moved == pytest.approx(sum(sizes[:n]), rel=1e-6)
        assert disk.active_flows == 0

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=10),
        seek_penalty=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_simultaneous_equal_flows_finish_together(self, k, seek_penalty):
        """k equal flows started together finish at k*(1+p(k-1))*T1."""
        sim = Simulator()
        capacity, size = 100.0, 200.0
        disk = BandwidthResource(sim, capacity=capacity, seek_penalty=seek_penalty)
        events = [disk.transfer(size) for _ in range(k)]
        sim.run()
        expected = size / (capacity / (1 + seek_penalty * (k - 1)) / k)
        assert all(e.processed for e in events)
        assert sim.now == pytest.approx(expected, rel=1e-9)
