"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_up_to_capacity(self, sim):
        res = Resource(sim, capacity=2)
        granted = []

        def worker(i):
            req = res.request()
            yield req
            granted.append((sim.now, i))
            yield sim.timeout(10)
            res.release(req)

        for i in range(3):
            sim.process(worker(i))
        sim.run(until=5)
        assert granted == [(0.0, 0), (0.0, 1)]
        assert res.in_use == 2 and res.queued == 1
        sim.run()
        assert granted == [(0.0, 0), (0.0, 1), (10.0, 2)]

    def test_release_wakes_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(i, hold):
            req = res.request()
            yield req
            order.append(i)
            yield sim.timeout(hold)
            res.release(req)

        for i in range(4):
            sim.process(worker(i, hold=1))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_priority_orders_queue(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(5)
            res.release(req)

        def worker(i, prio):
            yield sim.timeout(1)  # enqueue while holder is active
            req = res.request(priority=prio)
            yield req
            order.append(i)
            res.release(req)

        sim.process(holder())
        sim.process(worker("low", prio=10))
        sim.process(worker("high", prio=0))
        sim.run()
        assert order == ["high", "low"]

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        res.release(second)  # cancel while still queued
        res.release(first)
        third = res.request()
        sim.run()
        assert third.triggered  # second never got in the way
        assert res.in_use == 1
