"""Tests for delay scheduling (locality wait) in the task scheduler."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.compute import TaskScheduler


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec(n_workers=3, node=NodeSpec(task_slots=1), seed=0))


class TestDelayScheduling:
    def test_validation(self, cluster):
        with pytest.raises(ValueError):
            TaskScheduler(cluster, locality_delay=-1)

    def test_waits_for_preferred_slot_within_delay(self, cluster):
        scheduler = TaskScheduler(cluster, locality_delay=5.0)
        sim = cluster.sim
        # Occupy node 0.
        holder = scheduler.acquire(preferred_nodes=[0])
        sim.run()
        holder_grant = holder.value

        granted = []

        def waiter():
            grant = yield scheduler.acquire(preferred_nodes=[0])
            granted.append((sim.now, grant.node_id))
            grant.release()

        def releaser():
            yield sim.timeout(2.0)  # within the 5s locality window
            holder_grant.release()

        sim.process(waiter())
        sim.process(releaser())
        sim.run()
        # Waited 2s and got the *preferred* node instead of grabbing a
        # free non-local slot at t=0.
        assert granted == [(2.0, 0)]

    def test_falls_back_after_delay_expires(self, cluster):
        scheduler = TaskScheduler(cluster, locality_delay=5.0)
        sim = cluster.sim
        _holder = scheduler.acquire(preferred_nodes=[0])
        sim.run()

        granted = []

        def waiter():
            grant = yield scheduler.acquire(preferred_nodes=[0])
            granted.append((sim.now, grant.node_id))
            grant.release()

        sim.process(waiter())
        sim.run()
        # Node 0 never freed: falls back elsewhere exactly at the delay.
        assert granted and granted[0][0] == pytest.approx(5.0)
        assert granted[0][1] != 0
        assert scheduler.nonlocal_grants == 1

    def test_zero_delay_grants_immediately_nonlocal(self, cluster):
        scheduler = TaskScheduler(cluster, locality_delay=0.0)
        sim = cluster.sim
        scheduler.acquire(preferred_nodes=[0])
        sim.run()
        granted = []

        def waiter():
            grant = yield scheduler.acquire(preferred_nodes=[0])
            granted.append((sim.now, grant.node_id))
            grant.release()

        sim.process(waiter())
        sim.run()
        assert granted == [(0.0, granted[0][1])]
        assert granted[0][1] != 0

    def test_delay_waiter_does_not_block_younger_requests(self, cluster):
        """Delay scheduling's point: others may jump the queue while a
        request holds out for locality."""
        scheduler = TaskScheduler(cluster, locality_delay=10.0)
        sim = cluster.sim
        _holder = scheduler.acquire(preferred_nodes=[0])
        sim.run()

        order = []

        def locality_waiter():
            grant = yield scheduler.acquire(preferred_nodes=[0])
            order.append(("local", sim.now, grant.node_id))
            grant.release()

        def flexible():
            yield sim.timeout(0.1)
            grant = yield scheduler.acquire()  # no preference
            order.append(("flex", sim.now, grant.node_id))
            grant.release()

        sim.process(locality_waiter())
        sim.process(flexible())
        sim.run()
        assert order[0][0] == "flex"
        assert order[0][1] == pytest.approx(0.1)

    def test_locality_accounting(self, cluster):
        scheduler = TaskScheduler(cluster, locality_delay=0.0)
        sim = cluster.sim
        a = scheduler.acquire(preferred_nodes=[1])
        sim.run()
        assert scheduler.local_grants == 1
        a.value.release()

    def test_waiting_request_arms_one_wakeup(self, cluster):
        """Every dispatch pass visits a request that is waiting out its
        delay; only the first may schedule the wake-up at its deadline."""
        scheduler = TaskScheduler(cluster, locality_delay=5.0)
        sim = cluster.sim
        _holder = scheduler.acquire(preferred_nodes=[0])
        sim.run()
        wakeups = []
        call_at = sim.call_at

        def counting_call_at(when, callback):
            if callback == scheduler._dispatch:
                wakeups.append(when)
            return call_at(when, callback)

        sim.call_at = counting_call_at
        granted = []

        def waiter():
            grant = yield scheduler.acquire(preferred_nodes=[0])
            granted.append((sim.now, grant.node_id))

        def churn(start):
            # Granted on node 1 or 2 and released again: two more
            # dispatch passes over the waiting request each time.
            yield sim.timeout(start)
            grant = yield scheduler.acquire()
            yield sim.timeout(0.5)
            grant.release()

        sim.process(waiter())
        for start in (0.5, 1.5, 2.5, 3.5):
            sim.process(churn(start))
        sim.run()
        assert wakeups == [5.0]
        assert granted == [(5.0, 1)]

    def test_wakeup_grants_when_the_delay_rounds_short(self, cluster):
        """0.7 + 0.1 - 0.7 < 0.1 in floating point: at its own wake-up
        the request must still count its delay as spent."""
        scheduler = TaskScheduler(cluster, locality_delay=0.1)
        sim = cluster.sim
        _holder = scheduler.acquire(preferred_nodes=[0])
        sim.run()
        granted = []

        def waiter():
            yield sim.timeout(0.7)
            grant = yield scheduler.acquire(preferred_nodes=[0])
            granted.append((sim.now, grant.node_id))

        sim.process(waiter())
        # Bounded: a request that re-arms a wake-up at its own instant
        # would spin here without advancing the clock.
        for _ in range(100):
            if not sim.pending_events:
                break
            sim.step()
        assert granted == [(0.7 + 0.1, 1)]
