"""The virtual-time kernel against the rate law it implements.

`repro.sim.bandwidth.BandwidthResource` derives each flow's remaining
bytes from a global service integral.  The reference here is the
processor-sharing law itself, evaluated without the engine: between
two arrivals, cancels or completions, each of the ``k`` active flows
moves at ``aggregate(k) / k`` with
``aggregate(k) = max(C / (1 + p(k - 1)), C * min_efficiency)``.  On
any schedule of flow arrivals, sizes, and cancellations the kernel must
produce the model's completion and cancel times -- up to
floating-point reassociation, which is why the contract is 1e-9
relative rather than bitwise (see DESIGN.md §5).

Also here: regression tests for byte accounting (only bytes actually
delivered count) and for superseded wake-ups leaking into the
simulator heap.
"""

import math
import random

import pytest

from repro.sim import Simulator
from repro.sim.bandwidth import BandwidthResource

N_SCHEDULES = 200


def make_schedule(seed: int):
    """One random flow arrival/size/cancel schedule."""
    rng = random.Random(seed)
    capacity = rng.choice([10.0, 100.0, 150e6])
    seek_penalty = rng.choice([0.0, 0.02, 0.35, round(rng.uniform(0.0, 1.0), 3)])
    min_efficiency = rng.choice([0.0, 0.1, 0.5])
    n = rng.randint(2, 12)
    ops = []
    for i in range(n):
        start = round(rng.uniform(0.0, 50.0), 6)
        size = round(rng.uniform(0.001, 10.0), 6) * capacity
        ops.append(("start", start, i, size))
        if rng.random() < 0.25:
            ops.append(("cancel", round(rng.uniform(start, 60.0), 6), i, 0.0))
    # Sort by time; starts before cancels at ties so a cancel can hit
    # the flow started at the same instant.
    ops.sort(key=lambda op: (op[1], op[0] != "start", op[2]))
    return capacity, seek_penalty, min_efficiency, ops


def run_schedule(schedule):
    """Execute a schedule on the kernel.

    Returns (completion times of finished flows, cancel times of
    cancelled flows, total delivered bytes, kernel bytes_moved).
    """
    capacity, seek_penalty, min_efficiency, ops = schedule
    sim = Simulator()
    res = BandwidthResource(
        sim,
        capacity=capacity,
        seek_penalty=seek_penalty,
        min_efficiency=min_efficiency,
        name="dev",
    )
    flows = {}
    finished = {}
    cancelled = {}
    delivered = []

    def start(i, size):
        flow = res.start_flow(size, tag=f"f{i}")
        flows[i] = flow

        def on_done(event, i=i):
            if event.ok:
                finished[i] = sim.now
                delivered.append(flows[i].nbytes)
            else:
                cancelled[i] = sim.now

        flow.done.add_callback(on_done)

    def cancel(i):
        flow = flows.get(i)
        if flow is not None and flow._id in res._flows:
            res.cancel(flow)
            delivered.append(flow.transferred)

    for op, t, i, size in ops:
        if op == "start":
            sim.call_at(t, lambda i=i, size=size: start(i, size))
        else:
            sim.call_at(t, lambda i=i: cancel(i))
    sim.run()
    return finished, cancelled, sum(delivered), res.bytes_moved


def fluid_model(schedule):
    """The same schedule under the rate law alone, with no engine.

    Returns (completion times, cancel times, total delivered bytes).
    A completion due at the same instant as an arrival or cancel is
    applied first, as the kernel's urgent wake-ups are.
    """
    capacity, seek_penalty, min_efficiency, ops = schedule
    size = {}
    left = {}
    finished = {}
    cancelled = {}
    delivered = 0.0
    now = 0.0
    pos = 0
    while pos < len(ops) or left:
        k = len(left)
        rate = 0.0
        t_done = math.inf
        if k:
            aggregate = max(
                capacity / (1.0 + seek_penalty * (k - 1)), capacity * min_efficiency
            )
            rate = aggregate / k
            first = min(left, key=left.get)
            t_done = now + left[first] / rate
        t_op = ops[pos][1] if pos < len(ops) else math.inf
        t = min(t_done, t_op)
        for i in left:
            left[i] -= rate * (t - now)
        now = t
        if t_done <= t_op:
            for i in list(left):
                if i == first or left[i] <= max(1e-6, 1e-9 * size[i]):
                    del left[i]
                    finished[i] = now
                    delivered += size[i]
            continue
        op, _, i, nbytes = ops[pos]
        pos += 1
        if op == "start":
            size[i] = left[i] = nbytes
        elif i in left:
            cancelled[i] = now
            delivered += size[i] - left.pop(i)
    return finished, cancelled, delivered


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_kernels_agree_and_conserve_work(seed):
    schedule = make_schedule(seed)
    finished, cancelled, delivered, bytes_moved = run_schedule(schedule)
    ref_finished, ref_cancelled, ref_delivered = fluid_model(schedule)

    # Same flows finish / are cancelled, at the same times (1e-9).
    assert finished.keys() == ref_finished.keys()
    assert cancelled.keys() == ref_cancelled.keys()
    for i, t in finished.items():
        assert t == pytest.approx(ref_finished[i], rel=1e-9, abs=1e-9)
    for i, t in cancelled.items():
        assert t == pytest.approx(ref_cancelled[i], rel=1e-9, abs=1e-9)

    # Work conservation: bytes_moved equals the bytes actually
    # delivered (full size of finished flows + partial progress of
    # cancelled ones), which is what the rate law delivers.  The abs
    # slack covers flows the epsilon completion test finishes with
    # <= 1e-6 B residue each.
    slack = 1e-5 * max(1, len(finished) + len(cancelled))
    assert bytes_moved == pytest.approx(delivered, rel=1e-9, abs=slack)
    assert delivered == pytest.approx(ref_delivered, rel=1e-9, abs=slack)


class TestBytesMovedRegression:
    """`_advance` must credit only bytes actually delivered."""

    def test_virtual_time_overshoot_refunded(self):
        # The virtual-time kernel credits aggregate service as it
        # accrues and refunds any completion overshoot, so with one
        # 30 B and one 50 B flow exactly 80 B move, regardless of
        # wake-up arithmetic.
        sim = Simulator()
        res = BandwidthResource(sim, capacity=100.0)
        res.transfer(30.0, tag="a")
        res.transfer(50.0, tag="b")
        sim.run()
        assert res.bytes_moved == pytest.approx(80.0, rel=1e-12)

    def test_cancel_midway_counts_partial_bytes(self):
        sim = Simulator()
        res = BandwidthResource(sim, capacity=100.0)
        flow = res.start_flow(1000.0, tag="a")
        sim.call_at(2.0, lambda: res.cancel(flow))
        sim.run()
        assert res.bytes_moved == pytest.approx(200.0, rel=1e-12)


class TestWakeupChurn:
    """Superseded wake-ups must not accumulate in the heap."""

    def test_heap_stays_bounded_under_churn(self):
        sim = Simulator()
        res = BandwidthResource(sim, capacity=100.0, name="churn")
        # A long-lived flow keeps a wake-up armed, so every
        # start/cancel below supersedes it and re-arms.
        res.start_flow(1e12, tag="base")
        peak = 0
        for i in range(2000):
            flow = res.start_flow(1e6, tag=f"churn{i}")
            res.cancel(flow)
            # Drain the cancellation's failure event.
            sim.run(until=sim.now + 1e-3)
            peak = max(peak, len(sim._heap))
        # Each iteration supersedes two wake-ups; without reclamation
        # the heap would hold ~4000 dead entries after 2000 rounds.
        # With discard + lazy compaction it stays around the
        # compaction threshold.
        assert peak < 4 * Simulator.COMPACT_MIN_DISCARDED
        assert len(sim._heap) < 4 * Simulator.COMPACT_MIN_DISCARDED
