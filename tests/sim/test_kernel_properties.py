"""Property-based tests of the DES kernel itself.

Hypothesis generates random process networks and checks the kernel's
foundational guarantees: monotone time, deterministic replay, and
exactly-once event delivery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, BandwidthResource, Simulator


def build_random_network(sim, spec):
    """Spawn processes from a declarative spec list.

    Each entry: (start_delay, [sleep durations], shares_channel?).  A
    worker on the shared channel moves ``sleep`` bytes per step through
    one 1 byte/s fair-share channel, so its steps stretch while other
    workers' transfers overlap them.
    Returns the trace list that processes append (time, proc, step).
    """
    trace = []
    channel = BandwidthResource(sim, capacity=1.0, seek_penalty=0.1)

    def worker(i, start, sleeps, shares_channel):
        yield sim.timeout(start)
        for j, sleep in enumerate(sleeps):
            if shares_channel:
                yield channel.transfer(sleep)
            else:
                yield sim.timeout(sleep)
            trace.append((sim.now, i, j))

    for i, (start, sleeps, shares_channel) in enumerate(spec):
        sim.process(worker(i, start, sleeps, shares_channel))
    return trace


NETWORK = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=10),
        st.lists(st.floats(min_value=0.01, max_value=5), min_size=1, max_size=4),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(spec=NETWORK)
    def test_time_is_monotone(self, spec):
        sim = Simulator()
        trace = build_random_network(sim, spec)
        sim.run()
        times = [t for t, _, _ in trace]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    @settings(max_examples=40, deadline=None)
    @given(spec=NETWORK)
    def test_replay_is_identical(self, spec):
        """The same network replays to the exact same trace."""
        traces = []
        for _ in range(2):
            sim = Simulator()
            trace = build_random_network(sim, spec)
            sim.run()
            traces.append(trace)
        assert traces[0] == traces[1]

    @settings(max_examples=40, deadline=None)
    @given(spec=NETWORK)
    def test_every_step_completes_exactly_once(self, spec):
        sim = Simulator()
        trace = build_random_network(sim, spec)
        sim.run()
        steps = [(i, j) for _, i, j in trace]
        expected = [
            (i, j) for i, (_, sleeps, _) in enumerate(spec)
            for j in range(len(sleeps))
        ]
        assert sorted(steps) == sorted(expected)

    @settings(max_examples=30, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.01, max_value=10), min_size=2, max_size=6
        )
    )
    def test_nested_conditions(self, delays):
        """AllOf(AllOf...) fires at the analytically correct time: when
        the later of the two inner conditions fires, each at its own
        latest constituent."""
        sim = Simulator()
        half = len(delays) // 2
        first = [sim.timeout(d) for d in delays[:half]]
        second = [sim.timeout(d) for d in delays[half:]]
        cond = AllOf(sim, [AllOf(sim, first), AllOf(sim, second)])
        fired_at = []
        cond.add_callback(lambda e: fired_at.append(sim.now))
        sim.run()
        expected = max(max(delays[:half]), max(delays[half:]))
        assert fired_at == [pytest.approx(expected)]
