"""Detailed tests of the slave's pull protocol and queue discipline."""

import pytest

from repro.core import DyrsConfig
from repro.core.slave import RPC_LATENCY
from repro.dfs import EvictionMode
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.units import GB, MB

from .conftest import wait_enders


def _deserted(waiter) -> bool:
    """Whether waking ``waiter`` would resume nothing: it has already
    been woken, or it is a signal nobody waits on any more."""
    if isinstance(waiter, Process):
        return waiter.processed
    return isinstance(waiter, Event) and not waiter.callbacks


def _orphaned_timers(sim):
    """Scheduled timers whose every waiter is deserted: each would pop
    later and wake nothing.  An idle wait's timer -- a timeout, or a
    trailing-band event for a poll-mode re-poll -- calls back into the
    signal the worker waits on, so it is orphaned once that signal has
    been processed, or once a crash has interrupted the worker waiting
    on it."""
    orphans = []
    for _when, _priority, _seq, event in sim._heap:
        if event._discarded or type(event) not in (Event, Timeout):
            continue
        waiters = [getattr(cb, "__self__", None) for cb in event.callbacks or ()]
        if waiters and all(_deserted(w) for w in waiters):
            orphans.append(event)
    return orphans


class TestPullProtocol:
    def test_local_queue_never_exceeds_target(self, make_rig):
        config = DyrsConfig(queue_depth=2)
        rig = make_rig(config=config)
        rig.client.create_file("input", 4 * GB)
        rig.master.migrate(["input"], job_id="j1")
        # Sample the queue during the migration.
        max_seen = 0

        def sampler():
            nonlocal max_seen
            for _ in range(600):
                for slave in rig.slaves:
                    max_seen = max(max_seen, slave.queued_blocks)
                yield rig.sim.timeout(0.25)

        rig.sim.process(sampler())
        rig.sim.run(until=150)
        assert max_seen <= 2

    def test_rpc_latency_delays_binding(self, rig):
        """With a round trip modeled, binding cannot happen at t=0: a
        request binds when it reaches the master, one RPC delay after
        the slave sent it."""
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        assert rig.master.record_log
        for record in rig.master.record_log:
            assert record.binding_delay >= RPC_LATENCY

    def test_an_error_inside_a_leg_escapes_the_run(self, rig):
        """A pull leg is a chain of timeout callbacks that nothing
        awaits: an error at bind time, reached through the outbound
        timeout, propagates out of the run at the instant the first
        legs arrive."""

        class BindFailed(Exception):
            pass

        def bind_from_shard(shard_id, generation, node_id, max_blocks):
            raise BindFailed(node_id)

        rig.master.bind_from_shard = bind_from_shard
        with pytest.raises(BindFailed):
            rig.sim.run(until=10)
        assert rig.sim.now == RPC_LATENCY

    def test_idle_slaves_poll_at_heartbeat_cadence(self, make_rig):
        """Work arriving later is still picked up by the periodic
        re-poll, even with no explicit wake-up."""
        rig = make_rig()
        rig.sim.run(until=30)  # slaves idle for a while
        rig.client.create_file("late", 128 * MB)
        rig.master.migrate(["late"], job_id="j1")
        rig.sim.run(until=60)
        blocks = rig.client.blocks_of(["late"])
        assert all(
            b.block_id in rig.namenode.directory["memory"] for b in blocks
        )

    def test_work_conserving_across_slaves(self, make_rig):
        """With plenty of pending work every live slave participates."""
        rig = make_rig()
        rig.client.create_file("input", 4 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=200)
        workers = {
            r.bound_node
            for r in rig.master.record_log
            if r.completed_at is not None
        }
        assert workers == {0, 1, 2, 3}


class TestEventBudget:
    def test_idle_notify_rig_spends_only_its_ticks(self, make_rig):
        """Parked slaves and a parked retarget tick cost nothing: an
        idle notify-mode rig spends one event per heartbeat tick and
        one per slave for its start-up pull.  A master with nothing
        pending and nothing bound schedules no retarget tick."""
        rig = make_rig(n_workers=4, config=DyrsConfig(idle_pull="notify"))
        rig.sim.run(until=1000)
        heartbeat_ticks = 1000 / rig.namenode.heartbeat_interval
        assert rig.sim.steps == heartbeat_ticks + 4
        assert rig.master._retarget_tick.event is None

    def test_idle_poll_rig_spends_only_its_ticks(self, make_rig):
        """An idle poll-mode slave parks its re-poll chain after its
        first empty pull, so an idle poll rig spends what a notify rig
        does: its heartbeat ticks and one event per slave for its
        start-up pull.  Unparked, each slave would spend two events
        per re-poll: its timer and its empty leg; and an unparked
        master one per retarget tick."""
        rig = make_rig(n_workers=4)
        rig.sim.run(until=1000)
        heartbeat_ticks = 1000 / rig.namenode.heartbeat_interval
        assert rig.sim.steps == heartbeat_ticks + 4
        assert sorted(rig.master._polling_parked) == [0, 1, 2, 3]
        assert rig.master._retarget_tick.event is None


class TestWorkerFailure:
    def test_an_error_inside_the_worker_loop_escapes_the_run(self, rig):
        """Nothing awaits a slave's worker loop.  A loop that raised
        would leave its slave ``alive`` but never pulling or migrating
        again while the run went on; its failure stops the run."""

        class CompletionFailed(Exception):
            pass

        def on_migration_complete(record, node_id, duration):
            raise CompletionFailed(node_id)

        rig.master.on_migration_complete = on_migration_complete
        rig.client.create_file("input", 512 * MB)
        rig.master.migrate(["input"], job_id="j1")
        with pytest.raises(CompletionFailed) as failed:
            rig.sim.run(until=60)
        (node_id,) = failed.value.args
        worker = rig.slaves[node_id]._worker
        assert not worker.is_alive and worker.value is failed.value
        assert rig.sim.now < 60


class TestMemoryPressure:
    def test_gc_sweep_triggered_by_pressure(self, make_rig):
        """Crossing the GC threshold sweeps inactive jobs' references."""
        config = DyrsConfig(memory_limit=256 * MB)
        # Single node so all pins land on one memory and cross the
        # per-node GC threshold.
        rig = make_rig(n_workers=1, config=config)
        # The scheduler says only j2 is still alive; dead-job is not.
        rig.master.active_jobs_provider = lambda: ["j2"]
        rig.client.create_file("a", 192 * MB)
        rig.client.create_file("b", 192 * MB)
        rig.master.migrate(["a"], job_id="dead-job", eviction=EvictionMode.EXPLICIT)
        rig.sim.run(until=30)
        rig.master.migrate(["b"], job_id="j2", eviction=EvictionMode.EXPLICIT)
        rig.sim.run(until=90)
        # dead-job's references were swept, so b fit into memory.
        b_blocks = rig.client.blocks_of(["b"])
        done = sum(
            1 for b in b_blocks if b.block_id in rig.namenode.directory["memory"]
        )
        assert done == len(b_blocks)
        assert "dead-job" not in rig.master.tracker.tracked_jobs()

    def test_first_sweep_fires_at_the_gc_threshold(self, make_rig):
        """A copy sweeps first when memory holds at least 0.9 of the
        cap.  With 64 MB blocks under a 700 MB cap no resident level
        falls on a threshold: at 0.8 (560 MB) the first sweep would
        come at 9 resident blocks, at 0.9 (630 MB) it comes at 10, and
        at 1.0 never, since an 11th block does not fit."""
        block = 64 * MB
        rig = make_rig(
            n_workers=1, block_size=block, config=DyrsConfig(memory_limit=700 * MB)
        )
        memory = rig.cluster.nodes[0].memory
        used_at_sweep = []
        sweep = rig.master.gc_sweep

        def recording_sweep():
            used_at_sweep.append(memory.used)
            return sweep()

        rig.master.gc_sweep = recording_sweep
        rig.client.create_file("a", 12 * block)
        rig.master.migrate(["a"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        rig.sim.run(until=60)
        assert memory.used == 10 * block
        assert used_at_sweep and used_at_sweep[0] == 10 * block

    def test_memory_limit_respected_at_all_times(self, make_rig):
        config = DyrsConfig(memory_limit=128 * MB)
        rig = make_rig(config=config)
        rig.client.create_file("input", 2 * GB)
        rig.master.migrate(["input"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        violations = []

        def watcher():
            for _ in range(400):
                for node in rig.cluster.nodes:
                    if node.memory.used > 128 * MB + 1e-6:
                        violations.append((rig.sim.now, node.node_id))
                yield rig.sim.timeout(0.5)

        rig.sim.process(watcher())
        rig.sim.run(until=200)
        assert violations == []


class TestIdleWaits:
    """A wait that its signal or a crash ends early leaves no timer
    behind."""

    def test_work_ends_the_poll_wait(self, make_rig):
        rig = make_rig(n_workers=1)
        slave = rig.slaves[0]
        rig.sim.run(until=1)  # idle; the next re-poll is due at t=2
        rig.client.create_file("a", 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        # The t=2 re-poll binds the block; its grant lands at t=2.1 and
        # ends the wait that began at t=2, well before its t=4 timer.
        rig.sim.run(until=2.2)
        assert slave._active is not None
        assert _orphaned_timers(rig.sim) == []

    def test_retarget_ends_the_notify_wait(self, make_rig):
        """A parked slave waits on its signal alone, and the retarget
        pass that aims work at its node ends the wait."""
        rig = make_rig(n_workers=1, config=DyrsConfig(idle_pull="notify"))
        slave = rig.slaves[0]
        rig.sim.run(until=1)
        assert rig.master._parked.get(0) is slave._work_signal  # parked
        assert wait_enders(rig.sim, slave._work_signal) == []
        rig.client.create_file("a", 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        # The request's retarget pass aims the block here and wakes the
        # slave at t=1; its pull parks it again, and the grant lands at
        # t=1.1 and ends that wait too.  The copy runs past t=1.2.
        rig.sim.run(until=1.2)
        assert slave._active is not None
        assert rig.master._parked == {}
        assert _orphaned_timers(rig.sim) == []

    def test_freed_memory_ends_the_space_wait(self, make_rig):
        config = DyrsConfig(memory_limit=64 * MB)
        rig = make_rig(n_workers=1, config=config)
        slave = rig.slaves[0]
        rig.client.create_file("a", 64 * MB)
        rig.client.create_file("b", 64 * MB)
        rig.master.migrate(["a"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        rig.master.migrate(["b"], job_id="j2", eviction=EvictionMode.EXPLICIT)
        rig.sim.run(until=10)
        assert slave._space_signal is not None  # "b" waits for "a"'s space
        rig.master.evict(["a"], job_id="j1")
        rig.sim.run(until=rig.sim.now + 0.01)
        assert slave._space_signal is None
        assert _orphaned_timers(rig.sim) == []

    def test_crash_ends_the_poll_wait(self, make_rig):
        rig = make_rig(n_workers=1)
        slave = rig.slaves[0]
        rig.sim.run(until=1)  # idle; the re-poll timer is due at t=2
        assert slave._work_signal is not None
        slave.crash()
        rig.sim.run(until=1.01)
        assert _orphaned_timers(rig.sim) == []

    def test_crash_ends_the_notify_wait(self, make_rig):
        """A crash ends a parked wait and leaves nothing waiting on its
        signal; the restarted slave parks on a fresh one."""
        rig = make_rig(n_workers=1, config=DyrsConfig(idle_pull="notify"))
        slave = rig.slaves[0]
        rig.sim.run(until=1)  # parked, on its signal alone
        signal = slave._work_signal
        assert rig.master._parked.get(0) is signal
        slave.crash()
        rig.sim.run(until=1.01)
        assert signal.callbacks == []
        assert _orphaned_timers(rig.sim) == []
        slave.restart()
        rig.sim.run(until=1.2)
        assert rig.master._parked.get(0) is slave._work_signal
        assert slave._work_signal is not signal

    def test_crash_ends_the_space_wait(self, make_rig):
        config = DyrsConfig(memory_limit=64 * MB)
        rig = make_rig(n_workers=1, config=config)
        slave = rig.slaves[0]
        rig.client.create_file("a", 64 * MB)
        rig.client.create_file("b", 64 * MB)
        rig.master.migrate(["a"], job_id="j1", eviction=EvictionMode.EXPLICIT)
        rig.master.migrate(["b"], job_id="j2", eviction=EvictionMode.EXPLICIT)
        rig.sim.run(until=10)
        assert slave._space_signal is not None  # "b" waits for "a"'s space
        slave.crash()
        rig.sim.run(until=rig.sim.now + 0.01)
        assert _orphaned_timers(rig.sim) == []
