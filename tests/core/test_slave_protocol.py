"""Detailed tests of the slave's pull protocol and queue discipline."""

from repro.core import DyrsConfig, MigrationStatus
from repro.dfs import EvictionMode
from repro.sim.events import AnyOf, Timeout
from repro.units import GB, MB


def _orphaned_timers(sim):
    """Scheduled timers whose every waiter has already fired: each
    would pop later and wake nothing."""
    orphans = []
    for _when, _priority, _seq, event in sim._heap:
        if event._discarded or not isinstance(event, Timeout):
            continue
        waiters = [getattr(cb, "__self__", None) for cb in event.callbacks or ()]
        if waiters and all(isinstance(w, AnyOf) and w.triggered for w in waiters):
            orphans.append(event)
    return orphans


class TestPullProtocol:
    def test_local_queue_never_exceeds_target(self, make_rig):
        config = DyrsConfig(queue_depth=2, reference_block_size=64 * MB)
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

    def test_rpc_latency_delays_binding(self, make_rig):
        """With a round trip modeled, binding cannot happen at t=0."""
        config = DyrsConfig(rpc_latency=0.5, reference_block_size=64 * MB)
        rig = make_rig(config=config)
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        for record in rig.master.record_log:
            assert record.binding_delay >= 0.5

    def test_zero_rpc_latency_still_works(self, make_rig):
        config = DyrsConfig(rpc_latency=0.0, reference_block_size=64 * MB)
        rig = make_rig(config=config)
        rig.client.create_file("input", 512 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        assert all(
            r.status is MigrationStatus.DONE for r in rig.master.record_log
        )

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
            b.block_id in rig.namenode.memory_directory for b in blocks
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


class TestMemoryPressure:
    def test_gc_sweep_triggered_by_pressure(self, make_rig):
        """Crossing the GC threshold sweeps inactive jobs' references."""
        config = DyrsConfig(
            memory_limit=256 * MB,
            gc_threshold=0.5,
            reference_block_size=64 * MB,
        )
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
            1 for b in b_blocks if b.block_id in rig.namenode.memory_directory
        )
        assert done == len(b_blocks)
        assert "dead-job" not in rig.master.tracker.tracked_jobs()

    def test_memory_limit_respected_at_all_times(self, make_rig):
        config = DyrsConfig(memory_limit=128 * MB, reference_block_size=64 * MB)
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
    """A wait that its signal ends early leaves no timer behind."""

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

    def test_freed_memory_ends_the_space_wait(self, make_rig):
        config = DyrsConfig(memory_limit=64 * MB, reference_block_size=64 * MB)
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
