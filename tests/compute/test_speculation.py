"""Tests for speculative execution (the Hadoop-style extension).

Speculation is OFF by default (Tez 0.9's default, matching the
paper's testbed); these tests enable it explicitly.
"""

from repro.cluster import ClusterSpec, NodeSpec
from repro.compute import ComputeConfig, mapreduce_job
from repro.system import System, SystemConfig
from repro.units import GB, MB


def build(speculation=True, n_workers=4, seed=2):
    slow = NodeSpec().with_disk_bandwidth(3 * MB)
    return System(
        SystemConfig(
            scheme="hdfs",
            cluster=ClusterSpec(n_workers=n_workers, seed=seed, overrides={0: slow}),
            block_size=64 * MB,
            compute=ComputeConfig(speculative_execution=speculation),
        )
    ).start()


def ingest_job(system, job_id="j1", size=1 * GB):
    name = f"{job_id}/input"
    system.load_input(name, size)
    blocks = system.client.blocks_of([name])
    return mapreduce_job(
        job_id, blocks, [name], shuffle_bytes=0.0, output_bytes=0.0
    )


class TestSpeculation:
    def test_speculation_bounds_stragglers(self):
        """A crawling node's tasks get rescued; the map phase shrinks."""
        with_spec = build(speculation=True)
        job = ingest_job(with_spec)
        m1 = with_spec.runtime.run_to_completion([job])

        without = build(speculation=False)
        job = ingest_job(without)
        m2 = without.runtime.run_to_completion([job])

        assert (
            m1.jobs["j1"].map_phase_duration
            < m2.jobs["j1"].map_phase_duration
        )

    def test_all_tasks_complete_with_metrics(self):
        system = build(speculation=True)
        job = ingest_job(system)
        metrics = system.runtime.run_to_completion([job])
        jm = metrics.jobs["j1"]
        assert all(t.finished_at is not None for t in jm.tasks)
        assert all(t.duration is not None and t.duration > 0 for t in jm.tasks)

    def test_no_slot_leak_after_speculation(self):
        """Losing attempts must release their slots and cancel reads."""
        system = build(speculation=True)
        job = ingest_job(system)
        system.runtime.run_to_completion([job])
        system.sim.run(until=system.sim.now + 60)
        assert system.scheduler.total_free_slots == sum(
            n.spec.task_slots for n in system.cluster.nodes
        )
        # No abandoned transfers still spinning on any resource.
        for node in system.cluster.nodes:
            assert node.disk.channel.active_flows == 0

    def test_speculation_off_runs_single_attempts(self):
        system = build(speculation=False)
        job = ingest_job(system)
        metrics = system.runtime.run_to_completion([job])
        # No ':spec' task ids anywhere in the canonical records.
        assert all(":spec" not in t.task_id for t in metrics.jobs["j1"].tasks)

    def test_scheduler_cancel_request_pending(self):
        """cancel_request drops a queued request without a grant."""
        from repro.cluster import Cluster
        from repro.compute import TaskScheduler

        cluster = Cluster(ClusterSpec(n_workers=1, node=NodeSpec(task_slots=1)))
        scheduler = TaskScheduler(cluster)
        first = scheduler.acquire()
        second = scheduler.acquire()
        cluster.sim.run()
        scheduler.cancel_request(second)
        first.value.release()
        third = scheduler.acquire()
        cluster.sim.run()
        assert third.triggered  # second did not swallow the slot

    def test_scheduler_cancel_request_granted(self):
        """Cancelling an already-granted request releases the slot."""
        from repro.cluster import Cluster
        from repro.compute import TaskScheduler

        cluster = Cluster(ClusterSpec(n_workers=1, node=NodeSpec(task_slots=1)))
        scheduler = TaskScheduler(cluster)
        request = scheduler.acquire()
        cluster.sim.run()
        assert scheduler.total_free_slots == 0
        scheduler.cancel_request(request)
        assert scheduler.total_free_slots == 1
