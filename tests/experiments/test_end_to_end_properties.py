"""End-to-end property tests: system invariants under random workloads.

For arbitrary (seeded) job mixes, schemes, and failure injections, the
wired system must uphold its global invariants: every job finishes,
resources return to quiescence, the memory directory never lies, and
migration accounting stays consistent.  These are the invariants a
downstream user implicitly relies on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, NodeSpec
from repro.compute import ComputeConfig, mapreduce_job
from repro.core import DyrsConfig, MigrationStatus
from repro.core.failures import ChaosFault, FailureInjector
from repro.dfs import EvictionMode
from repro.system import SCHEMES, System, SystemConfig
from repro.units import GB, MB

#: Every scheme, plus the ``dyrs`` configurations that turn on an
#: extension: an SSD; an SSD and an archive; a one-shard federation;
#: and the same with a pull window of 2.  Each entry is
#: ``(scheme, extra ClusterSpec fields, shards, pull window)``.
CONFIGURATIONS = [(scheme, {}, None, 1) for scheme in SCHEMES] + [
    ("dyrs", {"ssd": True}, None, 1),
    ("dyrs", {"ssd": True, "archive": True}, None, 1),
    ("dyrs", {}, 1, 1),
    ("dyrs", {}, 1, 2),
]


def run_random_workload(configuration, seed, n_jobs, implicit):
    scheme, devices, shards, window = configuration
    system = System(
        SystemConfig(
            scheme=scheme,
            cluster=ClusterSpec(
                n_workers=4,
                seed=seed,
                node=NodeSpec(task_slots=4),
                overrides={0: NodeSpec(task_slots=4).with_disk_bandwidth(30 * MB)},
                **devices,
            ),
            dyrs=DyrsConfig(shard_pull_window=window),
            shards=shards,
            block_size=64 * MB,
            compute=ComputeConfig(job_init_overhead=3.0, task_launch_overhead=0.5),
        )
    ).start()
    rng = system.cluster.rngs.stream("workload")
    jobs = []
    for i in range(n_jobs):
        size = float(rng.uniform(32 * MB, 512 * MB))
        name = f"j{i}/input"
        system.load_input(name, size)
        blocks = system.client.blocks_of([name])
        jobs.append(
            mapreduce_job(
                f"j{i}",
                blocks,
                [name],
                shuffle_bytes=size * float(rng.uniform(0, 0.5)),
                output_bytes=size * float(rng.uniform(0, 0.3)),
                submit_time=float(rng.uniform(0, 30)),
                eviction=(
                    EvictionMode.IMPLICIT if implicit else EvictionMode.EXPLICIT
                ),
            )
        )
    metrics = system.runtime.run_to_completion(jobs)
    # Drain any trailing eviction/heartbeat work.
    system.sim.run(until=system.sim.now + 30)
    return system, metrics


class TestSystemInvariants:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        configuration=st.sampled_from(CONFIGURATIONS),
        seed=st.integers(min_value=0, max_value=500),
        n_jobs=st.integers(min_value=1, max_value=6),
        implicit=st.booleans(),
    )
    def test_invariants_hold(self, configuration, seed, n_jobs, implicit):
        system, metrics = run_random_workload(configuration, seed, n_jobs, implicit)

        # 1. Every job finished with complete task metrics.
        assert len(metrics.finished_jobs()) == n_jobs
        for jm in metrics.finished_jobs():
            assert jm.duration is not None and jm.duration > 0
            assert all(t.finished_at is not None for t in jm.tasks)

        # 2. Quiescence: no slots held, no flows spinning.
        assert system.scheduler.total_free_slots == sum(
            n.spec.task_slots for n in system.cluster.nodes
        )
        for node in system.cluster.nodes:
            assert node.disk.channel.active_flows == 0
            assert node.nic.egress.active_flows == 0
            assert node.nic.ingress.active_flows == 0

        # 3. Directory truth: every directory entry is actually pinned.
        for block_id, node_id in system.namenode.directory["memory"].items():
            assert system.namenode.datanodes[node_id].holds("memory", block_id)

        # 4. Memory accounting: resident bytes equal the sum of pinned
        #    block sizes, and implicit jobs leave nothing behind.
        for node in system.cluster.nodes:
            pinned = sum(
                system.namenode.namespace.block(b).size
                for b in node.datanode.pinned_ids("memory")
            )
            assert node.memory.used == pytest.approx(pinned)
        if implicit and system.master is not None:
            assert system.cluster.total_memory_used() == 0.0

        # 5. Migration records are internally consistent.
        if system.master is not None:
            for record in system.master.record_log:
                if record.status in (MigrationStatus.DONE, MigrationStatus.EVICTED):
                    assert record.bound_node in record.block.replica_nodes
                    assert record.completed_at >= record.started_at
                if record.status is MigrationStatus.DISCARDED:
                    assert record.discard_reason is not None

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=200),
        crash_time=st.floats(min_value=1.0, max_value=30.0),
        victim=st.integers(min_value=0, max_value=3),
    )
    def test_invariants_survive_slave_crash(self, seed, crash_time, victim):
        """Same invariants with a mid-run slave crash + restart."""
        system = System(
            SystemConfig(
                scheme="dyrs",
                cluster=ClusterSpec(n_workers=4, seed=seed, node=NodeSpec(task_slots=4)),
                block_size=64 * MB,
                compute=ComputeConfig(job_init_overhead=3.0),
            )
        ).start()
        injector = FailureInjector(system.cluster, system.master)
        injector.inject(ChaosFault(crash_time, "slave-crash", victim, 10.0))
        system.load_input("big/input", 2 * GB)
        blocks = system.client.blocks_of(["big/input"])
        job = mapreduce_job(
            "big", blocks, ["big/input"], shuffle_bytes=0.0, output_bytes=0.0
        )
        metrics = system.runtime.run_to_completion([job])
        system.sim.run(until=system.sim.now + 30)
        assert metrics.jobs["big"].finished_at is not None
        for block_id, node_id in system.namenode.directory["memory"].items():
            assert system.namenode.datanodes[node_id].holds("memory", block_id)
        assert system.cluster.total_memory_used() == 0.0  # implicit default
