"""Integration tests: jobs running end-to-end on the System facade."""

import pytest

from repro.cluster import ClusterSpec
from repro.compute import ComputeConfig, TaskKind, mapreduce_job
from repro.dfs import ReadSource
from repro.system import System, SystemConfig
from repro.units import GB, MB


def build(scheme="hdfs", n_workers=4, seed=1, overrides=None, compute=None):
    return System(
        SystemConfig(
            scheme=scheme,
            cluster=ClusterSpec(n_workers=n_workers, seed=seed, overrides=overrides or {}),
            block_size=64 * MB,
            compute=compute or ComputeConfig(),
        )
    ).start()


def simple_job(system, job_id="j1", size=256 * MB, shuffle=64 * MB, out=64 * MB,
               submit_time=0.0, **kw):
    name = f"input-{job_id}"
    system.load_input(name, size)
    blocks = system.client.blocks_of([name])
    return mapreduce_job(
        job_id, blocks, [name], shuffle_bytes=shuffle, output_bytes=out,
        submit_time=submit_time, **kw,
    )


class TestJobExecution:
    def test_job_completes_with_metrics(self):
        system = build()
        job = simple_job(system)
        metrics = system.runtime.run_to_completion([job])
        jm = metrics.jobs["j1"]
        assert jm.finished_at is not None
        assert jm.duration > 0
        assert len(jm.map_tasks) == 4
        assert all(t.finished_at is not None for t in jm.tasks)

    def test_lead_time_includes_platform_overhead(self):
        system = build(compute=ComputeConfig(job_init_overhead=7.0))
        job = simple_job(system)
        metrics = system.runtime.run_to_completion([job])
        jm = metrics.jobs["j1"]
        assert jm.lead_time >= 7.0

    def test_extra_lead_time_delays_start(self):
        system = build()
        job = simple_job(system, extra_lead_time=20.0)
        metrics = system.runtime.run_to_completion([job])
        assert metrics.jobs["j1"].lead_time >= 20.0

    def test_submit_time_respected(self):
        system = build()
        job = simple_job(system, submit_time=42.0)
        metrics = system.runtime.run_to_completion([job])
        assert metrics.jobs["j1"].submitted_at == pytest.approx(42.0)

    def test_stage_ordering_maps_before_reduces(self):
        system = build()
        job = simple_job(system)
        metrics = system.runtime.run_to_completion([job])
        jm = metrics.jobs["j1"]
        map_end = max(t.finished_at for t in jm.tasks if t.kind is TaskKind.MAP)
        reduce_start = min(
            t.started_at for t in jm.tasks if t.kind is TaskKind.REDUCE
        )
        assert reduce_start >= map_end

    def test_hdfs_reads_all_from_disk(self):
        system = build(scheme="hdfs")
        job = simple_job(system)
        metrics = system.runtime.run_to_completion([job])
        jm = metrics.jobs["j1"]
        assert jm.memory_read_fraction() == 0.0
        for t in jm.map_tasks:
            assert t.read_source in (ReadSource.LOCAL_DISK, ReadSource.REMOTE_DISK)

    def test_ram_reads_all_from_memory(self):
        system = build(scheme="ram")
        job = simple_job(system)
        metrics = system.runtime.run_to_completion([job])
        assert metrics.jobs["j1"].memory_read_fraction() == 1.0

    def test_multiple_jobs_share_cluster(self):
        system = build()
        jobs = [
            simple_job(system, job_id=f"j{i}", submit_time=float(i))
            for i in range(3)
        ]
        metrics = system.runtime.run_to_completion(jobs)
        assert len(metrics.finished_jobs()) == 3

    def test_reduce_output_written_to_dfs(self):
        system = build()
        job = simple_job(system, out=128 * MB)
        system.runtime.run_to_completion([job])
        outs = [
            f for f in system.namenode.namespace.files() if "/out" in f.name
        ]
        assert sum(f.size for f in outs) == pytest.approx(128 * MB)


class TestDyrsIntegration:
    def test_dyrs_accelerates_io_bound_job(self):
        """The headline mechanism: with lead-time, DYRS turns disk
        reads into memory reads and the job gets faster."""
        def run(scheme):
            system = build(
                scheme=scheme,
                n_workers=4,
                compute=ComputeConfig(job_init_overhead=15.0),
            )
            job = simple_job(system, size=1 * GB, shuffle=16 * MB, out=16 * MB)
            metrics = system.runtime.run_to_completion([job])
            return metrics.jobs["j1"]

        hdfs = run("hdfs")
        dyrs = run("dyrs")
        assert dyrs.memory_read_fraction() > 0.8
        assert dyrs.duration < hdfs.duration

    def test_migration_triggered_at_submission(self):
        system = build(scheme="dyrs")
        job = simple_job(system, size=512 * MB)
        system.runtime.run_to_completion([job])
        # Requests recorded at submit time, before lead-time elapsed.
        first = min(r.requested_at for r in system.master.record_log)
        assert first == pytest.approx(system.metrics.jobs["j1"].submitted_at)

    def test_memory_cleared_after_implicit_job(self):
        system = build(scheme="dyrs")
        job = simple_job(system, size=512 * MB)
        system.runtime.run_to_completion([job])
        system.sim.run(until=system.sim.now + 10)
        assert system.cluster.total_memory_used() == 0.0

    def test_gc_provider_wired(self):
        system = build(scheme="dyrs")
        assert system.master.active_jobs_provider is not None


class TestSystemValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(scheme="alluxio")

    def test_instant_scheme_has_no_slaves(self):
        system = build(scheme="instant")
        assert system.slaves == []
        job = simple_job(system)
        metrics = system.runtime.run_to_completion([job])
        assert metrics.jobs["j1"].memory_read_fraction() == 1.0
