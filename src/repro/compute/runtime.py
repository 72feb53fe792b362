"""The job runtime: submission, lead-time, stage driving, cleanup.

The runtime reproduces the paper's integration points:

* **migration at submission** -- "we inserted the migration call in
  the job-submitter, the first element in a job's life cycle" (§IV-B);
* **platform overhead** -- shipping binaries / JVM warm-up delay
  between submission and the first task launch (§II-C1);
* **artificial lead-time** -- Fig 11b's experiment knob, an extra wait
  inserted after submission;
* **completion cleanup** -- the job's migration references are dropped
  when it finishes, so explicit-mode data leaves memory (§III-C3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.compute.job import JobSpec
from repro.compute.metrics import JobMetrics, MetricsCollector, TaskMetrics
from repro.compute.scheduler import TaskScheduler
from repro.compute.task import execute_task
from repro.obs import trace as obs
from repro.sim.events import AllOf
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Cluster
    from repro.dfs.client import DFSClient

__all__ = ["ComputeConfig", "JobRuntime"]


@dataclass(frozen=True)
class ComputeConfig:
    """Execution-environment constants.

    Attributes
    ----------
    task_launch_overhead:
        Container/JVM start cost per task, seconds.
    job_init_overhead:
        Submission-to-first-container platform overhead, seconds; with
        queueing this produces the lead-time DYRS exploits (the Google
        trace mean is 8.8 s, §II-C1).

    Each task runs as one attempt: the paper's engine (Tez 0.9) ships
    with ``tez.am.speculation.enabled=false``.  The job-submitter
    always sends the migrate() RPC, which does nothing without a
    migration master (:meth:`~repro.dfs.client.DFSClient.migrate`).
    """

    task_launch_overhead: float = 1.0
    job_init_overhead: float = 5.0

    def __post_init__(self) -> None:
        if self.task_launch_overhead < 0:
            raise ValueError("task_launch_overhead must be >= 0")
        if self.job_init_overhead < 0:
            raise ValueError("job_init_overhead must be >= 0")


class JobRuntime:
    """Drives job DAGs against a cluster + DFS + scheduler."""

    def __init__(
        self,
        cluster: "Cluster",
        client: "DFSClient",
        scheduler: Optional[TaskScheduler] = None,
        config: Optional[ComputeConfig] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.client = client
        self.scheduler = scheduler or TaskScheduler(cluster)
        self.config = config or ComputeConfig()
        self.metrics = metrics or MetricsCollector()
        # Let the migration master GC against the live job registry.
        master = client.namenode.migration_master
        if master is not None:
            master.active_jobs_provider = self.scheduler.active_job_ids

    # -- submission ---------------------------------------------------------

    def submit(self, job: JobSpec) -> Process:
        """Schedule ``job`` to run at its ``submit_time``.

        Returns the job's process; it triggers (as an event) when the
        job completes, with the job's :class:`JobMetrics` as value.
        """
        return self.sim.process(self._run_job(job), name=f"job:{job.job_id}")

    def run_to_completion(self, jobs: Iterable[JobSpec]) -> MetricsCollector:
        """Submit ``jobs`` and run the simulation until all finish."""
        processes = [self.submit(job) for job in jobs]
        if processes:
            self.sim.run_until_processed(AllOf(self.sim, processes))
        return self.metrics

    # -- internals ---------------------------------------------------------------

    def _run_job(self, job: JobSpec):
        sim = self.sim
        if job.submit_time > sim.now:
            yield sim.timeout(job.submit_time - sim.now)
        jm: JobMetrics = self.metrics.job(job.job_id)
        jm.submitted_at = sim.now
        obs.emit(obs.JOB_SUBMIT, sim.now, job=job.job_id)
        self.scheduler.job_started(job.job_id)

        # The §IV-B hook: migrate inputs the moment the job enters the
        # system, maximizing usable lead-time.
        if job.input_files:
            self.client.migrate(
                job.input_files, job_id=job.job_id, eviction=job.eviction
            )

        platform_wait = self.config.job_init_overhead + job.extra_lead_time
        if platform_wait > 0:
            yield sim.timeout(platform_wait)

        for stage in job.topo_stages():
            task_processes = []
            for task in stage.tasks:
                tm = TaskMetrics(job_id=job.job_id, task_id=task.task_id, kind=task.kind)
                jm.tasks.append(tm)
                task_processes.append(
                    sim.process(
                        execute_task(self, job.job_id, task, tm),
                        name=f"{job.job_id}:{task.task_id}",
                    )
                )
            yield AllOf(sim, task_processes)
            if jm.first_task_started_at is None:
                started = [t.started_at for t in jm.tasks if t.started_at is not None]
                if started:
                    jm.first_task_started_at = min(started)

        jm.finished_at = sim.now
        obs.emit(
            obs.JOB_FINISH,
            sim.now,
            job=job.job_id,
            submitted=jm.submitted_at,
            first_task_start=jm.first_task_started_at,
        )
        self.metrics.job_finished(jm)
        self.scheduler.job_finished(job.job_id)
        master = self.client.namenode.migration_master
        if master is not None:
            master.notify_job_finished(job.job_id)
        return jm
