"""Measurement records for tasks and jobs.

Everything the evaluation section reports is derived from these:
job durations (Fig 4a, Table I, Fig 5, Table II, Fig 11), map-task
durations (Fig 6, Fig 11a), read sources and byte counts, lead-times,
and memory usage (sampled by the cluster layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.compute.job import TaskKind
from repro.dfs.datanode import ReadSource
from repro.obs import metrics as obs_metrics

__all__ = ["TaskMetrics", "JobMetrics", "MetricsCollector"]


@dataclass(slots=True)
class TaskMetrics:
    """Timeline of one task."""

    job_id: str
    task_id: str
    kind: TaskKind
    node_id: Optional[int] = None
    queued_at: Optional[float] = None
    started_at: Optional[float] = None
    read_done_at: Optional[float] = None
    finished_at: Optional[float] = None
    read_source: Optional[ReadSource] = None
    input_bytes: float = 0.0

    @property
    def duration(self) -> Optional[float]:
        """Slot-grant to completion."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def queueing_delay(self) -> Optional[float]:
        if self.queued_at is None or self.started_at is None:
            return None
        return self.started_at - self.queued_at

    @property
    def read_time(self) -> Optional[float]:
        if self.started_at is None or self.read_done_at is None:
            return None
        return self.read_done_at - self.started_at


@dataclass(slots=True)
class JobMetrics:
    """Timeline and aggregates of one job."""

    job_id: str
    submitted_at: Optional[float] = None
    first_task_started_at: Optional[float] = None
    finished_at: Optional[float] = None
    tasks: list[TaskMetrics] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        """End-to-end: submission to completion (includes lead-time)."""
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def lead_time(self) -> Optional[float]:
        """Submission to first task start (§II-C1's definition)."""
        if self.submitted_at is None or self.first_task_started_at is None:
            return None
        return self.first_task_started_at - self.submitted_at

    @property
    def map_tasks(self) -> list[TaskMetrics]:
        return [t for t in self.tasks if t.kind is TaskKind.MAP]

    def map_durations(self) -> list[float]:
        return [t.duration for t in self.map_tasks if t.duration is not None]

    @property
    def map_phase_duration(self) -> Optional[float]:
        """First map start to last map finish."""
        maps = [
            t
            for t in self.map_tasks
            if t.started_at is not None and t.finished_at is not None
        ]
        if not maps:
            return None
        return max(t.finished_at for t in maps) - min(t.started_at for t in maps)

    def bytes_by_source(self) -> dict[ReadSource, float]:
        """DFS input bytes grouped by the read path used."""
        out: dict[ReadSource, float] = {}
        for t in self.tasks:
            if t.read_source is not None:
                out[t.read_source] = out.get(t.read_source, 0.0) + t.input_bytes
        return out

    def memory_read_fraction(self) -> float:
        """Fraction of DFS input bytes served from memory."""
        by_source = self.bytes_by_source()
        total = sum(by_source.values())
        if total == 0:
            return 0.0
        mem = sum(v for k, v in by_source.items() if k.is_memory)
        return mem / total


class MetricsCollector:
    """Collects all job metrics of one experiment run."""

    def __init__(self) -> None:
        self.jobs: dict[str, JobMetrics] = {}
        #: Completed tier moves per ladder edge: (source, dest) -> count
        #: (fed by the storage-ladder master; empty for the paper's
        #: schemes).
        self.tier_moves: dict[tuple[str, str], int] = {}
        #: Unified metrics sink (the no-op registry unless a run scoped
        #: one in via ``repro.obs.metrics.collecting``).
        self.registry = obs_metrics.active_registry()

    # -- tier lifecycle (the tiered-storage extension) -------------------------

    def record_tier_move(self, source: str, dest: str) -> None:
        """Count one completed ``source`` -> ``dest`` block move."""
        key = (source, dest)
        self.tier_moves[key] = self.tier_moves.get(key, 0) + 1
        self.registry.counter("tier_moves_total", source=source, dest=dest).inc()

    def promotion_count(self) -> int:
        """Completed moves that climbed the tier ladder."""
        from repro.tiers.tier import is_promotion

        return sum(
            n for (s, d), n in self.tier_moves.items() if is_promotion(s, d)
        )

    def demotion_count(self) -> int:
        """Completed moves that descended the tier ladder."""
        from repro.tiers.tier import is_promotion

        return sum(
            n for (s, d), n in self.tier_moves.items() if not is_promotion(s, d)
        )

    def job(self, job_id: str) -> JobMetrics:
        """The metrics record for ``job_id`` (created on first use)."""
        if job_id not in self.jobs:
            self.jobs[job_id] = JobMetrics(job_id=job_id)
        return self.jobs[job_id]

    def job_finished(self, jm: JobMetrics) -> None:
        """Publish one finished job into the unified registry."""
        reg = self.registry
        if not reg.enabled:
            return
        reg.counter("jobs_finished_total").inc()
        if jm.duration is not None:
            reg.histogram("job_duration_seconds").observe(jm.duration)
        if jm.lead_time is not None:
            reg.histogram("job_lead_time_seconds").observe(jm.lead_time)
        reg.histogram("job_memory_read_fraction", bounds=(
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
        )).observe(jm.memory_read_fraction())

    def finished_jobs(self) -> list[JobMetrics]:
        return [j for j in self.jobs.values() if j.finished_at is not None]

    def mean_job_duration(self) -> float:
        """Average end-to-end duration over finished jobs."""
        durations = [j.duration for j in self.finished_jobs()]
        if not durations:
            raise ValueError("no finished jobs")
        return sum(durations) / len(durations)

    def all_map_durations(self) -> list[float]:
        return [
            d for j in self.finished_jobs() for d in j.map_durations()
        ]

    def total_input_bytes(self) -> float:
        return sum(
            t.input_bytes for j in self.jobs.values() for t in j.tasks
        )
