"""A YARN/Tez-like execution substrate.

The paper runs Hive-on-Tez and Hadoop workloads over YARN (§V-A); this
subpackage provides the matching compute model:

* :mod:`repro.compute.job` -- job/stage/task specifications (DAGs);
* :mod:`repro.compute.scheduler` -- slot-based FIFO task scheduler
  with data-locality preference; queueing here is one of the two
  lead-time sources (§II-C1);
* :mod:`repro.compute.task` -- map/shuffle/reduce execution charging
  disk, memory, and NIC resources;
* :mod:`repro.compute.runtime` -- the job runtime: submission (with
  the migrate() hook of §IV-B), platform overheads (the other
  lead-time source), stage DAG driving, and completion eviction;
* :mod:`repro.compute.metrics` -- per-task and per-job measurements.
"""

from repro.compute.job import JobSpec, StageSpec, TaskKind, TaskSpec, mapreduce_job
from repro.compute.metrics import JobMetrics, MetricsCollector, TaskMetrics
from repro.compute.scheduler import TaskScheduler
from repro.compute.runtime import ComputeConfig, JobRuntime

__all__ = [
    "ComputeConfig",
    "JobMetrics",
    "JobRuntime",
    "JobSpec",
    "MetricsCollector",
    "StageSpec",
    "TaskKind",
    "TaskMetrics",
    "TaskScheduler",
    "TaskSpec",
    "mapreduce_job",
]
