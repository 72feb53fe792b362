"""Workload generators for the paper's three evaluations plus the
Google-trace motivation analysis.

* :mod:`repro.workloads.swim` -- the Facebook-derived SWIM workload
  (200 jobs, heavy-tailed sizes, compressed inter-arrivals, §V-B2);
* :mod:`repro.workloads.hive` -- ten TPC-DS-like Hive queries
  (§V-B1);
* :mod:`repro.workloads.sort` -- the Sort application and its size /
  lead-time sweeps (§V-B3, §V-F);
* :mod:`repro.workloads.google_trace` -- a synthetic stand-in for the
  Google cluster trace reproducing the published aggregates that
  Figs 1-3 and §II-C are built on;
* :mod:`repro.workloads.aging` -- hot-then-cold datasets with flash
  re-heats, exercising the lifecycle/archive extension.
"""

from repro.workloads.aging import (
    AgingDatasetDescriptor,
    generate_aging_workload,
    materialize_aging_jobs,
)

from repro.workloads.swim import (
    SwimJobDescriptor,
    generate_swim_workload,
    materialize_swim_jobs,
    size_bin,
)
from repro.workloads.hive import HiveQuery, build_query_job, hive_query_suite
from repro.workloads.sort import sort_job
from repro.workloads.google_trace import (
    GoogleTraceModel,
    JobTraceRecord,
    generate_job_records,
    generate_node_utilization,
)

__all__ = [
    "AgingDatasetDescriptor",
    "generate_aging_workload",
    "materialize_aging_jobs",
    "GoogleTraceModel",
    "HiveQuery",
    "JobTraceRecord",
    "SwimJobDescriptor",
    "build_query_job",
    "generate_job_records",
    "generate_node_utilization",
    "generate_swim_workload",
    "hive_query_suite",
    "materialize_swim_jobs",
    "size_bin",
    "sort_job",
]
