#!/usr/bin/env python
"""Failure drill: crash the DYRS master and a slave mid-migration.

§III-C's claim under test: "When there is a failure, DYRS reverts to
the default behavior of the file system with no migration.  The only
adverse effect is the loss of the speedup from migration."

Run:  python examples/failure_drill.py
"""

from repro.core.failures import ChaosFault, FailureInjector
from repro.core.records import MigrationStatus
from repro.experiments.common import PaperSetup, build_system
from repro.units import GB
from repro.workloads.sort import sort_job


def drill(label: str, fault=None) -> None:
    system = build_system(
        PaperSetup(scheme="dyrs", seed=5, interference="none")
    )
    injector = FailureInjector(system.cluster, system.master)
    if fault is not None:
        injector.inject(fault)
    job = sort_job(system, size=6 * GB, job_id="sort", extra_lead_time=20.0)
    metrics = system.runtime.run_to_completion([job])
    statuses = {}
    for record in system.master.record_log:
        statuses[record.status.name] = statuses.get(record.status.name, 0) + 1
    mem_frac = metrics.jobs["sort"].memory_read_fraction()
    print(f"{label}")
    print(f"  job duration:        {metrics.jobs['sort'].duration:.1f}s")
    print(f"  reads from memory:   {mem_frac:.0%}")
    print(f"  migration statuses:  {statuses}")
    print(f"  failure log:         {injector.log}")
    print()


def main() -> None:
    drill("baseline (no failures):")
    drill(
        "slave on node2 crashes at t=10s, restarts at t=25s:",
        ChaosFault(10.0, "slave-crash", node_id=2, duration=15.0),
    )
    drill(
        "DYRS master crashes at t=10s, recovers at t=20s:",
        ChaosFault(10.0, "master-crash", node_id=None, duration=10.0),
    )
    drill(
        "whole server node3 dies at t=10s (no recovery):",
        ChaosFault(10.0, "node-crash", node_id=3, duration=None),
    )
    print(
        "Every drill completes the job; failures only trade migrated "
        "reads back into disk reads, exactly the soft-state story of "
        "§III-C."
    )


if __name__ == "__main__":
    main()
