"""The benchmark's workloads and the simulated outcome of one pass.

A *pass* runs every sub-run of one workload, one after another, in a
fresh interpreter, and pools their outcomes.  Sub-run ``i`` is a fixed
scenario: it replays SWIM trace ``i`` -- the trace
``repro.experiments.swim`` draws for seed ``i`` -- and, on the chaos
workload, fault campaign ``i``, as the paper replays one trace.  The
benchmark seed drives everything else: block placement, interference
phases and every random stream of the system.  A seed therefore fixes
a pass's inputs, and repeating a pass must reproduce its simulated
outcome exactly.  (Drawing traces and campaigns from the seed too made
the job-latency tail and the failure metrics vary 25-40% from seed to
seed, wider than any useful regression bound.)

Load is open loop in simulated time: jobs arrive on the trace's
Poisson schedule whatever the system state, and each job is timed from
its scheduled arrival, so a stall shows up in every job queued behind
it.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Optional, Sequence

from repro.analysis.stats import percentile
from repro.core.failures import ChaosCampaign, FailureInjector, quiesce_violations
from repro.experiments.chaos import CHAOS_DYRS_OVERRIDES
from repro.experiments.common import PaperSetup, build_system
from repro.sim.engine import Simulator
from repro.sim.events import AllOf
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.units import GB
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs

#: Simulated seconds after the last arrival within which every job must
#: finish; a job still running then counts as not finished.
FINISH_GRACE_S = 3600.0

#: Injector log actions that are faults taking effect (it also logs
#: recoveries, restores and skipped actions).  A ``shard-loss`` fault
#: is armed as a ``shard-crash`` that never recovers, so it logs as one.
FAULT_ACTIONS = frozenset(
    {
        "slave-crash",
        "node-crash",
        "master-crash",
        "degrade-disk",
        "degrade-nic",
        "partition",
        "rpc-delay",
        "shard-crash",
    }
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a cluster, a SWIM mix and a sub-run count."""

    #: Simulations per pass, each replaying its own trace.
    sub_runs: int
    n_workers: int
    n_jobs: int
    #: Bytes.
    total_input: float
    mean_interarrival: float
    scheme: str = "dyrs"
    interference: str = "persistent-1"
    #: Per-node cap on migrated bytes (None: all of memory).
    memory_limit: Optional[float] = None
    dyrs_overrides: dict = field(default_factory=dict)
    shards: int = 1
    shard_router: str = "block"
    #: Faults a seeded ``ChaosCampaign`` spreads over the arrival horizon.
    chaos_faults: int = 0
    #: Simulated seconds run past the arrival horizon once every job
    #: finished, so chaos recoveries and reclaim loops settle.
    drain_s: float = 0.0

    @property
    def arrival_horizon(self) -> float:
        """Expected simulated time of the last arrival."""
        return self.n_jobs * self.mean_interarrival


#: Why each workload exists is recorded in ``BENCHMARK.json`` and
#: ``bench/README.md``; sizes keep one pass at a few host seconds.
WORKLOADS: dict[str, Workload] = {
    # The paper's testbed and SWIM mix (Table I, Figs 5-7).
    "paper-swim": Workload(
        sub_runs=12,
        n_workers=7,
        n_jobs=200,
        total_input=170 * GB,
        mean_interarrival=6.0,
    ),
    # Working set 8x the memory cap; idle slaves poll every heartbeat.
    "scale-poll-memcap": Workload(
        sub_runs=1,
        n_workers=160,
        n_jobs=200,
        total_input=1280 * GB,
        mean_interarrival=6.0,
        interference="none",
        memory_limit=1 * GB,
        dyrs_overrides={"idle_pull": "poll"},
    ),
    # 1000 nodes with idle slaves parked at the master; all fits in
    # memory.  1.6 GB per node over 20 simulated minutes, so the
    # per-node heartbeat and master bookkeeping outweigh the data path.
    "scale-notify-1k": Workload(
        sub_runs=1,
        n_workers=1000,
        n_jobs=200,
        total_input=1600 * GB,
        mean_interarrival=6.0,
        interference="none",
        dyrs_overrides={"idle_pull": "notify"},
    ),
    # The async per-shard pull protocol under every fault kind.
    "sharded-chaos": Workload(
        sub_runs=5,
        n_workers=64,
        n_jobs=200,
        total_input=320 * GB,
        mean_interarrival=1.5,
        scheme="dyrs-sharded-async",
        dyrs_overrides={"pull_service_cost": 0.002},
        shards=4,
        shard_router="rendezvous",
        chaos_faults=16,
        drain_s=30.0,
    ),
}


@dataclass
class SubRun:
    """Host cost and simulated outcome of one simulation."""

    setup_s: float
    wall_s: float
    events: int
    #: Arrival-to-finish of every finished job, simulated seconds.
    job_durations: list[float]
    jobs_attempted: int
    #: job id -> finish time; the exact outcome the digest hashes.
    finished: dict[str, float]
    memory_read_bytes: float
    input_bytes: float
    node_peaks: list[float]
    records: int
    records_completed: int
    records_discarded: int
    discards_shard_down: int
    records_reclaimed: int
    binding_latencies: list[float]
    migrated_bytes: float
    task_queueing: list[float]
    retarget_passes: int
    quiesce_violations: int
    faults_fired: int


def run_jobs(sim: Simulator, processes: list[Process], deadline: float) -> None:
    """Run until every job process has ended or the clock passes
    ``deadline``.

    While no job fails this steps exactly as
    ``JobRuntime.run_to_completion`` does.  A failed job fails the
    ``AllOf`` at once, so the run goes on for the jobs still running.
    The caller counts finished jobs from the metrics.
    """
    remaining = processes
    while remaining:
        done = AllOf(sim, remaining)
        try:
            sim.run_until_processed(done, limit=deadline)
        except Exception as exc:
            print(f"bench: {exc!r} at t={sim.now:.6g}", file=sys.stderr)
            if not done.processed:
                return  # past the deadline, out of events, or a step raised
        remaining = [p for p in remaining if not p.processed]


def run_sub(
    workload: Workload,
    seed: int,
    trace: int,
    run_scope: Callable[[], ContextManager] = nullcontext,
) -> SubRun:
    """Build, load and run sub-run ``trace``; measure it from outside.

    ``run_scope`` is entered around the run phase only (the layer
    profiler's root span).
    """
    sub_seed = seed * 1000 + trace  # distinct per sub-run for fewer than 1000
    gc.collect()
    start = time.perf_counter()
    overrides = dict(workload.dyrs_overrides)
    if workload.chaos_faults:
        # Every chaos run hardens the pull RPC, as the chaos soak does:
        # partitions and delay spikes must time out, not wedge the loop.
        overrides.update(CHAOS_DYRS_OVERRIDES)
    system = build_system(
        PaperSetup(
            scheme=workload.scheme,
            seed=sub_seed,
            interference=workload.interference,
            n_workers=workload.n_workers,
            memory_limit=workload.memory_limit,
            dyrs_overrides=overrides,
            shards=workload.shards,
            shard_router=workload.shard_router,
        )
    )
    descriptors = generate_swim_workload(
        RngRegistry(trace).stream("swim"),
        n_jobs=workload.n_jobs,
        total_input=workload.total_input,
        # The paper's 24 GB largest job, capped (as the scale sweep
        # does) so that small totals still leave a tail to rescale.
        max_input=min(24 * GB, workload.total_input / 4),
        mean_interarrival=workload.mean_interarrival,
    )
    jobs = materialize_swim_jobs(system, descriptors)
    injector = None
    if workload.chaos_faults:
        injector = FailureInjector(system.cluster, master=system.master)
        ChaosCampaign(
            injector,
            seed=trace,
            horizon=workload.arrival_horizon,
            n_faults=workload.chaos_faults,
        ).arm()
    ready = time.perf_counter()
    with run_scope():
        run_jobs(
            system.sim,
            [system.runtime.submit(job) for job in jobs],
            deadline=max(job.submit_time for job in jobs) + FINISH_GRACE_S,
        )
        if workload.drain_s:
            system.sim.run(
                until=max(system.sim.now, workload.arrival_horizon) + workload.drain_s
            )
    done = time.perf_counter()

    master = system.master
    submit = {job.job_id: job.submit_time for job in jobs}
    finished = {
        jm.job_id: jm.finished_at
        for jm in system.metrics.jobs.values()
        if jm.finished_at is not None
    }
    tasks = [t for jm in system.metrics.jobs.values() for t in jm.tasks]
    read = [t for t in tasks if t.read_source is not None]
    records = master.record_log
    reasons = [r.discard_reason for r in records if r.discard_reason is not None]
    return SubRun(
        setup_s=ready - start,
        wall_s=done - ready,
        events=system.sim.steps,
        job_durations=[finished[j] - submit[j] for j in sorted(finished)],
        jobs_attempted=len(jobs),
        finished=finished,
        memory_read_bytes=sum(t.input_bytes for t in read if t.read_source.is_memory),
        input_bytes=sum(t.input_bytes for t in read),
        node_peaks=[node.memory.peak for node in system.cluster.nodes],
        records=len(records),
        records_completed=sum(1 for r in records if r.completed_at is not None),
        records_discarded=len(reasons),
        discards_shard_down=reasons.count("shard-down"),
        records_reclaimed=reasons.count("slave-failure"),
        binding_latencies=[
            r.binding_delay for r in records if r.binding_delay is not None
        ],
        migrated_bytes=master.migrated_bytes(),
        task_queueing=[t.queueing_delay for t in tasks if t.queueing_delay is not None],
        retarget_passes=master.retarget_passes,
        quiesce_violations=len(quiesce_violations(master)),
        faults_fired=(
            sum(1 for _, action, _ in injector.log if action in FAULT_ACTIONS)
            if injector is not None
            else 0
        ),
    )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` percentile, ``q`` in [0, 1]; 0 for no samples."""
    return percentile(values, q * 100) if values else 0.0


def simulated_outcome(subs: list[SubRun]) -> dict:
    """Pool sub-runs into the pass's simulated metrics.

    Every value is a pure function of the inputs, so two passes of one
    seed must agree exactly; ``digest`` pins each job's finish time.
    ``job_n`` is the sample count under the job percentiles; the runner
    checks that it leaves enough samples beyond the p95.
    """
    durations = [d for s in subs for d in s.job_durations]
    peaks = [p for s in subs for p in s.node_peaks]
    records = sum(s.records for s in subs)
    migrated = sum(s.migrated_bytes for s in subs)
    memory_read = sum(s.memory_read_bytes for s in subs)
    latencies = [x for s in subs for x in s.binding_latencies]
    queueing = [x for s in subs for x in s.task_queueing]
    digest = hashlib.sha256()
    for s in subs:
        for job_id in sorted(s.finished):
            digest.update(f"{job_id}={s.finished[job_id]!r};".encode())
    return {
        "events": sum(s.events for s in subs),
        "job_p50_s": _percentile(durations, 0.50),
        "job_p95_s": _percentile(durations, 0.95),
        "job_n": len(durations),
        "jobs_attempted": sum(s.jobs_attempted for s in subs),
        "jobs_finished": sum(len(s.finished) for s in subs),
        "memory_read_fraction": _share(memory_read, sum(s.input_bytes for s in subs)),
        "mem_peak_gb_per_node": sum(peaks) / len(peaks) / GB,
        "migration_success_share": _share(
            sum(s.records_completed for s in subs), records
        ),
        "core.master.migration_failed_share": _share(
            sum(s.records_discarded for s in subs), records
        ),
        "core.master.binding_latency_p50_s": _percentile(latencies, 0.50),
        "core.master.binding_latency_p95_s": _percentile(latencies, 0.95),
        "core.master.retarget_passes": sum(s.retarget_passes for s in subs),
        "core.master.reclaimed": sum(s.records_reclaimed for s in subs),
        "core.slave.useful_migration_share": _share(memory_read, migrated),
        "core.slave.migrated_gb": migrated / GB,
        "compute.task_queueing_p95_s": _percentile(queueing, 0.95),
        "core.failures.faults_fired": sum(s.faults_fired for s in subs),
        "core.failures.quiesce_violations": sum(s.quiesce_violations for s in subs),
        "shard.discards_shard_down": sum(s.discards_shard_down for s in subs),
        "digest": digest.hexdigest(),
    }
