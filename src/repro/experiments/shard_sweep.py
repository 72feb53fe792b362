"""Shard sweep: control-plane scaling of the partitioned master.

Not a paper figure -- this measures the extension of
:mod:`repro.shard`.  One fixed sort workload (small blocks, so the
pending map is deep and master service time is the bottleneck) runs
under the ``dyrs-sharded`` preset at shard counts 1/2/4/8 with a
non-zero ``pull_service_cost``: each pull RPC pays a service delay
linear in the pending map it scans.  One shard scans the global map,
as the flat master would; a wider federation scans its shards in
parallel and pays only for the deepest one, which is the win this
sweep quantifies.  The one-shard row is a federation all the same, so
its chaos campaign draws shard faults.

Each point also arms a small seeded chaos campaign (including the
``shard-crash`` fault) so the numbers reflect the failover machinery,
not a fair-weather fast path; trace invariants gate every point.

Reported per shard count: binding-latency p50/p99, mean/max slave
queue depth at bind time, migrated bytes, and makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.failures import ChaosCampaign, FailureInjector
from repro.experiments.common import PaperSetup, build_system
from repro.obs import trace as obs
from repro.obs.analyze import TraceAnalyzer
from repro.obs.invariants import TraceInvariants
from repro.units import GB, MB

__all__ = [
    "ShardPoint",
    "ShardSweepResult",
    "run",
    "report",
    "SHARD_COUNTS",
    "PULL_SERVICE_COST",
]

SHARD_COUNTS = (1, 2, 4, 8)

#: Seconds of master service per pending record scanned by one pull
#: RPC.  Deliberately coarse: with ~128 pending records the flat scan
#: costs seconds, so the sweep isolates the control-plane term the
#: shards parallelize (data-plane transfer times are identical across
#: shard counts).
PULL_SERVICE_COST = 0.02

#: Small blocks -> deep pending map (2 GB / 16 MB = 128 records).
SWEEP_BLOCK_SIZE = 16 * MB
SWEEP_SORT_SIZE = 2 * GB


@dataclass
class ShardPoint:
    """One shard count's measured outcome."""

    shards: int
    n_bindings: int = 0
    binding_p50: float = 0.0
    binding_p99: float = 0.0
    queue_depth_mean: float = 0.0
    queue_depth_max: int = 0
    migrated_bytes: float = 0.0
    makespan: float = 0.0
    faults_fired: int = 0
    violations: list[str] = field(default_factory=list)


@dataclass
class ShardSweepResult:
    seed: int
    points: list[ShardPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(not p.violations for p in self.points)

    @property
    def p99_speedup(self) -> float:
        """p99 binding latency, flat master over widest federation."""
        by_count = {p.shards: p for p in self.points}
        flat = by_count.get(1)
        wide = by_count.get(max(by_count))
        if flat is None or wide is None or not wide.binding_p99:
            return 0.0
        return flat.binding_p99 / wide.binding_p99


def run_point(
    shards: int, seed: int = 0, chaos: bool = True, n_faults: int = 4
) -> ShardPoint:
    """Measure one shard count; trace-invariant audited."""
    from repro.workloads.sort import sort_job

    point = ShardPoint(shards=shards)
    with obs.tracing() as tracer:
        system = build_system(
            PaperSetup(
                scheme="dyrs-sharded",
                seed=seed,
                interference="none",
                block_size=SWEEP_BLOCK_SIZE,
                dyrs_overrides={"pull_service_cost": PULL_SERVICE_COST},
                shards=shards,
            )
        )
        if chaos:
            injector = FailureInjector(system.cluster, master=system.master)
            campaign = ChaosCampaign(
                injector, seed=seed, horizon=90.0, n_faults=n_faults
            )
            campaign.arm()
        jobs = [
            sort_job(system, size=SWEEP_SORT_SIZE, job_id=f"shard{shards}-sort"),
        ]
        system.runtime.run_to_completion(jobs)
        # Let scheduled recoveries fire before auditing.
        system.sim.run(until=max(system.sim.now, 90.0) + 30.0)

        point.makespan = system.sim.now
        point.migrated_bytes = system.master.migrated_bytes()
        if chaos:
            point.faults_fired = len(injector.log)

        analyzer = TraceAnalyzer(tracer.events)
        latencies = analyzer.binding_latencies()
        point.n_bindings = len(latencies)
        if latencies:
            point.binding_p50 = float(np.percentile(latencies, 50))
            point.binding_p99 = float(np.percentile(latencies, 99))
        depths = [depth for _, depth in analyzer.queue_depth_series()]
        if depths:
            point.queue_depth_mean = float(np.mean(depths))
            point.queue_depth_max = int(max(depths))

        checker = TraceInvariants(tracer.events)
        point.violations.extend(checker.violations())
        point.violations.extend(checker.shard_violations())
    return point


def run(seed: int = 0, chaos: bool = True) -> ShardSweepResult:
    """The full sweep over :data:`SHARD_COUNTS`."""
    result = ShardSweepResult(seed=seed)
    for shards in SHARD_COUNTS:
        result.points.append(run_point(shards, seed=seed, chaos=chaos))
    return result


def report(result: ShardSweepResult) -> str:
    lines = [
        "shard sweep: binding latency vs shard count "
        f"(pull service {PULL_SERVICE_COST * 1000:.0f} ms/record)",
        "=" * 72,
        f"{'shards':>6s} {'binds':>6s} {'p50':>8s} {'p99':>8s} "
        f"{'depth µ':>8s} {'depth max':>9s} {'migrated':>9s} {'t_end':>8s}",
    ]
    for p in result.points:
        lines.append(
            f"{p.shards:6d} {p.n_bindings:6d} {p.binding_p50:7.2f}s "
            f"{p.binding_p99:7.2f}s {p.queue_depth_mean:8.2f} "
            f"{p.queue_depth_max:9d} {p.migrated_bytes / GB:6.2f} GB "
            f"{p.makespan:7.1f}s"
        )
        for v in p.violations:
            lines.append(f"    ! {v}")
    lines.append("-" * 72)
    lines.append(
        f"p99 binding-latency speedup (1 shard / {max(SHARD_COUNTS)} shards): "
        f"{result.p99_speedup:.2f}x"
    )
    lines.append("PASS" if result.ok else "FAIL: invariant violations")
    return "\n".join(lines)
