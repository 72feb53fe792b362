"""Lifecycle experiment: the archive tier under an aging workload.

Not a paper figure -- this exercises the extension of
:mod:`repro.lifecycle`.  One aging workload (hot datasets that cool
past the COLD threshold, half of them flash-re-heated later) runs under
the paper's scheme and two storage-ladder presets
(:data:`~repro.experiments.common.PRESETS`):

* ``dyrs`` -- the paper's system; no tiers, the control;
* ``dyrs-tiered`` -- SSD tier but no archive (cold data squats on
  disk forever);
* ``dyrs-lifecycle`` -- the full ladder: cold data demoted to the
  fabric archive with checksummed moves and lowered replication,
  restored (re-replicated first) on re-heat.

Temperature timescales are compressed (seconds, not days) so the whole
lifecycle fits a CI-sized run; the *ratios* between hot/cold/archive
ages match what an operator would set in days.

The report shows per-scheme job timings plus the lifecycle ledger:
blocks archived/restored, the archive hit ratio, re-heat promotion
latency, and bytes moved along each tier edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import PaperSetup, build_system
from repro.units import GB, MB

__all__ = ["LifecycleResult", "SchemeOutcome", "run", "report", "TIER_OVERRIDES"]

#: Compressed temperature timescales (shared shape with the chaos
#: soak's overrides): HOT < 10 s since last access, COLD past 25 s,
#: archived past 45 s.
TIER_OVERRIDES = {
    "lifecycle_interval": 5.0,
    "hot_age": 10.0,
    "cold_age": 25.0,
}
ARCHIVE_AGE = 45.0

SCHEMES = ("dyrs", "dyrs-tiered", "dyrs-lifecycle")


@dataclass
class SchemeOutcome:
    """Per-scheme aggregate of the identical aging workload."""

    scheme: str
    n_jobs: int = 0
    makespan: float = 0.0
    mean_job_duration: float = 0.0
    reheat_job_mean: float = 0.0


@dataclass
class LifecycleResult:
    """Everything the lifecycle report and benchmark need."""

    seed: int
    outcomes: dict[str, SchemeOutcome] = field(default_factory=dict)
    # Ledger of the dyrs-lifecycle run:
    archived_blocks: int = 0
    restored_blocks: int = 0
    corrupt_moves: int = 0
    reheat_latencies: list[float] = field(default_factory=list)
    #: (source, dest) -> bytes moved along that tier edge.
    tier_bytes: dict = field(default_factory=dict)
    #: tier name -> bytes resident at quiesce.
    resident_bytes: dict = field(default_factory=dict)

    @property
    def archive_hit_ratio(self) -> float:
        """Fraction of archived blocks that were wanted again."""
        if not self.archived_blocks:
            return 0.0
        return self.restored_blocks / self.archived_blocks

    @property
    def mean_reheat_latency(self) -> float:
        if not self.reheat_latencies:
            return 0.0
        return sum(self.reheat_latencies) / len(self.reheat_latencies)


def _tier_overrides(scheme: str) -> dict:
    if scheme == "dyrs":
        return {}
    overrides = dict(TIER_OVERRIDES)
    if scheme == "dyrs-lifecycle":
        overrides["archive_age"] = ARCHIVE_AGE
    return overrides


def _drain_lifecycle(system) -> None:
    """Let queued archive moves finish (each block archives at most
    once, so the mover's queue converges)."""
    live_moves = getattr(system.master, "live_moves", None)
    deadline = system.sim.now + 300.0
    while live_moves is not None and system.sim.now < deadline and live_moves():
        system.sim.run(until=system.sim.now + 10.0)


def run(
    seed: int = 0,
    n_datasets: int = 5,
    dataset_size: float = 768 * MB,
    cold_gap: float = 110.0,
    reheat_fraction: float = 0.5,
) -> LifecycleResult:
    """Run the aging workload under all three schemes."""
    from repro.workloads.aging import (
        generate_aging_workload,
        materialize_aging_jobs,
    )

    result = LifecycleResult(seed=seed)
    for scheme in SCHEMES:
        system = build_system(
            PaperSetup(
                scheme=scheme,
                seed=seed,
                interference="none",
                tier_overrides=_tier_overrides(scheme),
            )
        )
        descriptors = generate_aging_workload(
            system.cluster.rngs.stream("lifecycle.aging"),
            n_datasets=n_datasets,
            dataset_size=dataset_size,
            hot_reads=2,
            hot_window=20.0,
            cold_gap=cold_gap,
            reheat_fraction=reheat_fraction,
        )
        jobs = materialize_aging_jobs(system, descriptors)
        system.runtime.run_to_completion(jobs)
        _drain_lifecycle(system)

        reheat_ids = {
            f"{d.name}-read{len(d.read_times)}" for d in descriptors if d.reheats
        }
        durations: list[float] = []
        reheat_durations: list[float] = []
        finished: list[float] = []
        for job_id, metrics in system.metrics.jobs.items():
            if metrics.duration is None:
                continue
            durations.append(metrics.duration)
            finished.append(metrics.finished_at)
            if job_id in reheat_ids:
                reheat_durations.append(metrics.duration)
        outcome = SchemeOutcome(scheme=scheme, n_jobs=len(durations))
        if durations:
            outcome.makespan = max(finished)
            outcome.mean_job_duration = sum(durations) / len(durations)
        if reheat_durations:
            outcome.reheat_job_mean = sum(reheat_durations) / len(reheat_durations)
        result.outcomes[scheme] = outcome

        if scheme == "dyrs-lifecycle":
            master = system.master
            result.archived_blocks = master.archived_blocks
            result.restored_blocks = master.restored_blocks
            result.corrupt_moves = master.corrupt_moves
            result.reheat_latencies = list(master.reheat_latencies)
            result.tier_bytes = dict(master.tier_bytes)
            resident = {"memory": 0.0, "ssd": 0.0, "archive": 0.0}
            for node in system.cluster.nodes:
                resident["memory"] += node.memory.used
                if node.ssd is not None:
                    resident["ssd"] += node.ssd.used
                if node.archive is not None:
                    resident["archive"] += node.archive.used
            result.resident_bytes = resident
    return result


def report(result: LifecycleResult) -> str:
    """Render the comparison plus the lifecycle ledger."""
    lines = [
        "lifecycle: aging workload across the storage ladder",
        "=" * 66,
        f"{'scheme':16s} {'jobs':>4s} {'makespan':>9s} {'mean job':>9s} "
        f"{'re-heat job':>11s}",
    ]
    for scheme, o in result.outcomes.items():
        reheat = f"{o.reheat_job_mean:10.1f}s" if o.reheat_job_mean else "          -"
        lines.append(
            f"{scheme:16s} {o.n_jobs:4d} {o.makespan:8.1f}s "
            f"{o.mean_job_duration:8.1f}s {reheat}"
        )
    lines.append("-" * 66)
    lines.append(
        f"archive ledger (dyrs-lifecycle): {result.archived_blocks} archived, "
        f"{result.restored_blocks} restored "
        f"(hit ratio {result.archive_hit_ratio:.2f}), "
        f"{result.corrupt_moves} corrupt move(s)"
    )
    if result.reheat_latencies:
        lines.append(
            f"re-heat promotion latency: mean {result.mean_reheat_latency:.1f}s, "
            f"max {max(result.reheat_latencies):.1f}s "
            f"over {len(result.reheat_latencies)} restore(s)"
        )
    for (source, dest), nbytes in sorted(result.tier_bytes.items()):
        if nbytes:
            lines.append(f"moved {source:>7s} -> {dest:7s} {nbytes / GB:7.2f} GB")
    resident = result.resident_bytes
    if resident:
        lines.append(
            "resident at quiesce: "
            + ", ".join(
                f"{tier} {nbytes / MB:.0f} MB" for tier, nbytes in resident.items()
            )
        )
    return "\n".join(lines)
