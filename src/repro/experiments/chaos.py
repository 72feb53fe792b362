"""Chaos soak: seeded fault campaigns with invariant gating.

Not a paper figure -- this is the test harness that keeps the §III-C
failure semantics honest.  Each case stands up one scheme x workload
pair, arms a :class:`~repro.core.failures.ChaosCampaign` sampled from
the case seed, runs the workload to completion, lets every scheduled
recovery fire, and then audits three independent layers:

* the stream-order **trace invariants** (delayed binding, per-disk
  serialization, read safety, eviction hygiene), shard legs, and tier
  moves (no block resident in zero tiers, no archive copy without a
  checksum, replica conservation);
* the **liveness ledger** (every pending record terminates; migrated
  bytes are conserved against the actual pinned total);
* the **quiesce state** (no non-terminal records, no directory entry
  without a live pin, no pin without a directory entry).

A campaign passes only if all three report nothing.  The CLI exposes
this as ``dyrs-bench chaos`` / ``dyrs-bench --chaos SEED``; CI runs a
fixed-seed subset on every push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.failures import ChaosCampaign, ChaosFault, FailureInjector, \
    quiesce_violations
from repro.experiments.common import PaperSetup, build_system
from repro.obs import trace as obs
from repro.obs.invariants import TraceInvariants
from repro.units import GB, MB

__all__ = ["ChaosCaseResult", "run_case", "run", "report", "DEFAULT_SCHEMES"]

#: CI default: the paper scheme, one push-binding baseline, and the
#: ``dyrs-lifecycle`` preset (whose campaigns add the archive fault
#: kinds); the soak test suite widens this to the other presets.
DEFAULT_SCHEMES = ("dyrs", "ignem", "dyrs-lifecycle")
DEFAULT_WORKLOADS = ("sort", "swim", "aging")

#: DYRS overrides for chaos runs: none.  A pull leg needs no timeout
#: to survive partitions and delay spikes (a blackholed leg ends at
#: once; a slow one holds only its own window slot).  Kept only
#: because the repository benchmark (``bench/workloads.py``) imports it.
CHAOS_DYRS_OVERRIDES: dict = {}

#: Compressed temperature timescales for the lifecycle preset: data
#: must cool to COLD and cross the archive threshold *inside* the
#: CI-sized chaos horizon, or the archive faults have nothing to hit.
CHAOS_TIER_OVERRIDES = {
    "lifecycle_interval": 5.0,
    "hot_age": 10.0,
    "cold_age": 25.0,
    "archive_age": 45.0,
}


@dataclass
class ChaosCaseResult:
    """Outcome of one scheme x workload x seed chaos run."""

    scheme: str
    workload: str
    seed: int
    plan: list[ChaosFault] = field(default_factory=list)
    injections: int = 0
    violations: list[str] = field(default_factory=list)
    migrated_bytes: float = 0.0
    sim_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _submit_workload(system, workload: str, seed: int):
    """Build a small (CI-sized) job list for ``workload``."""
    if workload == "sort":
        from repro.workloads.sort import sort_job

        return [
            sort_job(system, size=1536 * MB, job_id="chaos-sort-0"),
            sort_job(
                system, size=1024 * MB, job_id="chaos-sort-1", submit_time=20.0
            ),
        ]
    if workload == "swim":
        from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs

        descriptors = generate_swim_workload(
            system.cluster.rngs.stream("chaos.swim"),
            n_jobs=8,
            total_input=4 * GB,
            max_input=1536 * MB,
            # Two large jobs so the tail-rescaling step has a tail.
            small_fraction=0.75,
            mean_interarrival=4.0,
        )
        return materialize_swim_jobs(system, descriptors)
    if workload == "aging":
        from repro.workloads.aging import (
            generate_aging_workload,
            materialize_aging_jobs,
        )

        descriptors = generate_aging_workload(
            system.cluster.rngs.stream("chaos.aging"),
            n_datasets=4,
            dataset_size=768 * MB,
            hot_reads=2,
            hot_window=15.0,
            cold_gap=50.0,
            reheat_fraction=0.5,
        )
        return materialize_aging_jobs(system, descriptors)
    raise ValueError(f"unknown chaos workload: {workload!r}")


def run_case(
    scheme: str,
    workload: str,
    seed: int,
    n_faults: int = 6,
    horizon: float = 120.0,
) -> ChaosCaseResult:
    """One seeded campaign; returns the audited result."""
    result = ChaosCaseResult(scheme=scheme, workload=workload, seed=seed)
    with obs.tracing() as tracer:
        tier_overrides = (
            dict(CHAOS_TIER_OVERRIDES) if scheme == "dyrs-lifecycle" else {}
        )
        system = build_system(
            PaperSetup(
                scheme=scheme,
                seed=seed,
                interference="none",
                tier_overrides=tier_overrides,
                # Sharded campaigns run a real federation so the
                # shard-crash fault has partitions worth losing.
                shards=4 if scheme in ("dyrs-sharded", "dyrs-sharded-async") else 1,
            )
        )
        master = system.master
        injector = FailureInjector(system.cluster, master=master)
        campaign = ChaosCampaign(
            injector, seed=seed, horizon=horizon, n_faults=n_faults
        )
        result.plan = campaign.arm()
        jobs = _submit_workload(system, workload, seed)
        system.runtime.run_to_completion(jobs)
        # Let every scheduled recovery/restore fire and the reclaim +
        # retarget loops drain before auditing: nothing may be judged
        # mid-outage.
        grace = 30.0
        system.sim.run(until=max(system.sim.now, horizon) + grace)
        # The lifecycle mover serializes archive moves over one shared
        # fabric link, so demotes queued late in the run can outlive
        # the grace window.  Give them bounded extra time: each block
        # archives at most once, so the queue converges.  (No sim time
        # passes between the final check and the audit below.)
        live_moves = getattr(master, "live_moves", None)
        deadline = system.sim.now + 10 * grace
        while live_moves is not None and system.sim.now < deadline and live_moves():
            system.sim.run(until=system.sim.now + grace / 3)

        result.injections = len(injector.log)
        result.sim_time = system.sim.now
        if master is not None:
            result.migrated_bytes = master.migrated_bytes()

        checker = TraceInvariants(tracer.events)
        result.violations.extend(checker.violations())
        result.violations.extend(checker.shard_violations())
        result.violations.extend(checker.lifecycle_violations())
        result.violations.extend(
            checker.liveness_violations(
                final_memory_bytes=system.cluster.total_memory_used()
            )
        )
        if master is not None:
            result.violations.extend(quiesce_violations(master))
    return result


def run(
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    n_faults: int = 6,
) -> list[ChaosCaseResult]:
    """A campaign sweep: every scheme x workload over each seed.

    ``seeds`` overrides the single ``seed`` (the CLI passes
    ``--seed``); each case derives its own fault schedule and workload
    from the combined (seed, scheme, workload) identity via the system
    seed, so cases are independent and individually replayable.
    """
    chosen = list(seeds) if seeds is not None else [seed]
    results: list[ChaosCaseResult] = []
    for s in chosen:
        for scheme in schemes:
            for workload in workloads:
                results.append(run_case(scheme, workload, s, n_faults=n_faults))
    return results


def report(results: list[ChaosCaseResult]) -> str:
    """Render the sweep outcome; one line per case plus verdict."""
    lines = ["chaos campaign results", "=" * 70]
    bad = 0
    for r in results:
        status = "ok" if r.ok else f"{len(r.violations)} VIOLATION(S)"
        lines.append(
            f"{r.scheme:12s} {r.workload:5s} seed={r.seed:<4d} "
            f"faults={len(r.plan)} fired={r.injections:<3d} "
            f"migrated={r.migrated_bytes / GB:6.2f} GB "
            f"t_end={r.sim_time:7.1f}s  {status}"
        )
        for v in r.violations:
            bad += 1
            lines.append(f"    ! {v}")
    lines.append("-" * 70)
    if bad:
        lines.append(f"FAIL: {bad} invariant violation(s) across {len(results)} case(s)")
    else:
        lines.append(f"PASS: {len(results)} case(s), zero invariant violations")
    return "\n".join(lines)
