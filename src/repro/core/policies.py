"""Pending-queue ordering policies.

"DYRS schedules migrations using a First-In-First-Out (FIFO) policy.
In future work, we plan to explore how alternative policies ... can
improve performance" (§III).  FIFO is the paper's behaviour; the other
policies implement that future work and feed the policy ablation
bench.

A policy is a pure ordering function over pending records; the master
applies it before each targeting pass, so policies compose with (and
never bypass) the bandwidth-aware binding machinery.

Policies whose sort key is a pure function of the single record
(``subset_stable = True``) commute with filtering: ordering a subset
gives the same relative order as filtering an ordered whole.  The
master's per-target pull index relies on this to serve a pull from
one target bucket instead of re-sorting the entire pending map;
policies whose key depends on the whole input set (smallest-job-first
computes per-job remaining bytes over everything it is given) must
leave it False and take the legacy full-scan path.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.core.records import MigrationRecord

__all__ = [
    "MigrationPolicy",
    "FifoPolicy",
    "LifoPolicy",
    "SmallestJobFirstPolicy",
]


class MigrationPolicy(Protocol):
    """Orders pending migrations for targeting and binding."""

    def order(
        self, pending: Sequence[MigrationRecord]
    ) -> list[MigrationRecord]:
        """Return records in the order they should be served."""
        ...  # pragma: no cover - protocol


class FifoPolicy:
    """The paper's policy: serve in request order."""

    subset_stable = True

    def order(self, pending: Sequence[MigrationRecord]) -> list[MigrationRecord]:
        return sorted(pending, key=lambda r: (r.requested_at, r.block_id))


class LifoPolicy:
    """Newest request first (a deliberately bad contrast case)."""

    subset_stable = True

    def order(self, pending: Sequence[MigrationRecord]) -> list[MigrationRecord]:
        return sorted(pending, key=lambda r: (-r.requested_at, r.block_id))


class SmallestJobFirstPolicy:
    """Serve blocks of the job with the least remaining pending bytes.

    A shortest-job-first analogue: small jobs complete their migrations
    quickly and free memory early; ties fall back to FIFO.  Requires a
    ``job_of`` mapping from block id to job id.
    """

    #: The key ranks a record by its *job's* total pending bytes, a
    #: property of the whole input set -- ordering a per-target subset
    #: can disagree with filtering the globally-ordered list, so the
    #: pull index must not be used with this policy.
    subset_stable = False

    def __init__(self, job_of: Callable[[int], str]) -> None:
        self.job_of = job_of

    def order(self, pending: Sequence[MigrationRecord]) -> list[MigrationRecord]:
        remaining: dict[str, float] = {}
        for record in pending:
            job = self.job_of(record.block_id)
            remaining[job] = remaining.get(job, 0.0) + record.block.size
        return sorted(
            pending,
            key=lambda r: (
                remaining[self.job_of(r.block_id)],
                r.requested_at,
                r.block_id,
            ),
        )
